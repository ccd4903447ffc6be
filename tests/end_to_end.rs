//! Workspace-level end-to-end tests: the headline results of the paper as
//! assertions, run through the top-level crate's public API.

use scheduler_activations::experiments::{
    run_cells, thread_op_latencies, topaz_signal_wait, upcall_signal_wait, NBodyCell, NBodyRun,
};
use scheduler_activations::machine::CostModel;
use scheduler_activations::scenario::{fig1_cells, fig2_cells, table5_cells};
use scheduler_activations::uthread::CriticalSectionMode;
use scheduler_activations::{PolicyConfig, ThreadApi};
use std::num::NonZeroUsize;

fn pct_of(measured: f64, paper: f64) -> f64 {
    (measured - paper).abs() / paper * 100.0
}

/// Runs `cells` serially.
fn run(cells: &[NBodyCell]) -> Vec<NBodyRun> {
    run_cells(cells, NonZeroUsize::MIN).expect("every cell finishes")
}

#[test]
fn table1_and_table4_latencies_match_the_paper() {
    let cost = CostModel::firefly_prototype();
    // (api, critical mode, paper NullFork, paper SignalWait)
    let rows: Vec<(ThreadApi, CriticalSectionMode, f64, f64)> = vec![
        (
            ThreadApi::OrigFastThreads { vps: 1 },
            CriticalSectionMode::ZeroOverhead,
            34.0,
            37.0,
        ),
        (
            ThreadApi::SchedulerActivations { max_processors: 1 },
            CriticalSectionMode::ZeroOverhead,
            37.0,
            42.0,
        ),
        (
            ThreadApi::SchedulerActivations { max_processors: 1 },
            CriticalSectionMode::ExplicitFlag,
            49.0,
            48.0,
        ),
        (
            ThreadApi::TopazThreads,
            CriticalSectionMode::ZeroOverhead,
            948.0,
            441.0,
        ),
        (
            ThreadApi::UltrixProcesses,
            CriticalSectionMode::ZeroOverhead,
            11300.0,
            1840.0,
        ),
    ];
    for (api, critical, nf, sw) in rows {
        let r = thread_op_latencies(api.clone(), cost.clone(), critical);
        assert!(
            pct_of(r.null_fork.as_micros_f64(), nf) < 5.0,
            "{api:?} Null Fork {} vs paper {nf}",
            r.null_fork
        );
        assert!(
            pct_of(r.signal_wait.as_micros_f64(), sw) < 5.0,
            "{api:?} Signal-Wait {} vs paper {sw}",
            r.signal_wait
        );
    }
}

#[test]
fn upcall_performance_matches_section_5_2() {
    let proto = upcall_signal_wait(CostModel::firefly_prototype());
    let topaz = topaz_signal_wait(CostModel::firefly_prototype());
    // "The signal-wait time is 2.4 milliseconds, a factor of five worse
    // than Topaz threads."
    assert!(
        pct_of(proto.as_micros_f64(), 2400.0) < 10.0,
        "prototype upcall signal-wait {proto}"
    );
    let ratio = proto.as_micros_f64() / topaz.as_micros_f64();
    assert!(
        (4.0..7.0).contains(&ratio),
        "prototype/Topaz ratio {ratio:.1}, paper ~5"
    );
    // A tuned implementation is commensurate with Topaz kernel threads.
    let tuned = upcall_signal_wait(CostModel::tuned());
    assert!(
        tuned.as_micros_f64() < 1.5 * topaz.as_micros_f64(),
        "tuned upcall {tuned} not commensurate with Topaz {topaz}"
    );
}

#[test]
fn figure1_shape_holds_at_six_processors() {
    // The baseline, then the one- and six-processor rows.
    let mut cells = fig1_cells(6, PolicyConfig::default());
    cells.drain(4..16);
    let runs = run(&cells);
    let s: Vec<f64> = runs[1..].iter().map(|r| r.speedup_over(&runs[0])).collect();
    let [topaz1, ft1, sa1, topaz6, ft6, sa6] = s[..] else {
        unreachable!("two rows of three systems");
    };
    // One processor: everything below the sequential baseline.
    assert!(topaz1 < 1.0 && ft1 < 1.0 && sa1 < 1.0);
    assert!(topaz1 < ft1, "Topaz overhead not visible at 1 cpu");
    // Six processors: the user-level systems sit far above Topaz, which
    // flattens out (paper: ~2-2.5 vs near-linear).
    assert!(topaz6 < 3.3, "Topaz did not flatten: {topaz6:.2}");
    assert!(ft6 > 3.7, "orig FastThreads too slow: {ft6:.2}");
    assert!(sa6 > 3.7, "new FastThreads too slow: {sa6:.2}");
    assert!(
        ft6 > topaz6 + 1.0 && sa6 > topaz6 + 1.0,
        "user-level systems not clearly above Topaz: {ft6:.2}/{sa6:.2} vs {topaz6:.2}"
    );
}

#[test]
fn figure2_shape_orig_fastthreads_degrades_fastest() {
    let runs = run(&fig2_cells(6, &[1.0, 0.5], PolicyConfig::default()));
    let e: Vec<_> = runs.iter().map(|r| r.elapsed).collect();
    let [_topaz_full, orig_full, sa_full, topaz_low, orig_low, sa_low] = e[..] else {
        unreachable!("two rows of three systems");
    };
    // Original FastThreads loses a physical processor for every blocked
    // thread; its degradation dwarfs the others'.
    let orig_slowdown = orig_low.as_nanos() as f64 / orig_full.as_nanos() as f64;
    let sa_slowdown = sa_low.as_nanos() as f64 / sa_full.as_nanos() as f64;
    assert!(
        orig_slowdown > 3.0 * sa_slowdown,
        "orig {orig_slowdown:.1}x vs sa {sa_slowdown:.1}x"
    );
    // The overlapping systems stay within a small factor of each other.
    let ratio = sa_low.as_nanos() as f64 / topaz_low.as_nanos() as f64;
    assert!(
        (0.4..1.6).contains(&ratio),
        "new FastThreads vs Topaz at 50%: {ratio:.2}"
    );
}

#[test]
fn table5_multiprogramming_shape() {
    let runs = run(&table5_cells(6, PolicyConfig::default()));
    let s: Vec<f64> = runs[1..].iter().map(|r| r.speedup_over(&runs[0])).collect();
    let [topaz, orig, sa] = s[..] else {
        unreachable!("three systems");
    };
    // Paper: 1.29 / 1.26 / 2.45 of a maximum 3. The ordering and the
    // big SA gap are the result; exact values are calibration.
    assert!(sa > 2.2, "new FastThreads multiprogrammed speedup {sa:.2}");
    assert!(sa > orig + 0.6, "SA {sa:.2} vs orig {orig:.2}");
    assert!(sa > topaz + 0.6, "SA {sa:.2} vs topaz {topaz:.2}");
    assert!(topaz < 2.2 && orig < 2.2);
    assert!(sa <= 3.0 + 1e-9);
}
