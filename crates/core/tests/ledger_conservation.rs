//! End-to-end conservation of the time-attribution ledger.
//!
//! For every profiled cell of the Figure 1 and Table 5 scenarios — which
//! between them cover all four thread models (Topaz kernel threads,
//! Ultrix processes, original FastThreads, scheduler activations), both
//! uni- and multiprogrammed, CPU- and I/O-bound — the ledger must
//! account for every CPU-nanosecond exactly: each CPU's states sum to
//! the makespan, and per-space rollups plus unattributed kernel time
//! reproduce the per-CPU totals. The critical-path walk over the same
//! runs must likewise attribute exactly the makespan.
//!
//! Host parallelism must not perturb any of it: rendering the same
//! profile at one and at four worker threads must be byte-identical.

use sa_core::profile::{render_folded, render_json, render_table, run_profile, Profile};
use sa_core::scenario::PolicyConfig;
use sa_sim::CpuState;
use std::num::NonZeroUsize;

fn check_conservation(p: &Profile) {
    assert!(!p.cells.is_empty());
    for cell in &p.cells {
        let makespan = cell.makespan.as_nanos();
        assert!(makespan > 0, "{}: empty run", cell.label);

        // Per-CPU exactness: each CPU's exclusive states sum to the
        // makespan, nanosecond for nanosecond.
        for cpu in 0..cell.ledger.num_cpus() {
            assert_eq!(
                cell.ledger.cpu_total_ns(cpu),
                makespan,
                "{}: cpu{cpu} does not sum to the makespan",
                cell.label
            );
        }

        // Rollup consistency: spaces + unattributed == CPUs, per state.
        for state in CpuState::ALL {
            let spaces: u64 = (0..cell.ledger.num_spaces())
                .map(|s| cell.ledger.space_ns(s, state))
                .sum();
            assert_eq!(
                spaces + cell.ledger.unattributed_ns(state),
                cell.ledger.total_ns(state),
                "{}: state {} rollup mismatch",
                cell.label,
                state.name()
            );
        }

        // The structural invariant checker agrees.
        cell.ledger
            .verify(cell.makespan)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.label));

        // The critical path explains the whole makespan, exactly.
        assert!(!cell.path.truncated, "{}: truncated path", cell.label);
        assert_eq!(
            cell.path.attributed_ns(),
            makespan,
            "{}: critical path does not sum to the makespan",
            cell.label
        );
    }
}

#[test]
fn fig1_cells_conserve_time_exactly() {
    let p = run_profile("fig1", PolicyConfig::default(), NonZeroUsize::MIN).expect("fig1 profile");
    assert_eq!(p.cells.len(), 3, "three thread systems");
    check_conservation(&p);
}

/// Conservation is a property of the *mechanism*, so it must hold under
/// every allocation × ready-queue policy pair, and so must job-count
/// invisibility: each combo's profile rendered at one and at four worker
/// threads must be byte-identical.
#[test]
fn fig1_conserves_time_under_every_policy_pair() {
    for policies in PolicyConfig::all() {
        let serial = run_profile("fig1", policies, NonZeroUsize::MIN)
            .unwrap_or_else(|e| panic!("fig1 profile under {policies}: {e}"));
        assert_eq!(serial.cells.len(), 3, "{policies}: three thread systems");
        check_conservation(&serial);
        let parallel = run_profile("fig1", policies, NonZeroUsize::new(4).unwrap())
            .unwrap_or_else(|e| panic!("fig1 profile under {policies}: {e}"));
        assert_eq!(
            render_table(&serial),
            render_table(&parallel),
            "{policies}: table rendering differs across job counts"
        );
        assert_eq!(
            render_json(&serial),
            render_json(&parallel),
            "{policies}: json rendering differs across job counts"
        );
    }
}

#[test]
fn table5_cells_conserve_time_exactly() {
    let p =
        run_profile("table5", PolicyConfig::default(), NonZeroUsize::MIN).expect("table5 profile");
    // Three multiprogrammed systems + four I/O-bound single-CPU models.
    assert_eq!(p.cells.len(), 7);
    check_conservation(&p);
    // The diagnostic column tells the paper's story mechanically: under
    // Ultrix processes the machine spends most of its capacity in kernel
    // paths and blocked I/O stalls; under scheduler activations the same
    // workload's capacity is dominated by user work with no idle time.
    let ultrix = p
        .cells
        .iter()
        .find(|c| c.label.starts_with("Ultrix processes / io-bound"))
        .expect("ultrix cell");
    let sa = p
        .cells
        .iter()
        .find(|c| c.label.starts_with("new FastThrds / io-bound"))
        .expect("sa cell");
    let capacity = |c: &sa_core::profile::ProfileCell, s: CpuState| c.ledger.total_ns(s);
    assert!(
        capacity(ultrix, CpuState::Kernel) > capacity(ultrix, CpuState::User),
        "ultrix io-bound should be kernel-dominated"
    );
    assert!(
        capacity(sa, CpuState::User) > capacity(sa, CpuState::Kernel),
        "scheduler activations should reclaim the time as user work"
    );
    assert!(
        capacity(sa, CpuState::User) * ultrix.makespan.as_nanos()
            > capacity(ultrix, CpuState::User) * sa.makespan.as_nanos(),
        "scheduler activations should have the higher user-work share"
    );
}

#[test]
fn profiles_are_identical_at_any_job_count() {
    for scenario in ["fig1", "table5"] {
        let policies = PolicyConfig::default();
        let serial = run_profile(scenario, policies, NonZeroUsize::MIN).expect(scenario);
        let parallel =
            run_profile(scenario, policies, NonZeroUsize::new(4).unwrap()).expect(scenario);
        assert_eq!(
            render_table(&serial),
            render_table(&parallel),
            "{scenario}: table rendering differs across job counts"
        );
        assert_eq!(
            render_folded(&serial),
            render_folded(&parallel),
            "{scenario}: folded rendering differs across job counts"
        );
        assert_eq!(
            render_json(&serial),
            render_json(&parallel),
            "{scenario}: json rendering differs across job counts"
        );
    }
}
