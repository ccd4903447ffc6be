//! Whole-system determinism: two runs with the same seed must produce
//! bit-identical traces and timings. This is the property the engine's
//! hot-path data structures (timing-wheel event queue, tombstoned ready
//! queue) must preserve — every pop is the unique minimum `(time, seq)`,
//! so no internal reorganisation may change observable order. Observing
//! a run must not change it either: the optional sinks are pure readers.

use sa_core::experiments::nbody_run;
use sa_core::slo;
use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_kernel::{DaemonSpec, Kernel, KernelConfig, SpaceKindSpec, SpaceSpec};
use sa_machine::{ComputeBody, CostModel};
use sa_sim::span::SpanBook;
use sa_sim::{SimDuration, SimTime, Trace, TraceEvent, TraceRecord};
use sa_uthread::{FastThreads, FtConfig};
use sa_workload::nbody::{nbody_parallel, NBodyConfig};
use sa_workload::openloop::shard_listener;
use std::cell::RefCell;
use std::rc::Rc;

/// Runs a small Figure 1-shaped N-body system with tracing on and returns
/// the full trace plus the app's elapsed virtual time.
fn traced_nbody_run(seed: u64) -> (Vec<TraceRecord>, SimDuration) {
    let cfg = NBodyConfig {
        bodies: 40,
        steps: 2,
        ..NBodyConfig::default()
    };
    let (body, _handle) = sa_workload::nbody::nbody_parallel(cfg);
    let mut sys = SystemBuilder::new(6)
        .cost(CostModel::firefly_prototype())
        .seed(seed)
        .daemons(sa_kernel::DaemonSpec::topaz_default_set())
        .trace(Trace::bounded(200_000))
        .app(AppSpec::new(
            "nbody-det",
            ThreadApi::SchedulerActivations { max_processors: 6 },
            body,
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let records: Vec<TraceRecord> = sys.kernel().trace().records().cloned().collect();
    assert_eq!(
        sys.kernel().trace().dropped(),
        0,
        "trace buffer too small for a meaningful comparison"
    );
    (records, report.elapsed(0))
}

#[test]
fn same_seed_nbody_runs_are_identical() {
    let (trace_a, elapsed_a) = traced_nbody_run(42);
    let (trace_b, elapsed_b) = traced_nbody_run(42);
    assert_eq!(elapsed_a, elapsed_b);
    assert!(!trace_a.is_empty(), "tracing produced no records");
    assert_eq!(trace_a.len(), trace_b.len());
    // Compare element-wise so a mismatch reports the first divergence
    // rather than dumping both multi-thousand-record traces.
    for (i, (a, b)) in trace_a.iter().zip(&trace_b).enumerate() {
        assert_eq!(a, b, "traces diverge at record {i}");
    }
}

#[test]
fn different_seed_changes_io_timing_only_deterministically() {
    // Sanity check that the seed actually reaches the simulation: two
    // different seeds still complete, and each is self-reproducible.
    let (trace_a, _) = traced_nbody_run(1);
    let (trace_a2, _) = traced_nbody_run(1);
    assert_eq!(trace_a.len(), trace_a2.len());
    let (trace_b, _) = traced_nbody_run(2);
    let (trace_b2, _) = traced_nbody_run(2);
    assert_eq!(trace_b.len(), trace_b2.len());
}

#[test]
fn same_seed_compute_run_is_identical_across_apis() {
    // The cheaper smoke version used by CI: a pure-compute app under each
    // thread API, twice each, traces compared exactly.
    for api in [
        ThreadApi::TopazThreads,
        ThreadApi::OrigFastThreads { vps: 2 },
        ThreadApi::SchedulerActivations { max_processors: 2 },
    ] {
        let run = |seed: u64| {
            let mut sys = SystemBuilder::new(2)
                .cost(CostModel::firefly_prototype())
                .seed(seed)
                .trace(Trace::bounded(50_000))
                .app(AppSpec::new(
                    "det",
                    api.clone(),
                    Box::new(ComputeBody::new(SimDuration::from_millis(1))),
                ))
                .build();
            let report = sys.run();
            assert!(report.all_done(), "{api:?}: {:?}", report.outcome);
            sys.kernel()
                .trace()
                .records()
                .cloned()
                .collect::<Vec<TraceRecord>>()
        };
        assert_eq!(run(7), run(7), "nondeterminism under {api:?}");
    }
}

#[test]
fn nbody_run_reproducible_via_public_harness() {
    // The experiments-facade path (no tracing): same inputs, same virtual
    // time, byte for byte.
    let cfg = NBodyConfig {
        bodies: 30,
        steps: 1,
        ..NBodyConfig::default()
    };
    let api = ThreadApi::SchedulerActivations { max_processors: 4 };
    let a = nbody_run(
        api.clone(),
        4,
        cfg.clone(),
        CostModel::firefly_prototype(),
        1,
        9,
    );
    let b = nbody_run(api, 4, cfg, CostModel::firefly_prototype(), 1, 9);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.cache_misses, b.cache_misses);
}

/// A Table 5-shaped scheduler-activations cell — two N-body copies
/// sharing six processors — as a bare kernel with an unbounded trace, so
/// a test can drive [`Kernel::run_until`]. `daemons` adds the paper's
/// periodic kernel daemons and a `memory_fraction` below 1 its paging
/// I/O; with neither, the event queue is often empty while segments are
/// in flight.
fn table5_sa_kernel(daemons: bool, memory_fraction: f64) -> Kernel {
    let cfg = KernelConfig {
        cpus: 6,
        daemons: if daemons {
            DaemonSpec::topaz_default_set()
        } else {
            Vec::new()
        },
        seed: 1,
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(cfg, CostModel::firefly_prototype());
    k.set_trace(Trace::unbounded());
    for i in 0..2 {
        let (body, _handle) = nbody_parallel(NBodyConfig {
            bodies: 40,
            steps: 2,
            memory_fraction,
            seed: 42 + i,
            ..NBodyConfig::default()
        });
        k.add_space(SpaceSpec {
            name: format!("nbody-{i}"),
            priority: 1,
            kind: SpaceKindSpec::UserLevel {
                runtime: Box::new(FastThreads::new(FtConfig::scheduler_activations(6))),
                main: body,
            },
            mem_pages: None,
            start_at: SimTime::ZERO,
        });
    }
    k
}

#[test]
fn run_until_slices_reproduce_the_whole_run() {
    // Stopping and resuming must be invisible: the run cut at a grid of
    // limits — including exact segment-completion instants, where the
    // limit is inclusive, and the nanosecond before each — delivers the
    // same events in the same order as the run left alone. Every slice
    // ends timed out (never deadlocked: a CPU with a segment in flight is
    // pending work even when the event queue is empty) holding exactly
    // the whole run's trace records at or before its limit.
    for (daemons, memory_fraction) in [(true, 0.5), (false, 1.0)] {
        let cell = format!("daemons {daemons}, memory {memory_fraction}");
        let mut whole = table5_sa_kernel(daemons, memory_fraction);
        let out = whole.run();
        assert!(!out.timed_out && !out.deadlocked, "{cell}: {out:?}");
        let trace: Vec<TraceRecord> = whole.trace().records().cloned().collect();
        // A segment's trace record is stamped at its completion.
        let completions: Vec<SimTime> = trace
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::SegRun { .. }))
            .map(|r| r.at)
            .collect();
        assert!(completions.len() > 1_000, "{cell}: {}", completions.len());
        let mut limits: Vec<SimTime> = completions
            .iter()
            .step_by(61)
            .flat_map(|&t| [SimTime::from_nanos(t.as_nanos() - 1), t])
            .chain((1..40).map(|i| SimTime::from_nanos(out.end.as_nanos() / 40 * i)))
            .filter(|&t| t < out.end)
            .collect();
        limits.sort();
        limits.dedup();

        let mut sliced = table5_sa_kernel(daemons, memory_fraction);
        for &limit in &limits {
            let o = sliced.run_until(limit);
            assert!(
                o.timed_out && !o.deadlocked,
                "{cell}: slice to {limit}: {o:?}"
            );
            assert!(
                sliced.now() <= limit,
                "{cell}: slice to {limit} ran past it"
            );
            let upto = trace.partition_point(|r| r.at <= limit);
            assert_eq!(
                sliced.trace().records().count(),
                upto,
                "{cell}: slice to {limit} is not the run's prefix"
            );
        }
        let o = sliced.run();
        assert_eq!(
            (o.end, o.timed_out, o.deadlocked),
            (out.end, out.timed_out, out.deadlocked),
            "{cell}"
        );
        assert_eq!(
            sliced.kernel_metrics().events.get(),
            whole.kernel_metrics().events.get(),
            "{cell}: event counts"
        );
        let sliced_trace: Vec<TraceRecord> = sliced.trace().records().cloned().collect();
        assert_eq!(sliced_trace.len(), trace.len(), "{cell}");
        for (i, (a, b)) in sliced_trace.iter().zip(&trace).enumerate() {
            assert_eq!(a, b, "{cell}: traces diverge at record {i}");
        }
    }
}

/// A `slo_bursty` scheduler-activation kernel of `requests` requests
/// with an unbounded trace, built but not run. `observe` turns on every
/// optional sink: the windowed ledger, the decision log and the dwell
/// ledger.
fn slo_bursty_sa_kernel(requests: usize, observe: bool) -> Kernel {
    let profile = slo::find("slo_bursty").expect("registry profile");
    let mut cfg = profile.cfg.clone();
    cfg.requests = requests;
    let mut k = Kernel::new(
        KernelConfig {
            cpus: profile.cpus,
            daemons: DaemonSpec::topaz_default_set(),
            ..KernelConfig::default()
        },
        CostModel::firefly_prototype(),
    );
    k.set_trace(Trace::unbounded());
    if observe {
        k.enable_windowed_ledger(profile.window);
        k.enable_decision_log();
        k.enable_dwell_ledger();
    }
    let book = Rc::new(RefCell::new(SpanBook::with_capacity(requests)));
    for shard in 0..cfg.shards {
        k.add_space(SpaceSpec {
            name: format!("slo{shard}"),
            priority: 1,
            kind: SpaceKindSpec::UserLevel {
                runtime: Box::new(FastThreads::new(FtConfig::scheduler_activations(
                    profile.cpus as u32,
                ))),
                main: shard_listener(&cfg, shard, Rc::clone(&book)),
            },
            mem_pages: None,
            start_at: SimTime::ZERO,
        });
    }
    k
}

#[test]
fn observing_never_perturbs_a_run() {
    // The same cell with no optional sink and with all three: identical
    // outcomes, event counts and trace records. The records carry the
    // allocator's decision ids (`Grant`, `ActStop`), so a sink that
    // renumbered decisions would show here too.
    let mut plain = slo_bursty_sa_kernel(2_000, false);
    let mut observed = slo_bursty_sa_kernel(2_000, true);
    let (a, b) = (plain.run(), observed.run());
    assert!(!a.timed_out && !a.deadlocked, "{a:?}");
    assert_eq!(
        (a.end, a.timed_out, a.deadlocked),
        (b.end, b.timed_out, b.deadlocked)
    );
    assert_eq!(
        plain.kernel_metrics().events.get(),
        observed.kernel_metrics().events.get(),
        "event counts"
    );
    assert!(plain.decision_log().is_none() && plain.windowed_ledger().is_none());
    let log = observed.decision_log().expect("decision log enabled");
    assert!(
        log.decisions.len() > 1_000,
        "{} decisions",
        log.decisions.len()
    );
    assert!(observed.windowed_ledger().is_some() && observed.dwell_ledger().is_some());

    let trace_a: Vec<TraceRecord> = plain.trace().records().cloned().collect();
    let trace_b: Vec<TraceRecord> = observed.trace().records().cloned().collect();
    assert!(trace_a
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Grant { decision, .. } if decision > 0)));
    assert_eq!(trace_a.len(), trace_b.len(), "trace lengths");
    for (i, (a, b)) in trace_a.iter().zip(&trace_b).enumerate() {
        assert_eq!(a, b, "traces diverge at record {i}");
    }
}
