//! Whole-system determinism: two runs with the same seed must produce
//! bit-identical traces and timings. This is the property the engine's
//! hot-path data structures (timing-wheel event queue, tombstoned ready
//! queue) must preserve — every pop is the unique minimum `(time, seq)`,
//! so no internal reorganisation may change observable order.

use sa_core::experiments::nbody_run;
use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_machine::{ComputeBody, CostModel};
use sa_sim::{SimDuration, Trace, TraceRecord};
use sa_workload::nbody::NBodyConfig;

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
