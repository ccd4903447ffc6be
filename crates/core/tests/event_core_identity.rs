//! Event-core observational equivalence at whole-system scale: the timing
//! wheel (default) and the indexed binary heap must drive byte-identical
//! runs — same trace records, same virtual timings — because the queue
//! contract is a unique total `(time, seq)` pop order that no conforming
//! core may perturb. The three-way micro-level proptests pin the queue API
//! itself; these tests pin the composition with the kernel's batch step
//! loop over the Figure 1- and Table 5-shaped scenarios.

use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_machine::CostModel;
use sa_sim::{EventCore, SimDuration, Trace, TraceRecord};
use sa_workload::nbody::NBodyConfig;

/// Runs a Figure 1-shaped system (one N-body app on scheduler activations,
/// six CPUs, Topaz daemons) on the given core and returns the full trace
/// plus per-app elapsed times.
fn fig1_run(core: EventCore, seed: u64) -> (Vec<TraceRecord>, Vec<Option<SimDuration>>) {
    let cfg = NBodyConfig {
        bodies: 40,
        steps: 2,
        ..NBodyConfig::default()
    };
    let (body, _handle) = sa_workload::nbody::nbody_parallel(cfg);
    let mut sys = SystemBuilder::new(6)
        .cost(CostModel::firefly_prototype())
        .seed(seed)
        .event_core(core)
        .daemons(sa_kernel::DaemonSpec::topaz_default_set())
        .trace(Trace::bounded(200_000))
        .app(AppSpec::new(
            "nbody-core-id",
            ThreadApi::SchedulerActivations { max_processors: 6 },
            body,
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{core:?}: {:?}", report.outcome);
    assert_eq!(sys.kernel().trace().dropped(), 0, "trace buffer too small");
    let records = sys.kernel().trace().records().cloned().collect();
    (records, report.elapsed)
}

/// Runs a Table 5-shaped system (two multiprogrammed copies of the N-body
/// app under `api`, six CPUs) on the given core.
fn table5_run(
    core: EventCore,
    api: ThreadApi,
    seed: u64,
) -> (Vec<TraceRecord>, Vec<Option<SimDuration>>) {
    let cfg = NBodyConfig {
        bodies: 30,
        steps: 1,
        ..NBodyConfig::default()
    };
    let mut builder = SystemBuilder::new(6)
        .cost(CostModel::firefly_prototype())
        .seed(seed)
        .event_core(core)
        .trace(Trace::bounded(200_000));
    for copy in 0..2 {
        let (body, _handle) = sa_workload::nbody::nbody_parallel(cfg.clone());
        builder = builder.app(AppSpec::new(format!("nbody-mp{copy}"), api.clone(), body));
    }
    let mut sys = builder.build();
    let report = sys.run();
    assert!(report.all_done(), "{core:?}/{api:?}: {:?}", report.outcome);
    assert_eq!(sys.kernel().trace().dropped(), 0, "trace buffer too small");
    let records = sys.kernel().trace().records().cloned().collect();
    (records, report.elapsed)
}

/// Element-wise comparison so a divergence reports the first differing
/// record instead of dumping both multi-thousand-record traces.
fn assert_identical(
    label: &str,
    wheel: (Vec<TraceRecord>, Vec<Option<SimDuration>>),
    indexed: (Vec<TraceRecord>, Vec<Option<SimDuration>>),
) {
    assert_eq!(wheel.1, indexed.1, "{label}: elapsed times diverge");
    assert!(!wheel.0.is_empty(), "{label}: tracing produced no records");
    for (i, (a, b)) in wheel.0.iter().zip(&indexed.0).enumerate() {
        assert_eq!(a, b, "{label}: traces diverge at record {i}");
    }
    assert_eq!(wheel.0.len(), indexed.0.len(), "{label}: trace lengths");
}

#[test]
fn fig1_scenario_trace_identical_across_cores() {
    assert_identical(
        "fig1",
        fig1_run(EventCore::Wheel, 42),
        fig1_run(EventCore::Indexed, 42),
    );
}

#[test]
fn table5_scenario_trace_identical_across_cores() {
    for api in [
        ThreadApi::SchedulerActivations { max_processors: 6 },
        ThreadApi::OrigFastThreads { vps: 3 },
    ] {
        assert_identical(
            "table5",
            table5_run(EventCore::Wheel, api.clone(), 9),
            table5_run(EventCore::Indexed, api, 9),
        );
    }
}
