//! Heap-allocation budget of the paper's N-body path.
//!
//! A counting global allocator (std only) measures heap allocations per
//! kernel event over Figure 1's 6-processor N-body cell under each of the
//! three thread systems. The kernel lends one kick buffer to every
//! runtime callback, and the application reuses its traversal buffers and
//! one per-step block list, so what is left is the thread bodies the
//! application forks, fresh TCB and kernel-thread rows, and the one-off
//! growth of the reused buffers. The budget pins that level: one
//! allocation put back per body traversal costs twice the margin, and
//! one per kick far more.
//!
//! The binary holds this one test so that no other test's allocations
//! land in the count.

use sa_core::scenario::systems;
use sa_core::{AppSpec, PolicyConfig, SystemBuilder};
use sa_kernel::DaemonSpec;
use sa_machine::CostModel;
use sa_sim::SimTime;
use sa_workload::nbody::{nbody_parallel, NBodyConfig};

mod counting;

/// Figure 1's largest row: six processors for the application on the
/// six-processor Firefly.
const CPUS: u16 = 6;

/// Allocations per kernel event each cell may make inside `System::run`,
/// in `systems` order (Topaz threads, original FastThreads, scheduler
/// activations). The cells make 0.0121 (3 695 over 305 163 events),
/// 0.0093 (2 795 over 300 716) and 0.0111 (3 396 over 304 630). The
/// application traverses 1 800 bodies, so one allocation per traversal
/// would add 0.006. With a fresh kick buffer per runtime callback and
/// fresh temporaries per traversal, the same cells made 0.060, 0.241 and
/// 0.237.
const MAX_ALLOCS_PER_EVENT: [f64; 3] = [0.015, 0.012, 0.014];

#[test]
fn fig1_cells_allocations_per_event_stay_within_budget() {
    let policies = PolicyConfig::default();
    for ((name, api), budget) in systems(u32::from(CPUS))
        .into_iter()
        .zip(MAX_ALLOCS_PER_EVENT)
    {
        let (body, handle) = nbody_parallel(NBodyConfig::default());
        let mut app = AppSpec::new("nbody-0", api, body);
        app.ready_policy = policies.ready;
        let mut sys = SystemBuilder::new(CPUS)
            .cost(CostModel::firefly_prototype())
            .seed(1)
            .alloc_policy(policies.alloc)
            .daemons(DaemonSpec::topaz_default_set())
            .run_limit(SimTime::from_millis(3_600_000))
            .app(app)
            .build();

        let before = counting::allocs();
        let report = sys.run();
        let allocs = counting::allocs() - before;

        assert!(report.all_done(), "{name}: {:?}", report.outcome);
        assert_eq!(handle.steps_done(), NBodyConfig::default().steps);
        let events = sys.kernel().kernel_metrics().events.get();
        let per_event = allocs as f64 / events as f64;
        assert!(
            per_event <= budget,
            "{name}: {allocs} heap allocations over {events} kernel events = \
             {per_event:.3}/event, over the budget of {budget}"
        );
    }
}
