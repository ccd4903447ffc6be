//! Heap-allocation budget of the scheduler-activation control path.
//!
//! A counting global allocator (std only) measures heap allocations per
//! kernel event over one 3 000-request `slo_bursty` scheduler-activation
//! cell with the windowed-metrics and decision-audit sinks on: the
//! allocator- and upcall-heavy cell of `sa-experiments slo`. The kernel's
//! allocator decisions and notifications reuse their buffers, so what is
//! left is per-request work (forked thread bodies, fresh TCB rows, span
//! records) and the amortized growth of the sinks. The budget pins that
//! level: one allocation put back on a per-decision or per-notification
//! path costs several times the margin. The same run pins the share of
//! policy asks the allocator's targets memo answers.
//!
//! The binary holds this one test so that no other test's allocations
//! land in the count.

use sa_core::{slo, AppSpec, SystemBuilder, ThreadApi};
use sa_kernel::DaemonSpec;
use sa_sim::span::SpanBook;
use sa_workload::openloop::shard_listener;
use std::cell::RefCell;
use std::rc::Rc;

mod counting;

const REQUESTS: usize = 3_000;

/// Allocations per kernel event the cell may make inside `System::run`.
/// It makes 0.132 (6 700 over 50 759 events). The allocator asks for
/// targets 15 934 times, so one allocation per ask would add 0.31.
const MAX_ALLOCS_PER_EVENT: f64 = 0.15;

/// Share of the allocator's target asks the memo must answer without
/// calling the policy. The cell's view repeats on 12 144 of 15 934 asks
/// (76%).
const MIN_MEMO_HIT_PERCENT: u64 = 70;

#[test]
fn slo_cell_allocations_per_event_stay_within_budget() {
    let profile = slo::find("slo_bursty").expect("slo_bursty is registered");
    let mut cfg = profile.cfg.clone();
    cfg.requests = REQUESTS;
    let api = ThreadApi::SchedulerActivations {
        max_processors: u32::from(profile.cpus),
    };
    let book = Rc::new(RefCell::new(SpanBook::with_capacity(REQUESTS)));
    let mut builder = SystemBuilder::new(profile.cpus)
        .daemons(DaemonSpec::topaz_default_set())
        .windowed_metrics(profile.window)
        .decision_audit(true);
    for shard in 0..cfg.shards {
        let body = shard_listener(&cfg, shard, Rc::clone(&book));
        builder = builder.app(AppSpec::new(format!("slo{shard}"), api.clone(), body));
    }
    let mut sys = builder.build();

    let before = counting::allocs();
    let report = sys.run();
    let allocs = counting::allocs() - before;

    assert!(report.all_done(), "slo cell: {:?}", report.outcome);
    assert_eq!(
        book.borrow().spans().len(),
        REQUESTS,
        "every request completes"
    );
    let events = sys.kernel().kernel_metrics().events.get();
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} heap allocations over {events} kernel events = {per_event:.3}/event, \
         over the budget of {MAX_ALLOCS_PER_EVENT}"
    );
    // The targets memo saves host time, not allocations (a miss
    // allocates nothing either), so the budget above cannot see it break.
    let memo = sys.kernel().targets_memo();
    assert!(
        memo.hits() * 100 >= MIN_MEMO_HIT_PERCENT * memo.calls(),
        "the targets memo answered {} of {} asks, under {MIN_MEMO_HIT_PERCENT}%",
        memo.hits(),
        memo.calls()
    );
}
