//! Heap-allocation budget of the thread lifecycle.
//!
//! A counting global allocator (std only) measures heap allocations over
//! a churn of 200 000 short-lived threads through an 8 192-thread window
//! on scheduler activations: the `sa-experiments churn` run at a fifth of
//! its length. Each thread is forked, dispatched, requeued once, exited,
//! joined and its TCB row recycled. The forked body is the one allocation
//! a thread must make. Everything else it touches is reused: its row comes
//! off a free list, its continuation lives inline in the row, and the
//! row's joiner list keeps the capacity an earlier thread grew. So what is
//! left beyond one allocation per thread is the window's one-off growth:
//! TCB pages, at most one joiner list per row, and the root's list of
//! pending children. The budget pins that level: one allocation put back
//! on any per-thread path costs the whole window several times over.
//!
//! The binary holds this one test so that no other test's allocations
//! land in the count.

use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_machine::CostModel;
use sa_sim::{SimDuration, SimTime};
use sa_workload::synthetic::thread_churn;

mod counting;

const THREADS: usize = 200_000;
const WINDOW: usize = 8_192;

/// Allocations the run may make beyond one per forked thread: one joiner
/// list per TCB row of the window, plus a little for pages and queues.
/// The run makes 7 416. With a heap-allocated continuation per row and a
/// joiner list thrown away at every exit, it made 20 799.
const MAX_EXTRA_ALLOCS: u64 = WINDOW as u64 + 1_024;

#[test]
fn thread_churn_allocates_one_body_per_thread() {
    let body = thread_churn(THREADS, WINDOW, SimDuration::from_micros(2));
    let mut sys = SystemBuilder::new(4)
        .cost(CostModel::firefly_prototype())
        .seed(7)
        .run_limit(SimTime::from_millis(3_600_000))
        .app(AppSpec::new(
            "thread-churn",
            ThreadApi::SchedulerActivations { max_processors: 4 },
            body,
        ))
        .build();

    let before = counting::allocs();
    let report = sys.run();
    let allocs = counting::allocs() - before;

    assert!(report.all_done(), "thread churn: {:?}", report.outcome);
    let extra = allocs.saturating_sub(THREADS as u64);
    assert!(
        extra <= MAX_EXTRA_ALLOCS,
        "{allocs} heap allocations for {THREADS} threads: {extra} beyond one per \
         thread, over the budget of {MAX_EXTRA_ALLOCS}"
    );
}
