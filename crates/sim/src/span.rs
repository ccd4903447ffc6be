//! Per-request span tracking for the SLO observability layer.
//!
//! A [`Span`] follows one request from its scheduled arrival through
//! fork, first run, compute and I/O phases, to completion, and carves
//! the whole response time into six *exclusive* phases that sum exactly
//! to `completed - arrival` (integer nanoseconds, no rounding):
//!
//! ```text
//! arrival ──accept_wait── forked ──startup_wait── first_run ─┬─ ... ── completed
//!                                                            │
//!            service + run_excess + io_device + io_excess ───┘
//! ```
//!
//! * `accept_wait` — the listener was behind: time from the scheduled
//!   arrival until the fork op was issued (processor shortage at the
//!   accept loop under open-loop overload).
//! * `startup_wait` — fork-to-first-instruction: thread creation cost
//!   plus the ready-queue wait before the handler first runs.
//! * `service` — the request's intrinsic compute demand (known exactly
//!   when the request is generated).
//! * `run_excess` — extra wall time the compute phases took beyond the
//!   intrinsic demand: ready-queue waits after preemption, dispatch and
//!   runtime overhead between steps.
//! * `io_device` — the intrinsic device time of the request's I/O.
//! * `io_excess` — extra wall time of the I/O phases beyond device time:
//!   trap/copy costs, disk queueing, and the wait to get a processor
//!   back after the wakeup.
//!
//! The workload records phases from its own step timestamps (every gap
//! between consecutive handler steps is decomposed into intrinsic +
//! excess), so the partition is exact by construction. The SLO report
//! cross-checks the spans against the [`TimeLedger`](crate::TimeLedger):
//! summed `service` must equal the ledger's `running_user` time for the
//! space, because `Op::Compute` is the only producer of user-state CPU
//! time.

use crate::time::{SimDuration, SimTime};

/// The six exclusive phases of a request span (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// Scheduled arrival → fork op issued by the listener.
    AcceptWait = 0,
    /// Fork issued → handler's first step.
    StartupWait = 1,
    /// Intrinsic compute demand.
    Service = 2,
    /// Compute wall time beyond the intrinsic demand.
    RunExcess = 3,
    /// Intrinsic device time of I/O phases.
    IoDevice = 4,
    /// I/O wall time beyond device time.
    IoExcess = 5,
}

impl SpanPhase {
    /// Number of phases; the length of per-phase arrays.
    pub const COUNT: usize = 6;

    /// Every phase, in index order.
    pub const ALL: [SpanPhase; SpanPhase::COUNT] = [
        SpanPhase::AcceptWait,
        SpanPhase::StartupWait,
        SpanPhase::Service,
        SpanPhase::RunExcess,
        SpanPhase::IoDevice,
        SpanPhase::IoExcess,
    ];

    /// Stable index for per-phase arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short machine-friendly name (column headers, folded stacks).
    pub fn name(self) -> &'static str {
        match self {
            SpanPhase::AcceptWait => "accept_wait",
            SpanPhase::StartupWait => "startup_wait",
            SpanPhase::Service => "service",
            SpanPhase::RunExcess => "run_excess",
            SpanPhase::IoDevice => "io_device",
            SpanPhase::IoExcess => "io_excess",
        }
    }

    /// Human cause named by the tail-attribution report when this phase
    /// dominates a slow request.
    pub fn cause(self) -> &'static str {
        match self {
            SpanPhase::AcceptWait => "processor shortage at accept",
            SpanPhase::StartupWait => "fork/dispatch overhead",
            SpanPhase::Service => "intrinsic service demand",
            SpanPhase::RunExcess => "ready-wait / preemption",
            SpanPhase::IoDevice => "intrinsic device I/O",
            SpanPhase::IoExcess => "I/O queueing + wakeup wait",
        }
    }
}

/// One request's lifecycle timestamps and exact phase accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Scheduled (open-loop) arrival time.
    pub arrival: SimTime,
    /// When the listener issued the fork op for this request.
    pub forked: SimTime,
    /// When the handler body first ran.
    pub first_run: SimTime,
    /// When the handler finished computing the response.
    pub completed: SimTime,
    /// Intrinsic compute demand (ns), known at generation time.
    pub service_ns: u64,
    /// Compute wall time beyond `service_ns`.
    pub run_excess_ns: u64,
    /// Intrinsic device time of I/O phases (ns).
    pub io_device_ns: u64,
    /// I/O wall time beyond `io_device_ns`.
    pub io_excess_ns: u64,
    /// Which workload shard (address space) served the request.
    pub shard: u32,
    /// True once `complete` has been recorded.
    pub done: bool,
}

impl Span {
    /// End-to-end response time (arrival → completion).
    pub fn response(&self) -> SimDuration {
        self.completed.since(self.arrival)
    }

    /// Arrival → fork wait (ns).
    pub fn accept_wait_ns(&self) -> u64 {
        self.forked.since(self.arrival).as_nanos()
    }

    /// Fork → first-run wait (ns).
    pub fn startup_wait_ns(&self) -> u64 {
        self.first_run.since(self.forked).as_nanos()
    }

    /// The six exclusive phase durations, indexed by [`SpanPhase`].
    pub fn phase_ns(&self) -> [u64; SpanPhase::COUNT] {
        [
            self.accept_wait_ns(),
            self.startup_wait_ns(),
            self.service_ns,
            self.run_excess_ns,
            self.io_device_ns,
            self.io_excess_ns,
        ]
    }

    /// True when the six phases sum exactly to the response time.
    pub fn partition_exact(&self) -> bool {
        let total: u64 = self.phase_ns().iter().sum();
        total == self.response().as_nanos()
    }
}

/// Append-only store of request spans, shared by the open-loop listener
/// and handler bodies of a run (single-threaded simulation: an
/// `Rc<RefCell<SpanBook>>` crosses address-space boundaries freely).
///
/// Span ids are assigned in `begin` call order, which the deterministic
/// event loop makes stable across runs and `--jobs` counts.
#[derive(Debug, Default)]
pub struct SpanBook {
    spans: Vec<Span>,
}

impl SpanBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        SpanBook { spans: Vec::new() }
    }

    /// Creates an empty book sized for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        SpanBook {
            spans: Vec::with_capacity(n),
        }
    }

    /// Opens a span at its scheduled arrival; returns its id.
    pub fn begin(&mut self, arrival: SimTime, shard: u32, service_ns: u64) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            arrival,
            forked: arrival,
            first_run: arrival,
            completed: arrival,
            service_ns,
            run_excess_ns: 0,
            io_device_ns: 0,
            io_excess_ns: 0,
            shard,
            done: false,
        });
        id
    }

    /// Records the moment the listener issued the fork op.
    pub fn forked(&mut self, id: u64, now: SimTime) {
        self.spans[id as usize].forked = now;
    }

    /// Records the handler's first step.
    pub fn first_run(&mut self, id: u64, now: SimTime) {
        self.spans[id as usize].first_run = now;
    }

    /// Records a finished compute phase: `measured_ns` of wall time for
    /// `expected_ns` of intrinsic demand (the difference is excess).
    pub fn run_done(&mut self, id: u64, expected_ns: u64, measured_ns: u64) {
        debug_assert!(measured_ns >= expected_ns);
        self.spans[id as usize].run_excess_ns += measured_ns.saturating_sub(expected_ns);
    }

    /// Records a finished I/O phase: `measured_ns` of wall time for
    /// `device_ns` of intrinsic device time.
    pub fn io_done(&mut self, id: u64, device_ns: u64, measured_ns: u64) {
        debug_assert!(
            measured_ns >= device_ns,
            "span {id}: io measured {measured_ns} < device {device_ns}"
        );
        let s = &mut self.spans[id as usize];
        s.io_device_ns += device_ns;
        s.io_excess_ns += measured_ns.saturating_sub(device_ns);
    }

    /// Closes the span at response completion.
    pub fn complete(&mut self, id: u64, now: SimTime) {
        let s = &mut self.spans[id as usize];
        s.completed = now;
        s.done = true;
        debug_assert!(s.partition_exact(), "span {id} phases do not sum");
    }

    /// Number of spans opened.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were opened.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans completed.
    pub fn completed_count(&self) -> usize {
        self.spans.iter().filter(|s| s.done).count()
    }

    /// All spans, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn phases_partition_response_exactly() {
        let mut book = SpanBook::new();
        let id = book.begin(t(100), 0, 30_000);
        book.forked(id, t(110)); // 10us accept wait
        book.first_run(id, t(125)); // 15us startup wait
        book.run_done(id, 20_000, 26_000); // pre: 20us demand, 6us excess
        book.io_done(id, 500_000, 540_000); // io: 500us device, 40us excess
        book.run_done(id, 10_000, 13_000); // post: 10us demand, 3us excess
                                           // first_run + 26 + 540 + 13 us
        book.complete(id, t(125 + 26 + 540 + 13));
        let s = book.spans()[0];
        assert!(s.done);
        assert!(s.partition_exact());
        assert_eq!(s.accept_wait_ns(), 10_000);
        assert_eq!(s.startup_wait_ns(), 15_000);
        assert_eq!(s.service_ns, 30_000);
        assert_eq!(s.run_excess_ns, 9_000);
        assert_eq!(s.io_device_ns, 500_000);
        assert_eq!(s.io_excess_ns, 40_000);
        assert_eq!(s.response().as_nanos(), s.phase_ns().iter().sum::<u64>());
    }

    #[test]
    fn phase_indices_cover_the_array() {
        for (i, p) in SpanPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(SpanPhase::ALL.len(), SpanPhase::COUNT);
    }

    #[test]
    fn service_rollup_groups_by_shard() {
        let mut book = SpanBook::new();
        for (shard, service_us) in [(0u32, 10u64), (1, 20), (0, 5)] {
            let id = book.begin(t(0), shard, service_us * 1_000);
            book.complete(id, t(service_us));
        }
        assert_eq!(book.completed_count(), 3);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut book = SpanBook::with_capacity(4);
        assert!(book.is_empty());
        for i in 0..4u64 {
            assert_eq!(book.begin(t(i), 0, 0), i);
        }
        assert_eq!(book.len(), 4);
        assert_eq!(book.completed_count(), 0);
        assert_eq!(book.spans().len(), 4);
    }
}
