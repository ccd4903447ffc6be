//! Kernel and per-space measurement. Where processor time went is the
//! observer's account (`observe.rs`), not a metric.

use sa_sim::stats::{Counter, Histogram};
use sa_sim::{SimTime, UpcallKind};

/// Per-space accounting.
#[derive(Debug, Default, Clone)]
pub struct SpaceMetrics {
    /// Upcall events delivered, indexed by [`UpcallKind`] — one slot per
    /// kind, so a new kind cannot silently go uncounted.
    pub upcalls_by_kind: [Counter; UpcallKind::COUNT],
    /// Latency from an upcall event being raised (queued for the space)
    /// to its delivery at user level — the Table 3 cost, as a
    /// distribution rather than a single mean.
    pub upcall_delivery: Histogram,
    /// Time activations spend blocked in the kernel (block → unblock).
    pub block_unblock: Histogram,
    /// Processor preemptions suffered.
    pub preemptions: Counter,
    /// Kernel traps made by this space's units.
    pub traps: Counter,
    /// Disk operations issued.
    pub disk_ops: Counter,
    /// Page faults taken.
    pub page_faults: Counter,
    /// Activations allocated fresh.
    pub acts_fresh: Counter,
    /// Activations reused from the recycle cache (§4.3).
    pub acts_cached: Counter,
}

impl SpaceMetrics {
    /// Delivered upcall events of the given kind.
    pub fn upcalls(&self, kind: UpcallKind) -> u64 {
        self.upcalls_by_kind[kind.index()].get()
    }

    /// Counts one delivered upcall event of the given kind.
    pub(crate) fn count_upcall(&mut self, kind: UpcallKind) {
        self.upcalls_by_kind[kind.index()].inc();
    }
}

/// Whole-kernel accounting.
#[derive(Debug, Default, Clone)]
pub struct KernelMetrics {
    /// Events processed by the run loop.
    pub events: Counter,
    /// Processor reallocations performed by the allocator.
    pub reallocations: Counter,
}

/// Outcome of a kernel run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Virtual time at which the run loop stopped.
    pub end: SimTime,
    /// True if the run hit its hard time limit before all spaces finished.
    pub timed_out: bool,
    /// True if the event queue drained with unfinished spaces (deadlock).
    pub deadlocked: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upcall_counters_index_by_kind() {
        let mut m = SpaceMetrics::default();
        m.count_upcall(UpcallKind::Blocked);
        m.count_upcall(UpcallKind::Blocked);
        m.count_upcall(UpcallKind::Unblocked);
        assert_eq!(m.upcalls(UpcallKind::Blocked), 2);
        assert_eq!(m.upcalls(UpcallKind::Unblocked), 1);
        assert_eq!(m.upcalls(UpcallKind::AddProcessor), 0);
        assert_eq!(m.upcalls(UpcallKind::Preempted), 0);
    }
}
