//! Address spaces: the unit of processor allocation.

use crate::config::KernelFlavor;
use crate::ids::{ActId, AsId, KtId};
use crate::locks::{KChan, KCv, KLock};
use crate::metrics::SpaceMetrics;
use crate::sched::ReadyQueue;
use crate::upcall::{UpcallEvent, UserRuntime};
use sa_machine::ids::{ChanId, CvId, LockId, PageId};
use sa_sim::SimTime;
use std::collections::{HashMap, VecDeque};

/// How a space manages its parallelism.
pub(crate) enum SpaceKind {
    /// Application bodies run directly on kernel threads.
    KernelDirect { flavor: KernelFlavor },
    /// A user-level package drives kernel-thread virtual processors
    /// (original FastThreads): the kernel delivers no upcalls.
    UserOnKt { vps: Vec<KtId> },
    /// A user-level package drives scheduler activations (the paper's
    /// system).
    UserOnSa,
}

/// A simple LRU resident set for the paging model.
#[derive(Debug, Default)]
pub(crate) struct Residency {
    /// Maximum resident pages; `None` disables faulting entirely.
    pub capacity: Option<usize>,
    /// Pages in LRU order, most recent at the back.
    lru: VecDeque<PageId>,
}

impl Residency {
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        Residency {
            capacity,
            lru: VecDeque::new(),
        }
    }

    /// Touches a page; returns true on a hit. On a miss the caller must
    /// fault the page in and then call [`Residency::insert`].
    pub(crate) fn touch(&mut self, page: PageId) -> bool {
        let Some(_cap) = self.capacity else {
            return true;
        };
        if let Some(pos) = self.lru.iter().position(|&p| p == page) {
            self.lru.remove(pos);
            self.lru.push_back(page);
            true
        } else {
            false
        }
    }

    /// Inserts a faulted-in page, evicting the least recently used if full.
    pub(crate) fn insert(&mut self, page: PageId) {
        let Some(cap) = self.capacity else { return };
        if self.lru.iter().any(|&p| p == page) {
            return;
        }
        if self.lru.len() >= cap.max(1) {
            self.lru.pop_front();
        }
        self.lru.push_back(page);
    }

    /// Number of resident pages (testing aid).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lru.len()
    }
}

/// Scheduler-activation bookkeeping for a space.
#[derive(Debug, Default)]
pub(crate) struct SaState {
    /// Activations currently dispatched (running or upcalling). The paper's
    /// invariant: `running.len()` equals the number of processors assigned
    /// to this space.
    pub running: Vec<ActId>,
    /// Activations blocked in the kernel.
    pub blocked: Vec<ActId>,
    /// Husks owned by the user level, awaiting bulk recycle (§4.3).
    pub discarded: Vec<ActId>,
    /// Recycled husks available for cheap reallocation (§4.3).
    pub cached: Vec<ActId>,
    /// Table 3: the space's total desired processor count.
    pub desired: u32,
    /// Events pended while the space had no processor to be notified on
    /// (§3.1: "we delay the notification until the kernel eventually
    /// re-allocates it a processor").
    pub pending_events: Vec<UpcallEvent>,
    /// When each pending event was raised, parallel to `pending_events`
    /// (feeds the upcall-delivery-latency histogram).
    pub pending_since: Vec<SimTime>,
    /// Upcalls whose delivery is waiting for the thread manager's page to
    /// be faulted back in (§3.1's upcall-page-fault rule).
    pub deferred_upcalls: u32,
    /// Per-space notification sequence source: every
    /// `Blocked`/`Preempted`/`Unblocked` event takes the next value (see
    /// [`crate::upcall::UpcallEvent::seq`]).
    pub notify_seq: u64,
}

impl SaState {
    /// Takes the next notification sequence number.
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.notify_seq += 1;
        self.notify_seq
    }
}

/// One address space.
pub(crate) struct Space {
    /// Only read by the debug-build invariant checker
    /// (`Kernel::check_invariants`); elsewhere identity is carried by
    /// position in `Kernel::spaces`, so release builds see a dead field.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub id: AsId,
    pub name: String,
    /// Allocation priority; higher wins.
    pub priority: u8,
    pub kind: SpaceKind,
    /// The user-level thread package (user-level kinds only). Taken out
    /// temporarily during callbacks.
    pub runtime: Option<Box<dyn UserRuntime>>,
    /// Scheduler-activation state (UserOnSa only).
    pub sa: SaState,
    /// Per-space ready queue (kernel-direct spaces under the processor
    /// allocator; unused in native mode, which has a global queue).
    pub ready: ReadyQueue,
    /// Application locks and condition variables, indexed by the
    /// workload's `LockId`/`CvId` (small and dense ids; `None` marks ids
    /// never used), the same direct-indexed layout as the user-level
    /// thread package's tables. Reach them through [`Space::klock`] and
    /// [`Space::kcv`].
    pub klocks: Vec<Option<KLock>>,
    pub kcvs: Vec<Option<KCv>>,
    /// Kernel channels, named by the workload. A map: channel ids are
    /// sparse (condition-variable banks live at `cv | 0x8000_0000`).
    pub kchans: HashMap<ChanId, KChan>,
    /// Paging state.
    pub residency: Residency,
    /// Whether the thread manager's own pages are resident (drives the
    /// upcall-page-fault deferral; meaningful only when paging is on).
    pub runtime_pages_resident: bool,
    /// Live application kernel threads (kernel-direct spaces).
    pub live_kthreads: u32,
    /// CPUs currently assigned (allocator mode).
    pub assigned_cpus: u32,
    /// The space has started (its `start_at` has passed).
    pub started: bool,
    /// The space has finished all its work.
    pub done: bool,
    /// When it finished.
    pub completed_at: Option<SimTime>,
    /// When it started.
    pub started_at: Option<SimTime>,
    /// True for the internal daemon space.
    pub is_daemon_space: bool,
    /// Kernel-path cost table resolved from the flavor at creation.
    pub dc: crate::interp::DirectCosts,
    pub metrics: SpaceMetrics,
}

impl Space {
    /// Application lock `l`, created free on first use.
    pub(crate) fn klock(&mut self, l: LockId) -> &mut KLock {
        debug_assert_ne!(
            l,
            LockId::NONE,
            "kernel lock table access with the NONE sentinel"
        );
        slot(&mut self.klocks, l.index())
    }

    /// Condition variable `cv`, created without waiters on first use.
    pub(crate) fn kcv(&mut self, cv: CvId) -> &mut KCv {
        slot(&mut self.kcvs, cv.index())
    }

    /// True for scheduler-activation spaces.
    pub(crate) fn is_sa(&self) -> bool {
        matches!(self.kind, SpaceKind::UserOnSa)
    }
}

/// Entry `i` of a direct-indexed table, created with its default on
/// first use.
fn slot<T: Default>(table: &mut Vec<Option<T>>, i: usize) -> &mut T {
    if table.len() <= i {
        table.resize_with(i + 1, || None);
    }
    table[i].get_or_insert_with(T::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_unlimited_always_hits() {
        let mut r = Residency::new(None);
        assert!(r.touch(PageId(1)));
        assert!(r.touch(PageId(999)));
    }

    #[test]
    fn residency_lru_evicts_oldest() {
        let mut r = Residency::new(Some(2));
        assert!(!r.touch(PageId(1)));
        r.insert(PageId(1));
        assert!(!r.touch(PageId(2)));
        r.insert(PageId(2));
        assert!(r.touch(PageId(1))); // 1 is now MRU
        assert!(!r.touch(PageId(3)));
        r.insert(PageId(3)); // evicts 2
        assert!(!r.touch(PageId(2)));
        assert!(r.touch(PageId(1)));
        assert!(r.touch(PageId(3)));
    }

    #[test]
    fn residency_insert_is_idempotent() {
        let mut r = Residency::new(Some(4));
        r.insert(PageId(1));
        r.insert(PageId(1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn residency_touch_refreshes_recency() {
        let mut r = Residency::new(Some(2));
        r.insert(PageId(1));
        r.insert(PageId(2));
        assert!(r.touch(PageId(1)));
        r.insert(PageId(3)); // evicts 2, not 1
        assert!(r.touch(PageId(1)));
        assert!(!r.touch(PageId(2)));
    }
}
