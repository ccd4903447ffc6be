//! Core types of the user-level thread package.

use sa_kernel::upcall::{VpSeg, WorkKind};
use sa_kernel::Syscall;
use sa_machine::ids::{CvId, LockId, ThreadRef};
use sa_machine::program::{OpResult, ThreadBody};
use sa_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A user-level thread id (index into the TCB table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UtId(pub u32);

impl UtId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The handle exposed to thread bodies.
    pub fn as_ref(self) -> ThreadRef {
        ThreadRef(self.0 as u64)
    }

    /// Recovers the id from a body-visible handle.
    pub fn from_ref(r: ThreadRef) -> Self {
        UtId(r.0 as u32)
    }
}

impl core::fmt::Debug for UtId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ut{}", self.0)
    }
}

impl core::fmt::Display for UtId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ut{}", self.0)
    }
}

/// State of a user-level thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtState {
    /// Control block on a free list.
    Free,
    /// On some ready list.
    Ready,
    /// Loaded on a virtual processor.
    Running,
    /// Spinning for a user lock (still occupying its VP).
    Spinning,
    /// Waiting on a user-level lock.
    BlockedLock(LockId),
    /// Waiting on a user-level condition variable.
    BlockedCv(sa_machine::ids::CvId),
    /// Waiting for another user thread to exit.
    BlockedJoin(UtId),
    /// Blocked inside the kernel (I/O, page fault, kernel channel).
    BlockedKernel,
    /// Stopped by a processor preemption; state saved, waiting to be
    /// returned to the ready list (or continued through its critical
    /// section first).
    Preempted,
    /// Exited; the control block lingers for joiners.
    Exited,
}

/// Deferred slot-level micro-work: a segment to charge or a step to
/// apply.
#[derive(Debug)]
pub(crate) enum RtMicro {
    /// Charge this segment (the kernel runs it on the VP).
    Seg(VpSeg),
    /// Apply this state transition.
    Step(SlotStep),
}

/// Instantaneous runtime state transitions, applied between segments.
///
/// Each one re-validates its preconditions when it runs, because other
/// virtual processors execute during the preceding segment (exactly the
/// interleaving a real test-and-set path faces). A [`SlotStep`] belongs
/// to the processor (dispatch, upcall processing); a [`ThreadStep`] to
/// the operation its thread is in the middle of.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotStep {
    /// Finish the dispatch of a thread onto this VP.
    FinishDispatch(UtId),
    /// Begin continuing a preempted thread through its critical section.
    StartRecovery(UtId),
    /// The recovered thread finished its critical section; switch back to
    /// the interrupted context (§3.3).
    EndRecovery,
    /// Put a thread on this slot's ready list.
    ReadyThread(UtId),
}

/// The step that completes a thread's current operation once its leading
/// segment has run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ThreadStep {
    /// Try to complete a user-lock acquire (fast path charged already).
    FinishAcquire(LockId),
    /// Complete a user-lock release (hand off to spinners/waiters).
    FinishRelease(LockId),
    /// Complete a cv wait: enqueue and block, or consume a banked signal.
    FinishCvWait { cv: CvId, lock: LockId },
    /// Complete a cv signal.
    FinishCvSignal(CvId),
    /// Complete a cv broadcast.
    FinishCvBroadcast(CvId),
    /// Complete a fork: TCB already allocated; enqueue the child and
    /// hand its handle to the parent's next step.
    FinishFork(UtId),
    /// Complete a join: continue if the target exited, else block.
    FinishJoin(UtId),
    /// Complete a yield: requeue self.
    FinishYield,
    /// Complete thread exit: free TCB, wake joiners.
    FinishExit,
    /// The bounded spin expired without the lock being granted; block.
    SpinExpired(LockId),
    /// Trap into the kernel (only the thread calls: I/O, page touch,
    /// kernel channel signal or wait).
    Call(Syscall),
}

/// The unfinished part of a segment the kernel preempted: charged again,
/// as user-tagged work of the same kind, when the thread next runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Remainder {
    pub dur: SimDuration,
    pub kind: WorkKind,
    /// The interrupted segment was inside a critical section.
    pub critical: bool,
}

/// A thread's saved continuation: what it still has to run for its
/// current operation. The remainder, if any, runs first, then the step.
/// Every operation's follow-up is at most one step, and a preemption
/// adds at most one remainder in front of it, so the continuation is a
/// fixed-size value in the cold row rather than a heap queue.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ThreadCont {
    /// Preemption-saved remainder of the interrupted segment.
    pub rem: Option<Remainder>,
    /// The step completing the current operation.
    pub step: Option<ThreadStep>,
}

impl ThreadCont {
    pub(crate) fn is_empty(&self) -> bool {
        self.rem.is_none() && self.step.is_none()
    }

    /// Queues the step completing the current operation; the thread has
    /// nothing else pending.
    pub(crate) fn set_step(&mut self, st: ThreadStep) {
        debug_assert!(self.is_empty(), "step {st:?} queued over {self:?}");
        self.step = Some(st);
    }
}

/// What a VP is spinning on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpinCtx {
    /// Thread `t` wants `lock`.
    Lock { t: UtId, lock: LockId },
    /// The idle loop.
    Idle,
}

/// The hot half of a user-level thread control block: the words the
/// runtime's dispatch/ready path reads for *other* threads (state checks,
/// priority scans, critical-section recovery probes). ~40 bytes, so a
/// 4096-row page keeps preemption-victim scans and state transitions on
/// dense cache lines even with 10⁶ live threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UtHot {
    pub state: UtState,
    /// Scheduling priority (higher wins; only consulted when
    /// `FtConfig::priority_scheduling` is on).
    pub prio: u8,
    /// Application-level locks held (critical-section recovery, §3.3).
    pub locks_held: u32,
    /// The lock this thread is currently spinning for, if any.
    pub spinning_on: Option<LockId>,
    /// The next dispatch must check for saved state to restore (set when
    /// the thread is woken from a condition wait or preemption).
    pub needs_resume_check: bool,
    pub exited: bool,
    /// When the thread last became ready (for the ready-wait histogram).
    pub ready_since: Option<SimTime>,
}

/// The cold half: the body box, saved continuation, and join bookkeeping
/// — touched only when this thread itself runs or exits. Only `body` and
/// `joiners` own heap memory.
pub(crate) struct UtCold {
    pub body: Option<Box<dyn ThreadBody>>,
    /// Result the next body step will observe.
    pub next_result: OpResult,
    /// Saved continuation: what is still to run for the current op.
    pub cont: ThreadCont,
    /// Threads joined on this one.
    pub joiners: Vec<UtId>,
}

/// The TCB table: struct-of-arrays over paged slabs, indexed by dense
/// [`UtId`] row numbers. Growth allocates whole pages (never moving live
/// rows), and exited rows are recycled through the per-slot free lists,
/// so 10⁶-thread churn runs in bounded memory.
#[derive(Default)]
pub(crate) struct TcbStore {
    pub hot: sa_sim::PagedVec<UtHot, 4096>,
    pub cold: sa_sim::PagedVec<UtCold, 1024>,
}

// The row sizes are pinned: the churn run reports the slabs' resident
// bytes, and perfbench's committed `churn` digest covers that line, so a
// layout change must fail the build rather than the benchmark.
const _: () = assert!(core::mem::size_of::<UtHot>() == 40);
const _: () = assert!(core::mem::size_of::<UtCold>() == 88);

impl TcbStore {
    pub(crate) fn len(&self) -> usize {
        self.hot.len()
    }

    /// Appends a fresh `Free` control block and returns its id.
    pub(crate) fn push_free(&mut self) -> UtId {
        let row = self.hot.push(UtHot {
            state: UtState::Free,
            prio: 1,
            locks_held: 0,
            spinning_on: None,
            needs_resume_check: false,
            exited: false,
            ready_since: None,
        });
        let cold_row = self.cold.push(UtCold {
            body: None,
            next_result: OpResult::Start,
            cont: ThreadCont::default(),
            joiners: Vec::new(),
        });
        debug_assert_eq!(row, cold_row);
        UtId(row)
    }

    /// Re-initializes a free (new or recycled) control block for a thread.
    pub(crate) fn reinit(&mut self, id: UtId, body: Box<dyn ThreadBody>) {
        let h = &mut self.hot[id.index()];
        debug_assert_eq!(h.state, UtState::Free);
        h.state = UtState::Ready;
        h.prio = 1;
        h.locks_held = 0;
        h.spinning_on = None;
        h.needs_resume_check = false;
        h.exited = false;
        h.ready_since = None;
        let c = &mut self.cold[id.index()];
        c.body = Some(body);
        c.next_result = OpResult::Start;
        c.cont = ThreadCont::default();
        c.joiners.clear();
    }

    /// Resident bytes of the hot slab alone — the per-thread footprint
    /// the dispatch loop actually walks (`bytes_per_thread` bench).
    pub(crate) fn hot_bytes_resident(&self) -> usize {
        self.hot.bytes_resident()
    }

    /// Resident bytes of both slabs (excluding boxed bodies and joiner
    /// lists).
    pub(crate) fn bytes_resident(&self) -> usize {
        self.hot.bytes_resident() + self.cold.bytes_resident()
    }
}

/// Per-segment identification packed into the kernel-visible cookie.
///
/// Layout: bits 63..56 tag, bit 55 critical-section flag, bits 31..0 the
/// thread id plus one (zero meaning "no thread").
pub(crate) mod cookie {
    use super::UtId;

    /// What kind of runtime work a segment was.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Tag {
        /// Application computation.
        User = 1,
        /// Runtime bookkeeping on behalf of a thread.
        RuntimeOp = 2,
        /// Dispatch path (ready-list lock held).
        Dispatch = 3,
        /// Spinning for a lock.
        SpinLock = 4,
        /// The idle loop.
        Idle = 5,
        /// Upcall processing.
        Upcall = 6,
    }

    /// Packs a cookie.
    pub fn pack(tag: Tag, t: Option<UtId>, critical: bool) -> u64 {
        ((tag as u64) << 56) | ((critical as u64) << 55) | t.map(|t| t.0 as u64 + 1).unwrap_or(0)
    }

    /// Unpacks `(tag, thread, critical)`; unknown tags map to `User`.
    pub fn unpack(c: u64) -> (Tag, Option<UtId>, bool) {
        let tag = match c >> 56 {
            2 => Tag::RuntimeOp,
            3 => Tag::Dispatch,
            4 => Tag::SpinLock,
            5 => Tag::Idle,
            6 => Tag::Upcall,
            _ => Tag::User,
        };
        let critical = (c >> 55) & 1 == 1;
        let tl = c & 0xffff_ffff;
        let t = if tl == 0 {
            None
        } else {
            Some(UtId(tl as u32 - 1))
        };
        (tag, t, critical)
    }
}

/// A virtual-processor slot: the per-processor state of the thread system
/// (TCB free list and the execution context of whatever the processor is
/// doing; ready threads live in the runtime's [`crate::ready`] policy).
/// Slots outlive individual scheduler activations; the activation
/// currently animating a slot is `active_vp`.
pub(crate) struct Slot {
    /// The VP (kernel thread index or activation id) currently bound here.
    pub active_vp: Option<sa_kernel::VpId>,
    /// Thread loaded on this processor.
    pub current: Option<UtId>,
    /// Per-processor unlocked TCB free list ([Anderson et al. 89]).
    pub free_tcbs: Vec<UtId>,
    /// Slot-level (non-thread) pending micro-work: upcall processing,
    /// dispatch overhead.
    pub cont: VecDeque<RtMicro>,
    /// Upcall events awaiting processing.
    pub tasks: VecDeque<sa_kernel::UpcallEvent>,
    /// What the VP is spinning on, if spinning.
    pub spin: Option<SpinCtx>,
    /// Thread being continued through its critical section (§3.3).
    pub recovering: Option<UtId>,
    /// When the current recovery started (for the recovery-time histogram).
    pub recovering_since: Option<SimTime>,
    /// The idle hysteresis burn has been done since the VP last idled.
    pub hysteresis_done: bool,
    /// The kernel has been told this processor is idle.
    pub idle_hinted: bool,
}

impl Slot {
    pub(crate) fn new() -> Self {
        Slot {
            active_vp: None,
            current: None,
            free_tcbs: Vec::new(),
            cont: VecDeque::new(),
            tasks: VecDeque::new(),
            spin: None,
            recovering: None,
            recovering_since: None,
            hysteresis_done: false,
            idle_hinted: false,
        }
    }
}

/// Builds a [`VpSeg`] with a packed cookie.
pub(crate) fn seg(
    dur: SimDuration,
    kind: WorkKind,
    tag: cookie::Tag,
    t: Option<UtId>,
    critical: bool,
) -> VpSeg {
    VpSeg {
        dur,
        cookie: cookie::pack(tag, t, critical),
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cookie_round_trip() {
        let c = cookie::pack(cookie::Tag::Dispatch, Some(UtId(41)), true);
        let (tag, t, crit) = cookie::unpack(c);
        assert_eq!(tag, cookie::Tag::Dispatch);
        assert_eq!(t, Some(UtId(41)));
        assert!(crit);
    }

    #[test]
    fn cookie_no_thread() {
        let c = cookie::pack(cookie::Tag::Idle, None, false);
        let (tag, t, crit) = cookie::unpack(c);
        assert_eq!(tag, cookie::Tag::Idle);
        assert_eq!(t, None);
        assert!(!crit);
    }

    #[test]
    fn tcb_reinit_resets() {
        let mut tcbs = TcbStore::default();
        let t = tcbs.push_free();
        tcbs.hot[t.index()].locks_held = 3;
        tcbs.hot[t.index()].exited = true;
        tcbs.hot[t.index()].state = UtState::Free;
        tcbs.reinit(t, Box::new(sa_machine::ComputeBody::null()));
        assert_eq!(tcbs.hot[t.index()].state, UtState::Ready);
        assert_eq!(tcbs.hot[t.index()].locks_held, 0);
        assert!(!tcbs.hot[t.index()].exited);
        assert!(tcbs.cold[t.index()].body.is_some());
    }

    #[test]
    fn hot_rows_stay_small() {
        // The ≤256-hot-bytes-per-thread budget with generous headroom.
        assert!(core::mem::size_of::<UtHot>() <= 48);
    }

    #[test]
    fn utid_ref_round_trip() {
        let t = UtId(7);
        assert_eq!(UtId::from_ref(t.as_ref()), t);
    }
}
