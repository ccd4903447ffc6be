//! The kernel ↔ user-level interface.
//!
//! This module is the paper in types:
//!
//! - [`UpcallEvent`] — Table 2, the four events the kernel vectors to the
//!   user-level thread scheduler (plus the batching rule: "in practice,
//!   these events occur in combinations; when this occurs, a single upcall
//!   is made that passes all of the events that need to be handled").
//! - [`Syscall`] — the downward direction, including Table 3's two
//!   processor-allocation hints, the bulk recycling of discarded
//!   activations (§4.3), and the ordinary blocking calls (I/O, kernel
//!   synchronization) whose *handling* differs between kernel threads and
//!   scheduler activations.
//! - [`UserRuntime`] — the contract a user-level thread system implements.
//!   The kernel drives virtual processors by calling
//!   [`UserRuntime::poll`]; the runtime answers with one [`VpAction`] at a
//!   time. The kernel has **no knowledge of user-level data structures**
//!   (§3.1): everything it hands back on a preemption is the opaque
//!   [`SavedContext`] it captured, exactly as real hardware register state
//!   would be.

use crate::ids::VpId;
use sa_machine::ids::{ChanId, PageId};
use sa_machine::program::ThreadBody;
use sa_sim::{SimDuration, SimTime, Trace, UpcallKind};

/// The machine state of a user-level computation stopped by the kernel,
/// returned to the user level in a preemption or unblock notification.
///
/// In the real system this is the thread's register state saved by the
/// low-level interrupt/page-fault handlers (§3.1). In the simulator it is
/// the in-flight work segment: the runtime-assigned cookie identifying what
/// was executing, and how much of the segment remained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedContext {
    /// The `cookie` of the segment that was executing (runtime-defined).
    pub cookie: u64,
    /// Unfinished portion of that segment.
    pub remaining: SimDuration,
    /// Classification of the interrupted work (for accounting only).
    pub kind: WorkKind,
}

impl SavedContext {
    /// The saved context of a processor that was stopped between segments
    /// (nothing was in flight).
    pub fn empty() -> Self {
        SavedContext {
            cookie: 0,
            remaining: SimDuration::ZERO,
            kind: WorkKind::RuntimeOverhead,
        }
    }
}

/// Table 2: the events the kernel vectors to an address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpcallEvent {
    /// "Add this processor: execute a runnable user-level thread."
    ///
    /// The processor is the one the upcall itself is running on.
    AddProcessor {
        /// The allocator grant decision that produced this processor
        /// (see [`crate::provenance`]; 0 in hand-built test batches).
        decision: u64,
    },
    /// "Processor has been preempted (preempted activation # and its
    /// machine state): return to the ready list the user-level thread that
    /// was executing in the context of the preempted scheduler activation."
    Preempted {
        /// The stopped activation.
        vp: VpId,
        /// The user-level machine state it was running.
        saved: SavedContext,
        /// Per-space notification sequence number (see
        /// [`UpcallEvent::seq`]). Processing this event is what makes the
        /// stopped activation's husk safe to recycle.
        seq: u64,
        /// The allocator victim decision that stopped this processor
        /// (see [`crate::provenance`]; 0 in hand-built test batches).
        decision: u64,
    },
    /// "Scheduler activation has blocked (blocked activation #): the
    /// blocked scheduler activation is no longer using its processor."
    Blocked {
        /// The activation that blocked.
        vp: VpId,
        /// Per-space notification sequence number; also the unique id of
        /// this blocking episode, echoed by the matching `Unblocked` as
        /// `blocked_seq`. Activation ids are recycled (§4.3) and the two
        /// notifications can be observed out of order across processors,
        /// so the pair is keyed by episode, not by activation.
        seq: u64,
    },
    /// "Scheduler activation has unblocked (unblocked activation # and its
    /// machine state): return to the ready list the user-level thread that
    /// was executing in the context of the blocked scheduler activation."
    ///
    /// `outcome` carries the result of the kernel operation the thread was
    /// blocked in (the value the syscall would have returned).
    Unblocked {
        /// The activation whose kernel operation completed.
        vp: VpId,
        /// The blocking episode this completion belongs to (the `seq` of
        /// the matching [`UpcallEvent::Blocked`]).
        blocked_seq: u64,
        /// This notification's own per-space sequence number (see
        /// [`UpcallEvent::seq`]).
        seq: u64,
        /// The thread's saved user-level machine state.
        saved: SavedContext,
        /// Result of the kernel operation the thread was blocked in.
        outcome: SyscallOutcome,
    },
}

impl UpcallEvent {
    /// The event's [`UpcallKind`] — the key for per-kind counters and the
    /// typed trace stream. `match` is exhaustive: adding an event variant
    /// forces a kind (and thereby a counter slot) to exist for it.
    pub fn kind(&self) -> UpcallKind {
        match self {
            UpcallEvent::AddProcessor { .. } => UpcallKind::AddProcessor,
            UpcallEvent::Preempted { .. } => UpcallKind::Preempted,
            UpcallEvent::Blocked { .. } => UpcallKind::Blocked,
            UpcallEvent::Unblocked { .. } => UpcallKind::Unblocked,
        }
    }

    /// The virtual processor the event concerns, when it has one.
    pub fn vp(&self) -> Option<VpId> {
        match self {
            UpcallEvent::AddProcessor { .. } => None,
            UpcallEvent::Preempted { vp, .. }
            | UpcallEvent::Blocked { vp, .. }
            | UpcallEvent::Unblocked { vp, .. } => Some(*vp),
        }
    }

    /// The allocator decision stamped on the event, when it carries one
    /// (`AddProcessor` grants and `Preempted` victim choices; 0 means
    /// "no recorded decision", e.g. a hand-built test batch).
    pub fn decision(&self) -> Option<u64> {
        match self {
            UpcallEvent::AddProcessor { decision } | UpcallEvent::Preempted { decision, .. } => {
                Some(*decision)
            }
            UpcallEvent::Blocked { .. } | UpcallEvent::Unblocked { .. } => None,
        }
    }

    /// The event's per-space notification sequence number, when it has
    /// one. The kernel numbers every `Blocked`/`Preempted`/`Unblocked`
    /// notification for a space consecutively from 1. The runtime reports
    /// the largest `n` such that it has processed every notification with
    /// `seq <= n` back to the kernel in
    /// [`Syscall::RecycleActivations`]; the kernel recycles an
    /// activation id only once the notification that released it is below
    /// that floor, so a recycled id can never be re-dispatched while one
    /// of its earlier notifications is still unprocessed.
    pub fn seq(&self) -> Option<u64> {
        match self {
            UpcallEvent::AddProcessor { .. } => None,
            UpcallEvent::Preempted { seq, .. }
            | UpcallEvent::Blocked { seq, .. }
            | UpcallEvent::Unblocked { seq, .. } => Some(*seq),
        }
    }
}

/// Accounting classification of a work segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Application computation.
    UserWork,
    /// Thread-package bookkeeping (TCB, ready lists, locks).
    RuntimeOverhead,
    /// Busy-waiting on an application or runtime spin lock.
    SpinWait,
    /// Busy-waiting in the idle loop (no runnable threads).
    IdleSpin,
    /// Processing an upcall at user level.
    UpcallWork,
}

impl WorkKind {
    /// Short label for traces and timeline exports.
    pub fn name(self) -> &'static str {
        match self {
            WorkKind::UserWork => "user",
            WorkKind::RuntimeOverhead => "overhead",
            WorkKind::SpinWait => "spin",
            WorkKind::IdleSpin => "idle_spin",
            WorkKind::UpcallWork => "upcall",
        }
    }
}

/// One timed segment of virtual-processor execution, emitted by the runtime.
#[derive(Debug, Clone, Copy)]
pub struct VpSeg {
    /// How long the segment runs.
    pub dur: SimDuration,
    /// Runtime-private identification of what this segment is; handed back
    /// verbatim in [`SavedContext`] if the segment is interrupted.
    pub cookie: u64,
    /// Accounting classification.
    pub kind: WorkKind,
}

impl VpSeg {
    /// A segment of runtime overhead with no interesting resume semantics.
    pub fn overhead(dur: SimDuration) -> Self {
        VpSeg {
            dur,
            cookie: 0,
            kind: WorkKind::RuntimeOverhead,
        }
    }
}

/// What a virtual processor does next, as answered by [`UserRuntime::poll`].
#[derive(Debug)]
pub enum VpAction {
    /// Execute one segment, then poll again with [`PollReason::SegDone`].
    Run(VpSeg),
    /// Busy-wait indefinitely (spin lock or idle loop). Ends when the
    /// runtime kicks this VP ([`RtEnv::kick`]) or the kernel preempts it.
    /// Poll resumes with [`PollReason::Kicked`] after a kick.
    Spin {
        /// Runtime-private resume cookie (as in [`VpSeg::cookie`]).
        cookie: u64,
        /// [`WorkKind::SpinWait`] or [`WorkKind::IdleSpin`].
        kind: WorkKind,
    },
    /// Trap into the kernel. If the call blocks, a kernel-thread VP simply
    /// blocks (and later resumes with [`PollReason::SyscallDone`]); a
    /// scheduler-activation VP triggers the Table 2 `Blocked` upcall and the
    /// thread's eventual return arrives via `Unblocked`. Non-blocking calls
    /// resume with [`PollReason::SyscallDone`] on the same VP either way.
    Syscall {
        /// The kernel call to make.
        call: Syscall,
    },
    /// Return this processor to the kernel for reallocation. The activation
    /// is discarded (SA mode); a kernel-thread VP parks until re-dispatched.
    GiveUp,
}

/// Why the kernel is polling the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollReason {
    /// The VP was just (re)dispatched: after an upcall delivery, at first
    /// run, or when a kernel-thread VP gets the processor back.
    Fresh,
    /// The previous [`VpAction::Run`] segment completed.
    SegDone,
    /// The previous [`VpAction::Syscall`] returned without blocking, or the
    /// blocking call a kernel-thread VP made has completed.
    SyscallDone(SyscallOutcome),
    /// The VP was spinning and another VP kicked it.
    Kicked,
}

/// Kernel calls available to user-level code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syscall {
    /// Blocking device I/O with an explicit duration (the paper's 50 ms
    /// buffer-cache miss).
    Io {
        /// Device service time.
        dur: SimDuration,
    },
    /// Touch a page; blocks only if it faults.
    MemRead {
        /// The page touched.
        page: PageId,
    },
    /// Kernel-level channel signal (wakes at most one kernel-level waiter).
    KernelSignal {
        /// The channel signalled.
        chan: ChanId,
    },
    /// Kernel-level channel wait (blocks until signalled).
    KernelWait {
        /// The channel waited on.
        chan: ChanId,
    },
    /// Table 3: "Add more processors (additional # of processors needed)".
    /// We transmit the space's *total* desired processor count; the paper's
    /// incremental form is a delta encoding of the same information.
    SetDesiredProcessors {
        /// The space's total desired processor count.
        total: u32,
    },
    /// Table 3: "This processor is idle — preempt this processor if another
    /// address space needs it." A hint; the call returns and the VP keeps
    /// spinning until the kernel actually takes the processor.
    ProcessorIdle,
    /// Return discarded activations to the kernel in bulk (§4.3). The
    /// runtime acknowledges the contiguous prefix of notifications it has
    /// processed; the kernel re-caches every husk whose releasing
    /// notification falls inside that prefix (see [`UpcallEvent::seq`]).
    RecycleActivations {
        /// Every notification with `seq <= upto` has been processed.
        upto: u64,
    },
    /// §3.1 priority preemption: ask the kernel to interrupt one of this
    /// space's own processors so its thread can be rescheduled.
    PreemptVp {
        /// The virtual processor (activation) to interrupt.
        vp: VpId,
    },
}

impl Syscall {
    /// Short label for traces (`TrapEnter` events).
    pub fn name(&self) -> &'static str {
        match self {
            Syscall::Io { .. } => "io",
            Syscall::MemRead { .. } => "mem_read",
            Syscall::KernelSignal { .. } => "kernel_signal",
            Syscall::KernelWait { .. } => "kernel_wait",
            Syscall::SetDesiredProcessors { .. } => "set_desired_processors",
            Syscall::ProcessorIdle => "processor_idle",
            Syscall::RecycleActivations { .. } => "recycle_activations",
            Syscall::PreemptVp { .. } => "preempt_vp",
        }
    }
}

/// Result of a completed kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallOutcome {
    /// Generic success (hints, recycling, signals that woke no one special).
    Ok,
    /// The I/O or page read finished.
    IoDone,
    /// The kernel-level wait was satisfied by a signal.
    ChanSignalled,
    /// `MemRead` hit a resident page; no block happened.
    MemHit,
}

/// Access to kernel services during a runtime callback.
///
/// Mutations requested here are applied by the kernel *after* the callback
/// returns, mirroring real trap semantics and keeping the runtime free of
/// reentrancy.
pub struct RtEnv<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The calibrated cost model (runtimes charge themselves with it).
    pub cost: &'a sa_machine::CostModel,
    /// The address space the callback runs for (raw id, for trace events).
    pub space: u32,
    /// Execution trace sink.
    pub trace: &'a mut Trace,
    /// Kicks requested so far, in order. The kernel lends its own
    /// buffer here for each callback and takes it back afterwards, so
    /// kicking allocates nothing once that buffer has grown.
    pub(crate) kicks: Vec<VpId>,
}

impl<'a> RtEnv<'a> {
    /// Creates a callback environment. The kernel builds these around
    /// every runtime callback; custom drivers and runtime unit tests may
    /// construct them directly.
    pub fn new(
        now: SimTime,
        cost: &'a sa_machine::CostModel,
        space: u32,
        trace: &'a mut Trace,
    ) -> Self {
        RtEnv {
            now,
            cost,
            space,
            trace,
            kicks: Vec::new(),
        }
    }

    /// Wake a VP of the same address space that is currently spinning
    /// (models the spinner's test-and-set observing the released lock).
    pub fn kick(&mut self, vp: VpId) {
        self.kicks.push(vp);
    }

    /// The kicks requested so far (drivers consume these after each
    /// callback; the kernel does so internally).
    pub fn take_kicks(&mut self) -> Vec<VpId> {
        std::mem::take(&mut self.kicks)
    }
}

/// A user-level thread system, as seen by the kernel.
///
/// Implementations: original FastThreads on kernel threads (no upcalls are
/// ever delivered; the kernel schedules its VPs obliviously) and
/// FastThreads on scheduler activations (full Table 2/Table 3 protocol).
pub trait UserRuntime {
    /// Number of kernel threads to create as virtual processors, or `None`
    /// if this runtime runs on scheduler activations.
    fn kthread_vps(&self) -> Option<u32>;

    /// Hands the runtime its main application thread at space start.
    fn set_main(&mut self, body: Box<dyn ThreadBody>);

    /// Delivers a batch of Table 2 events on virtual processor `vp`.
    ///
    /// Only called for scheduler-activation runtimes. Zero-time: the actual
    /// processing cost is charged through the segments the runtime emits
    /// from subsequent [`UserRuntime::poll`] calls on `vp`.
    fn deliver_upcall(&mut self, env: &mut RtEnv<'_>, vp: VpId, events: &[UpcallEvent]);

    /// Asks virtual processor `vp` what to do next.
    fn poll(&mut self, env: &mut RtEnv<'_>, vp: VpId, reason: PollReason) -> VpAction;

    /// True when every user-level thread has exited (the space is done).
    fn quiescent(&self) -> bool;

    /// Total desired processors right now (used by tests and, in kernel-
    /// thread mode, never consulted — the kernel can't see it; that is the
    /// integration problem the paper fixes).
    fn desired_processors(&self) -> u32;

    /// One-line operation-count summary for diagnostics.
    fn stats_line(&self) -> String {
        String::new()
    }

    /// Total time user-level threads spent on ready lists before being
    /// dispatched, in nanoseconds (the ledger's ready-wait feed for
    /// spaces whose scheduling the kernel cannot see).
    fn ready_wait_ns(&self) -> u64 {
        0
    }

    /// Multi-line internal state dump for debugging stuck runs.
    fn debug_dump(&self) -> String {
        String::new()
    }

    /// Resident footprint of the runtime's thread-control-block storage,
    /// or `None` for runtimes without slab-backed tables. Feeds the
    /// `bytes_per_thread` benchmark line.
    fn tcb_slab_stats(&self) -> Option<TcbSlabStats> {
        None
    }
}

/// Resident TCB-slab footprint reported by [`UserRuntime::tcb_slab_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbSlabStats {
    /// Rows ever allocated — the high-water mark of live plus
    /// exited-but-unjoined threads (joined rows are recycled, never freed
    /// back).
    pub rows: usize,
    /// Bytes resident in the hot (dispatch-path) half of the slab.
    pub hot_bytes: usize,
    /// Bytes resident across hot and cold halves (excludes heap owned by
    /// boxed thread bodies and continuation queues).
    pub total_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_context_empty() {
        let s = SavedContext::empty();
        assert!(s.remaining.is_zero());
        assert_eq!(s.cookie, 0);
    }

    #[test]
    fn vpseg_overhead_helper() {
        let s = VpSeg::overhead(SimDuration::from_micros(3));
        assert_eq!(s.kind, WorkKind::RuntimeOverhead);
        assert_eq!(s.dur.as_micros(), 3);
    }

    #[test]
    fn upcall_events_map_to_kinds() {
        let add = UpcallEvent::AddProcessor { decision: 42 };
        assert_eq!(add.kind(), UpcallKind::AddProcessor);
        assert_eq!(add.vp(), None);
        let ev = UpcallEvent::Blocked {
            vp: VpId(4),
            seq: 7,
        };
        assert_eq!(ev.kind(), UpcallKind::Blocked);
        assert_eq!(ev.vp(), Some(VpId(4)));
        assert_eq!(ev.seq(), Some(7));
        assert_eq!(ev.decision(), None);
        assert_eq!(add.seq(), None);
        assert_eq!(add.decision(), Some(42));
    }

    #[test]
    fn rtenv_collects_kicks() {
        let cost = sa_machine::CostModel::firefly_prototype();
        let mut trace = Trace::disabled();
        let mut env = RtEnv::new(SimTime::ZERO, &cost, 0, &mut trace);
        env.kick(VpId(3));
        env.kick(VpId(1));
        assert_eq!(env.kicks, vec![VpId(3), VpId(1)]);
    }
}
