//! The FastThreads-like user-level thread scheduler.
//!
//! One implementation serves both substrates ([`Substrate`]): on kernel
//! threads it is "original FastThreads" (no kernel events, oblivious VP
//! scheduling); on scheduler activations it is the paper's system —
//! processing Table 2 upcalls, issuing Table 3 hints, recovering preempted
//! critical sections (§3.3), and recycling activations in bulk (§4.3).
//!
//! ## Execution model
//!
//! The kernel drives each virtual processor by calling
//! [`UserRuntime::poll`]; the runtime answers one action at a time. An
//! operation's leading segment is returned directly; what follows it is
//! deferred work of two kinds:
//!
//! - **Per thread**, a fixed-size continuation in the TCB's cold row
//!   (`UtCold::cont`): at most one typed step that completes the
//!   operation (a `Finish*` step, a bounded spin's expiry, or a kernel
//!   call), preceded by at most one segment remainder saved when the
//!   kernel preempted the thread. It owns no heap memory.
//! - **Per processor**, a reused queue (`Slot::cont`) of segments and
//!   steps for runtime-level work: upcall processing, dispatch,
//!   critical-section recovery.
//!
//! A preempted thread's continuation stays in its row, so the kernel's
//! saved "machine state" (a [`SavedContext`]) plus that row reconstructs
//! the thread exactly, which is what makes Table 2's
//! `Preempted`/`Unblocked` protocol work.
//!
//! A design rule inherited from real hardware: every step re-validates
//! its preconditions when it executes, because other processors run during
//! the segment that precedes it.

use crate::config::{CriticalSectionMode, FtConfig, Substrate};
use crate::ready::{ReadyPolicy, ReadyPolicySelect};
use crate::stats::FtStats;
use crate::sync::{HandOff, SpinPolicy, UCv, ULock};
use crate::types::{
    cookie, seg, Remainder, RtMicro, Slot, SlotStep, SpinCtx, TcbStore, ThreadStep, UtId, UtState,
};
use sa_kernel::upcall::{
    PollReason, RtEnv, SavedContext, Syscall, UpcallEvent, UserRuntime, VpAction, VpSeg, WorkKind,
};
use sa_kernel::VpId;
use sa_kernel::NO_LOCK;
use sa_machine::ids::{CvId, LockId};
use sa_machine::program::{Op, OpResult, StepEnv, ThreadBody};
use sa_machine::CostModel;
use sa_sim::{SimDuration, TraceEvent};

/// How long an idle processor spins before telling the kernel it is
/// available for reallocation (§4.2's hysteresis).
const IDLE_HYSTERESIS: SimDuration = SimDuration::from_micros(200);

/// Discarded activations are returned to the kernel in batches of this
/// size (§4.3's bulk recycling).
const RECYCLE_BATCH: u32 = 4;

/// The user-level thread package.
pub struct FastThreads {
    cfg: FtConfig,
    tcbs: TcbStore,
    slots: Vec<Slot>,
    /// The ready-queue discipline (every ready thread lives here; see
    /// [`crate::ready`] for the policy contract).
    ready: ReadyPolicySelect,
    /// VP id → slot index. A slab rather than a hash map: this is read on
    /// every poll and upcall delivery, and VP ids (kernel-thread indexes
    /// or activation ids) are dense — the kernel allocates activation ids
    /// from a compact table and recycles them (§4.3).
    vp_slot: Vec<Option<u32>>,
    /// Blocking episode (`Blocked.seq`) → the user thread that episode
    /// carried into the kernel. Keyed by the kernel's per-episode sequence
    /// number, not by activation id: activation ids are recycled (§4.3)
    /// and a recycled id's events can be observed out of order when a
    /// preempted processor's unprocessed events migrate (§3.1), so pairing
    /// by id can hand thread A's wakeup to thread B. A `BTreeMap` keeps
    /// iteration (and hence any diagnostics) deterministic.
    blocked_threads: std::collections::BTreeMap<u64, UtId>,
    /// Episodes whose `Unblocked` notification was processed before the
    /// matching `Blocked` event.
    early_unblocks: std::collections::BTreeSet<u64>,
    /// Largest `n` such that every kernel notification with `seq <= n`
    /// has been processed; reported to the kernel in the bulk-recycle
    /// call so husks are never reused while a notification about them is
    /// still in flight (see `UpcallEvent::seq`).
    notify_floor: u64,
    /// Processed notification seqs above `notify_floor` (out-of-order
    /// arrivals waiting for the gap below them to fill).
    notify_seen: std::collections::BTreeSet<u64>,
    /// Reusable buffer for migrating slot continuations (see
    /// [`FastThreads::deactivate_slot`]); empty between calls.
    scratch_cont: Vec<RtMicro>,
    /// Reusable buffer for migrating unprocessed upcall events; empty
    /// between calls.
    scratch_tasks: Vec<UpcallEvent>,
    /// Reusable buffer for condition-variable broadcast wakeups; empty
    /// between calls.
    scratch_cv: Vec<(UtId, LockId)>,
    /// Reusable buffer for the joiners an exiting thread wakes; empty
    /// between calls.
    scratch_joiners: Vec<UtId>,
    /// Lock table indexed by `LockId` (workload lock ids are small and
    /// dense; `None` marks ids never used). A direct-indexed table —
    /// the `HashMap` it replaces paid a hash per lock operation, which
    /// showed up in the engine's event-loop profile.
    locks: Vec<Option<ULock>>,
    /// Condition-variable table indexed by `CvId`; same layout rationale
    /// as `locks`.
    cvs: Vec<Option<UCv>>,
    /// The main thread, created at `set_main`, waiting for the first VP.
    boot_thread: Option<UtId>,
    /// Runnable + running + spinning threads.
    busy: u32,
    /// Threads not yet exited.
    live: u32,
    /// A `SetDesiredProcessors` hint should be sent at the next chance.
    hint_due: bool,
    /// We told the kernel we want more processors and it has not granted
    /// any since — no point repeating the hint (§3.2).
    notified_want_more: bool,
    /// Discarded activation husks not yet returned to the kernel.
    discard_backlog: u32,
    /// A §3.1 priority-preemption request to issue at the next chance.
    preempt_request: Option<VpId>,
    /// Set whenever `hint_due`, `discard_backlog`, or `preempt_request`
    /// gains a pending value: [`FastThreads::fill`] checks this one flag
    /// per poll instead of walking the three kernel-notification checks
    /// on the hot path (cleared when all three are serviced).
    kernel_attention: bool,
    /// Precomputed per-op durations, built on first poll (see
    /// [`CostCache`]).
    cost_cache: Option<CostCache>,
    /// Statistics.
    pub stats: FtStats,
}

/// Precomputed per-operation durations.
///
/// Interpreting an op used to re-sum its cost-model terms — plus the
/// config-dependent critical-flag and busy-accounting surcharges — on
/// every call. All of those are constant for a given `FtConfig` +
/// [`CostModel`] (the kernel's cost model never changes mid-run), so they
/// are folded once here the first time the runtime is polled.
#[derive(Debug, Clone, Copy)]
struct CostCache {
    /// SA busy-count accounting surcharge (zero on kernel threads).
    acct: SimDuration,
    /// Lock acquire fast path: test-and-set + lock body + flag.
    acquire: SimDuration,
    /// Lock release fast path.
    release: SimDuration,
    /// Condition-variable wait/signal/broadcast.
    cv_op: SimDuration,
    /// Fork: TCB alloc + init + ready push, two critical sections, acct.
    fork: SimDuration,
    /// Join bookkeeping.
    join: SimDuration,
    /// Exit: cleanup + TCB free, two critical sections, acct.
    exit: SimDuration,
    /// Ready-list push (yield / requeue paths).
    enqueue: SimDuration,
    /// Ready-list push plus busy accounting (unblock requeue).
    enqueue_acct: SimDuration,
    /// Fixed part of a dispatch: dequeue + context switch + flag.
    dispatch: SimDuration,
}

impl FastThreads {
    /// Creates a runtime with the given configuration.
    pub fn new(cfg: FtConfig) -> Self {
        let slots: Vec<Slot> = match cfg.substrate {
            Substrate::KernelThreads { vps } => (0..vps).map(|_| Slot::new()).collect(),
            Substrate::SchedulerActivations => Vec::new(),
        };
        let mut ready = cfg.ready_policy.build_select();
        ready.ensure_slots(slots.len());
        FastThreads {
            cfg,
            tcbs: TcbStore::default(),
            slots,
            ready,
            vp_slot: Vec::new(),
            blocked_threads: std::collections::BTreeMap::new(),
            early_unblocks: std::collections::BTreeSet::new(),
            notify_floor: 0,
            notify_seen: std::collections::BTreeSet::new(),
            scratch_cont: Vec::new(),
            scratch_tasks: Vec::new(),
            scratch_cv: Vec::new(),
            scratch_joiners: Vec::new(),
            locks: Vec::new(),
            cvs: Vec::new(),
            boot_thread: None,
            busy: 0,
            live: 0,
            hint_due: false,
            kernel_attention: false,
            notified_want_more: false,
            discard_backlog: 0,
            preempt_request: None,
            cost_cache: None,
            stats: FtStats::default(),
        }
    }

    /// True when running on scheduler activations.
    fn is_sa(&self) -> bool {
        matches!(self.cfg.substrate, Substrate::SchedulerActivations)
    }

    /// Replaces the ready discipline with a custom trait-object policy:
    /// one defined outside this crate, or a built-in one wrapped by a
    /// caller (for example a probe that times each policy call).
    /// Call before any thread runs; existing ready threads are not
    /// migrated.
    pub fn set_ready_policy(&mut self, p: Box<dyn ReadyPolicy>) {
        let mut p = ReadyPolicySelect::Custom(p);
        p.ensure_slots(self.slots.len());
        self.ready = p;
    }

    /// Bytes resident in the hot (dispatch-path) half of the TCB slab.
    pub fn tcb_hot_bytes(&self) -> usize {
        self.tcbs.hot_bytes_resident()
    }

    /// Bytes resident in the whole TCB slab (hot + cold rows; excludes
    /// heap owned by boxed bodies and joiner lists).
    pub fn tcb_bytes(&self) -> usize {
        self.tcbs.bytes_resident()
    }

    /// TCB rows ever allocated — the high-water mark of live plus
    /// exited-but-unjoined threads: a row returns to its free list only
    /// once its thread has exited and been joined.
    pub fn tcb_rows(&self) -> usize {
        self.tcbs.len()
    }

    /// Extra per-critical-section cost in `ExplicitFlag` mode; zero in the
    /// paper's zero-overhead scheme (§4.3).
    fn flag_cost(&self, cost: &CostModel) -> SimDuration {
        match self.cfg.critical {
            CriticalSectionMode::ExplicitFlag => cost.explicit_flag,
            _ => SimDuration::ZERO,
        }
    }

    /// Busy-count accounting cost (scheduler activations only; this is the
    /// Table 4 delta over original FastThreads).
    fn busy_acct(&self, cost: &CostModel) -> SimDuration {
        if self.is_sa() {
            cost.sa_busy_accounting
        } else {
            SimDuration::ZERO
        }
    }

    /// The folded per-op duration table, built on first use.
    #[inline]
    fn costs(&mut self, c: &CostModel) -> CostCache {
        if let Some(cc) = self.cost_cache {
            return cc;
        }
        let flag = self.flag_cost(c);
        let acct = self.busy_acct(c);
        let cc = CostCache {
            acct,
            acquire: c.test_and_set + c.ut_lock_fast + flag,
            release: c.ut_lock_fast + flag,
            cv_op: c.ut_cv_op + flag + acct,
            fork: c.ut_tcb_alloc + c.ut_tcb_init + c.ut_ready_enqueue + flag + flag + acct,
            join: c.ut_join,
            exit: c.ut_exit_cleanup + c.ut_tcb_free + flag + flag + acct,
            enqueue: c.ut_ready_enqueue + flag,
            enqueue_acct: c.ut_ready_enqueue + flag + acct,
            dispatch: c.ut_ready_dequeue + c.ut_ctx_switch + flag,
        };
        self.cost_cache = Some(cc);
        cc
    }

    // ---- TCB and queue primitives -------------------------------------

    /// Allocates a TCB from the slot's free list (or grows the table).
    fn alloc_tcb(&mut self, slot: usize, body: Box<dyn ThreadBody>) -> UtId {
        let id = match self.slots[slot].free_tcbs.pop() {
            Some(id) => id,
            None => self.tcbs.push_free(),
        };
        self.tcbs.reinit(id, body);
        id
    }

    /// Hands a thread to the ready policy (hot end) and wakes an idle
    /// processor if one is spinning. Under priority scheduling, a readied
    /// thread that outranks a running one asks the kernel to interrupt the
    /// lowest-priority processor (§3.1).
    fn ready_thread(&mut self, slot: usize, t: UtId, env: &mut RtEnv<'_>) {
        debug_assert_ne!(self.tcbs.hot[t.index()].state, UtState::Free);
        self.tcbs.hot[t.index()].state = UtState::Ready;
        self.tcbs.hot[t.index()].ready_since = Some(env.now);
        self.ready.push(slot, t);
        self.kick_an_idler(env);
        if self.cfg.priority_scheduling && self.is_sa() {
            let new_prio = self.tcbs.hot[t.index()].prio;
            // Find the lowest-priority running thread; if it ranks below
            // the newcomer and no processor is idle, request a preemption.
            let any_idle = self
                .slots
                .iter()
                .any(|s| s.active_vp.is_some() && s.spin == Some(SpinCtx::Idle));
            if !any_idle {
                // Exclude the processor doing the readying: it reaches its
                // own dispatch naturally (the kernel is only needed to
                // interrupt *other* processors, §3.1).
                let victim = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|&(si, s)| {
                        si != slot && s.active_vp.is_some() && s.recovering.is_none()
                    })
                    .filter_map(|(_, s)| {
                        let cur = s.current?;
                        Some((
                            s.active_vp.expect("filtered"),
                            self.tcbs.hot[cur.index()].prio,
                        ))
                    })
                    .min_by_key(|&(_, p)| p);
                if let Some((vp, p)) = victim {
                    if p < new_prio {
                        self.preempt_request = Some(vp);
                        self.kernel_attention = true;
                    }
                }
            }
        }
    }

    /// Kicks one idle-spinning VP, if any.
    fn kick_an_idler(&mut self, env: &mut RtEnv<'_>) {
        for s in &self.slots {
            if s.spin == Some(SpinCtx::Idle) {
                if let Some(vp) = s.active_vp {
                    env.kick(vp);
                    return;
                }
            }
        }
    }

    /// Notes a busy-count change and decides whether the kernel must be
    /// told (§3.2: only transitions matter, and only when the kernel has
    /// not already been asked).
    fn note_busy_changed(&mut self) {
        if !self.is_sa() {
            return;
        }
        let held = self.active_slot_count() as u32;
        if self.busy > held && !self.notified_want_more {
            self.hint_due = true;
            self.kernel_attention = true;
        }
    }

    /// The Table 4 "+5 µs" component: under scheduler activations, a
    /// dispatch of a thread resumed from a condition wait or a preemption
    /// checks whether saved state (condition codes) must be restored.
    fn resume_check_cost(&self, t: UtId, c: &CostModel) -> SimDuration {
        if self.is_sa() && self.tcbs.hot[t.index()].needs_resume_check {
            c.sa_resume_check
        } else {
            SimDuration::ZERO
        }
    }

    fn active_slot_count(&self) -> usize {
        self.slots.iter().filter(|s| s.active_vp.is_some()).count()
    }

    /// The lock's state in `locks`, created empty on first use. A free
    /// function over the field so callers keep disjoint borrows of the
    /// rest of `self` (as `HashMap::entry` allowed).
    fn lock_slot(locks: &mut Vec<Option<ULock>>, l: LockId) -> &mut ULock {
        debug_assert_ne!(l, LockId::NONE, "lock table access with the NONE sentinel");
        let i = l.index();
        if locks.len() <= i {
            locks.resize_with(i + 1, || None);
        }
        locks[i].get_or_insert_with(ULock::default)
    }

    /// The known lock's state, `None` for ids never used.
    fn lock_get_mut(&mut self, l: LockId) -> Option<&mut ULock> {
        self.locks.get_mut(l.index())?.as_mut()
    }

    /// The condition variable's state in `cvs`, created empty on first
    /// use; same borrow shape as [`FastThreads::lock_slot`].
    fn cv_slot(cvs: &mut Vec<Option<UCv>>, cv: CvId) -> &mut UCv {
        let i = cv.index();
        if cvs.len() <= i {
            cvs.resize_with(i + 1, || None);
        }
        cvs[i].get_or_insert_with(UCv::default)
    }

    /// Binds a VP to a slot (reusing an inactive slot if possible).
    fn bind_slot(&mut self, vp: VpId) -> usize {
        if let Some(Some(idx)) = self.vp_slot.get(vp.index()) {
            return *idx as usize;
        }
        let idx = match self.cfg.substrate {
            Substrate::KernelThreads { .. } => vp.index(),
            Substrate::SchedulerActivations => self
                .slots
                .iter()
                .position(|s| s.active_vp.is_none())
                .unwrap_or_else(|| {
                    self.slots.push(Slot::new());
                    self.slots.len() - 1
                }),
        };
        self.ready.ensure_slots(self.slots.len());
        let s = &mut self.slots[idx];
        s.active_vp = Some(vp);
        s.hysteresis_done = false;
        s.idle_hinted = false;
        if self.vp_slot.len() <= vp.index() {
            self.vp_slot.resize(vp.index() + 1, None);
        }
        self.vp_slot[vp.index()] = Some(idx as u32);
        idx
    }

    /// Unbinds a slot whose activation was stopped or blocked; returns the
    /// thread that was loaded (if any) after migrating the slot-level
    /// continuation and unprocessed tasks to `dest`.
    fn deactivate_slot(&mut self, vp: VpId, dest: usize) -> Option<UtId> {
        let idx = self.vp_slot.get_mut(vp.index())?.take()? as usize;
        let t = {
            let s = &mut self.slots[idx];
            s.active_vp = None;
            s.spin = None;
            s.recovering = None;
            s.recovering_since = None;
            s.hysteresis_done = false;
            s.idle_hinted = false;
            s.current.take()
        };
        if idx != dest {
            // "A user-level context switch can be made to continue
            // processing the event" (§3.1): interrupted upcall handling and
            // the events it had not reached continue on the new processor.
            // Staged through persistent scratch buffers (two `self.slots`
            // entries cannot be borrowed at once) so the per-upcall path
            // allocates nothing in the steady state.
            debug_assert!(self.scratch_cont.is_empty() && self.scratch_tasks.is_empty());
            let mut cont = std::mem::take(&mut self.scratch_cont);
            let mut tasks = std::mem::take(&mut self.scratch_tasks);
            cont.extend(self.slots[idx].cont.drain(..));
            tasks.extend(self.slots[idx].tasks.drain(..));
            self.slots[dest].cont.extend(cont.drain(..));
            self.slots[dest].tasks.extend(tasks.drain(..));
            self.scratch_cont = cont;
            self.scratch_tasks = tasks;
        }
        t
    }

    /// First boot: place the main thread on this slot's ready list.
    fn ensure_booted(&mut self, slot: usize, env: &mut RtEnv<'_>) {
        if let Some(main) = self.boot_thread.take() {
            self.ready_thread(slot, main, env);
        }
    }

    // ---- Op interpretation --------------------------------------------

    /// Steps the current thread's body and interprets its next operation.
    fn step_body(&mut self, slot: usize, t: UtId, env: &mut RtEnv<'_>) -> Option<VpSeg> {
        let last = std::mem::replace(&mut self.tcbs.cold[t.index()].next_result, OpResult::Done);
        let step_env = StepEnv {
            now: env.now,
            self_ref: t.as_ref(),
            last,
        };
        let mut body = self.tcbs.cold[t.index()]
            .body
            .take()
            .expect("running thread without body");
        let op = body.step(&step_env);
        self.tcbs.cold[t.index()].body = Some(body);
        self.interpret(slot, t, op, env)
    }

    /// Translates one thread operation into its leading segment (returned
    /// for the caller to run immediately) plus the step that completes it,
    /// queued on the thread's continuation. A kernel call's leading
    /// segment is the busy-count accounting, if any; with none, the call
    /// surfaces straight from the poll loop and this returns `None`.
    fn interpret(&mut self, slot: usize, t: UtId, op: Op, env: &mut RtEnv<'_>) -> Option<VpSeg> {
        let cc = self.costs(env.cost);
        let fork_prio = match &op {
            Op::ForkPrio(_, prio) => Some(*prio),
            _ => None,
        };
        let (d, step) = match op {
            Op::Compute(d) => {
                let critical = self.tcbs.hot[t.index()].locks_held > 0;
                return Some(seg(
                    d,
                    WorkKind::UserWork,
                    cookie::Tag::User,
                    Some(t),
                    critical,
                ));
            }
            Op::Acquire(l) => (cc.acquire, ThreadStep::FinishAcquire(l)),
            Op::Release(l) => (cc.release, ThreadStep::FinishRelease(l)),
            Op::Wait { cv, lock } => (cc.cv_op, ThreadStep::FinishCvWait { cv, lock }),
            Op::Signal(cv) => (cc.cv_op, ThreadStep::FinishCvSignal(cv)),
            Op::Broadcast(cv) => (cc.cv_op, ThreadStep::FinishCvBroadcast(cv)),
            Op::Fork(body) | Op::ForkPrio(body, _) => {
                self.stats.forks.inc();
                let span = body.span_id();
                let child = self.alloc_tcb(slot, body);
                if let Some(prio) = fork_prio {
                    self.tcbs.hot[child.index()].prio = prio;
                }
                if let Some(req) = span {
                    env.trace.event(env.now, || sa_sim::TraceEvent::SpanBind {
                        req,
                        space: env.space,
                        thread: child.0,
                    });
                }
                // TCB free list + init + ready-list push: two critical
                // sections plus the scheduler-activation busy accounting.
                (cc.fork, ThreadStep::FinishFork(child))
            }
            Op::Join(r) => (cc.join, ThreadStep::FinishJoin(UtId::from_ref(r))),
            Op::Exit => {
                self.stats.exits.inc();
                (cc.exit, ThreadStep::FinishExit)
            }
            Op::Yield => (cc.enqueue, ThreadStep::FinishYield),
            Op::Io(dur) => return self.thread_call(t, Syscall::Io { dur }, cc.acct),
            Op::MemRead(page) => return self.thread_call(t, Syscall::MemRead { page }, cc.acct),
            Op::KernelSignal(chan) => {
                return self.thread_call(t, Syscall::KernelSignal { chan }, cc.acct)
            }
            Op::KernelWait(chan) => {
                return self.thread_call(t, Syscall::KernelWait { chan }, cc.acct)
            }
        };
        self.tcbs.cold[t.index()].cont.set_step(step);
        Some(seg(
            d,
            WorkKind::RuntimeOverhead,
            cookie::Tag::RuntimeOp,
            Some(t),
            true,
        ))
    }

    /// Queues a kernel call on behalf of the current thread, returning
    /// the busy-count accounting segment that precedes it (scheduler
    /// activations only).
    fn thread_call(&mut self, t: UtId, call: Syscall, acct: SimDuration) -> Option<VpSeg> {
        self.tcbs.cold[t.index()]
            .cont
            .set_step(ThreadStep::Call(call));
        (!acct.is_zero()).then(|| {
            seg(
                acct,
                WorkKind::RuntimeOverhead,
                cookie::Tag::RuntimeOp,
                Some(t),
                false,
            )
        })
    }

    // ---- Steps ---------------------------------------------------------

    /// Applies one processor-level step; may push further micro-work.
    fn apply_slot_step(&mut self, slot: usize, st: SlotStep, env: &mut RtEnv<'_>) {
        match st {
            SlotStep::FinishDispatch(t) => {
                self.stats.dispatches.inc();
                self.tcbs.hot[t.index()].needs_resume_check = false;
                self.slots[slot].hysteresis_done = false;
                self.slots[slot].idle_hinted = false;
                if self.slots[slot].current.is_some() {
                    // A migrated dispatch raced with this slot's own; keep
                    // the incumbent and requeue the newcomer.
                    self.ready_thread(slot, t, env);
                } else {
                    if let Some(since) = self.tcbs.hot[t.index()].ready_since.take() {
                        self.stats.ready_wait.record(env.now.since(since));
                    }
                    self.slots[slot].current = Some(t);
                    self.tcbs.hot[t.index()].state = UtState::Running;
                }
            }
            SlotStep::StartRecovery(t) => {
                self.stats.recoveries.inc();
                // A dispatch migrated from the preempted processor may have
                // loaded a thread already; the critical-section recovery
                // takes priority, so put that thread back on the ready list.
                if let Some(cur) = self.slots[slot].current.take() {
                    debug_assert_ne!(cur, t, "recovering the loaded thread");
                    self.ready_thread(slot, cur, env);
                }
                self.slots[slot].recovering = Some(t);
                self.slots[slot].recovering_since = Some(env.now);
                self.slots[slot].current = Some(t);
                self.tcbs.hot[t.index()].state = UtState::Running;
            }
            SlotStep::EndRecovery => {
                let Some(t) = self.slots[slot].recovering.take() else {
                    return; // recovery superseded by a second preemption
                };
                if let Some(since) = self.slots[slot].recovering_since.take() {
                    self.stats.recovery_time.record(env.now.since(since));
                }
                debug_assert_eq!(self.slots[slot].current, Some(t));
                self.slots[slot].current = None;
                self.ready_thread(slot, t, env);
            }
            SlotStep::ReadyThread(t) => {
                self.ready_thread(slot, t, env);
            }
        }
    }

    /// Applies the step completing the current thread `t`'s operation.
    /// Returns the action that ends the poll, if the step starts a spin
    /// or a kernel call; otherwise the poll loop carries on.
    fn apply_thread_step(
        &mut self,
        slot: usize,
        vp: VpId,
        t: UtId,
        st: ThreadStep,
        env: &mut RtEnv<'_>,
    ) -> Option<VpAction> {
        debug_assert_eq!(self.slots[slot].current, Some(t));
        match st {
            ThreadStep::FinishAcquire(l) => return self.finish_acquire(slot, vp, l, env),
            ThreadStep::FinishRelease(l) => self.finish_release(slot, l, env),
            ThreadStep::FinishCvWait { cv, lock } => self.finish_cv_wait(slot, cv, lock, env),
            ThreadStep::FinishCvSignal(cv) => self.finish_cv_signal(slot, cv, env),
            ThreadStep::FinishCvBroadcast(cv) => self.finish_cv_broadcast(slot, cv, env),
            ThreadStep::FinishFork(child) => {
                debug_assert_ne!(child, t);
                self.live += 1;
                self.busy += 1;
                self.ready_thread(slot, child, env);
                self.note_busy_changed();
                self.tcbs.cold[t.index()].next_result = OpResult::Forked(child.as_ref());
            }
            ThreadStep::FinishJoin(target) => self.finish_join(slot, target),
            ThreadStep::FinishYield => {
                self.slots[slot].current = None;
                // A yielding thread goes to the *cold* end of the ready
                // queue so every other runnable thread goes first.
                self.tcbs.hot[t.index()].state = UtState::Ready;
                self.tcbs.hot[t.index()].ready_since = Some(env.now);
                self.ready.push_cold(slot, t);
                self.kick_an_idler(env);
            }
            ThreadStep::FinishExit => self.finish_exit(slot, env),
            ThreadStep::SpinExpired(l) => self.spin_expired(slot, l),
            ThreadStep::Call(call) => return Some(VpAction::Syscall { call }),
        }
        None
    }

    /// Completes an acquire; a contended lock returns the spin that
    /// starts waiting for it, unless the policy blocks at once.
    fn finish_acquire(
        &mut self,
        slot: usize,
        vp: VpId,
        l: LockId,
        env: &mut RtEnv<'_>,
    ) -> Option<VpAction> {
        let t = self.slots[slot].current.expect("acquire without thread");
        let lock = Self::lock_slot(&mut self.locks, l);
        match lock.holder {
            None => {
                lock.holder = Some(t);
                self.stats.lock_fast.inc();
                self.tcbs.hot[t.index()].locks_held += 1;
                self.tcbs.hot[t.index()].spinning_on = None;
                self.tcbs.hot[t.index()].state = UtState::Running;
            }
            Some(h) if h == t => {
                // Handed off to us while we were spinning or blocked.
                self.tcbs.hot[t.index()].locks_held += 1;
                self.tcbs.hot[t.index()].spinning_on = None;
                self.tcbs.hot[t.index()].state = UtState::Running;
            }
            Some(_) => {
                self.stats.lock_contended.inc();
                if self.cfg.lock_policy == SpinPolicy::BlockImmediately {
                    self.block_on_lock(slot, t, l);
                    return None;
                }
                lock.spinners.push_back((t, slot));
                self.tcbs.hot[t.index()].state = UtState::Spinning;
                self.tcbs.hot[t.index()].spinning_on = Some(l);
                self.slots[slot].spin = Some(SpinCtx::Lock { t, lock: l });
                if let SpinPolicy::SpinThenBlock { spin } = self.cfg.lock_policy {
                    self.tcbs.cold[t.index()]
                        .cont
                        .set_step(ThreadStep::SpinExpired(l));
                    return Some(VpAction::Run(seg(
                        spin,
                        WorkKind::SpinWait,
                        cookie::Tag::SpinLock,
                        Some(t),
                        false,
                    )));
                }
                // Spin until a release kicks this processor or the kernel
                // preempts it.
                let space = env.space;
                env.trace
                    .event(env.now, || TraceEvent::SpinStart { space, vp: vp.0 });
                return Some(VpAction::Spin {
                    cookie: cookie::pack(cookie::Tag::SpinLock, Some(t), false),
                    kind: WorkKind::SpinWait,
                });
            }
        }
        None
    }

    /// The bounded spin ran out: block at user level.
    fn spin_expired(&mut self, slot: usize, l: LockId) {
        self.slots[slot].spin = None;
        let t = self.slots[slot].current.expect("spin without thread");
        self.tcbs.hot[t.index()].spinning_on = None;
        let lock = Self::lock_slot(&mut self.locks, l);
        if lock.holder == Some(t) {
            // Granted at the last moment; take it.
            self.tcbs.hot[t.index()].locks_held += 1;
            self.tcbs.hot[t.index()].state = UtState::Running;
            return;
        }
        lock.remove_spinner(t);
        self.stats.spin_blocks.inc();
        self.block_on_lock(slot, t, l);
    }

    fn block_on_lock(&mut self, slot: usize, t: UtId, l: LockId) {
        Self::lock_slot(&mut self.locks, l).waiters.push_back(t);
        self.tcbs.hot[t.index()].state = UtState::BlockedLock(l);
        self.slots[slot].current = None;
        self.busy -= 1;
    }

    fn finish_release(&mut self, slot: usize, l: LockId, env: &mut RtEnv<'_>) {
        let t = self.slots[slot].current.expect("release without thread");
        {
            let held = &mut self.tcbs.hot[t.index()].locks_held;
            debug_assert!(*held > 0, "release while holding no locks");
            *held = held.saturating_sub(1);
        }
        let lock = self.lock_get_mut(l).expect("release of unknown lock");
        debug_assert_eq!(lock.holder, Some(t), "release by non-holder");
        match lock.hand_off() {
            HandOff::None => {}
            HandOff::Spinner { t: w, slot: wslot } => {
                // The spinner's next test-and-set sees the lock is its own.
                if self.slots[wslot].current == Some(w)
                    && self.slots[wslot].spin == Some(SpinCtx::Lock { t: w, lock: l })
                {
                    if let Some(vp) = self.slots[wslot].active_vp {
                        env.kick(vp);
                    }
                }
                // Otherwise the spinner was preempted; it re-checks when
                // it is resumed and finds itself the holder.
            }
            HandOff::WakeRetry(w) => {
                self.busy += 1;
                self.tcbs.cold[w.index()]
                    .cont
                    .set_step(ThreadStep::FinishAcquire(l));
                self.ready_thread(slot, w, env);
                self.note_busy_changed();
            }
        }
    }

    fn finish_cv_wait(&mut self, slot: usize, cv: CvId, lock: LockId, env: &mut RtEnv<'_>) {
        let t = self.slots[slot].current.expect("wait without thread");
        let c = Self::cv_slot(&mut self.cvs, cv);
        if c.banked > 0 {
            // Equivalent to an immediate (spurious) wakeup; the lock is
            // kept. Mesa-style users re-check their predicate.
            c.banked -= 1;
            return;
        }
        c.waiters.push_back((t, lock));
        self.tcbs.hot[t.index()].state = UtState::BlockedCv(cv);
        self.slots[slot].current = None;
        self.busy -= 1;
        if lock != NO_LOCK {
            // Atomically release the mutex.
            self.release_for_wait(slot, t, lock, env);
        }
    }

    /// Lock release performed inside a cv wait (the waiter is already
    /// blocked).
    fn release_for_wait(&mut self, slot: usize, t: UtId, l: LockId, env: &mut RtEnv<'_>) {
        {
            let held = &mut self.tcbs.hot[t.index()].locks_held;
            debug_assert!(*held > 0, "cv wait without holding the lock");
            *held -= 1;
        }
        let lock = self.lock_get_mut(l).expect("wait with unknown lock");
        debug_assert_eq!(lock.holder, Some(t));
        match lock.hand_off() {
            HandOff::None => {}
            HandOff::Spinner { t: w, slot: wslot } => {
                if self.slots[wslot].current == Some(w)
                    && self.slots[wslot].spin == Some(SpinCtx::Lock { t: w, lock: l })
                {
                    if let Some(vp) = self.slots[wslot].active_vp {
                        env.kick(vp);
                    }
                }
            }
            HandOff::WakeRetry(w) => {
                self.busy += 1;
                self.tcbs.cold[w.index()]
                    .cont
                    .set_step(ThreadStep::FinishAcquire(l));
                self.ready_thread(slot, w, env);
                self.note_busy_changed();
            }
        }
    }

    fn finish_cv_signal(&mut self, slot: usize, cv: CvId, env: &mut RtEnv<'_>) {
        let c = Self::cv_slot(&mut self.cvs, cv);
        match c.waiters.pop_front() {
            None => c.banked += 1,
            Some((w, lock)) => self.wake_cv_waiter(slot, w, lock, env),
        }
    }

    fn finish_cv_broadcast(&mut self, slot: usize, cv: CvId, env: &mut RtEnv<'_>) {
        // Staged through a persistent scratch buffer: `wake_cv_waiter`
        // needs `&mut self`, so the waiter list cannot stay borrowed while
        // waking, and a fresh `Vec` per broadcast would put an allocation
        // on the signal path.
        debug_assert!(self.scratch_cv.is_empty());
        let mut waiters = std::mem::take(&mut self.scratch_cv);
        waiters.extend(Self::cv_slot(&mut self.cvs, cv).waiters.drain(..));
        for (w, lock) in waiters.drain(..) {
            self.wake_cv_waiter(slot, w, lock, env);
        }
        self.scratch_cv = waiters;
    }

    /// A signalled waiter either becomes ready (re-acquiring a free mutex
    /// on the way) or moves onto the mutex's wait queue.
    fn wake_cv_waiter(&mut self, slot: usize, w: UtId, lock: LockId, env: &mut RtEnv<'_>) {
        if lock != NO_LOCK {
            let l = Self::lock_slot(&mut self.locks, lock);
            if l.holder.is_some() {
                l.waiters.push_back(w);
                self.tcbs.hot[w.index()].state = UtState::BlockedLock(lock);
                return;
            }
            l.holder = Some(w);
            self.tcbs.hot[w.index()].locks_held += 1;
        }
        self.tcbs.hot[w.index()].needs_resume_check = true;
        self.busy += 1;
        self.ready_thread(slot, w, env);
        self.note_busy_changed();
    }

    fn finish_join(&mut self, slot: usize, target: UtId) {
        let t = self.slots[slot].current.expect("join without thread");
        if self.tcbs.hot[target.index()].exited {
            if self.tcbs.hot[target.index()].state == UtState::Exited {
                // Reap: the control block can be reused now.
                self.tcbs.hot[target.index()].state = UtState::Free;
                self.tcbs.cold[target.index()].body = None;
                self.slots[slot].free_tcbs.push(target);
            }
        } else {
            self.tcbs.cold[target.index()].joiners.push(t);
            self.tcbs.hot[t.index()].state = UtState::BlockedJoin(target);
            self.slots[slot].current = None;
            self.busy -= 1;
        }
    }

    fn finish_exit(&mut self, slot: usize, env: &mut RtEnv<'_>) {
        let t = self.slots[slot]
            .current
            .take()
            .expect("exit without thread");
        debug_assert_eq!(
            self.tcbs.hot[t.index()].locks_held,
            0,
            "thread exited holding a lock"
        );
        self.tcbs.hot[t.index()].exited = true;
        self.tcbs.cold[t.index()].body = None;
        self.live -= 1;
        self.busy -= 1;
        if self.tcbs.cold[t.index()].joiners.is_empty() {
            self.tcbs.hot[t.index()].state = UtState::Exited;
            return;
        }
        // Joined already: reap immediately. The joiners are staged through
        // a persistent scratch buffer, as in `finish_cv_broadcast`, so the
        // row keeps its list's capacity for the next thread that reuses it.
        self.tcbs.hot[t.index()].state = UtState::Free;
        self.slots[slot].free_tcbs.push(t);
        debug_assert!(self.scratch_joiners.is_empty());
        let mut joiners = std::mem::take(&mut self.scratch_joiners);
        joiners.append(&mut self.tcbs.cold[t.index()].joiners);
        for j in joiners.drain(..) {
            self.busy += 1;
            self.ready_thread(slot, j, env);
        }
        self.scratch_joiners = joiners;
        self.note_busy_changed();
    }

    // ---- Upcall event processing (scheduler activations) ---------------

    /// Records that the notification numbered `seq` has been processed,
    /// advancing the contiguous floor reported to the kernel at the next
    /// bulk recycle (see `notify_floor`).
    fn note_seq(&mut self, seq: u64) {
        if seq == self.notify_floor + 1 {
            self.notify_floor = seq;
            while self.notify_seen.remove(&(self.notify_floor + 1)) {
                self.notify_floor += 1;
            }
        } else {
            debug_assert!(seq > self.notify_floor, "notification seq {seq} replayed");
            self.notify_seen.insert(seq);
        }
    }

    /// Processes one Table 2 event, pushing any follow-up micro-work onto
    /// the slot's continuation.
    fn process_task(&mut self, slot: usize, ev: UpcallEvent, env: &mut RtEnv<'_>) {
        let c = env.cost;
        if let Some(seq) = ev.seq() {
            self.note_seq(seq);
        }
        match ev {
            UpcallEvent::AddProcessor { .. } => {
                // The processor is the one we are running on; nothing to
                // record beyond resetting the want-more notification state.
                self.notified_want_more = false;
                self.note_busy_changed();
            }
            UpcallEvent::Blocked { vp, seq } => {
                let t = self.deactivate_slot(vp, slot);
                if let Some(t) = t {
                    debug_assert_ne!(self.tcbs.hot[t.index()].state, UtState::Free);
                    if self.early_unblocks.remove(&seq) {
                        // The unblock notification overtook this event; the
                        // thread is already runnable again.
                        let d = self.costs(c).enqueue;
                        let sgm = seg(d, WorkKind::UpcallWork, cookie::Tag::Upcall, None, true);
                        let q = &mut self.slots[slot].cont;
                        q.push_back(RtMicro::Seg(sgm));
                        q.push_back(RtMicro::Step(SlotStep::ReadyThread(t)));
                    } else {
                        self.tcbs.hot[t.index()].state = UtState::BlockedKernel;
                        self.busy -= 1;
                        let prev = self.blocked_threads.insert(seq, t);
                        debug_assert!(prev.is_none(), "duplicate block episode {seq}");
                    }
                }
            }
            UpcallEvent::Unblocked {
                vp: _,
                blocked_seq,
                seq: _,
                outcome: _,
                saved: _,
            } => {
                self.stats.unblocks.inc();
                self.discard_backlog += 1;
                self.kernel_attention = true;
                let Some(t) = self.blocked_threads.remove(&blocked_seq) else {
                    // Arrived before the matching Blocked event (§3.1
                    // migration reordering); remember the episode.
                    self.early_unblocks.insert(blocked_seq);
                    return;
                };
                debug_assert_eq!(self.tcbs.hot[t.index()].state, UtState::BlockedKernel);
                self.busy += 1;
                let d = self.costs(c).enqueue_acct;
                let s = seg(d, WorkKind::UpcallWork, cookie::Tag::Upcall, None, true);
                let q = &mut self.slots[slot].cont;
                q.push_back(RtMicro::Seg(s));
                q.push_back(RtMicro::Step(SlotStep::ReadyThread(t)));
                self.note_busy_changed();
            }
            UpcallEvent::Preempted { vp, saved, .. } => {
                self.stats.preemptions_seen.inc();
                self.discard_backlog += 1;
                self.kernel_attention = true;
                let t = self.deactivate_slot(vp, slot);
                let Some(t) = t else {
                    // The recycle floor guarantees the binding for `vp` is
                    // live (a stale one cannot survive a reuse), so an
                    // unbound vp really was in the idle loop and carries no
                    // thread state to recover.
                    debug_assert!(
                        saved.remaining.is_zero() || !matches!(saved.kind, WorkKind::UserWork),
                        "preempted idle vp {vp} carried a user remainder"
                    );
                    // "If a preempted processor was in the idle loop, no
                    // action is necessary." (§3.1)
                    return;
                };
                self.handle_preempted_thread(slot, t, saved, env);
            }
        }
    }

    /// Returns a preempted thread to the ready list — after continuing it
    /// through its critical section if necessary (§3.3).
    fn handle_preempted_thread(
        &mut self,
        slot: usize,
        t: UtId,
        saved: SavedContext,
        env: &mut RtEnv<'_>,
    ) {
        let c = env.cost;
        match self.tcbs.hot[t.index()].state {
            UtState::Spinning => {
                // Drop the spin; the thread re-attempts the acquire when
                // it is resumed (a spinner's first action is always to
                // re-read the lock word).
                let lock = self.tcbs.hot[t.index()]
                    .spinning_on
                    .take()
                    .expect("spinning thread without a target lock");
                if let Some(l) = self.lock_get_mut(lock) {
                    l.remove_spinner(t);
                }
                self.retry_acquire(t, lock);
                self.tcbs.hot[t.index()].state = UtState::Preempted;
                self.tcbs.hot[t.index()].needs_resume_check = true;
            }
            UtState::Running => {
                self.tcbs.hot[t.index()].state = UtState::Preempted;
                self.tcbs.hot[t.index()].needs_resume_check = true;
                // The kernel-saved register state: the unfinished segment.
                let (_, owner, _crit) = cookie::unpack(saved.cookie);
                debug_assert!(
                    owner == Some(t)
                        || saved.remaining.is_zero()
                        || !matches!(saved.kind, WorkKind::UserWork),
                    "preempted {t}'s saved user remainder belongs to {owner:?}"
                );
                if owner == Some(t) && !saved.remaining.is_zero() {
                    let cont = &mut self.tcbs.cold[t.index()].cont;
                    debug_assert!(cont.rem.is_none(), "{t} preempted twice without running");
                    cont.rem = Some(Remainder {
                        dur: saved.remaining,
                        kind: saved.kind,
                        critical: cookie::unpack(saved.cookie).2,
                    });
                }
            }
            other => {
                debug_assert!(false, "preempted thread {t} in unexpected state {other:?}");
            }
        }
        let in_critical = cookie::unpack(saved.cookie).2 || self.tcbs.hot[t.index()].locks_held > 0;
        if in_critical && self.cfg.critical != CriticalSectionMode::NoRecovery {
            // Continue the thread via a user-level context switch until it
            // leaves its critical section; it then relinquishes control
            // back to this upcall (§3.3).
            let d = c.ut_ctx_switch;
            let s = seg(d, WorkKind::UpcallWork, cookie::Tag::Upcall, None, false);
            let q = &mut self.slots[slot].cont;
            q.push_back(RtMicro::Seg(s));
            q.push_back(RtMicro::Step(SlotStep::StartRecovery(t)));
        } else {
            let d = self.costs(c).enqueue;
            let s = seg(d, WorkKind::UpcallWork, cookie::Tag::Upcall, None, true);
            let q = &mut self.slots[slot].cont;
            q.push_back(RtMicro::Seg(s));
            q.push_back(RtMicro::Step(SlotStep::ReadyThread(t)));
        }
    }

    /// Drops a spinner's pending spin expiry and re-queues its acquire: a
    /// spinner's first action on resuming is always to re-read the lock
    /// word (the releaser may have made it the holder).
    fn retry_acquire(&mut self, t: UtId, lock: LockId) {
        let cont = &mut self.tcbs.cold[t.index()].cont;
        debug_assert!(
            cont.rem.is_none() && matches!(cont.step, None | Some(ThreadStep::SpinExpired(_))),
            "spinner {t} with pending {cont:?}"
        );
        cont.step = Some(ThreadStep::FinishAcquire(lock));
    }

    // ---- The fill decision --------------------------------------------

    /// Services pending kernel notifications (Table 3 / recycling / §3.1
    /// priority preemption), guarded by `kernel_attention` so the hot
    /// path pays one flag check. Clears the flag once nothing is pending.
    #[cold]
    fn service_kernel_attention(&mut self, slot: usize) -> Option<VpAction> {
        if self.is_sa() {
            if let Some(vp) = self.preempt_request.take() {
                // Don't interrupt ourselves; the high-priority thread will
                // be picked by this slot's own next dispatch.
                if self.slots[slot].active_vp != Some(vp) {
                    return Some(VpAction::Syscall {
                        call: Syscall::PreemptVp { vp },
                    });
                }
            }
            if self.hint_due {
                self.hint_due = false;
                self.notified_want_more = true;
                self.stats.hints.inc();
                let total = self.busy.min(self.cfg.max_processors);
                return Some(VpAction::Syscall {
                    call: Syscall::SetDesiredProcessors { total },
                });
            }
            if self.discard_backlog >= RECYCLE_BATCH {
                self.discard_backlog = 0;
                self.stats.recycles.inc();
                return Some(VpAction::Syscall {
                    call: Syscall::RecycleActivations {
                        upto: self.notify_floor,
                    },
                });
            }
        }
        self.kernel_attention = false;
        None
    }

    /// Decides what this processor does next when all queued micro-work is
    /// exhausted. Pushes new micro-work and returns `None`, or returns a
    /// terminal action.
    fn fill(&mut self, slot: usize, env: &mut RtEnv<'_>) -> Option<VpAction> {
        let c = env.cost;
        // 0. Recovery in progress: drive the recovered thread.
        if let Some(r) = self.slots[slot].recovering {
            if self.slots[slot].current != Some(r) {
                // The recovered thread exited or blocked at user level
                // while being continued; switch straight back to the
                // interrupted upcall processing.
                self.slots[slot].recovering = None;
                if let Some(since) = self.slots[slot].recovering_since.take() {
                    self.stats.recovery_time.record(env.now.since(since));
                }
                let s = seg(
                    c.ut_ctx_switch,
                    WorkKind::UpcallWork,
                    cookie::Tag::Upcall,
                    None,
                    false,
                );
                return Some(VpAction::Run(s));
            }
            if self.tcbs.hot[r.index()].locks_held == 0 && self.tcbs.cold[r.index()].cont.is_empty()
            {
                let d = c.ut_ctx_switch;
                let s = seg(d, WorkKind::UpcallWork, cookie::Tag::Upcall, None, false);
                self.slots[slot]
                    .cont
                    .push_back(RtMicro::Step(SlotStep::EndRecovery));
                return Some(VpAction::Run(s));
            }
            return self.step_body(slot, r, env).map(VpAction::Run);
        }
        // 1. Unprocessed upcall events.
        if let Some(ev) = self.slots[slot].tasks.pop_front() {
            self.process_task(slot, ev, env);
            return None;
        }
        // 2. Pending kernel notifications (Table 3 / recycling / §3.1
        //    priority preemption).
        if self.kernel_attention {
            if let Some(action) = self.service_kernel_attention(slot) {
                return Some(action);
            }
        }
        // 3. A loaded thread: run its next operation.
        if let Some(t) = self.slots[slot].current {
            return self.step_body(slot, t, env).map(VpAction::Run);
        }
        // 4. Dispatch: ask the ready policy for a thread (§2.1 — the
        //    discipline is the application's choice). The policy reports
        //    how it found the thread; the mechanism charges the costs.
        let pick = if self.cfg.priority_scheduling {
            self.ready
                .pop_best(slot, &|t| self.tcbs.hot[t.index()].prio)
        } else {
            self.ready.pop(slot)
        };
        if let Some(pick) = pick {
            let t = pick.t;
            if pick.stolen {
                self.stats.steals.inc();
            }
            let d = c.ut_scan_step.saturating_mul(pick.scan_steps)
                + self.costs(c).dispatch
                + self.resume_check_cost(t, c);
            let s = seg(
                d,
                WorkKind::RuntimeOverhead,
                cookie::Tag::Dispatch,
                Some(t),
                true,
            );
            self.slots[slot]
                .cont
                .push_back(RtMicro::Step(SlotStep::FinishDispatch(t)));
            return Some(VpAction::Run(s));
        }
        // 5. Nothing runnable.
        if self.live == 0 {
            return Some(VpAction::GiveUp);
        }
        if self.is_sa() {
            if !self.slots[slot].hysteresis_done {
                // Spin briefly before offering the processor back, to avoid
                // re-allocation churn (§4.2).
                self.slots[slot].hysteresis_done = true;
                self.slots[slot].spin = Some(SpinCtx::Idle);
                let s = seg(
                    IDLE_HYSTERESIS,
                    WorkKind::IdleSpin,
                    cookie::Tag::Idle,
                    None,
                    false,
                );
                return Some(VpAction::Run(s));
            }
            if !self.slots[slot].idle_hinted {
                self.slots[slot].idle_hinted = true;
                self.stats.hints.inc();
                return Some(VpAction::Syscall {
                    call: Syscall::ProcessorIdle,
                });
            }
        }
        // Idle loop: burn the processor until work appears or the kernel
        // takes it (on kernel threads this burning is invisible to the
        // kernel — the §2.2 problem).
        self.slots[slot].spin = Some(SpinCtx::Idle);
        let space = env.space;
        let vp = self.slots[slot].active_vp.map_or(0, |v| v.0);
        env.trace
            .event(env.now, || TraceEvent::SpinStart { space, vp });
        Some(VpAction::Spin {
            cookie: cookie::pack(cookie::Tag::Idle, None, false),
            kind: WorkKind::IdleSpin,
        })
    }
}

impl UserRuntime for FastThreads {
    fn kthread_vps(&self) -> Option<u32> {
        match self.cfg.substrate {
            Substrate::KernelThreads { vps } => Some(vps),
            Substrate::SchedulerActivations => None,
        }
    }

    fn set_main(&mut self, body: Box<dyn ThreadBody>) {
        debug_assert!(self.boot_thread.is_none(), "set_main called twice");
        let id = self.tcbs.push_free();
        self.tcbs.reinit(id, body);
        self.live = 1;
        self.busy = 1;
        self.boot_thread = Some(id);
    }

    fn deliver_upcall(&mut self, _env: &mut RtEnv<'_>, vp: VpId, events: &[UpcallEvent]) {
        self.stats.upcalls.inc();
        let slot = self.bind_slot(vp);
        self.slots[slot].tasks.extend(events.iter().copied());
    }

    fn poll(&mut self, env: &mut RtEnv<'_>, vp: VpId, reason: PollReason) -> VpAction {
        let slot = self.bind_slot(vp);
        self.ensure_booted(slot, env);
        // Only a kick needs handling here. A finished kernel call needs no
        // routing: the thread that made it is still loaded on this slot and
        // simply runs its next operation.
        if reason == PollReason::Kicked {
            let ctx = self.slots[slot].spin.take();
            if ctx.is_some() {
                let space = env.space;
                env.trace
                    .event(env.now, || TraceEvent::SpinStop { space, vp: vp.0 });
            }
            if let Some(SpinCtx::Lock { t, lock }) = ctx {
                // The releaser made us holder.
                let l = Self::lock_slot(&mut self.locks, lock);
                l.remove_spinner(t);
                self.tcbs.hot[t.index()].spinning_on = None;
                self.tcbs.hot[t.index()].state = UtState::Running;
                self.retry_acquire(t, lock);
            }
        }
        // Main execution loop: slot-level work first (upcall processing and
        // dispatch), then the loaded thread's continuation, else decide.
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 100_000, "runtime livelock on slot {slot}");
            if let Some(m) = self.slots[slot].cont.pop_front() {
                match m {
                    RtMicro::Seg(s) => return VpAction::Run(s),
                    RtMicro::Step(st) => self.apply_slot_step(slot, st, env),
                }
                continue;
            }
            if let Some(t) = self.slots[slot].current {
                let cont = &mut self.tcbs.cold[t.index()].cont;
                if let Some(rem) = cont.rem.take() {
                    return VpAction::Run(seg(
                        rem.dur,
                        rem.kind,
                        cookie::Tag::User,
                        Some(t),
                        rem.critical,
                    ));
                }
                if let Some(st) = cont.step.take() {
                    if let Some(action) = self.apply_thread_step(slot, vp, t, st, env) {
                        return action;
                    }
                    continue;
                }
            }
            if let Some(action) = self.fill(slot, env) {
                return action;
            }
        }
    }

    fn quiescent(&self) -> bool {
        self.live == 0 && self.boot_thread.is_none()
    }

    fn desired_processors(&self) -> u32 {
        self.busy.min(self.cfg.max_processors)
    }

    fn ready_wait_ns(&self) -> u64 {
        self.stats.ready_wait.sum_ns() as u64
    }

    fn tcb_slab_stats(&self) -> Option<sa_kernel::upcall::TcbSlabStats> {
        Some(sa_kernel::upcall::TcbSlabStats {
            rows: self.tcb_rows(),
            hot_bytes: self.tcb_hot_bytes(),
            total_bytes: self.tcb_bytes(),
        })
    }

    fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut by_state: std::collections::HashMap<String, u32> = Default::default();
        for t in self.tcbs.hot.iter() {
            *by_state.entry(format!("{:?}", t.state)).or_default() += 1;
        }
        let mut states: Vec<_> = by_state.into_iter().collect();
        states.sort();
        let _ = writeln!(out, "threads by state: {states:?}");
        let _ = writeln!(
            out,
            "busy={} live={} boot={:?} hint_due={} want_more={} backlog={}",
            self.busy,
            self.live,
            self.boot_thread,
            self.hint_due,
            self.notified_want_more,
            self.discard_backlog
        );
        for (l, lk) in self
            .locks
            .iter()
            .enumerate()
            .filter_map(|(i, l)| Some((LockId(i as u32), l.as_ref()?)))
        {
            let _ = writeln!(
                out,
                "lock {l}: holder={:?} (state {:?}) spinners={} waiters={}",
                lk.holder,
                lk.holder.map(|h| self.tcbs.hot[h.index()].state),
                lk.spinners.len(),
                lk.waiters.len()
            );
        }
        for (i, s) in self.slots.iter().enumerate() {
            let _ = writeln!(
                out,
                "slot {i}: vp={:?} current={:?} ready={} cont={} tasks={} spin={:?} recovering={:?}",
                s.active_vp, s.current, self.ready.len(i), s.cont.len(), s.tasks.len(),
                s.spin, s.recovering
            );
        }
        let _ = writeln!(out, "ready totals: {}", self.ready.total());
        let _ = writeln!(out, "blocked_threads: {:?}", self.blocked_threads);
        let _ = writeln!(out, "early_unblocks: {:?}", self.early_unblocks);
        for i in 0..self.tcbs.len() {
            let t = &self.tcbs.hot[i];
            if matches!(
                t.state,
                UtState::BlockedKernel | UtState::Spinning | UtState::Preempted | UtState::Running
            ) {
                let _ = writeln!(
                    out,
                    "  {}: {:?} cont={:?} locks={} spin_on={:?}",
                    UtId(i as u32),
                    t.state,
                    self.tcbs.cold[i].cont,
                    t.locks_held,
                    t.spinning_on
                );
            }
        }
        out
    }

    fn stats_line(&self) -> String {
        let s = &self.stats;
        format!(
            "forks={} dispatches={} steals={} lock_fast={} lock_contended={} \
spin_blocks={} upcalls={} recoveries={} hints={} recycles={} unblocks={} preempts_seen={} \
ready_wait[{}] recovery_time[{}]",
            s.forks.get(),
            s.dispatches.get(),
            s.steals.get(),
            s.lock_fast.get(),
            s.lock_contended.get(),
            s.spin_blocks.get(),
            s.upcalls.get(),
            s.recoveries.get(),
            s.hints.get(),
            s.recycles.get(),
            s.unblocks.get(),
            s.preemptions_seen.get(),
            s.ready_wait.summary(),
            s.recovery_time.summary()
        )
    }
}
