//! The scheduler-activation machinery: upcall delivery, notifications,
//! blocking, unblocking, and recycling (§3.1, §4.3).

use crate::activation::ActState;
use crate::exec::{Effect, Micro, ResumeWith, Running, Seg, UnitRef};
use crate::ids::{ActId, AsId, VpId};
use crate::io::PAGE_READ;
use crate::kernel::{Event, Kernel};
use crate::upcall::{RtEnv, SavedContext, Syscall, SyscallOutcome, UpcallEvent, WorkKind};
use sa_machine::ids::PageId;
use sa_sim::{SimDuration, TraceEvent, WaitKind};

/// The page holding the user-level thread manager itself; touched on every
/// upcall delivery when paging is enabled (workload pages must start at 1).
pub const RUNTIME_PAGE: PageId = PageId(0);

/// Delay before retrying a notification that found no eligible processor.
const RETRY_NOTIFY_DELAY: SimDuration = SimDuration::from_micros(50);

impl Kernel {
    /// Applies an effect emitted by an activation.
    pub(crate) fn apply_effect_act(&mut self, cpu: usize, a: ActId, eff: Effect) {
        match eff {
            Effect::DeliverUpcall => self.eff_deliver_upcall(cpu, a),
            Effect::SaCall(call) => self.sa_syscall(cpu, a, call),
            Effect::Resume(r) => {
                if matches!(r, ResumeWith::Syscall(_)) {
                    let space = self.acts[a.index()].space;
                    self.trace.event(self.q.now(), || TraceEvent::TrapExit {
                        space: space.0,
                        cpu: cpu as u32,
                        act: a.0,
                    });
                }
                self.acts[a.index()].resume = Some(r);
            }
            other => unreachable!("kernel-thread effect {other:?} on an activation"),
        }
    }

    /// Hands the queued event batch to the user-level thread system.
    fn eff_deliver_upcall(&mut self, cpu: usize, a: ActId) {
        let space = self.acts[a.index()].space;
        let mut batch = self.acts[a.index()]
            .upcall
            .take()
            .expect("DeliverUpcall without a queued batch");
        let now = self.q.now();
        // Metrics per event kind, plus queue→delivery latency.
        {
            debug_assert_eq!(batch.events.len(), batch.queued_at.len());
            let m = &mut self.spaces[space.index()].metrics;
            for (ev, &queued) in batch.events.iter().zip(&batch.queued_at) {
                m.count_upcall(ev.kind());
                m.upcall_delivery.record(now.since(queued));
            }
        }
        for ev in &batch.events {
            self.trace.event(now, || TraceEvent::Upcall {
                kind: ev.kind(),
                space: space.0,
                cpu: cpu as u32,
                act: a.0,
                vp: ev.vp().map(|v| v.0),
            });
        }
        self.obs.delivered(space, &batch.events, now);
        let mut rt = self.spaces[space.index()]
            .runtime
            .take()
            .expect("upcall while runtime is checked out");
        let mut env = RtEnv::new(now, &self.cost, space.0, &mut self.trace);
        env.kicks = std::mem::take(&mut self.kicks);
        rt.deliver_upcall(&mut env, VpId(a.0), &batch.events);
        let mut kicks = std::mem::take(&mut env.kicks);
        self.spaces[space.index()].runtime = Some(rt);
        // Emptied, the batch's buffers carry the next notification.
        batch.events.clear();
        batch.queued_at.clear();
        self.upcall_batches.push(batch);
        self.mark_quiesce(space);
        for k in kicks.drain(..) {
            self.process_kick(space, k);
        }
        self.kicks = kicks;
        // The user-level entry prologue, then the runtime takes over.
        self.acts[a.index()].in_upcall = false;
        self.acts[a.index()].resume = Some(ResumeWith::Fresh);
        let entry = Seg {
            dur: self.cost.upcall_user_entry,
            preemptible: true,
            kind: WorkKind::UpcallWork,
            cookie: 0,
        };
        self.acts[a.index()].pipeline.push_back(Micro::Seg(entry));
    }

    /// Semantics of a kernel call made from an activation.
    pub(crate) fn sa_syscall(&mut self, cpu: usize, a: ActId, call: Syscall) {
        let space = self.acts[a.index()].space;
        // A resident MemRead resolves in hardware: no trap to trace.
        if !matches!(call, Syscall::MemRead { .. }) {
            self.trace.event(self.q.now(), || TraceEvent::TrapEnter {
                space: space.0,
                cpu: cpu as u32,
                act: a.0,
                call: call.name(),
            });
        }
        let c = &self.cost;
        let ret = self.segs.ret;
        match call {
            Syscall::Io { dur } => {
                // Block and notify; the copy/check cost is not simulated
                // here (DESIGN.md §6).
                self.start_disk_op(UnitRef::Act(a), space, dur, SyscallOutcome::IoDone, None);
                self.block_activation(cpu, a, WaitKind::BlockedIo);
            }
            Syscall::MemRead { page } => {
                debug_assert_ne!(page, RUNTIME_PAGE, "workload touched the runtime page");
                if self.spaces[space.index()].residency.touch(page) {
                    self.acts[a.index()].resume = Some(ResumeWith::Syscall(SyscallOutcome::MemHit));
                    return;
                }
                self.spaces[space.index()].metrics.page_faults.inc();
                self.spaces[space.index()].metrics.traps.inc();
                self.trace.event(self.q.now(), || TraceEvent::TrapEnter {
                    space: space.0,
                    cpu: cpu as u32,
                    act: a.0,
                    call: "page_fault",
                });
                self.start_disk_op(
                    UnitRef::Act(a),
                    space,
                    PAGE_READ,
                    SyscallOutcome::IoDone,
                    Some(page),
                );
                // Block; the trap and fault service are not simulated
                // here (DESIGN.md §6).
                self.block_activation(cpu, a, WaitKind::BlockedIo);
            }
            Syscall::KernelSignal { chan } => {
                let dc = self.direct_costs(space);
                let woken = self.spaces[space.index()]
                    .kchans
                    .entry(chan)
                    .or_default()
                    .signal();
                if let Some(unit) = woken {
                    self.wake_unit_from_chan(unit);
                }
                let p = &mut self.acts[a.index()].pipeline;
                p.push_back(Micro::Seg(Seg::kernel(dc.signal)));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Syscall(
                    SyscallOutcome::Ok,
                ))));
            }
            Syscall::KernelWait { chan } => {
                let dc = self.direct_costs(space);
                let satisfied = self.spaces[space.index()]
                    .kchans
                    .entry(chan)
                    .or_default()
                    .wait(UnitRef::Act(a));
                if satisfied {
                    let p = &mut self.acts[a.index()].pipeline;
                    p.push_back(Micro::Seg(Seg::kernel(dc.wait)));
                    p.push_back(Micro::Seg(ret));
                    p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Syscall(
                        SyscallOutcome::ChanSignalled,
                    ))));
                } else {
                    self.block_activation(cpu, a, WaitKind::BlockedSync);
                }
            }
            Syscall::SetDesiredProcessors { total } => {
                self.spaces[space.index()].sa.desired = total;
                let hint = Seg::kernel(c.sa_hint_call);
                let p = &mut self.acts[a.index()].pipeline;
                p.push_back(Micro::Seg(hint));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Syscall(
                    SyscallOutcome::Ok,
                ))));
                self.trace
                    .event(self.q.now(), || TraceEvent::DesiredProcessors {
                        space: space.0,
                        total,
                    });
                self.rebalance();
            }
            Syscall::ProcessorIdle => {
                self.acts[a.index()].idle_hint = true;
                let hint = Seg::kernel(c.sa_hint_call);
                let p = &mut self.acts[a.index()].pipeline;
                p.push_back(Micro::Seg(hint));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Syscall(
                    SyscallOutcome::Ok,
                ))));
                self.trace
                    .event(self.q.now(), || TraceEvent::ProcessorIdle {
                        space: space.0,
                        act: a.0,
                    });
                self.rebalance();
            }
            Syscall::RecycleActivations { upto } => {
                // Return exactly the husks whose releasing notification the
                // runtime has processed (`release_seq <= upto`). A husk
                // whose `Preempted`/`Unblocked` event is still in flight
                // stays discarded, so its id cannot be re-dispatched while
                // an earlier notification about it is unprocessed.
                // In place, in husk order (activation ids reach traces).
                let sa = &mut self.spaces[space.index()].sa;
                let acts = &mut self.acts;
                sa.discarded.retain(|&husk| {
                    let recycle = acts[husk.index()].release_seq <= upto;
                    if recycle {
                        sa.cached.push(husk);
                        acts[husk.index()].state = ActState::Cached;
                    }
                    !recycle
                });
                let p = &mut self.acts[a.index()].pipeline;
                p.push_back(Micro::Seg(Seg::kernel(c.act_recycle_call)));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Syscall(
                    SyscallOutcome::Ok,
                ))));
            }
            Syscall::PreemptVp { vp } => {
                // §3.1: the user level asks the kernel to interrupt one of
                // its own processors so a higher-priority thread can run.
                let target = ActId(vp.0);
                let p = &mut self.acts[a.index()].pipeline;
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Syscall(
                    SyscallOutcome::Ok,
                ))));
                if let ActState::Running(tcpu) = self.acts[target.index()].state {
                    let tcpu = tcpu as usize;
                    if self.act_victim_eligible(tcpu) {
                        let ev = self.stop_activation_on(tcpu);
                        self.deliver_upcall_on_cpu(tcpu, space, ev);
                    }
                }
            }
        }
    }

    /// Blocks `a` in the kernel and notifies the space on the freed CPU.
    /// `wait` says which ledger gauge the blocked time accrues to.
    fn block_activation(&mut self, cpu: usize, a: ActId, wait: WaitKind) {
        let space = self.acts[a.index()].space;
        debug_assert!(matches!(self.cpus[cpu].running, Running::Act(x) if x == a));
        self.obs.wait(space, wait, 1, self.q.now());
        self.trace.event(self.q.now(), || TraceEvent::Block {
            space: space.0,
            cpu: cpu as u32,
            act: a.0,
        });
        self.acts[a.index()].state = ActState::Blocked;
        self.acts[a.index()].blocked_at = Some(self.q.now());
        self.acts[a.index()].pipeline.clear();
        let sa = &mut self.spaces[space.index()].sa;
        let seq = sa.next_seq();
        self.acts[a.index()].block_seq = seq;
        let sa = &mut self.spaces[space.index()].sa;
        sa.running.retain(|&x| x != a);
        sa.blocked.push(a);
        self.set_idle(cpu);
        self.bump_gen(cpu);
        // "The kernel uses a fresh scheduler activation to notify the
        // user-level thread system of the event, thus allowing the
        // processor to be used to run other user-level threads." (§3.1)
        self.deliver_upcall_on_cpu(cpu, space, UpcallEvent::Blocked { vp: VpId(a.0), seq });
    }

    /// An activation voluntarily returns its processor (runtime finished).
    pub(crate) fn act_give_up(&mut self, cpu: usize, a: ActId) {
        let space = self.acts[a.index()].space;
        self.acts[a.index()].state = ActState::Discarded;
        // No notification references this husk; it is safe to recycle at
        // the runtime's next bulk return regardless of the floor.
        self.acts[a.index()].release_seq = 0;
        self.acts[a.index()].pipeline.clear();
        let sa = &mut self.spaces[space.index()].sa;
        sa.running.retain(|&x| x != a);
        sa.discarded.push(a);
        self.bump_gen(cpu);
        self.set_idle(cpu);
        self.release_cpu(cpu);
        self.rebalance();
    }

    /// A blocked activation's kernel operation completed: the thread's
    /// state goes back to the user level in an `Unblocked` notification,
    /// carried by a fresh activation (§3.1).
    pub(crate) fn sa_unblock(&mut self, a: ActId, outcome: SyscallOutcome) {
        let space = self.acts[a.index()].space;
        if self.spaces[space.index()].done {
            return;
        }
        debug_assert_eq!(self.acts[a.index()].state, ActState::Blocked);
        self.trace.event(self.q.now(), || TraceEvent::Unblock {
            space: space.0,
            act: a.0,
        });
        if let Some(blocked_at) = self.acts[a.index()].blocked_at.take() {
            self.spaces[space.index()]
                .metrics
                .block_unblock
                .record(self.q.now().since(blocked_at));
        }
        let wait = match outcome {
            SyscallOutcome::IoDone => WaitKind::BlockedIo,
            _ => WaitKind::BlockedSync,
        };
        self.obs.wait(space, wait, -1, self.q.now());
        let sa = &mut self.spaces[space.index()].sa;
        sa.blocked.retain(|&x| x != a);
        sa.discarded.push(a);
        self.mark_quiesce(space);
        let seq = self.spaces[space.index()].sa.next_seq();
        self.acts[a.index()].state = ActState::Discarded;
        self.acts[a.index()].release_seq = seq;
        let ev = UpcallEvent::Unblocked {
            vp: VpId(a.0),
            blocked_seq: self.acts[a.index()].block_seq,
            seq,
            saved: SavedContext::empty(),
            outcome,
        };
        self.notify_space(space, ev);
    }

    /// Queues `ev` for `space` and tries to deliver it now.
    pub(crate) fn notify_space(&mut self, space: AsId, ev: UpcallEvent) {
        if self.spaces[space.index()].done {
            return;
        }
        let now = self.q.now();
        let sa = &mut self.spaces[space.index()].sa;
        sa.pending_events.push(ev);
        sa.pending_since.push(now);
        self.try_deliver_pending(space);
    }

    /// Attempts to find a processor for the space's pending notifications.
    pub(crate) fn try_deliver_pending(&mut self, space: AsId) {
        if self.spaces[space.index()].sa.pending_events.is_empty()
            || self.spaces[space.index()].done
        {
            return;
        }
        if !self.spaces[space.index()].runtime_pages_resident {
            return; // the runtime-page fault completion will retry
        }
        // 1. A free processor — but only when the allocator would give this
        //    space another processor anyway. (Otherwise a reclaimed CPU
        //    would bounce straight back, and the allocator could never
        //    shrink the space's allocation.)
        let target = self.alloc_targets().0[space.index()];
        let deserves_more = self.spaces[space.index()].assigned_cpus < target;
        if deserves_more {
            if let Some(cpu) = self.pick_grant_cpu(space) {
                self.grant_cpu_to(cpu, space);
                return;
            }
        }
        // 2. Preempt one of the space's own processors; the upcall carries
        //    the pending events plus the victim's preemption (§3.1 —
        //    `deliver_upcall_on_cpu` prepends the pending batch itself).
        if let Some(victim_cpu) = self.pick_own_victim(space) {
            let ev = self.stop_activation_on(victim_cpu);
            self.deliver_upcall_on_cpu(victim_cpu, space, ev);
            return;
        }
        // 3. The space has no processors: the kernel must take one from
        //    another space (which gets its own notification).
        if self.steal_and_grant_for(space) {
            return;
        }
        // 4. Nothing eligible right now (victims mid-kernel-path); retry.
        let at = self.q.now() + RETRY_NOTIFY_DELAY;
        self.sched_ev(at, Event::RetryNotify { space });
    }

    pub(crate) fn retry_notify(&mut self, space: AsId) {
        self.try_deliver_pending(space);
    }

    /// Is the activation on `cpu` stoppable right now? (Running user-level
    /// code — a preemptible in-flight segment or a clean boundary — and not
    /// mid-kernel-path or mid-upcall-prologue.)
    pub(crate) fn act_victim_eligible(&self, cpu: usize) -> bool {
        let Running::Act(a) = self.cpus[cpu].running else {
            return false;
        };
        if self.acts[a.index()].in_upcall || !self.acts[a.index()].pipeline.is_empty() {
            return false;
        }
        self.cpus[cpu]
            .inflight
            .as_ref()
            .is_none_or(|inf| inf.seg.preemptible)
    }

    /// Picks one of the space's own CPUs to carry a notification,
    /// preferring processors whose activation reported itself idle.
    fn pick_own_victim(&self, space: AsId) -> Option<usize> {
        let mut fallback = None;
        for cpu in 0..self.cpus.len() {
            if self.cpus[cpu].assigned != Some(space) || !self.act_victim_eligible(cpu) {
                continue;
            }
            let Running::Act(a) = self.cpus[cpu].running else {
                continue;
            };
            if self.acts[a.index()].idle_hint {
                return Some(cpu);
            }
            fallback.get_or_insert(cpu);
        }
        fallback
    }

    /// Steals an eligible CPU from another space of equal or lower
    /// priority (most-loaded first), grants it to `space`, and then
    /// notifies the victim. The grant happens *before* the victim's
    /// notification so the notification cannot re-grab the freed CPU.
    fn steal_and_grant_for(&mut self, space: AsId) -> bool {
        let my_prio = self.spaces[space.index()].priority;
        let mut best: Option<(usize, u32)> = None;
        for cpu in 0..self.cpus.len() {
            let Some(owner) = self.cpus[cpu].assigned else {
                continue;
            };
            if owner == space
                || self.spaces[owner.index()].priority > my_prio
                || self.cpus[cpu].realloc_pending
            {
                continue;
            }
            if !self.cpu_stealable(cpu) || self.dwell_holds(cpu) {
                continue;
            }
            let load = self.spaces[owner.index()].assigned_cpus;
            if best.is_none_or(|(_, l)| load > l) {
                best = Some((cpu, load));
            }
        }
        let Some((cpu, _)) = best else { return false };
        let Some(owner) = self.cpus[cpu].assigned else {
            return false;
        };
        match self.cpus[cpu].running {
            Running::Idle => {
                if self.cpus[cpu].inflight.is_some() {
                    return false;
                }
                let d = self.note_victim_decision(cpu, owner);
                self.release_cpu_by(cpu, d);
                self.grant_cpu_to(cpu, space);
            }
            Running::Kt(kt) => {
                let can = self.cpus[cpu]
                    .inflight
                    .as_ref()
                    .is_none_or(|inf| inf.seg.preemptible);
                if !can {
                    return false;
                }
                self.preempt_kt_to_queue(cpu, kt);
                let d = self.note_victim_decision(cpu, owner);
                self.release_cpu_by(cpu, d);
                self.grant_cpu_to(cpu, space);
            }
            Running::Act(_) => {
                if !self.act_victim_eligible(cpu) {
                    return false;
                }
                let ev = self.stop_activation_on(cpu);
                self.release_cpu_by(cpu, ev.decision().unwrap_or(0));
                self.grant_cpu_to(cpu, space);
                self.notify_preemption(owner, ev);
            }
        }
        true
    }

    /// Can `cpu` be taken from its current owner right now?
    pub(crate) fn cpu_stealable(&self, cpu: usize) -> bool {
        match self.cpus[cpu].running {
            Running::Idle => self.cpus[cpu].inflight.is_none(),
            Running::Kt(_) => self.cpus[cpu]
                .inflight
                .as_ref()
                .is_none_or(|inf| inf.seg.preemptible),
            Running::Act(_) => self.act_victim_eligible(cpu),
        }
    }

    /// Stops the activation running on `cpu`, capturing its user-level
    /// machine state for the notification. The CPU is left idle.
    ///
    /// Choke point 3: choosing this activation as the preemption victim
    /// is an allocator decision, and its id is stamped onto the
    /// `Preempted` event.
    pub(crate) fn stop_activation_on(&mut self, cpu: usize) -> UpcallEvent {
        let Running::Act(a) = self.cpus[cpu].running else {
            unreachable!("stop_activation_on a CPU not running an activation");
        };
        let space = self.acts[a.index()].space;
        let decision = self.note_victim_decision(cpu, space);
        self.spaces[space.index()].metrics.preemptions.inc();
        let saved = self.saved_context_from_inflight(cpu);
        self.bump_gen(cpu);
        self.acts[a.index()].state = ActState::Discarded;
        self.acts[a.index()].pipeline.clear();
        let sa = &mut self.spaces[space.index()].sa;
        sa.running.retain(|&x| x != a);
        sa.discarded.push(a);
        let seq = self.spaces[space.index()].sa.next_seq();
        self.acts[a.index()].release_seq = seq;
        self.set_idle(cpu);
        self.trace.event(self.q.now(), || TraceEvent::ActStop {
            space: space.0,
            cpu: cpu as u32,
            act: a.0,
            saved: !saved.remaining.is_zero(),
            decision,
        });
        UpcallEvent::Preempted {
            vp: VpId(a.0),
            saved,
            seq,
            decision,
        }
    }

    /// Creates (or reuses) an activation and dispatches the upcall carrying
    /// `ev` on `cpu`.
    ///
    /// Any events pended for the space are prepended to the batch; if the
    /// thread manager's page is non-resident the delivery is deferred until
    /// the fault completes (§3.1).
    pub(crate) fn deliver_upcall_on_cpu(&mut self, cpu: usize, space: AsId, ev: UpcallEvent) {
        debug_assert!(matches!(self.cpus[cpu].running, Running::Idle));
        debug_assert!(self.cpus[cpu].inflight.is_none());
        debug_assert_eq!(self.cpus[cpu].assigned, Some(space));
        let now = self.q.now();
        // Upcall-page-fault rule: the upcall may fault on the thread
        // manager's own pages; the kernel must detect this and delay the
        // upcall until the page is in.
        if self.spaces[space.index()].residency.capacity.is_some() {
            let resident = self.spaces[space.index()].residency.touch(RUNTIME_PAGE)
                && self.spaces[space.index()].runtime_pages_resident;
            if !resident {
                // The event was raised now; pended ones keep their
                // original stamps (the deferral *is* delivery latency).
                let sa = &mut self.spaces[space.index()].sa;
                sa.pending_events.push(ev);
                sa.pending_since.push(now);
                sa.deferred_upcalls += 1;
                if self.spaces[space.index()].runtime_pages_resident {
                    // First detection: start the fault.
                    self.spaces[space.index()].runtime_pages_resident = false;
                    self.spaces[space.index()].metrics.page_faults.inc();
                    self.start_runtime_page_read(space);
                }
                // The CPU cannot enter the space; give it back.
                self.release_cpu(cpu);
                self.rebalance();
                return;
            }
        }
        // The batch: everything pended, then `ev`, moved into a recycled
        // buffer (`append` leaves the pending lists empty but keeps their
        // capacity).
        let mut batch = self.upcall_batches.pop().unwrap_or_default();
        let sa = &mut self.spaces[space.index()].sa;
        debug_assert_eq!(sa.pending_events.len(), sa.pending_since.len());
        batch.events.append(&mut sa.pending_events);
        batch.events.push(ev);
        batch.queued_at.append(&mut sa.pending_since);
        batch.queued_at.push(now);
        // Allocate the vessel: cached husks are cheap (§4.3).
        let (a, create_cost) = match self.spaces[space.index()].sa.cached.pop() {
            Some(husk) => {
                self.spaces[space.index()].metrics.acts_cached.inc();
                (husk, self.cost.act_create_cached)
            }
            None => {
                self.spaces[space.index()].metrics.acts_fresh.inc();
                (self.new_activation(space), self.cost.act_create_fresh)
            }
        };
        self.acts[a.index()].reset_for_dispatch();
        self.acts[a.index()].state = ActState::Running(cpu as u16);
        self.acts[a.index()].in_upcall = true;
        self.acts[a.index()].upcall = Some(batch);
        self.spaces[space.index()].sa.running.push(a);
        self.end_idle(cpu);
        self.cpus[cpu].running = Running::Act(a);
        let p = &mut self.acts[a.index()].pipeline;
        p.push_back(Micro::Seg(Seg::kernel(create_cost)));
        p.push_back(Micro::Seg(Seg::kernel(self.cost.upcall_dispatch)));
        p.push_back(Micro::Eff(Effect::DeliverUpcall));
        self.schedule_dispatch(cpu);
    }
}
