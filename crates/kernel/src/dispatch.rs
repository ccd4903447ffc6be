//! The CPU dispatch loop: segments, preemption, and thread placement.

use crate::config::SchedMode;
use crate::exec::{Effect, Micro, Running, Seg};
use crate::ids::KtId;
use crate::kernel::{seg_key, Event, Inflight, Kernel};
use crate::kthread::KtState;
use crate::space::SpaceKind;
use crate::upcall::{SavedContext, WorkKind};
use sa_sim::{SimDuration, TraceEvent};

/// Safety valve: this many zero-time dispatch-loop iterations on one CPU at
/// one instant means a runtime or body is livelocked.
const LIVELOCK_LIMIT: u32 = 100_000;

impl Kernel {
    /// Processes completion of the in-flight segment on `cpu` (the run
    /// loop calls this when the CPU's completion key is the next event).
    pub(crate) fn on_seg_done(&mut self, cpu: usize) {
        let inf = self
            .take_inflight(cpu)
            .expect("segment completion with no in-flight segment");
        // Timeline slice for the exporters; emitted at completion so a
        // preempted remainder never appears (the `is_enabled` guard keeps
        // the unit lookup off the disabled hot path).
        if self.trace.is_enabled() {
            let space = match self.cpus[cpu].running {
                Running::Kt(kt) => Some(self.kts.hot[kt.index()].space.0),
                Running::Act(a) => Some(self.acts[a.index()].space.0),
                Running::Idle => None,
            };
            let kind = if inf.seg.preemptible {
                inf.seg.kind.name()
            } else {
                "kernel"
            };
            self.trace.event(self.q.now(), || TraceEvent::SegRun {
                cpu: cpu as u32,
                space,
                kind,
                dur: inf.seg.dur,
            });
        }
        self.charge_seg(cpu, inf.seg, inf.seg.dur);
        self.advance_cpu(cpu);
    }

    /// Charges `dur` of `seg`'s work on `cpu` to the dispatched space
    /// (completions, split remainders and teardown cancels all come
    /// through here, so the ledgers see every occupied nanosecond once).
    pub(crate) fn charge_seg(&mut self, cpu: usize, seg: Seg, dur: SimDuration) {
        let space = self.running_space_index(cpu);
        self.obs
            .charge(cpu, space, seg.ledger_state(), dur, self.q.now());
    }

    /// The dispatch loop: drains effects and starts the next segment.
    pub(crate) fn advance_cpu(&mut self, cpu: usize) {
        debug_assert!(self.cpus[cpu].inflight.is_none());
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(
                guard < LIVELOCK_LIMIT,
                "dispatch livelock on cpu{cpu} at {} running {:?}",
                self.q.now(),
                self.cpus[cpu].running
            );
            // Honour a deferred reallocation at this safe boundary.
            if self.cpus[cpu].realloc_pending && self.cpu_at_boundary_preemptible(cpu) {
                self.cpus[cpu].realloc_pending = false;
                self.rebalance();
                continue;
            }
            match self.cpus[cpu].running {
                Running::Idle => {
                    self.cpu_find_work(cpu);
                    if matches!(self.cpus[cpu].running, Running::Idle) {
                        return; // genuinely idle
                    }
                    continue;
                }
                Running::Kt(kt) => {
                    // Honour a deferred time-slice preemption.
                    if self.kts.hot[kt.index()].pending_preempt {
                        self.kts.hot[kt.index()].pending_preempt = false;
                        self.preempt_kt_to_queue(cpu, kt);
                        continue;
                    }
                    match self.kts.cold[kt.index()].pipeline.pop_front() {
                        Some(Micro::Seg(seg)) => {
                            self.start_seg(cpu, seg);
                            return;
                        }
                        Some(Micro::Eff(eff)) => {
                            self.apply_effect(cpu, eff);
                            continue;
                        }
                        None => {
                            if let Some(seg) = self.refill_kt(cpu, kt) {
                                self.start_seg(cpu, seg);
                                return;
                            }
                            continue;
                        }
                    }
                }
                Running::Act(a) => match self.acts[a.index()].pipeline.pop_front() {
                    Some(Micro::Seg(seg)) => {
                        self.start_seg(cpu, seg);
                        return;
                    }
                    Some(Micro::Eff(eff)) => {
                        self.apply_effect(cpu, eff);
                        continue;
                    }
                    None => {
                        if let Some(seg) = self.refill_act(cpu, a) {
                            self.start_seg(cpu, seg);
                            return;
                        }
                        continue;
                    }
                },
            }
        }
    }

    /// True if the unit on `cpu` can be reallocated at this boundary
    /// (not mid-upcall-prologue or mid-kernel-path).
    fn cpu_at_boundary_preemptible(&self, cpu: usize) -> bool {
        match self.cpus[cpu].running {
            Running::Idle => true,
            Running::Kt(_) => true,
            Running::Act(a) => {
                !self.acts[a.index()].in_upcall && self.acts[a.index()].pipeline.is_empty()
            }
        }
    }

    /// Starts `seg` on `cpu`.
    pub(crate) fn start_seg(&mut self, cpu: usize, seg: Seg) {
        self.end_idle(cpu);
        let now = self.q.now();
        if seg.kind == WorkKind::UserWork {
            self.obs.user_dispatch(cpu, now);
        }
        // The completion takes the sequence number a queued event
        // scheduled here would, so it orders against queued events
        // exactly as one.
        let seq = self.q.reserve_seq();
        self.seg_keys[cpu] = seg_key(now + seg.dur, seq);
        self.cpus[cpu].inflight = Some(Inflight {
            seg,
            started: now,
            seq,
        });
    }

    /// Finds work for an idle CPU.
    fn cpu_find_work(&mut self, cpu: usize) {
        match self.cfg.sched {
            SchedMode::TopazNative => {
                if let Some(kt) = self.global_rq.pop() {
                    self.note_ready_wait(kt, -1);
                    self.dispatch_kt(cpu, kt);
                }
            }
            SchedMode::SaAllocator => {
                let Some(space) = self.cpus[cpu].assigned else {
                    return; // unassigned CPUs get work only via the allocator
                };
                if self.spaces[space.index()].done {
                    self.release_cpu(cpu);
                    self.rebalance();
                    return;
                }
                match &self.spaces[space.index()].kind {
                    SpaceKind::KernelDirect { .. } | SpaceKind::UserOnKt { .. } => {
                        if let Some(kt) = self.spaces[space.index()].ready.pop() {
                            self.note_ready_wait(kt, -1);
                            self.dispatch_kt(cpu, kt);
                        } else {
                            // Nothing runnable in this space: hand the CPU
                            // back for reallocation.
                            self.release_cpu(cpu);
                            self.rebalance();
                        }
                    }
                    SpaceKind::UserOnSa => {
                        // An SA space's CPU never sits idle in the kernel:
                        // blocking paths carry their own upcall, so reaching
                        // here means the space is not using the processor.
                        self.release_cpu(cpu);
                        self.rebalance();
                    }
                }
            }
        }
    }

    /// Puts `kt` on `cpu` and begins executing it.
    pub(crate) fn dispatch_kt(&mut self, cpu: usize, kt: KtId) {
        debug_assert!(matches!(self.cpus[cpu].running, Running::Idle));
        debug_assert_eq!(self.kts.hot[kt.index()].state, KtState::Ready);
        self.end_idle(cpu);
        self.kts.hot[kt.index()].state = KtState::Running(cpu as u16);
        self.cpus[cpu].running = Running::Kt(kt);
        let space = self.kts.hot[kt.index()].space;
        self.trace.event(self.q.now(), || TraceEvent::Dispatch {
            cpu: cpu as u32,
            space: Some(space.0),
            unit: "kt",
        });
        self.arm_quantum(cpu, kt);
    }

    /// Arms the time-slice timer for a kernel thread, if time slicing
    /// applies (it never applies to daemons — they sleep voluntarily).
    fn arm_quantum(&mut self, cpu: usize, kt: KtId) {
        if matches!(
            self.kts.hot[kt.index()].flavor,
            crate::exec::KtFlavor::Daemon(_)
        ) {
            return;
        }
        let gen = self.cpus[cpu].gen;
        let at = self.q.now() + self.cost.quantum;
        let tok = self.sched_ev(at, Event::QuantumExpire { cpu, gen });
        if let Some(old) = self.cpus[cpu].quantum_tok.replace(tok) {
            self.q.cancel(old);
        }
    }

    /// Time-slice expiry: preempt if a peer of equal-or-higher priority
    /// waits in this CPU's scheduling domain.
    pub(crate) fn on_quantum_expire(&mut self, cpu: usize) {
        self.cpus[cpu].quantum_tok = None;
        let Running::Kt(kt) = self.cpus[cpu].running else {
            return;
        };
        let prio = self.kts.hot[kt.index()].prio;
        let contended = match self.cfg.sched {
            SchedMode::TopazNative => self.global_rq.has_at_least(prio),
            SchedMode::SaAllocator => {
                let space = self.kts.hot[kt.index()].space;
                self.spaces[space.index()].ready.has_at_least(prio)
            }
        };
        if !contended {
            self.arm_quantum(cpu, kt);
            return;
        }
        if let Some(inf) = &self.cpus[cpu].inflight {
            if inf.seg.preemptible {
                self.preempt_kt_to_queue(cpu, kt);
                self.advance_cpu(cpu);
            } else {
                self.kts.hot[kt.index()].pending_preempt = true;
            }
        } else {
            // Between segments (we are inside another handler); defer.
            self.kts.hot[kt.index()].pending_preempt = true;
        }
    }

    /// Removes `kt` from `cpu` (splitting any in-flight segment), requeues
    /// it, and leaves the CPU idle.
    pub(crate) fn preempt_kt_to_queue(&mut self, cpu: usize, kt: KtId) {
        self.split_inflight_to_unit(cpu);
        self.bump_gen(cpu);
        // A VP preempted while spinning re-checks its condition when it is
        // resumed (the spin loop re-reads the lock word): drop the saved
        // spin remainder and let the runtime re-evaluate.
        if matches!(
            self.kts.hot[kt.index()].flavor,
            crate::exec::KtFlavor::Vp(_)
        ) {
            if let Some(Micro::Seg(seg)) = self.kts.cold[kt.index()].pipeline.front() {
                if matches!(seg.kind, WorkKind::SpinWait | WorkKind::IdleSpin) {
                    self.kts.cold[kt.index()].pipeline.pop_front();
                    self.kts.cold[kt.index()].resume = Some(crate::exec::ResumeWith::Fresh);
                }
            }
        }
        // Switch-in cost when the thread is later resumed.
        let ctx = Seg::kernel(self.cost.kt_ctx_switch);
        self.kts.cold[kt.index()]
            .pipeline
            .push_front(Micro::Seg(ctx));
        self.kts.hot[kt.index()].state = KtState::Ready;
        self.set_idle(cpu);
        let space = self.kts.hot[kt.index()].space;
        self.spaces[space.index()].metrics.preemptions.inc();
        self.trace.event(self.q.now(), || TraceEvent::KtPreempt {
            cpu: cpu as u32,
            kt: kt.0,
        });
        self.enqueue_ready(kt);
    }

    /// Saves the unfinished portion of the in-flight segment back onto the
    /// running unit's pipeline (kernel threads) or returns it (callers
    /// handling activations use [`Kernel::take_inflight_remainder`]).
    pub(crate) fn split_inflight_to_unit(&mut self, cpu: usize) {
        let Some(rem) = self.take_inflight_remainder(cpu) else {
            return;
        };
        match self.cpus[cpu].running {
            Running::Kt(kt) => {
                self.kts.cold[kt.index()]
                    .pipeline
                    .push_front(Micro::Seg(rem));
            }
            Running::Act(a) => {
                self.acts[a.index()].pipeline.push_front(Micro::Seg(rem));
            }
            Running::Idle => unreachable!("in-flight segment on an idle CPU"),
        }
    }

    /// Cancels the in-flight segment, charges the elapsed part, and returns
    /// the unfinished remainder (if any work remained).
    pub(crate) fn take_inflight_remainder(&mut self, cpu: usize) -> Option<Seg> {
        let inf = self.take_inflight(cpu)?;
        let elapsed = self.q.now().since(inf.started);
        self.charge_seg(cpu, inf.seg, elapsed);
        let remaining = inf.seg.dur.saturating_sub(elapsed);
        if remaining.is_zero() {
            None
        } else {
            let mut seg = inf.seg;
            seg.dur = remaining;
            Some(seg)
        }
    }

    /// The saved "machine state" of the interrupted segment on `cpu`, for a
    /// Table 2 notification.
    pub(crate) fn saved_context_from_inflight(&mut self, cpu: usize) -> SavedContext {
        match self.take_inflight_remainder(cpu) {
            Some(seg) => SavedContext {
                cookie: seg.cookie,
                remaining: seg.dur,
                kind: seg.kind,
            },
            None => SavedContext::empty(),
        }
    }

    /// Makes `kt` runnable and tries to place it on a processor.
    pub(crate) fn make_runnable(&mut self, kt: KtId) {
        debug_assert_eq!(self.kts.hot[kt.index()].state, KtState::Ready);
        match self.cfg.sched {
            SchedMode::TopazNative => self.place_native(kt),
            SchedMode::SaAllocator => self.place_allocated(kt),
        }
    }

    /// Enqueues without placement (used when the CPU decision is deferred).
    pub(crate) fn enqueue_ready(&mut self, kt: KtId) {
        let prio = self.kts.hot[kt.index()].prio;
        self.note_ready_wait(kt, 1);
        match self.cfg.sched {
            SchedMode::TopazNative => self.global_rq.push(kt, prio),
            SchedMode::SaAllocator => {
                let space = self.kts.hot[kt.index()].space;
                self.spaces[space.index()].ready.push(kt, prio);
            }
        }
    }

    /// Native Topaz placement: idle CPU first, then preempt a lower-priority
    /// running thread, else queue.
    fn place_native(&mut self, kt: KtId) {
        if let Some(cpu) = self.find_idle_cpu() {
            self.dispatch_kt(cpu, kt);
            self.schedule_dispatch(cpu);
            return;
        }
        let prio = self.kts.hot[kt.index()].prio;
        if let Some(victim_cpu) = self.find_lower_prio_victim(prio) {
            self.note_ready_wait(kt, 1);
            self.global_rq.push(kt, prio);
            let Running::Kt(victim) = self.cpus[victim_cpu].running else {
                unreachable!("victim CPU not running a kernel thread");
            };
            let preemptible_now = self.cpus[victim_cpu]
                .inflight
                .as_ref()
                .is_some_and(|inf| inf.seg.preemptible);
            if preemptible_now {
                self.preempt_kt_to_queue(victim_cpu, victim);
                self.schedule_dispatch(victim_cpu);
            } else {
                self.kts.hot[victim.index()].pending_preempt = true;
            }
            return;
        }
        self.note_ready_wait(kt, 1);
        self.global_rq.push(kt, prio);
    }

    /// Allocator-mode placement: only this space's CPUs are eligible.
    fn place_allocated(&mut self, kt: KtId) {
        let space = self.kts.hot[kt.index()].space;
        let prio = self.kts.hot[kt.index()].prio;
        // An idle CPU already assigned to this space?
        for cpu in 0..self.cpus.len() {
            if self.cpus[cpu].assigned == Some(space)
                && matches!(self.cpus[cpu].running, Running::Idle)
                && self.cpus[cpu].inflight.is_none()
            {
                self.dispatch_kt(cpu, kt);
                self.schedule_dispatch(cpu);
                return;
            }
        }
        self.note_ready_wait(kt, 1);
        self.spaces[space.index()].ready.push(kt, prio);
        // Demand changed; the allocator may want to assign more CPUs.
        self.rebalance();
    }

    /// First idle CPU, if any.
    pub(crate) fn find_idle_cpu(&self) -> Option<usize> {
        (0..self.cpus.len()).find(|&c| {
            matches!(self.cpus[c].running, Running::Idle) && self.cpus[c].inflight.is_none()
        })
    }

    /// The running kernel thread with the lowest priority strictly below
    /// `prio` (native mode preemption victim).
    fn find_lower_prio_victim(&self, prio: u8) -> Option<usize> {
        let mut best: Option<(usize, u8)> = None;
        for cpu in 0..self.cpus.len() {
            if let Running::Kt(kt) = self.cpus[cpu].running {
                let p = self.kts.hot[kt.index()].prio;
                if p < prio && best.is_none_or(|(_, bp)| p < bp) {
                    best = Some((cpu, p));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// Wakes a blocked kernel thread.
    pub(crate) fn wake_kt(&mut self, kt: KtId) {
        debug_assert!(
            matches!(self.kts.hot[kt.index()].state, KtState::Blocked(_)),
            "waking non-blocked {kt}: {:?}",
            self.kts.hot[kt.index()].state
        );
        if let KtState::Blocked(bk) = self.kts.hot[kt.index()].state {
            if let Some(wk) = bk.wait_kind() {
                let space = self.kts.hot[kt.index()].space;
                self.obs.wait(space, wk, -1, self.q.now());
            }
        }
        self.kts.hot[kt.index()].state = KtState::Ready;
        let space = self.kts.hot[kt.index()].space;
        let now = self.q.now();
        self.trace.event(now, || sa_sim::TraceEvent::KtWake {
            space: space.0,
            kt: kt.0,
        });
        self.make_runnable(kt);
    }

    /// Applies one effect on the unit running on `cpu`.
    pub(crate) fn apply_effect(&mut self, cpu: usize, eff: Effect) {
        match self.cpus[cpu].running {
            Running::Kt(kt) => self.apply_effect_kt(cpu, kt, eff),
            Running::Act(a) => self.apply_effect_act(cpu, a, eff),
            Running::Idle => unreachable!("effect on idle CPU"),
        }
    }
}
