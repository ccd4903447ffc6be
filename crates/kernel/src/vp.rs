//! Driving virtual processors: polling the user-level runtime and
//! translating its actions into machine execution.
//!
//! The same [`crate::upcall::UserRuntime`] contract serves both substrates:
//! kernel-thread VPs (original FastThreads — the kernel resumes them
//! invisibly and delivers no upcalls) and scheduler activations (the
//! paper's system).

use crate::exec::{Effect, Micro, ResumeWith, Running, Seg, UnitRef};
use crate::ids::{AsId, VpId};
use crate::kernel::Kernel;
use crate::kthread::{BlockKind, KtState};
use crate::space::SpaceKind;
use crate::upcall::{PollReason, RtEnv, Syscall, VpAction, WorkKind};
use sa_sim::SimDuration;

impl Kernel {
    /// Refills a VP unit by polling its runtime. Returns a segment the
    /// caller should start immediately: the common poll result is "run
    /// this segment", and handing it straight back to the dispatch loop
    /// skips a pipeline push/pop round trip on the per-event hot path.
    pub(crate) fn refill_vp(&mut self, cpu: usize, unit: UnitRef, vp: VpId) -> Option<Seg> {
        let (space, reason) = match unit {
            UnitRef::Kt(kt) => (
                self.kts.hot[kt.index()].space,
                resume_to_reason(self.kts.cold[kt.index()].resume.take()),
            ),
            UnitRef::Act(a) => (
                self.acts[a.index()].space,
                resume_to_reason(self.acts[a.index()].resume.take()),
            ),
        };
        if self.spaces[space.index()].done {
            // Stale dispatch after teardown; park quietly.
            self.park_unit(cpu, unit);
            return None;
        }
        let action = self.call_poll(space, vp, reason);
        self.apply_vp_action(cpu, unit, space, action)
    }

    /// Calls `runtime.poll` with a scoped environment, then applies any
    /// requested kicks.
    pub(crate) fn call_poll(&mut self, space: AsId, vp: VpId, reason: PollReason) -> VpAction {
        let mut rt = self.spaces[space.index()]
            .runtime
            .take()
            .expect("poll while runtime is checked out");
        let mut env = RtEnv::new(self.q.now(), &self.cost, space.0, &mut self.trace);
        env.kicks = std::mem::take(&mut self.kicks);
        let action = rt.poll(&mut env, vp, reason);
        let mut kicks = std::mem::take(&mut env.kicks);
        // Every action but `Run` (spin, syscall, give-up) can coincide
        // with the last thread exiting and must mark the space for the
        // quiescence check. A `Run` usually proves live work (a loaded
        // thread or boot step), but it can also carry the last thread's
        // exit path with nothing left live: such a space is noted for the
        // next check without triggering one, which is when a walk over
        // every space would retire it.
        let run = matches!(action, VpAction::Run(_));
        let lurking = run && rt.quiescent();
        self.spaces[space.index()].runtime = Some(rt);
        if !run {
            self.mark_quiesce(space);
        } else if lurking {
            self.note_quiescent(space);
        }
        for k in kicks.drain(..) {
            if k != vp {
                self.process_kick(space, k);
            }
        }
        self.kicks = kicks;
        action
    }

    /// Ends a spin on the kicked VP, if it is indeed spinning right now.
    pub(crate) fn process_kick(&mut self, space: AsId, vp: VpId) {
        let Some(unit) = self.vp_unit(space, vp) else {
            return;
        };
        let cpu = match unit {
            UnitRef::Kt(kt) => match self.kts.hot[kt.index()].state {
                KtState::Running(c) => c as usize,
                _ => return, // preempted spinner re-checks when resumed
            },
            UnitRef::Act(a) => match self.acts[a.index()].state {
                crate::activation::ActState::Running(c) => c as usize,
                _ => return,
            },
        };
        let spinning = self.cpus[cpu]
            .inflight
            .as_ref()
            .is_some_and(|inf| matches!(inf.seg.kind, WorkKind::SpinWait | WorkKind::IdleSpin));
        if !spinning {
            return;
        }
        // Charge the elapsed spin and wake the VP with `Kicked`.
        let _ = self.take_inflight_remainder(cpu);
        match unit {
            UnitRef::Kt(kt) => self.kts.cold[kt.index()].resume = Some(ResumeWith::Kicked),
            UnitRef::Act(a) => self.acts[a.index()].resume = Some(ResumeWith::Kicked),
        }
        self.schedule_dispatch(cpu);
    }

    /// Resolves a VP id to its execution unit.
    pub(crate) fn vp_unit(&self, space: AsId, vp: VpId) -> Option<UnitRef> {
        match &self.spaces[space.index()].kind {
            SpaceKind::UserOnKt { vps } => vps.get(vp.index()).copied().map(UnitRef::Kt),
            SpaceKind::UserOnSa => {
                let a = crate::ids::ActId(vp.0);
                if (a.index()) < self.acts.len() {
                    Some(UnitRef::Act(a))
                } else {
                    None
                }
            }
            SpaceKind::KernelDirect { .. } => None,
        }
    }

    /// Applies a runtime-returned action to the unit on `cpu`. `Run` and
    /// `Spin` hand their segment back for the caller to start directly
    /// (the unit's pipeline is empty — refill only runs when it drained —
    /// so starting in place is order-identical to a push/pop round trip).
    pub(crate) fn apply_vp_action(
        &mut self,
        cpu: usize,
        unit: UnitRef,
        space: AsId,
        action: VpAction,
    ) -> Option<Seg> {
        match action {
            VpAction::Run(seg) => Some(Seg {
                dur: seg.dur,
                preemptible: true,
                kind: seg.kind,
                cookie: seg.cookie,
            }),
            VpAction::Spin { cookie, kind } => {
                debug_assert!(
                    matches!(kind, WorkKind::SpinWait | WorkKind::IdleSpin),
                    "spin with non-spin kind {kind:?}"
                );
                Some(Seg {
                    dur: SimDuration::MAX,
                    preemptible: true,
                    kind,
                    cookie,
                })
            }
            VpAction::Syscall { call } => {
                self.push_syscall_micros(unit, space, call);
                None
            }
            VpAction::GiveUp => {
                match unit {
                    UnitRef::Kt(_) => self.park_unit(cpu, unit),
                    UnitRef::Act(a) => self.act_give_up(cpu, a),
                }
                None
            }
        }
    }

    /// Parks a kernel-thread VP that gave up its processor.
    fn park_unit(&mut self, cpu: usize, unit: UnitRef) {
        match unit {
            UnitRef::Kt(kt) => self.block_kt(cpu, kt, BlockKind::Parked),
            UnitRef::Act(a) => {
                // Teardown path only.
                self.acts[a.index()].state = crate::activation::ActState::Cached;
                self.set_idle(cpu);
                self.bump_gen(cpu);
            }
        }
    }

    /// Queues the kernel-entry micro-ops for a VP syscall.
    pub(crate) fn push_syscall_micros(&mut self, unit: UnitRef, space: AsId, call: Syscall) {
        match unit {
            UnitRef::Kt(kt) => self.push_kt_vp_syscall(kt, space, call),
            UnitRef::Act(a) => {
                // MemRead resolves in hardware on a hit: no trap charged
                // unless the fault path runs (decided by the effect).
                if !matches!(call, Syscall::MemRead { .. }) {
                    self.spaces[space.index()].metrics.traps.inc();
                    let trap = self.segs.trap;
                    self.acts[a.index()].pipeline.push_back(Micro::Seg(trap));
                }
                self.acts[a.index()]
                    .pipeline
                    .push_back(Micro::Eff(Effect::SaCall(call)));
            }
        }
    }

    /// Syscall entry for a kernel-thread VP (original FastThreads).
    fn push_kt_vp_syscall(&mut self, kt: crate::ids::KtId, space: AsId, call: Syscall) {
        let c = &self.cost;
        let dc = self.direct_costs(space);
        let trap = Seg::kernel(c.kernel_trap);
        let copy = Seg::kernel(c.syscall_copy_check);
        let ret = self.segs.ret;
        let sigok = ResumeWith::Syscall(crate::upcall::SyscallOutcome::Ok);
        let mut trapped = true;
        let p = &mut self.kts.cold[kt.index()].pipeline;
        match call {
            Syscall::Io { dur } => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(copy));
                p.push_back(Micro::Eff(Effect::StartIo(dur)));
            }
            Syscall::MemRead { page } => {
                p.push_back(Micro::Eff(Effect::MemCheck(page)));
                trapped = false;
            }
            Syscall::KernelSignal { chan } => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.signal)));
                p.push_back(Micro::Eff(Effect::ChanSignal(chan)));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(sigok)));
            }
            Syscall::KernelWait { chan } => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.wait)));
                p.push_back(Micro::Eff(Effect::ChanWait(chan)));
            }
            // Allocation hints from a kernel-thread substrate are
            // meaningless (the native kernel has no allocator); charge the
            // trap and ignore — this models why the traditional interface
            // cannot use the information (§2.2).
            Syscall::SetDesiredProcessors { .. }
            | Syscall::ProcessorIdle
            | Syscall::RecycleActivations { .. }
            | Syscall::PreemptVp { .. } => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(sigok)));
            }
        }
        if trapped {
            self.spaces[space.index()].metrics.traps.inc();
        }
    }

    /// Flavor-aware resume for `MemCheck` hits.
    pub(crate) fn mem_hit_resume(&self, kt: crate::ids::KtId) -> ResumeWith {
        match self.kts.hot[kt.index()].flavor {
            crate::exec::KtFlavor::Vp(_) => {
                ResumeWith::Syscall(crate::upcall::SyscallOutcome::MemHit)
            }
            _ => ResumeWith::Op(sa_machine::OpResult::Done),
        }
    }

    /// Refills an activation by polling the runtime. Returns a segment to
    /// start immediately (see [`Kernel::refill_vp`]).
    pub(crate) fn refill_act(&mut self, cpu: usize, a: crate::ids::ActId) -> Option<Seg> {
        debug_assert!(matches!(self.cpus[cpu].running, Running::Act(x) if x == a));
        self.refill_vp(cpu, UnitRef::Act(a), VpId(a.0))
    }
}

/// Maps a stored resume value to a poll reason.
fn resume_to_reason(r: Option<ResumeWith>) -> PollReason {
    match r {
        None => PollReason::SegDone,
        Some(ResumeWith::Fresh) => PollReason::Fresh,
        Some(ResumeWith::Kicked) => PollReason::Kicked,
        Some(ResumeWith::Syscall(o)) => PollReason::SyscallDone(o),
        Some(ResumeWith::Op(_)) => unreachable!("op resume delivered to a VP"),
    }
}
