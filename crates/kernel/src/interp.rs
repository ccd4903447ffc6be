//! Interpretation of application operations for kernel-direct spaces
//! (programming with Topaz kernel threads or Ultrix-style processes), plus
//! the shared effect machinery.
//!
//! Every operation here crosses the protection boundary: the trap, the
//! parameter copy/check, the kernel-path work and the return are all
//! charged — the §2.1 cost structure the paper argues is unavoidable when
//! the kernel implements thread management.

use crate::config::KernelFlavor;
use crate::exec::{Effect, KtFlavor, Micro, Pipeline, ResumeWith, Running, Seg, UnitRef};
use crate::ids::KtId;
use crate::io::PAGE_READ;
use crate::kernel::Kernel;
use crate::kthread::{BlockKind, KtState};
use crate::space::SpaceKind;
use sa_machine::ids::{ChanId, CvId, LockId, ThreadRef};
use sa_machine::program::{Op, OpResult, StepEnv};
use sa_sim::SimDuration;

/// The sentinel "no lock" id accepted by `Op::Wait` for event-style
/// condition waits (re-exported from the machine layer).
pub const NO_LOCK: LockId = LockId::NONE;

/// Kernel-path costs for a kernel-direct space, selected by flavor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectCosts {
    pub create: SimDuration,
    pub start: SimDuration,
    pub exit: SimDuration,
    pub signal: SimDuration,
    pub wait: SimDuration,
}

impl DirectCosts {
    /// Resolves the per-flavor cost table once, at space creation; the
    /// hot interpretation path then reads the cached copy instead of
    /// re-matching space kind and kernel flavor on every op.
    pub(crate) fn resolve(cost: &sa_machine::CostModel, kind: &SpaceKind) -> Self {
        let flavor = match kind {
            SpaceKind::KernelDirect { flavor } => *flavor,
            // User-level spaces reaching kernel sync objects pay the
            // kernel-thread-path costs (they are kernel code paths).
            _ => KernelFlavor::TopazThreads,
        };
        match flavor {
            KernelFlavor::TopazThreads => DirectCosts {
                create: cost.kt_create,
                start: cost.kt_start,
                exit: cost.kt_exit,
                signal: cost.kt_signal,
                wait: cost.kt_wait,
            },
            KernelFlavor::UltrixProcesses => DirectCosts {
                create: cost.proc_fork_work,
                start: cost.kt_start,
                exit: cost.proc_exit_work,
                signal: cost.proc_signal_work,
                wait: cost.proc_wait_work,
            },
        }
    }
}

impl Kernel {
    pub(crate) fn direct_costs(&self, space: crate::ids::AsId) -> DirectCosts {
        self.spaces[space.index()].dc
    }

    /// Refills an empty pipeline for the kernel thread on `cpu`. Returns a
    /// segment the caller should start immediately, bypassing the pipeline
    /// (see [`Kernel::refill_vp`]).
    pub(crate) fn refill_kt(&mut self, cpu: usize, kt: KtId) -> Option<crate::exec::Seg> {
        match self.kts.hot[kt.index()].flavor {
            KtFlavor::AppBody => {
                self.refill_kt_body(cpu, kt);
                None
            }
            KtFlavor::Vp(vp) => self.refill_vp(cpu, UnitRef::Kt(kt), vp),
            KtFlavor::Daemon(_) => {
                self.refill_daemon(kt);
                None
            }
        }
    }

    /// Steps the application body and queues the micro-ops for its next op.
    fn refill_kt_body(&mut self, _cpu: usize, kt: KtId) {
        let res = self.kts.cold[kt.index()].take_resume_op();
        let env = StepEnv {
            now: self.q.now(),
            self_ref: ThreadRef(kt.0 as u64),
            last: res,
        };
        let mut body = self.kts.cold[kt.index()]
            .body
            .take()
            .expect("app kthread without body");
        let op = body.step(&env);
        self.kts.cold[kt.index()].body = Some(body);
        self.interp_op(kt, op);
    }

    /// Translates one application op into the kernel-thread code path.
    fn interp_op(&mut self, kt: KtId, op: Op) {
        let space = self.kts.hot[kt.index()].space;
        let dc = self.direct_costs(space);
        let c = &self.cost;
        let crate::exec::SegCache {
            trap,
            ret,
            copy,
            tas,
        } = self.segs;
        let p = &mut self.kts.cold[kt.index()].pipeline;
        debug_assert!(p.is_empty());
        let mut trapped = true;
        let fork_prio = match &op {
            Op::ForkPrio(_, prio) => Some(*prio),
            _ => None,
        };
        match op {
            Op::Compute(d) => {
                p.push_back(Micro::Seg(Seg::user(d)));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
                trapped = false;
            }
            Op::Fork(body) | Op::ForkPrio(body, _) => {
                self.kts.cold[kt.index()].pending_child = Some(body);
                self.kts.cold[kt.index()].pending_child_prio = fork_prio;
                let p = &mut self.kts.cold[kt.index()].pipeline;
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(copy));
                p.push_back(Micro::Seg(Seg::kernel(dc.create)));
                p.push_back(Micro::Eff(Effect::SpawnChild));
                p.push_back(Micro::Seg(Seg::kernel(c.kt_sched)));
                p.push_back(Micro::Seg(ret));
            }
            Op::Join(t) => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Eff(Effect::JoinCheck(t)));
            }
            Op::Exit => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.exit)));
                p.push_back(Micro::Eff(Effect::ExitFinal));
            }
            Op::Acquire(l) => {
                p.push_back(Micro::Seg(tas));
                p.push_back(Micro::Eff(Effect::TryAcquire(l)));
                trapped = false;
            }
            Op::Release(l) => {
                p.push_back(Micro::Seg(tas));
                p.push_back(Micro::Eff(Effect::Unlock(l)));
                trapped = false;
            }
            Op::Wait { cv, lock } => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.wait)));
                p.push_back(Micro::Eff(Effect::CvWait { cv, lock }));
            }
            Op::Signal(cv) => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.signal)));
                p.push_back(Micro::Eff(Effect::CvSignal(cv)));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
            }
            Op::Broadcast(cv) => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.signal)));
                p.push_back(Micro::Eff(Effect::CvBroadcast(cv)));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
            }
            Op::Io(d) => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(copy));
                p.push_back(Micro::Eff(Effect::StartIo(d)));
            }
            Op::MemRead(page) => {
                p.push_back(Micro::Eff(Effect::MemCheck(page)));
                trapped = false;
            }
            Op::KernelSignal(ch) => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.signal)));
                p.push_back(Micro::Eff(Effect::ChanSignal(ch)));
                p.push_back(Micro::Seg(ret));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
            }
            Op::KernelWait(ch) => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(dc.wait)));
                p.push_back(Micro::Eff(Effect::ChanWait(ch)));
            }
            Op::Yield => {
                p.push_back(Micro::Seg(trap));
                p.push_back(Micro::Seg(Seg::kernel(c.kt_sched)));
                p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
                p.push_back(Micro::Eff(Effect::YieldCpu));
            }
        }
        if trapped {
            self.spaces[space.index()].metrics.traps.inc();
        }
    }

    /// Applies an effect emitted by a kernel thread.
    pub(crate) fn apply_effect_kt(&mut self, cpu: usize, kt: KtId, eff: Effect) {
        match eff {
            Effect::Resume(r) => {
                self.kts.cold[kt.index()].resume = Some(r);
            }
            Effect::SpawnChild => self.eff_spawn_child(kt),
            Effect::ExitFinal => self.eff_exit_final(cpu, kt),
            Effect::TryAcquire(l) => self.eff_try_acquire(cpu, kt, l),
            Effect::BlockOnLock(l) => self.eff_block_on_lock(cpu, kt, l),
            Effect::Unlock(l) => self.eff_unlock(kt, l),
            Effect::CvWait { cv, lock } => self.eff_cv_wait(cpu, kt, cv, lock),
            Effect::CvSignal(cv) => self.eff_cv_signal(kt, cv),
            Effect::CvBroadcast(cv) => self.eff_cv_broadcast(kt, cv),
            Effect::JoinCheck(t) => self.eff_join_check(cpu, kt, t),
            Effect::StartIo(d) => {
                let space = self.kts.hot[kt.index()].space;
                self.start_disk_op(
                    UnitRef::Kt(kt),
                    space,
                    d,
                    crate::upcall::SyscallOutcome::IoDone,
                    None,
                );
                self.block_kt(cpu, kt, BlockKind::Io);
            }
            Effect::MemCheck(page) => self.eff_mem_check(kt, page),
            Effect::StartPageIo(page) => {
                let space = self.kts.hot[kt.index()].space;
                self.start_disk_op(
                    UnitRef::Kt(kt),
                    space,
                    PAGE_READ,
                    crate::upcall::SyscallOutcome::IoDone,
                    Some(page),
                );
                self.block_kt(cpu, kt, BlockKind::Io);
            }
            Effect::ChanSignal(ch) => self.eff_chan_signal(kt, ch),
            Effect::ChanWait(ch) => self.eff_chan_wait(cpu, kt, ch),
            Effect::YieldCpu => {
                self.kts.hot[kt.index()].state = KtState::Ready;
                self.set_idle(cpu);
                self.bump_gen(cpu);
                self.enqueue_ready(kt);
            }
            Effect::DaemonSleep => self.eff_daemon_sleep(cpu, kt),
            Effect::DeliverUpcall | Effect::SaCall(_) => {
                unreachable!("activation effect on a kernel thread")
            }
        }
    }

    /// Blocks `kt`, freeing its CPU.
    pub(crate) fn block_kt(&mut self, cpu: usize, kt: KtId, kind: BlockKind) {
        debug_assert!(matches!(self.cpus[cpu].running, Running::Kt(k) if k == kt));
        self.kts.hot[kt.index()].state = KtState::Blocked(kind);
        let space = self.kts.hot[kt.index()].space;
        if let Some(wk) = kind.wait_kind() {
            self.obs.wait(space, wk, 1, self.q.now());
        }
        let now = self.q.now();
        self.trace.event(now, || sa_sim::TraceEvent::KtBlock {
            space: space.0,
            cpu: cpu as u32,
            kt: kt.0,
            why: kind.name(),
        });
        self.set_idle(cpu);
        self.bump_gen(cpu);
    }

    fn eff_spawn_child(&mut self, kt: KtId) {
        let body = self.kts.cold[kt.index()]
            .pending_child
            .take()
            .expect("SpawnChild without a stashed body");
        let span = body.span_id();
        let space = self.kts.hot[kt.index()].space;
        let prio = self.kts.cold[kt.index()]
            .pending_child_prio
            .take()
            .unwrap_or(self.kts.hot[kt.index()].prio);
        let child = self.new_kthread(space, prio, KtFlavor::AppBody);
        if let Some(req) = span {
            let now = self.q.now();
            self.trace.event(now, || sa_sim::TraceEvent::SpanBind {
                req,
                space: space.0,
                thread: child.0,
            });
        }
        let dc = self.direct_costs(space);
        {
            let c = &mut self.kts.cold[child.index()];
            c.body = Some(body);
            c.resume = Some(ResumeWith::Op(OpResult::Start));
            c.pipeline.push_back(Micro::Seg(Seg::kernel(dc.start)));
        }
        self.spaces[space.index()].live_kthreads += 1;
        self.kts.cold[kt.index()].resume =
            Some(ResumeWith::Op(OpResult::Forked(ThreadRef(child.0 as u64))));
        self.make_runnable(child);
    }

    fn eff_exit_final(&mut self, cpu: usize, kt: KtId) {
        let space = self.kts.hot[kt.index()].space;
        self.kts.hot[kt.index()].state = KtState::Dead;
        let cold = &mut self.kts.cold[kt.index()];
        cold.exited = true;
        cold.body = None;
        // The row outlives the exit, for joiners; its pipeline buffer
        // need not, and nothing is queued on a dead thread.
        debug_assert!(
            cold.pipeline.is_empty(),
            "kernel thread exits with micro-ops queued"
        );
        cold.pipeline = Pipeline::new();
        let joiners = std::mem::take(&mut cold.joiners);
        self.spaces[space.index()].live_kthreads -= 1;
        self.mark_quiesce(space);
        self.set_idle(cpu);
        self.bump_gen(cpu);
        for j in joiners {
            let ret = self.segs.ret;
            let jt = &mut self.kts.cold[j.index()];
            jt.pipeline.push_back(Micro::Seg(ret));
            jt.resume = Some(ResumeWith::Op(OpResult::Done));
            self.wake_kt(j);
        }
    }

    fn eff_join_check(&mut self, cpu: usize, kt: KtId, t: ThreadRef) {
        let target = KtId(t.0 as u32);
        if self.kts.cold[target.index()].exited {
            let c = &self.cost;
            let segs = [Seg::kernel(c.kt_sched), Seg::kernel(c.kernel_return)];
            let p = &mut self.kts.cold[kt.index()].pipeline;
            for s in segs {
                p.push_back(Micro::Seg(s));
            }
            p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
        } else {
            self.kts.cold[target.index()].joiners.push(kt);
            self.block_kt(cpu, kt, BlockKind::Join(target));
        }
    }

    fn eff_try_acquire(&mut self, cpu: usize, kt: KtId, l: LockId) {
        let space = self.kts.hot[kt.index()].space;
        let lock = self.spaces[space.index()].klock(l);
        if lock.holder.is_none() {
            lock.holder = Some(kt);
            let p = &mut self.kts.cold[kt.index()].pipeline;
            p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
        } else {
            // Contended: trap and block in the kernel (§5.3's Topaz locks).
            // The enqueue happens atomically with the block at the end of
            // the kernel path (`BlockOnLock` re-checks), because the lock
            // may be released while this thread is still trapping.
            self.spaces[space.index()].metrics.traps.inc();
            let c = &self.cost;
            let segs = [Seg::kernel(c.kernel_trap), Seg::kernel(c.kt_lock_block)];
            let p = &mut self.kts.cold[kt.index()].pipeline;
            for s in segs {
                p.push_back(Micro::Seg(s));
            }
            p.push_back(Micro::Eff(Effect::BlockOnLock(l)));
            let _ = cpu;
        }
    }

    /// End of the contended-acquire kernel path: take the lock if it was
    /// released meanwhile, else enqueue and block atomically.
    fn eff_block_on_lock(&mut self, cpu: usize, kt: KtId, l: LockId) {
        let space = self.kts.hot[kt.index()].space;
        let lock = self.spaces[space.index()].klock(l);
        if lock.holder.is_none() {
            lock.holder = Some(kt);
            let ret = self.segs.ret;
            let p = &mut self.kts.cold[kt.index()].pipeline;
            p.push_back(Micro::Seg(ret));
            p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
        } else {
            lock.waiters.push_back(kt);
            self.block_kt(cpu, kt, BlockKind::AppLock(l));
        }
    }

    /// Releases lock `l` held by `kt`; wakes and hands off to one waiter.
    fn eff_unlock(&mut self, kt: KtId, l: LockId) {
        let space = self.kts.hot[kt.index()].space;
        let woken = self.unlock_app_lock(space, l, Some(kt));
        if woken {
            // Waking the blocked acquirer is a kernel path for the releaser.
            self.spaces[space.index()].metrics.traps.inc();
            let c = &self.cost;
            let segs = [
                Seg::kernel(c.kernel_trap),
                Seg::kernel(c.kt_signal),
                Seg::kernel(c.kernel_return),
            ];
            let p = &mut self.kts.cold[kt.index()].pipeline;
            for s in segs {
                p.push_back(Micro::Seg(s));
            }
        }
        self.kts.cold[kt.index()].resume = Some(ResumeWith::Op(OpResult::Done));
    }

    /// Core lock-release: frees the lock and wakes one waiter, which then
    /// *retries* the acquire when scheduled. Wake-and-retry (rather than
    /// direct handoff) avoids lock convoys when a waiter is descheduled —
    /// but makes contended acquires pay the kernel path repeatedly, which
    /// is exactly the Topaz contention behaviour §5.3 describes.
    pub(crate) fn unlock_app_lock(
        &mut self,
        space: crate::ids::AsId,
        l: LockId,
        expected_holder: Option<KtId>,
    ) -> bool {
        let lock = self.spaces[space.index()]
            .klocks
            .get_mut(l.index())
            .and_then(Option::as_mut)
            .expect("release of unknown lock");
        if let Some(h) = expected_holder {
            assert_eq!(lock.holder, Some(h), "release by non-holder");
        }
        lock.holder = None;
        if let Some(w) = lock.waiters.pop_front() {
            let wt = &mut self.kts.cold[w.index()];
            wt.pipeline.push_back(Micro::Eff(Effect::TryAcquire(l)));
            self.wake_kt(w);
            true
        } else {
            false
        }
    }

    fn eff_cv_wait(&mut self, cpu: usize, kt: KtId, cv: CvId, lock: LockId) {
        let space = self.kts.hot[kt.index()].space;
        let kcv = self.spaces[space.index()].kcv(cv);
        // A banked signal satisfies the wait immediately (equivalent to a
        // Mesa-style spurious wakeup; waiters must re-check predicates).
        if kcv.waiters.is_empty() && self.take_banked_signal(space, cv) {
            let ret = self.segs.ret;
            let p = &mut self.kts.cold[kt.index()].pipeline;
            p.push_back(Micro::Seg(ret));
            p.push_back(Micro::Eff(Effect::Resume(ResumeWith::Op(OpResult::Done))));
            return;
        }
        self.spaces[space.index()]
            .kcv(cv)
            .waiters
            .push_back((kt, lock));
        if lock != NO_LOCK {
            self.unlock_app_lock(space, lock, Some(kt));
        }
        self.block_kt(cpu, kt, BlockKind::AppCv(cv));
    }

    /// Consumes one banked (waiter-less) signal for `cv`, if present.
    fn take_banked_signal(&mut self, space: crate::ids::AsId, cv: CvId) -> bool {
        let banked = self.spaces[space.index()]
            .kchans
            .entry(cv_bank(cv))
            .or_default();
        if banked.pending > 0 {
            banked.pending -= 1;
            true
        } else {
            false
        }
    }

    fn eff_cv_signal(&mut self, kt: KtId, cv: CvId) {
        let space = self.kts.hot[kt.index()].space;
        let kcv = self.spaces[space.index()].kcv(cv);
        match kcv.waiters.pop_front() {
            Some((w, lock)) => self.requeue_cv_waiter(space, w, lock),
            None => {
                // Bank it: harmless spurious wakeup for Mesa-style users,
                // required memory for event-style (no-lock) users.
                self.spaces[space.index()]
                    .kchans
                    .entry(cv_bank(cv))
                    .or_default()
                    .pending += 1;
            }
        }
    }

    fn eff_cv_broadcast(&mut self, kt: KtId, cv: CvId) {
        let space = self.kts.hot[kt.index()].space;
        let waiters: Vec<(KtId, LockId)> = self.spaces[space.index()]
            .kcv(cv)
            .waiters
            .drain(..)
            .collect();
        for (w, lock) in waiters {
            self.requeue_cv_waiter(space, w, lock);
        }
    }

    /// Moves a signalled cv waiter either straight to ready (no lock / free
    /// lock) or onto the lock's wait queue.
    fn requeue_cv_waiter(&mut self, space: crate::ids::AsId, w: KtId, lock: LockId) {
        if lock != NO_LOCK {
            let kl = self.spaces[space.index()].klock(lock);
            if kl.holder.is_some() {
                // Must wait for the mutex; stays blocked, now on the lock.
                kl.waiters.push_back(w);
                self.kts.hot[w.index()].state = KtState::Blocked(BlockKind::AppLock(lock));
                return;
            }
            kl.holder = Some(w);
        }
        let ret = self.segs.ret;
        let wt = &mut self.kts.cold[w.index()];
        wt.pipeline.push_back(Micro::Seg(ret));
        wt.resume = Some(ResumeWith::Op(OpResult::Done));
        self.wake_kt(w);
    }

    fn eff_mem_check(&mut self, kt: KtId, page: sa_machine::ids::PageId) {
        let space = self.kts.hot[kt.index()].space;
        if self.spaces[space.index()].residency.touch(page) {
            self.kts.cold[kt.index()].resume = Some(self.mem_hit_resume(kt));
            return;
        }
        // Page fault: trap, service, then block on the disk read.
        self.spaces[space.index()].metrics.page_faults.inc();
        self.spaces[space.index()].metrics.traps.inc();
        let c = &self.cost;
        let segs = [
            Seg::kernel(c.kernel_trap),
            Seg::kernel(c.page_fault_service),
        ];
        let p = &mut self.kts.cold[kt.index()].pipeline;
        for s in segs {
            p.push_back(Micro::Seg(s));
        }
        p.push_back(Micro::Eff(Effect::StartPageIo(page)));
        // The return path after the fault completes.
        let resume = match self.kts.hot[kt.index()].flavor {
            KtFlavor::Vp(_) => ResumeWith::Syscall(crate::upcall::SyscallOutcome::IoDone),
            _ => ResumeWith::Op(OpResult::Done),
        };
        let ret = self.segs.ret;
        let p = &mut self.kts.cold[kt.index()].pipeline;
        p.push_back(Micro::Seg(ret));
        p.push_back(Micro::Eff(Effect::Resume(resume)));
    }

    fn eff_chan_signal(&mut self, kt: KtId, ch: ChanId) {
        let space = self.kts.hot[kt.index()].space;
        let woken = self.spaces[space.index()]
            .kchans
            .entry(ch)
            .or_default()
            .signal();
        if let Some(unit) = woken {
            self.wake_unit_from_chan(unit);
        }
    }

    fn eff_chan_wait(&mut self, cpu: usize, kt: KtId, ch: ChanId) {
        let space = self.kts.hot[kt.index()].space;
        let satisfied = self.spaces[space.index()]
            .kchans
            .entry(ch)
            .or_default()
            .wait(UnitRef::Kt(kt));
        if satisfied {
            let ret = self.segs.ret;
            let resume = resume_for_chan(&self.kts.hot[kt.index()].flavor);
            let p = &mut self.kts.cold[kt.index()].pipeline;
            p.push_back(Micro::Seg(ret));
            p.push_back(Micro::Eff(Effect::Resume(resume)));
        } else {
            self.block_kt(cpu, kt, BlockKind::Chan(ch));
        }
    }

    /// Wakes a unit blocked on a kernel channel.
    pub(crate) fn wake_unit_from_chan(&mut self, unit: UnitRef) {
        match unit {
            UnitRef::Kt(w) => {
                let ret = self.segs.ret;
                let resume = resume_for_chan(&self.kts.hot[w.index()].flavor);
                let wt = &mut self.kts.cold[w.index()];
                wt.pipeline.push_back(Micro::Seg(ret));
                wt.resume = Some(resume);
                self.wake_kt(w);
            }
            UnitRef::Act(a) => {
                self.sa_unblock(a, crate::upcall::SyscallOutcome::ChanSignalled);
            }
        }
    }
}

/// Resume value for a channel wakeup, depending on who waited.
fn resume_for_chan(flavor: &KtFlavor) -> ResumeWith {
    match flavor {
        KtFlavor::AppBody => ResumeWith::Op(OpResult::Done),
        KtFlavor::Vp(_) => ResumeWith::Syscall(crate::upcall::SyscallOutcome::ChanSignalled),
        KtFlavor::Daemon(_) => unreachable!("daemons do not wait on channels"),
    }
}

/// Namespacing trick: banked cv signals are stored in the chan table under
/// a high-bit-tagged id so they cannot collide with workload channels.
fn cv_bank(cv: CvId) -> ChanId {
    ChanId(cv.0 | 0x8000_0000)
}
