//! Driver-level tests of the FastThreads runtime: the `UserRuntime`
//! contract is exercised directly (a hand-rolled "kernel" of a few lines),
//! so thread scheduling, synchronization, upcall handling and
//! critical-section recovery can be asserted step by step.

use sa_kernel::upcall::{
    PollReason, RtEnv, SavedContext, Syscall, SyscallOutcome, UpcallEvent, UserRuntime, VpAction,
    VpSeg, WorkKind,
};
use sa_kernel::VpId;
use sa_machine::program::{FnBody, Op, ScriptBody};
use sa_machine::{ComputeBody, CostModel, CvId, LockId};
use sa_sim::{SimDuration, SimTime, Trace};
use sa_uthread::{CriticalSectionMode, FastThreads, FtConfig, SpinPolicy};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A miniature driver: advances one VP at a time, accumulating virtual
/// time, until the runtime gives up or a step budget runs out.
struct Driver {
    rt: FastThreads,
    cost: CostModel,
    trace: Trace,
    now: SimTime,
    /// Kinds of the segments `drain` ran, in order.
    kinds: Vec<WorkKind>,
}

impl Driver {
    fn new(cfg: FtConfig, main: Box<dyn sa_machine::program::ThreadBody>) -> Self {
        let mut rt = FastThreads::new(cfg);
        rt.set_main(main);
        Driver {
            rt,
            cost: CostModel::firefly_prototype(),
            trace: Trace::disabled(),
            now: SimTime::ZERO,
            kinds: Vec::new(),
        }
    }

    fn poll(&mut self, vp: u32, reason: PollReason) -> VpAction {
        self.poll_kicks(vp, reason).0
    }

    /// Polls once, also returning the processors the runtime kicked.
    fn poll_kicks(&mut self, vp: u32, reason: PollReason) -> (VpAction, Vec<VpId>) {
        let mut env = RtEnv::new(self.now, &self.cost, 0, &mut self.trace);
        let action = self.rt.poll(&mut env, VpId(vp), reason);
        (action, env.take_kicks())
    }

    /// Runs VP `vp` (acknowledging allocation hints) until it returns a
    /// segment `stop` accepts, without running that segment.
    fn run_to(&mut self, vp: u32, mut reason: PollReason, stop: impl Fn(&VpSeg) -> bool) -> VpSeg {
        for _ in 0..10_000 {
            match self.poll(vp, reason) {
                VpAction::Run(seg) if stop(&seg) => return seg,
                VpAction::Run(seg) => {
                    self.now += seg.dur;
                    reason = PollReason::SegDone;
                }
                VpAction::Syscall {
                    call: Syscall::SetDesiredProcessors { .. },
                } => reason = PollReason::SyscallDone(SyscallOutcome::Ok),
                other => panic!("unexpected {other:?}"),
            }
        }
        panic!("runtime never produced the awaited segment");
    }

    fn deliver(&mut self, vp: u32, events: &[UpcallEvent]) {
        let mut env = RtEnv::new(self.now, &self.cost, 0, &mut self.trace);
        self.rt.deliver_upcall(&mut env, VpId(vp), events);
    }

    /// Runs VP `vp` until it returns something other than `Run` or a
    /// processor-allocation hint (hints are acknowledged, as the kernel
    /// would), accumulating time and logging every segment's kind.
    /// Returns the terminal action and elapsed time.
    fn drain(&mut self, vp: u32, mut reason: PollReason) -> (VpAction, SimDuration) {
        let mut elapsed = SimDuration::ZERO;
        for _ in 0..10_000 {
            match self.poll(vp, reason) {
                VpAction::Run(seg) => {
                    assert_ne!(seg.dur, SimDuration::MAX, "unexpected unbounded run");
                    self.kinds.push(seg.kind);
                    elapsed += seg.dur;
                    self.now += seg.dur;
                    reason = PollReason::SegDone;
                }
                VpAction::Syscall {
                    call:
                        Syscall::SetDesiredProcessors { .. }
                        | Syscall::ProcessorIdle
                        | Syscall::RecycleActivations { .. },
                } => {
                    // Non-blocking allocation hints: acknowledge and go on.
                    self.now += SimDuration::from_micros(60);
                    reason = PollReason::SyscallDone(SyscallOutcome::Ok);
                }
                other => return (other, elapsed),
            }
        }
        panic!("runtime did not reach a terminal action");
    }
}

fn sa_cfg() -> FtConfig {
    FtConfig::scheduler_activations(4)
}

#[test]
fn boot_runs_main_to_exit_then_gives_up() {
    let mut d = Driver::new(
        sa_cfg(),
        Box::new(ComputeBody::new(SimDuration::from_micros(100))),
    );
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (action, elapsed) = d.drain(0, PollReason::Fresh);
    assert!(matches!(action, VpAction::GiveUp), "{action:?}");
    assert!(elapsed >= SimDuration::from_micros(100));
    assert!(d.rt.quiescent());
}

#[test]
fn fork_join_at_runtime_level() {
    let mut state = 0;
    let main = FnBody::new("m", move |env| {
        state += 1;
        match state {
            1 => Op::Fork(Box::new(ComputeBody::new(SimDuration::from_micros(50)))),
            2 => Op::Join(env.last.forked()),
            _ => Op::Exit,
        }
    });
    let mut d = Driver::new(sa_cfg(), Box::new(main));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (action, elapsed) = d.drain(0, PollReason::Fresh);
    assert!(matches!(action, VpAction::GiveUp));
    // Child's 50 µs plus fork/join/dispatch overheads.
    assert!(elapsed > SimDuration::from_micros(80), "{elapsed}");
    assert!(d.rt.quiescent());
    assert_eq!(d.rt.stats.forks.get(), 1);
    assert_eq!(d.rt.stats.exits.get(), 2);
}

#[test]
fn uncontended_lock_stays_at_user_level() {
    let ops = vec![
        Op::Acquire(LockId(1)),
        Op::Compute(SimDuration::from_micros(10)),
        Op::Release(LockId(1)),
    ];
    let mut d = Driver::new(sa_cfg(), Box::new(ScriptBody::new("l", ops)));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (action, _) = d.drain(0, PollReason::Fresh);
    // No syscall was ever made: straight to GiveUp.
    assert!(matches!(action, VpAction::GiveUp));
    assert_eq!(d.rt.stats.lock_fast.get(), 1);
    assert_eq!(d.rt.stats.lock_contended.get(), 0);
}

#[test]
fn io_emits_syscall_and_blocked_unblocked_round_trip() {
    let ops = vec![Op::Io(SimDuration::from_millis(1))];
    let mut d = Driver::new(sa_cfg(), Box::new(ScriptBody::new("io", ops)));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (action, _) = d.drain(0, PollReason::Fresh);
    let VpAction::Syscall { call } = action else {
        panic!("expected syscall, got {action:?}");
    };
    assert!(matches!(call, Syscall::Io { .. }));
    assert!(!d.rt.quiescent(), "quiescent with a thread entering I/O");
    // Activation 0 blocks in the kernel; a fresh activation 1 carries the
    // notification.
    d.deliver(
        1,
        &[UpcallEvent::Blocked {
            vp: VpId(0),
            seq: 1,
        }],
    );
    let (idle, _) = d.drain(1, PollReason::Fresh);
    // No other threads: the runtime idles (hysteresis spin, hint, or spin).
    assert!(
        !matches!(idle, VpAction::GiveUp),
        "gave up with blocked work"
    );
    assert!(!d.rt.quiescent());
    // The I/O completes; activation 2 delivers the unblock plus the idle
    // processor's preemption.
    d.deliver(
        2,
        &[
            UpcallEvent::Unblocked {
                vp: VpId(0),
                blocked_seq: 1,
                seq: 2,
                saved: SavedContext::empty(),
                outcome: SyscallOutcome::IoDone,
            },
            UpcallEvent::Preempted {
                vp: VpId(1),
                saved: SavedContext::empty(),
                seq: 3,
                decision: 0,
            },
        ],
    );
    let (end, _) = d.drain(2, PollReason::Fresh);
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    assert!(d.rt.quiescent());
    assert_eq!(d.rt.stats.unblocks.get(), 1);
}

#[test]
fn preempted_compute_resumes_with_saved_remainder() {
    let mut d = Driver::new(
        sa_cfg(),
        Box::new(ComputeBody::new(SimDuration::from_millis(10))),
    );
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    // Boot overheads, then the 10 ms segment appears.
    let seg = loop {
        match d.poll(0, PollReason::Fresh) {
            VpAction::Run(seg) if seg.dur == SimDuration::from_millis(10) => break seg,
            VpAction::Run(seg) => {
                d.now += seg.dur;
            }
            other => panic!("unexpected {other:?}"),
        }
    };
    // The kernel preempts 4 ms in; activation 1 gets the notification.
    d.now += SimDuration::from_millis(4);
    let saved = SavedContext {
        cookie: seg.cookie,
        remaining: SimDuration::from_millis(6),
        kind: WorkKind::UserWork,
    };
    d.deliver(
        1,
        &[UpcallEvent::Preempted {
            vp: VpId(0),
            saved,
            seq: 1,
            decision: 0,
        }],
    );
    // The runtime processes the event, re-dispatches the thread, and the
    // very next user segment must be the 6 ms remainder.
    let mut reason = PollReason::Fresh;
    let mut total_user = SimDuration::ZERO;
    loop {
        match d.poll(1, reason) {
            VpAction::Run(s) => {
                if s.kind == WorkKind::UserWork {
                    total_user += s.dur;
                }
                d.now += s.dur;
                reason = PollReason::SegDone;
            }
            VpAction::GiveUp => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(total_user, SimDuration::from_millis(6), "remainder wrong");
    assert!(d.rt.quiescent());
    assert_eq!(d.rt.stats.preemptions_seen.get(), 1);
}

#[test]
fn preempted_lock_holder_is_recovered_first() {
    // A thread computes while holding a lock; it is preempted mid-hold.
    // §3.3: the upcall handler must continue it through the critical
    // section before doing anything else.
    let ops = vec![
        Op::Acquire(LockId(9)),
        Op::Compute(SimDuration::from_millis(8)),
        Op::Release(LockId(9)),
        Op::Compute(SimDuration::from_micros(30)),
    ];
    let mut d = Driver::new(sa_cfg(), Box::new(ScriptBody::new("cs", ops)));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let seg = loop {
        match d.poll(0, PollReason::Fresh) {
            VpAction::Run(seg) if seg.dur == SimDuration::from_millis(8) => break seg,
            VpAction::Run(seg) => d.now += seg.dur,
            other => panic!("unexpected {other:?}"),
        }
    };
    d.now += SimDuration::from_millis(3);
    let saved = SavedContext {
        cookie: seg.cookie,
        remaining: SimDuration::from_millis(5),
        kind: WorkKind::UserWork,
    };
    d.deliver(
        1,
        &[UpcallEvent::Preempted {
            vp: VpId(0),
            saved,
            seq: 1,
            decision: 0,
        }],
    );
    let (end, _) = d.drain(1, PollReason::Fresh);
    assert!(matches!(end, VpAction::GiveUp));
    assert_eq!(
        d.rt.stats.recoveries.get(),
        1,
        "critical-section recovery did not run"
    );
    assert!(d.rt.quiescent());
}

#[test]
fn no_recovery_mode_skips_recovery() {
    let ops = vec![
        Op::Acquire(LockId(9)),
        Op::Compute(SimDuration::from_millis(8)),
        Op::Release(LockId(9)),
    ];
    let mut cfg = sa_cfg();
    cfg.critical = CriticalSectionMode::NoRecovery;
    let mut d = Driver::new(cfg, Box::new(ScriptBody::new("cs", ops)));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let seg = loop {
        match d.poll(0, PollReason::Fresh) {
            VpAction::Run(seg) if seg.dur == SimDuration::from_millis(8) => break seg,
            VpAction::Run(seg) => d.now += seg.dur,
            other => panic!("unexpected {other:?}"),
        }
    };
    let saved = SavedContext {
        cookie: seg.cookie,
        remaining: SimDuration::from_millis(5),
        kind: WorkKind::UserWork,
    };
    d.now += SimDuration::from_millis(3);
    d.deliver(
        1,
        &[UpcallEvent::Preempted {
            vp: VpId(0),
            saved,
            seq: 1,
            decision: 0,
        }],
    );
    let (end, _) = d.drain(1, PollReason::Fresh);
    assert!(matches!(end, VpAction::GiveUp));
    assert_eq!(d.rt.stats.recoveries.get(), 0);
}

#[test]
fn user_cv_ping_pong_without_kernel() {
    const ROUNDS: usize = 5;
    let cv_a = CvId(0);
    let cv_b = CvId(1);
    let none = LockId::NONE;
    let mut st = 0;
    let main = FnBody::new("a", move |_| {
        st += 1;
        match st {
            1 => Op::Fork(Box::new(FnBody::new("b", {
                let mut k = 0;
                move |_| {
                    k += 1;
                    if k > 2 * ROUNDS {
                        Op::Exit
                    } else if k % 2 == 1 {
                        Op::Wait {
                            cv: cv_b,
                            lock: none,
                        }
                    } else {
                        Op::Signal(cv_a)
                    }
                }
            }))),
            _ => {
                let k = st - 1;
                if k > 2 * ROUNDS {
                    Op::Exit
                } else if k % 2 == 1 {
                    Op::Signal(cv_b)
                } else {
                    Op::Wait {
                        cv: cv_a,
                        lock: none,
                    }
                }
            }
        }
    });
    let mut d = Driver::new(sa_cfg(), Box::new(main));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (end, _) = d.drain(0, PollReason::Fresh);
    // Fully user-level: terminates without a single syscall on one VP.
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    assert!(d.rt.quiescent());
}

#[test]
fn contended_lock_spins_then_blocks_per_policy() {
    // Two threads fight over a lock on one VP: the second must block at
    // user level (no processor to spin on a uniprocessor — the spin seg is
    // bounded and expires).
    let lock = LockId(5);
    let mut st = 0;
    let main = FnBody::new("m", move |_| {
        st += 1;
        match st {
            1 => Op::Acquire(lock),
            2 => Op::Fork(Box::new(ScriptBody::new(
                "w",
                vec![
                    Op::Acquire(lock),
                    Op::Compute(SimDuration::from_micros(5)),
                    Op::Release(lock),
                ],
            ))),
            3 => Op::Yield, // let the child hit the held lock
            4 => Op::Release(lock),
            _ => Op::Exit,
        }
    });
    let mut cfg = sa_cfg();
    cfg.lock_policy = SpinPolicy::SpinThenBlock {
        spin: SimDuration::from_micros(30),
    };
    let mut d = Driver::new(cfg, Box::new(main));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (end, _) = d.drain(0, PollReason::Fresh);
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    assert_eq!(d.rt.stats.lock_contended.get(), 1);
    assert_eq!(d.rt.stats.spin_blocks.get(), 1);
    assert!(d.rt.quiescent());
}

#[test]
fn kthread_substrate_reports_vps_and_never_gets_upcalls() {
    let cfg = FtConfig::kernel_threads(3);
    let rt = FastThreads::new(cfg);
    assert_eq!(rt.kthread_vps(), Some(3));
    let sa = FastThreads::new(sa_cfg());
    assert_eq!(sa.kthread_vps(), None);
}

#[test]
fn idle_vp_spins_on_kthread_substrate() {
    // Original FastThreads: a VP with no work burns its processor in the
    // idle loop — invisible to the kernel (§2.2).
    let mut d = Driver::new(
        FtConfig::kernel_threads(2),
        Box::new(ComputeBody::new(SimDuration::from_micros(50))),
    );
    // VP 0 polls first and takes the main thread.
    let _ = d.poll(0, PollReason::Fresh);
    // VP 1 has no work at all; it must spin, not give up or trap.
    let action = d.poll(1, PollReason::Fresh);
    assert!(
        matches!(
            action,
            VpAction::Spin {
                kind: WorkKind::IdleSpin,
                ..
            }
        ),
        "{action:?}"
    );
}

#[test]
fn sa_idle_vp_hints_after_hysteresis() {
    // New FastThreads: an idle processor spins briefly, then makes the
    // Table 3 "processor idle" call, then spins awaiting reallocation.
    let shared = Rc::new(RefCell::new(0));
    let _ = shared;
    let mut d = Driver::new(
        sa_cfg(),
        Box::new(ComputeBody::new(SimDuration::from_micros(10))),
    );
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    // Finish the main thread.
    let (end, _) = d.drain(0, PollReason::Fresh);
    assert!(matches!(end, VpAction::GiveUp));
    // A second processor arrives while there is nothing to do (the kernel
    // may do this; the runtime must hint and spin, since live==0 it gives
    // up instead).
    d.deliver(1, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (a, _) = d.drain(1, PollReason::Fresh);
    assert!(matches!(a, VpAction::GiveUp));
}

#[test]
fn explicit_flag_mode_charges_more_per_op() {
    let run = |critical: CriticalSectionMode| {
        let mut cfg = sa_cfg();
        cfg.critical = critical;
        let mut st = 0;
        let main = FnBody::new("m", move |env| {
            st += 1;
            match st {
                1 => Op::Fork(Box::new(ComputeBody::null())),
                2 => Op::Join(env.last.forked()),
                _ => Op::Exit,
            }
        });
        let mut d = Driver::new(cfg, Box::new(main));
        d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
        let (_, elapsed) = d.drain(0, PollReason::Fresh);
        elapsed
    };
    let zero = run(CriticalSectionMode::ZeroOverhead);
    let flagged = run(CriticalSectionMode::ExplicitFlag);
    assert!(
        flagged > zero,
        "explicit flag {flagged} not slower than zero-overhead {zero}"
    );
}

/// A main thread that takes `lock`, forks a child that wants it too,
/// computes 100 µs holding it, releases it and exits. The child takes the
/// lock, computes 5 µs and releases it.
fn lock_holder_and_contender(lock: LockId) -> Box<dyn sa_machine::program::ThreadBody> {
    let mut st = 0;
    Box::new(FnBody::new("holder", move |_| {
        st += 1;
        match st {
            1 => Op::Acquire(lock),
            2 => Op::Fork(Box::new(ScriptBody::new(
                "contender",
                vec![
                    Op::Acquire(lock),
                    Op::Compute(SimDuration::from_micros(5)),
                    Op::Release(lock),
                ],
            ))),
            3 => Op::Compute(SimDuration::from_micros(100)),
            4 => Op::Release(lock),
            _ => Op::Exit,
        }
    }))
}

/// Boots [`lock_holder_and_contender`] under `SpinForever` and runs it
/// until the contender spins on processor 1 while the holder computes on
/// processor 0. Returns the harness and the spin's cookie.
fn spin_forever_contender_spinning(lock: LockId) -> (Driver, u64) {
    let mut cfg = sa_cfg();
    cfg.lock_policy = SpinPolicy::SpinForever;
    let mut d = Driver::new(cfg, lock_holder_and_contender(lock));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    d.run_to(0, PollReason::Fresh, |s| {
        s.dur == SimDuration::from_micros(100)
    });
    // A second processor steals the contender, which finds the lock held.
    d.deliver(1, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (spin, _) = d.drain(1, PollReason::Fresh);
    let VpAction::Spin {
        cookie,
        kind: WorkKind::SpinWait,
    } = spin
    else {
        panic!("contender did not spin: {spin:?}");
    };
    assert_eq!(d.rt.stats.lock_contended.get(), 1);
    (d, cookie)
}

#[test]
fn spin_forever_spinner_is_kicked_by_release_and_takes_the_lock() {
    let (mut d, _) = spin_forever_contender_spinning(LockId(5));
    // The holder's compute ends; its release hands the lock to the spinner
    // and kicks the spinner's processor.
    d.now += SimDuration::from_micros(100);
    let release = d.run_to(0, PollReason::SegDone, |_| true);
    d.now += release.dur;
    let (after, kicks) = d.poll_kicks(0, PollReason::SegDone);
    assert_eq!(kicks, vec![VpId(1)], "release did not kick the spinner");
    assert!(matches!(after, VpAction::Run(_)), "{after:?}");
    // Kicked, the spinner owns the lock and runs its critical section.
    let next = d.poll(1, PollReason::Kicked);
    let VpAction::Run(cs) = next else {
        panic!("kicked spinner did not run: {next:?}");
    };
    assert_eq!(cs.kind, WorkKind::UserWork);
    assert_eq!(cs.dur, SimDuration::from_micros(5));
    assert_eq!(
        d.rt.stats.lock_fast.get(),
        1,
        "the handoff is not a fast acquire"
    );
    assert_eq!(d.rt.stats.spin_blocks.get(), 0);
    // The holder exits and processor 0 idles; the spinner finishes.
    let (idle, _) = d.drain(0, PollReason::SegDone);
    assert!(matches!(idle, VpAction::Spin { .. }), "{idle:?}");
    d.now += cs.dur;
    let (end, _) = d.drain(1, PollReason::SegDone);
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    assert!(d.rt.quiescent());
}

#[test]
fn spin_forever_spinner_preempted_mid_spin_retries_the_acquire() {
    let lock = LockId(5);
    let (mut d, cookie) = spin_forever_contender_spinning(lock);
    // The kernel takes processor 1 mid-spin; activation 2 is told.
    d.now += SimDuration::from_micros(20);
    let saved = SavedContext {
        cookie,
        remaining: SimDuration::ZERO,
        kind: WorkKind::SpinWait,
    };
    d.deliver(
        2,
        &[UpcallEvent::Preempted {
            vp: VpId(1),
            saved,
            seq: 1,
            decision: 0,
        }],
    );
    let requeue = d.run_to(2, PollReason::Fresh, |_| true);
    assert_eq!(requeue.kind, WorkKind::UpcallWork);
    // The holder releases while the contender is off its processor: no
    // spinner is left to hand the lock to, so it is simply freed.
    d.now += SimDuration::from_micros(80);
    let release = d.run_to(0, PollReason::SegDone, |_| true);
    d.now += release.dur;
    let (_, kicks) = d.poll_kicks(0, PollReason::SegDone);
    assert!(kicks.is_empty(), "release kicked {kicks:?}");
    // Re-dispatched, the contender's first action is a fresh acquire,
    // which now succeeds on the fast path: no spin expiry or spin segment
    // survived the preemption.
    d.now += requeue.dur;
    let cs = d.run_to(2, PollReason::SegDone, |s| {
        s.kind != WorkKind::RuntimeOverhead
    });
    assert_eq!(cs.kind, WorkKind::UserWork);
    assert_eq!(cs.dur, SimDuration::from_micros(5));
    assert_eq!(d.rt.stats.lock_fast.get(), 2);
    assert_eq!(d.rt.stats.lock_contended.get(), 1);
    assert_eq!(d.rt.stats.preemptions_seen.get(), 1);
    let dump = d.rt.debug_dump();
    assert!(!dump.contains("spin=Some"), "{dump}");
    assert!(dump.contains("spinners=0"), "{dump}");
    let (idle, _) = d.drain(0, PollReason::SegDone);
    assert!(matches!(idle, VpAction::Spin { .. }), "{idle:?}");
    d.now += cs.dur;
    let (end, _) = d.drain(2, PollReason::SegDone);
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    assert!(d.rt.quiescent());
}

#[test]
fn block_immediately_waiter_blocks_at_user_level_and_retries() {
    let lock = LockId(5);
    let mut st = 0;
    let main = FnBody::new("m", move |_| {
        st += 1;
        match st {
            1 => Op::Acquire(lock),
            2 => Op::Fork(Box::new(ScriptBody::new(
                "w",
                vec![
                    Op::Acquire(lock),
                    Op::Compute(SimDuration::from_micros(5)),
                    Op::Release(lock),
                ],
            ))),
            3 => Op::Yield, // let the child hit the held lock
            4 => Op::Release(lock),
            _ => Op::Exit,
        }
    });
    let mut cfg = sa_cfg();
    cfg.lock_policy = SpinPolicy::BlockImmediately;
    let mut d = Driver::new(cfg, Box::new(main));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let (end, _) = d.drain(0, PollReason::Fresh);
    // No spin and no kernel call: the child blocked at user level, the
    // release woke it, and its retried acquire took the free lock.
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    assert!(!d.kinds.contains(&WorkKind::SpinWait), "{:?}", d.kinds);
    assert_eq!(d.rt.stats.lock_contended.get(), 1);
    assert_eq!(d.rt.stats.spin_blocks.get(), 0);
    assert_eq!(
        d.rt.stats.lock_fast.get(),
        2,
        "the retry missed the fast path"
    );
    assert!(d.rt.quiescent());
}

#[test]
fn preempted_signal_runs_its_saved_remainder_before_the_wakeup() {
    let cv = CvId(3);
    let signalled = Rc::new(Cell::new(false));
    let mut st = 0;
    let main = FnBody::new("m", {
        let signalled = Rc::clone(&signalled);
        move |_| {
            st += 1;
            match st {
                1 => Op::Fork(Box::new(ScriptBody::new(
                    "waiter",
                    vec![Op::Wait {
                        cv,
                        lock: LockId::NONE,
                    }],
                ))),
                2 => Op::Yield, // the waiter blocks on the cv
                3 => {
                    signalled.set(true);
                    Op::Signal(cv)
                }
                _ => Op::Exit,
            }
        }
    });
    let mut d = Driver::new(sa_cfg(), Box::new(main));
    d.deliver(0, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let sig = d.run_to(0, PollReason::Fresh, |_| signalled.get());
    assert_eq!(sig.kind, WorkKind::RuntimeOverhead);
    // Processor 1 arrives with nothing to run and spins in the idle loop.
    d.deliver(1, &[UpcallEvent::AddProcessor { decision: 0 }]);
    let idle = d.poll(1, PollReason::Fresh);
    assert!(
        matches!(idle, VpAction::Run(s) if s.kind == WorkKind::IdleSpin),
        "{idle:?}"
    );
    // The kernel preempts processor 0 halfway through the signal (inside
    // the runtime's critical section); activation 2 recovers the thread.
    let remaining = SimDuration::from_nanos(sig.dur.as_nanos() / 2);
    d.now += sig.dur - remaining;
    let saved = SavedContext {
        cookie: sig.cookie,
        remaining,
        kind: WorkKind::RuntimeOverhead,
    };
    d.deliver(
        2,
        &[UpcallEvent::Preempted {
            vp: VpId(0),
            saved,
            seq: 1,
            decision: 0,
        }],
    );
    let (switch, kicks) = d.poll_kicks(2, PollReason::Fresh);
    assert!(matches!(switch, VpAction::Run(s) if s.kind == WorkKind::UpcallWork));
    assert!(kicks.is_empty());
    // First the rest of the interrupted segment...
    let (rem, kicks) = d.poll_kicks(2, PollReason::SegDone);
    let VpAction::Run(rem) = rem else {
        panic!("expected the saved remainder, got {rem:?}");
    };
    assert_eq!((rem.dur, rem.kind), (remaining, WorkKind::RuntimeOverhead));
    assert!(kicks.is_empty(), "the waiter woke before the remainder ran");
    // ...then the signal's step, which wakes the waiter and kicks the idle
    // processor.
    d.now += rem.dur;
    let (back, kicks) = d.poll_kicks(2, PollReason::SegDone);
    assert!(matches!(back, VpAction::Run(s) if s.kind == WorkKind::UpcallWork));
    assert_eq!(kicks, vec![VpId(1)]);
    assert_eq!(d.rt.stats.recoveries.get(), 1);
    let (end, _) = d.drain(2, PollReason::SegDone);
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    let (end, _) = d.drain(1, PollReason::Kicked);
    assert!(matches!(end, VpAction::GiveUp), "{end:?}");
    assert!(d.rt.quiescent());
}
