//! Protocol tests for scheduler activations: the Table 2 upcall points,
//! the Table 3 downcalls, activation recycling, delayed notifications,
//! the upcall-page-fault rule, and the debugger's logical processors —
//! exercised through a scripted probe runtime that records everything the
//! kernel tells it.

use sa_kernel::upcall::{
    PollReason, RtEnv, Syscall, UpcallEvent, UserRuntime, VpAction, VpSeg, WorkKind,
};
use sa_kernel::{ActId, AsId, Kernel, KernelConfig, SchedMode, SpaceSpec, VpId};
use sa_machine::program::ThreadBody;
use sa_machine::{ComputeBody, CostModel};
use sa_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// What the probe runtime does at each poll, in order. When the script is
/// empty the runtime gives the processor back and reports quiescent.
#[derive(Debug, Clone)]
enum Act {
    Run(u64),
    Call(Syscall),
}

/// A record of everything the kernel told the runtime.
#[derive(Debug, Clone, Default)]
struct ProbeLog {
    /// One entry per upcall: the batch of events.
    upcalls: Vec<Vec<UpcallEvent>>,
    /// One entry per poll: (vp, reason).
    polls: Vec<(VpId, String)>,
}

#[derive(Clone)]
struct LogHandle(Rc<RefCell<ProbeLog>>);

impl LogHandle {
    fn new() -> Self {
        LogHandle(Rc::new(RefCell::new(ProbeLog::default())))
    }

    fn upcalls(&self) -> Vec<Vec<UpcallEvent>> {
        self.0.borrow().upcalls.clone()
    }

    fn all_events(&self) -> Vec<UpcallEvent> {
        self.0.borrow().upcalls.iter().flatten().copied().collect()
    }

    fn polls(&self) -> usize {
        self.0.borrow().polls.len()
    }
}

/// A scripted runtime: replays `script` one action per poll; `GiveUp` once
/// exhausted. Blocked work is tracked so `quiescent` stays honest.
struct ProbeRuntime {
    log: LogHandle,
    script: VecDeque<Act>,
    outstanding_blocks: Rc<RefCell<i32>>,
    done_when_empty: bool,
    /// Set once a poll found the script exhausted with nothing blocked:
    /// only then is the probe quiescent (otherwise the kernel would retire
    /// the space while its last action is still in flight).
    finished: bool,
}

impl ProbeRuntime {
    fn new(log: LogHandle, script: Vec<Act>) -> Self {
        ProbeRuntime {
            log,
            script: script.into(),
            outstanding_blocks: Rc::new(RefCell::new(0)),
            done_when_empty: true,
            finished: false,
        }
    }
}

impl UserRuntime for ProbeRuntime {
    fn kthread_vps(&self) -> Option<u32> {
        None
    }

    fn set_main(&mut self, _body: Box<dyn ThreadBody>) {}

    fn deliver_upcall(&mut self, _env: &mut RtEnv<'_>, _vp: VpId, events: &[UpcallEvent]) {
        for ev in events {
            match ev {
                UpcallEvent::Blocked { .. } => *self.outstanding_blocks.borrow_mut() += 1,
                UpcallEvent::Unblocked { .. } => *self.outstanding_blocks.borrow_mut() -= 1,
                _ => {}
            }
        }
        self.log.0.borrow_mut().upcalls.push(events.to_vec());
    }

    fn poll(&mut self, _env: &mut RtEnv<'_>, vp: VpId, reason: PollReason) -> VpAction {
        self.log
            .0
            .borrow_mut()
            .polls
            .push((vp, format!("{reason:?}")));
        match self.script.pop_front() {
            Some(Act::Run(us)) => VpAction::Run(VpSeg {
                dur: SimDuration::from_micros(us),
                cookie: 7,
                kind: WorkKind::UserWork,
            }),
            Some(Act::Call(call)) => VpAction::Syscall { call },
            None => {
                if *self.outstanding_blocks.borrow() > 0 {
                    // Keep the processor; the unblock notification needs
                    // the space alive.
                    VpAction::Spin {
                        cookie: 0,
                        kind: WorkKind::IdleSpin,
                    }
                } else {
                    self.finished = true;
                    VpAction::GiveUp
                }
            }
        }
    }

    fn quiescent(&self) -> bool {
        self.done_when_empty
            && self.finished
            && self.script.is_empty()
            && *self.outstanding_blocks.borrow() == 0
    }

    fn desired_processors(&self) -> u32 {
        1
    }
}

fn kernel(cpus: u16) -> Kernel {
    Kernel::new(
        KernelConfig {
            cpus,
            sched: SchedMode::SaAllocator,
            daemons: Vec::new(),
            seed: 3,
            run_limit: SimTime::from_millis(60_000),
            ..KernelConfig::default()
        },
        CostModel::firefly_prototype(),
    )
}

fn probe_space(k: &mut Kernel, log: &LogHandle, script: Vec<Act>) -> AsId {
    k.add_space(SpaceSpec::user_level(
        "probe",
        Box::new(ProbeRuntime::new(log.clone(), script)),
        Box::new(ComputeBody::null()),
    ))
}

#[test]
fn program_start_delivers_add_processor_upcall() {
    // §3.1: "When a program is started, the kernel creates a scheduler
    // activation, assigns it to a processor, and upcalls into the
    // application address space at a fixed entry point."
    let mut k = kernel(2);
    let log = LogHandle::new();
    probe_space(&mut k, &log, vec![Act::Run(100)]);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked);
    let upcalls = log.upcalls();
    assert!(
        matches!(upcalls[0][..], [UpcallEvent::AddProcessor { .. }]),
        "{:?}",
        upcalls[0]
    );
    assert!(log.polls() >= 2); // Fresh + SegDone at least
}

#[test]
fn blocking_call_triggers_blocked_then_unblocked() {
    let mut k = kernel(1);
    let log = LogHandle::new();
    probe_space(
        &mut k,
        &log,
        vec![
            Act::Run(50),
            Act::Call(Syscall::Io {
                dur: SimDuration::from_millis(5),
            }),
        ],
    );
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    let events = log.all_events();
    let blocked: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, UpcallEvent::Blocked { .. }))
        .collect();
    let unblocked: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, UpcallEvent::Unblocked { .. }))
        .collect();
    assert_eq!(blocked.len(), 1);
    assert_eq!(unblocked.len(), 1);
    // The Blocked and Unblocked events name the same activation and the
    // same blocking episode.
    let UpcallEvent::Blocked { vp: b, seq: bs } = blocked[0] else {
        unreachable!()
    };
    let UpcallEvent::Unblocked {
        vp: u,
        blocked_seq: us,
        ..
    } = unblocked[0]
    else {
        unreachable!()
    };
    assert_eq!(b, u);
    assert_eq!(bs, us);
}

#[test]
fn unblock_on_busy_machine_combines_with_preemption() {
    // §3.1: "the kernel may have to preempt a processor from the address
    // space to do the upcall; in this case, the upcall notifies the
    // user-level thread system, first, that the original thread can be
    // resumed, and second, that the thread that had been running on that
    // processor was preempted."
    let mut k = kernel(1);
    let log = LogHandle::new();
    probe_space(
        &mut k,
        &log,
        vec![
            Act::Call(Syscall::Io {
                dur: SimDuration::from_millis(5),
            }),
            // After the Blocked upcall, this action runs on the fresh
            // activation and is long enough to still be running when the
            // I/O completes.
            Act::Run(20_000),
            Act::Run(10),
        ],
    );
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    // Find the batch carrying the Unblocked event; it must also carry the
    // Preempted event for the activation that was running.
    let combined = log
        .upcalls()
        .into_iter()
        .find(|batch| {
            batch
                .iter()
                .any(|e| matches!(e, UpcallEvent::Unblocked { .. }))
        })
        .expect("no unblock batch");
    assert!(
        combined
            .iter()
            .any(|e| matches!(e, UpcallEvent::Preempted { .. })),
        "unblock did not preempt: {combined:?}"
    );
    // The preempted activation's saved state carries the runtime cookie
    // and the unfinished part of the 20 ms segment.
    let saved = combined
        .iter()
        .find_map(|e| match e {
            UpcallEvent::Preempted { saved, .. } => Some(*saved),
            _ => None,
        })
        .expect("checked");
    assert_eq!(saved.cookie, 7);
    assert!(saved.remaining > SimDuration::from_millis(10));
}

#[test]
fn multiprogramming_preempts_and_notifies_on_another_processor() {
    // §3.1's double preemption: when the kernel takes a processor from a
    // space that still has others, the notification itself preempts a
    // second processor, and one upcall reports both.
    let mut k = kernel(2);
    let log_a = LogHandle::new();
    // Space A wants both processors and computes for a long time.
    let mut rt = ProbeRuntime::new(
        log_a.clone(),
        vec![
            Act::Call(Syscall::SetDesiredProcessors { total: 2 }),
            Act::Run(50_000),
            Act::Run(50_000),
            Act::Run(50_000),
            Act::Run(50_000),
        ],
    );
    rt.done_when_empty = true;
    let _a = k.add_space(SpaceSpec::user_level(
        "a",
        Box::new(rt),
        Box::new(ComputeBody::null()),
    ));
    // Space B starts later, forcing the allocator to take a CPU from A.
    let log_b = LogHandle::new();
    let mut spec = SpaceSpec::user_level(
        "b",
        Box::new(ProbeRuntime::new(log_b.clone(), vec![Act::Run(10_000)])),
        Box::new(ComputeBody::null()),
    );
    spec.start_at = SimTime::from_millis(10);
    k.add_space(spec);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    // A must have received a batch with two Preempted events: the stolen
    // processor's activation and the notification carrier's.
    let batch = log_a
        .upcalls()
        .into_iter()
        .find(|b| {
            b.iter()
                .filter(|e| matches!(e, UpcallEvent::Preempted { .. }))
                .count()
                >= 2
        })
        .expect("no double-preemption batch");
    assert!(batch.len() >= 2, "{batch:?}");
    // B computed on the stolen processor.
    assert!(!log_b.upcalls().is_empty());
}

#[test]
fn last_processor_preemption_delays_notification() {
    // §3.1: "When the last processor is preempted from an address space,
    // we ... delay the notification until the kernel eventually
    // re-allocates it a processor."
    let mut k = kernel(1);
    let log_a = LogHandle::new();
    let _a = probe_space(
        &mut k,
        &log_a,
        vec![Act::Run(30_000), Act::Run(30_000), Act::Run(30_000)],
    );
    // Space B at higher priority takes the only CPU.
    let log_b = LogHandle::new();
    let mut spec = SpaceSpec::user_level(
        "b",
        Box::new(ProbeRuntime::new(log_b.clone(), vec![Act::Run(5_000)])),
        Box::new(ComputeBody::null()),
    );
    spec.priority = 10;
    spec.start_at = SimTime::from_millis(5);
    k.add_space(spec);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    // A's post-start upcall batches: the preemption notification must
    // arrive together with the re-grant (AddProcessor), not on its own —
    // A had no processor to be notified on.
    let batches = log_a.upcalls();
    let delayed = batches
        .iter()
        .find(|b| b.iter().any(|e| matches!(e, UpcallEvent::Preempted { .. })));
    let delayed = delayed.expect("preemption never reported");
    assert!(
        delayed
            .iter()
            .any(|e| matches!(e, UpcallEvent::AddProcessor { .. })),
        "preemption notification not combined with the re-grant: {delayed:?}"
    );
}

#[test]
fn recycled_activations_are_reused() {
    // §4.3: discarded activations returned in bulk become cheap cached
    // vessels; activation ids repeat across upcalls.
    let mut k = kernel(1);
    let log = LogHandle::new();
    let mut script = Vec::new();
    for _ in 0..6 {
        script.push(Act::Call(Syscall::Io {
            dur: SimDuration::from_millis(2),
        }));
    }
    script.push(Act::Call(Syscall::RecycleActivations { upto: u64::MAX }));
    for _ in 0..6 {
        script.push(Act::Call(Syscall::Io {
            dur: SimDuration::from_millis(2),
        }));
    }
    probe_space(&mut k, &log, script);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    // Count distinct vp ids across all polls; with recycling it must be
    // well below the number of upcalls.
    let mut vps: Vec<u32> = log.0.borrow().polls.iter().map(|(vp, _)| vp.0).collect();
    let total_polls = vps.len();
    vps.sort_unstable();
    vps.dedup();
    assert!(
        vps.len() < total_polls,
        "no activation reuse: {} distinct vps in {} polls",
        vps.len(),
        total_polls
    );
}

#[test]
fn processor_idle_hint_releases_cpu_to_needy_space() {
    // Table 3: "This processor is idle — preempt this processor if
    // another address space needs it."
    let mut k = kernel(2);
    let log_a = LogHandle::new();
    // A claims both CPUs, then reports one idle.
    let mut rt_a = ProbeRuntime::new(
        log_a.clone(),
        vec![
            Act::Call(Syscall::SetDesiredProcessors { total: 2 }),
            Act::Run(40_000),
            // Second VP (arrives via AddProcessor): reports idle and spins.
            Act::Call(Syscall::ProcessorIdle),
            Act::Run(40_000),
            Act::Run(40_000),
        ],
    );
    rt_a.done_when_empty = true;
    k.add_space(SpaceSpec::user_level(
        "a",
        Box::new(rt_a),
        Box::new(ComputeBody::null()),
    ));
    let log_b = LogHandle::new();
    let mut spec = SpaceSpec::user_level(
        "b",
        Box::new(ProbeRuntime::new(log_b.clone(), vec![Act::Run(2_000)])),
        Box::new(ComputeBody::null()),
    );
    spec.start_at = SimTime::from_millis(3);
    k.add_space(spec);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    // B got a processor (its upcall log is non-empty) even though A held
    // both; the allocator preferred A's idle-hinted processor.
    assert!(!log_b.upcalls().is_empty(), "b never ran");
    assert!(k.space_completion(AsId(1)).is_some());
}

#[test]
fn upcall_page_fault_defers_delivery() {
    // §3.1: "an upcall to notify the program of a page fault may in turn
    // page fault on the same location; the kernel must check for this,
    // and when it occurs, delay the subsequent upcall until the page
    // fault completes."
    let mut k = kernel(1);
    let log = LogHandle::new();
    let mut spec = SpaceSpec::user_level(
        "pf",
        Box::new(ProbeRuntime::new(log.clone(), vec![Act::Run(100)])),
        Box::new(ComputeBody::null()),
    );
    spec.mem_pages = Some(4); // paging enabled; runtime page not resident
    k.add_space(spec);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    // The first upcall could only be delivered after the 50 ms runtime-
    // page read.
    assert!(k.space_start(AsId(0)).is_some(), "space never started");
    let first_work = k.space_completion(AsId(0)).expect("did not finish");
    assert!(
        first_work >= SimTime::from_millis(50),
        "upcall was not deferred for the page read: done at {first_work}"
    );
    assert_eq!(k.space_metrics(AsId(0)).page_faults.get(), 1);
}

#[test]
fn preempt_vp_syscall_interrupts_own_processor() {
    // §3.1: the user level can ask the kernel to interrupt one of its own
    // processors (to reschedule a lower-priority user thread).
    let mut k = kernel(2);
    let log = LogHandle::new();
    let mut rt = ProbeRuntime::new(
        log.clone(),
        vec![
            Act::Call(Syscall::SetDesiredProcessors { total: 2 }),
            Act::Run(30_000),
            // On the second processor: ask the kernel to interrupt the
            // first activation (activation ids start at 0 for this space).
            Act::Call(Syscall::PreemptVp { vp: VpId(0) }),
            // Enough trailing work to outlive the Preempted upcall's
            // delivery prologue (~1.2 ms on the prototype cost model).
            Act::Run(5_000),
            Act::Run(5_000),
            Act::Run(100),
        ],
    );
    rt.done_when_empty = true;
    probe_space_with(&mut k, rt);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    let preempted: Vec<_> = log
        .all_events()
        .into_iter()
        .filter(|e| matches!(e, UpcallEvent::Preempted { vp, .. } if vp.0 == 0))
        .collect();
    assert!(
        !preempted.is_empty(),
        "PreemptVp produced no Preempted upcall: {:?}",
        log.upcalls()
    );
}

fn probe_space_with(k: &mut Kernel, rt: ProbeRuntime) -> AsId {
    k.add_space(SpaceSpec::user_level(
        "probe",
        Box::new(rt),
        Box::new(ComputeBody::null()),
    ))
}

#[test]
fn debugger_stops_without_upcalls() {
    // §4.4: a debug-stopped activation moves to a logical processor; no
    // upcalls result from stopping or resuming it.
    // This covers the API after the run; `debugger_stop_and_resume_mid_run`
    // intervenes mid-run.
    let mut k = kernel(2);
    let log = LogHandle::new();
    probe_space(&mut k, &log, vec![Act::Run(1_000), Act::Run(1_000)]);
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked);
    // All upcalls were AddProcessor only (no Preempted/Blocked at all).
    for batch in log.upcalls() {
        for ev in batch {
            assert!(matches!(ev, UpcallEvent::AddProcessor { .. }), "{ev:?}");
        }
    }
    // Debug API behaves sanely on non-running activations.
    assert!(!k.debug_stop(ActId(0)));
    assert!(!k.debug_resume(ActId(0)));
    assert!(!k.is_debug_stopped(ActId(0)));
}

/// The processors the dwell ledger shows `space` holding right now: CPUs
/// whose latest episode (sealed at the current time) belongs to it.
fn dwell_held(k: &Kernel, space: AsId) -> usize {
    let dwell = k.dwell_ledger().expect("dwell ledger enabled");
    (0..dwell.num_cpus() as u32)
        .filter(|&cpu| {
            let latest = dwell.episodes().iter().rev().find(|e| e.cpu == cpu);
            latest.is_some_and(|e| e.space == Some(space.0))
        })
        .count()
}

#[test]
fn debugger_stop_and_resume_mid_run() {
    // §4.4 in the middle of a run: stop a running activation, let the run
    // go on without it, resume it on a free processor, finish the run.
    // Firefly costs: an upcall takes 1.17 ms to reach user level, so the
    // first activation runs its first 1 ms segment over [1.17, 2.17) ms.
    let mut k = kernel(2);
    k.enable_dwell_ledger();
    let log = LogHandle::new();
    let space = probe_space(&mut k, &log, vec![Act::Run(1_000); 4]);
    let polls_of = |vp: VpId| -> Vec<String> {
        let log = log.0.borrow();
        log.polls
            .iter()
            .filter(|(v, _)| *v == vp)
            .map(|(_, r)| r.clone())
            .collect()
    };

    // Mid-way through the first segment.
    let out = k.run_until(SimTime::from_micros(1_500));
    assert!(out.timed_out, "{out:?}");
    let [act] = k.running_activations(space)[..] else {
        panic!("one activation should be running");
    };
    let vp = VpId(act.0);
    assert_eq!(polls_of(vp), ["Fresh"]);

    // Stop it. Its processor returns to the allocator, which re-grants one
    // to the space (it still wants a processor) on a fresh activation.
    assert!(k.debug_stop(act));
    assert!(k.is_debug_stopped(act));
    k.run_until(SimTime::from_micros(2_000));
    let running = k.running_activations(space);
    assert_eq!(running.len(), 1, "{running:?}");
    assert!(!running.contains(&act));
    assert_eq!(dwell_held(&k, space), running.len(), "§3.1 while stopped");

    // Resume it on the free processor: it finishes the interrupted
    // segment and polls for more work, with no upcall in between.
    assert!(k.debug_resume(act));
    let resumed_at = k.now();
    k.run_until(SimTime::from_micros(2_800));
    assert_eq!(polls_of(vp), ["Fresh", "SegDone"]);
    let running = k.running_activations(space);
    assert_eq!(running.len(), 2, "{running:?}");
    assert!(running.contains(&act));
    assert_eq!(dwell_held(&k, space), running.len(), "§3.1 after resume");

    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");

    // 1. No upcalls from stopping or resuming: the space saw only the
    //    allocator's two grants (at boot and after the stop).
    let upcalls = log.upcalls();
    assert_eq!(upcalls.len(), 2, "{upcalls:?}");
    for batch in &upcalls {
        assert!(
            matches!(batch[..], [UpcallEvent::AddProcessor { decision }] if decision != 0),
            "{batch:?}"
        );
    }
    // 2. §3.1 is also asserted after every event in debug builds.
    // 3. The resumed stretch belongs to the space, opened by no allocator
    //    decision, and the episodes still partition the run exactly.
    let dwell = k.dwell_ledger().expect("dwell ledger enabled");
    dwell.verify(out.end).expect("dwell conservation");
    let resumed: Vec<_> = dwell
        .episodes()
        .iter()
        .filter(|e| e.start == resumed_at && e.opened_by == 0 && e.space.is_some())
        .collect();
    assert_eq!(resumed.len(), 1, "{:?}", dwell.episodes());
    assert_eq!(resumed[0].space, Some(space.0));
    assert!(resumed[0].end > resumed_at);
}

#[test]
fn invariant_running_activations_equal_processors() {
    // §3.1's invariant is asserted inside the kernel after every event in
    // debug builds; a mixed run with blocking and reallocation exercises
    // it heavily. Reaching completion without panicking is the assertion.
    let mut k = kernel(3);
    for i in 0..3 {
        let log = LogHandle::new();
        let mut script = vec![Act::Call(Syscall::SetDesiredProcessors { total: 2 })];
        for _ in 0..4 {
            script.push(Act::Run(500));
            script.push(Act::Call(Syscall::Io {
                dur: SimDuration::from_millis(1 + i),
            }));
        }
        let mut spec = SpaceSpec::user_level(
            format!("mix-{i}"),
            Box::new(ProbeRuntime::new(log, script)),
            Box::new(ComputeBody::null()),
        );
        spec.start_at = SimTime::from_micros(i * 700);
        k.add_space(spec);
    }
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
}

#[test]
fn remainder_processors_are_time_sliced_between_spaces() {
    // §4.1: one processor, two equal-priority spaces that both want it —
    // the allocator must time-slice it so both make progress.
    let mut k = kernel(1);
    let log_a = LogHandle::new();
    let log_b = LogHandle::new();
    let work = |log: &LogHandle| {
        let script = (0..8).map(|_| Act::Run(30_000)).collect();
        ProbeRuntime::new(log.clone(), script)
    };
    k.add_space(SpaceSpec::user_level(
        "a",
        Box::new(work(&log_a)),
        Box::new(ComputeBody::null()),
    ));
    k.add_space(SpaceSpec::user_level(
        "b",
        Box::new(work(&log_b)),
        Box::new(ComputeBody::null()),
    ));
    let out = k.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    let done_a = k.space_completion(AsId(0)).expect("a done");
    let done_b = k.space_completion(AsId(1)).expect("b done");
    // Each space has 240 ms of work; serial-without-rotation would finish
    // A at ~240 ms and B at ~480 ms. With the quantum rotation both finish
    // in the last quarter of the run.
    let later = done_a.max(done_b);
    let earlier = done_a.min(done_b);
    assert!(
        earlier.as_nanos() * 4 > later.as_nanos() * 3,
        "remainder not time-sliced: {earlier} vs {later}"
    );
    // Both spaces were preempted along the way (the rotation's signature).
    assert!(
        k.space_metrics(AsId(0)).preemptions.get() >= 1
            && k.space_metrics(AsId(1)).preemptions.get() >= 1,
        "no rotation preemptions"
    );
}
