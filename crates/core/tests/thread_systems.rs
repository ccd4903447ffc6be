//! Cross-system integration tests: the same application bodies running
//! under all four thread systems (Ultrix processes, Topaz kernel threads,
//! original FastThreads, FastThreads on scheduler activations).

use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_kernel::NO_LOCK;
use sa_machine::program::{FnBody, Op, ScriptBody};
use sa_machine::{ComputeBody, CvId, LockId, ThreadRef};
use sa_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn all_apis(cpus: u32) -> Vec<(&'static str, ThreadApi)> {
    vec![
        ("topaz", ThreadApi::TopazThreads),
        ("ultrix", ThreadApi::UltrixProcesses),
        ("orig-ft", ThreadApi::OrigFastThreads { vps: cpus }),
        (
            "new-ft",
            ThreadApi::SchedulerActivations {
                max_processors: cpus,
            },
        ),
    ]
}

/// A body that forks `n` children each computing `work`, then joins them.
fn fork_join_body(n: usize, work: SimDuration) -> Box<dyn ThreadBodyAlias> {
    let mut children: Vec<ThreadRef> = Vec::new();
    let mut forked = 0usize;
    let mut joined = 0usize;
    Box::new(FnBody::new("fork-join", move |env| {
        if let sa_machine::OpResult::Forked(c) = env.last {
            children.push(c);
        }
        if forked < n {
            forked += 1;
            return Op::Fork(Box::new(ComputeBody::new(work)));
        }
        if joined < n {
            let c = children[joined];
            joined += 1;
            return Op::Join(c);
        }
        Op::Exit
    }))
}

// `FnBody` is generic; alias the object type for signatures.
use sa_machine::program::ThreadBody as ThreadBodyAlias;

#[test]
fn fork_join_completes_under_every_api() {
    for (name, api) in all_apis(2) {
        let mut sys = SystemBuilder::new(2)
            .app(AppSpec::new(name, api, fork_join_body(4, us(500))))
            .build();
        let report = sys.run();
        assert!(report.all_done(), "{name}: {:?}", report.outcome);
        let elapsed = report.elapsed(0);
        assert!(elapsed >= us(1000), "{name}: too fast {elapsed}");
        assert!(elapsed < ms(100), "{name}: too slow {elapsed}");
    }
}

#[test]
fn user_level_thread_ops_are_an_order_of_magnitude_cheaper() {
    // The paper's core claim (Table 1/4): thread operations at user level
    // cost ~procedure-call scale; kernel threads pay traps and kernel work.
    let run = |api: ThreadApi| {
        let mut sys = SystemBuilder::new(1)
            .app(AppSpec::new("bench", api, fork_join_body(200, us(0))))
            .build();
        let report = sys.run();
        assert!(report.all_done());
        report.elapsed(0)
    };
    let topaz = run(ThreadApi::TopazThreads);
    let new_ft = run(ThreadApi::SchedulerActivations { max_processors: 1 });
    let orig_ft = run(ThreadApi::OrigFastThreads { vps: 1 });
    assert!(
        topaz.as_nanos() > orig_ft.as_nanos() * 8,
        "topaz {topaz} vs orig-ft {orig_ft}"
    );
    assert!(
        topaz.as_nanos() > new_ft.as_nanos() * 8,
        "topaz {topaz} vs new-ft {new_ft}"
    );
    // SA bookkeeping costs a little over original FastThreads (Table 4).
    assert!(new_ft >= orig_ft, "new-ft {new_ft} vs orig-ft {orig_ft}");
}

#[test]
fn parallel_speedup_on_more_processors() {
    for (name, api) in [
        ("orig-ft", ThreadApi::OrigFastThreads { vps: 4 }),
        (
            "new-ft",
            ThreadApi::SchedulerActivations { max_processors: 4 },
        ),
    ] {
        let run = |cpus: u16, api: ThreadApi| {
            let mut sys = SystemBuilder::new(cpus)
                .app(AppSpec::new(name, api, fork_join_body(4, ms(20))))
                .build();
            let report = sys.run();
            assert!(report.all_done(), "{name}: {:?}", report.outcome);
            report.elapsed(0)
        };
        let t1 = run(1, api.clone());
        let t4 = run(4, api);
        assert!(
            t4.as_nanos() * 3 < t1.as_nanos(),
            "{name}: 4 cpus {t4} vs 1 cpu {t1}"
        );
    }
}

#[test]
fn sa_overlaps_io_with_computation_but_orig_ft_loses_the_processor() {
    // §2.2 and Figure 2's mechanism: when a user-level thread blocks in
    // the kernel, original FastThreads loses the physical processor for
    // the duration of the I/O; scheduler activations keep it busy via the
    // Blocked upcall.
    let body = |n_io: usize| {
        let mut state = 0usize;
        let mut children: Vec<ThreadRef> = Vec::new();
        FnBody::new("io-overlap", move |env| {
            if let sa_machine::OpResult::Forked(c) = env.last {
                children.push(c);
            }
            state += 1;
            if state <= n_io {
                // Forked threads block in the kernel for 50 ms.
                Op::Fork(Box::new(ScriptBody::new("io", vec![Op::Io(ms(50))])))
            } else if state == n_io + 1 {
                // Let the I/O threads start their requests first.
                Op::Yield
            } else if state == n_io + 2 {
                // Main thread computes 50 ms of real work meanwhile.
                Op::Compute(ms(50))
            } else if state - n_io - 3 < children.len() {
                Op::Join(children[state - n_io - 3])
            } else {
                Op::Exit
            }
        })
    };
    let run = |api: ThreadApi| {
        let mut sys = SystemBuilder::new(1)
            .app(AppSpec::new("io", api, Box::new(body(1))))
            .build();
        let report = sys.run();
        assert!(report.all_done(), "{:?}", report.outcome);
        report.elapsed(0)
    };
    let sa = run(ThreadApi::SchedulerActivations { max_processors: 1 });
    let orig = run(ThreadApi::OrigFastThreads { vps: 1 });
    // SA: the 50 ms compute overlaps the 50 ms I/O → ~50-60 ms total.
    assert!(sa < ms(70), "sa did not overlap: {sa}");
    // Original FastThreads: the single VP blocks with the I/O; compute
    // happens after → ~100 ms total.
    assert!(orig > ms(95), "orig-ft overlapped unexpectedly: {orig}");
}

#[test]
fn user_level_locks_never_trap() {
    let body = || {
        let lock = LockId(1);
        let mut i = 0;
        FnBody::new("locker", move |_| {
            i += 1;
            match i % 3 {
                1 if i < 300 => Op::Acquire(lock),
                2 => Op::Compute(us(5)),
                0 => Op::Release(lock),
                _ => Op::Exit,
            }
        })
    };
    let mut sys = SystemBuilder::new(1)
        .app(AppSpec::new(
            "l",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            Box::new(body()),
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done());
    let traps = sys.metrics(sys.apps()[0]).traps.get();
    // Only the initial want-more hint (if any) may trap; lock ops must not.
    assert!(traps <= 2, "user-level locks trapped: {traps} traps");
}

#[test]
fn contended_user_lock_hands_off_correctly() {
    for (name, api) in [
        ("orig-ft", ThreadApi::OrigFastThreads { vps: 2 }),
        (
            "new-ft",
            ThreadApi::SchedulerActivations { max_processors: 2 },
        ),
    ] {
        let lock = LockId(7);
        let log = Rc::new(RefCell::new(Vec::new()));
        let log_child = Rc::clone(&log);
        let log_main = Rc::clone(&log);
        let mut state = 0;
        let mut child = None;
        let main = FnBody::new("main", move |env| {
            state += 1;
            match state {
                1 => Op::Acquire(lock),
                2 => Op::Fork(Box::new(FnBody::new("child", {
                    let log = Rc::clone(&log_child);
                    let mut st = 0;
                    move |_| {
                        st += 1;
                        match st {
                            1 => Op::Acquire(lock),
                            2 => {
                                log.borrow_mut().push("child-in");
                                Op::Release(lock)
                            }
                            _ => Op::Exit,
                        }
                    }
                }))),
                3 => {
                    child = Some(env.last.forked());
                    Op::Compute(us(200))
                }
                4 => {
                    log_main.borrow_mut().push("main-release");
                    Op::Release(lock)
                }
                5 => Op::Join(child.unwrap()),
                _ => Op::Exit,
            }
        });
        let mut sys = SystemBuilder::new(2)
            .app(AppSpec::new(name, api, Box::new(main)))
            .build();
        let report = sys.run();
        assert!(report.all_done(), "{name}: {:?}", report.outcome);
        assert_eq!(
            *log.borrow(),
            vec!["main-release", "child-in"],
            "{name}: lock ordering broken"
        );
    }
}

#[test]
fn user_level_condition_variables_ping_pong() {
    for (name, api) in [
        ("orig-ft", ThreadApi::OrigFastThreads { vps: 1 }),
        (
            "new-ft",
            ThreadApi::SchedulerActivations { max_processors: 1 },
        ),
    ] {
        const ROUNDS: usize = 20;
        let cv_a = CvId(0);
        let cv_b = CvId(1);
        let mut state = 0;
        let main = FnBody::new("a", move |_env| {
            state += 1;
            match state {
                1 => Op::Fork(Box::new(FnBody::new("b", {
                    let mut st = 0;
                    move |_| {
                        st += 1;
                        if st > 2 * ROUNDS {
                            Op::Exit
                        } else if st % 2 == 1 {
                            Op::Wait {
                                cv: cv_b,
                                lock: NO_LOCK,
                            }
                        } else {
                            Op::Signal(cv_a)
                        }
                    }
                }))),
                _ => {
                    let k = state - 1;
                    if k > 2 * ROUNDS {
                        Op::Exit
                    } else if k % 2 == 1 {
                        Op::Signal(cv_b)
                    } else {
                        Op::Wait {
                            cv: cv_a,
                            lock: NO_LOCK,
                        }
                    }
                }
            }
        });
        let mut sys = SystemBuilder::new(1)
            .app(AppSpec::new(name, api, Box::new(main)))
            .build();
        let report = sys.run();
        assert!(report.all_done(), "{name}: {:?}", report.outcome);
        // User-level: each round is tens of µs, not hundreds.
        let elapsed = report.elapsed(0);
        assert!(elapsed < ms(10), "{name}: {elapsed}");
    }
}

#[test]
fn kernel_forced_signal_wait_exercises_upcalls() {
    // §5.2: synchronization forced through the kernel under scheduler
    // activations costs upcall machinery, far more than the user-level
    // path but still functional.
    const ROUNDS: usize = 10;
    let ch_a = sa_machine::ChanId(0);
    let ch_b = sa_machine::ChanId(1);
    let mut state = 0;
    let main = FnBody::new("a", move |_env| {
        state += 1;
        match state {
            1 => Op::Fork(Box::new(FnBody::new("b", {
                let mut st = 0;
                move |_| {
                    st += 1;
                    if st > 2 * ROUNDS {
                        Op::Exit
                    } else if st % 2 == 1 {
                        Op::KernelWait(ch_b)
                    } else {
                        Op::KernelSignal(ch_a)
                    }
                }
            }))),
            _ => {
                let k = state - 1;
                if k > 2 * ROUNDS {
                    Op::Exit
                } else if k % 2 == 1 {
                    Op::KernelSignal(ch_b)
                } else {
                    Op::KernelWait(ch_a)
                }
            }
        }
    });
    let mut sys = SystemBuilder::new(1)
        .app(AppSpec::new(
            "sigwait-kernel",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            Box::new(main),
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let m = sys.metrics(sys.apps()[0]);
    assert!(
        m.upcalls(sa_sim::UpcallKind::Blocked) >= ROUNDS as u64,
        "expected Blocked upcalls, got {}",
        m.upcalls(sa_sim::UpcallKind::Blocked)
    );
    assert!(
        m.upcalls(sa_sim::UpcallKind::Unblocked) >= ROUNDS as u64,
        "expected Unblocked upcalls, got {}",
        m.upcalls(sa_sim::UpcallKind::Unblocked)
    );
    // The §5.2 point: this path is orders of magnitude more expensive
    // than user-level signal-wait (~ms per round on the prototype model).
    let elapsed = report.elapsed(0);
    assert!(
        elapsed > ms(20),
        "upcall path suspiciously cheap: {elapsed}"
    );
}

#[test]
fn two_sa_apps_space_share_the_machine() {
    let mk = || fork_join_body(6, ms(30));
    let mut sys = SystemBuilder::new(6)
        .app(AppSpec::new(
            "a",
            ThreadApi::SchedulerActivations { max_processors: 6 },
            mk(),
        ))
        .app(AppSpec::new(
            "b",
            ThreadApi::SchedulerActivations { max_processors: 6 },
            mk(),
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    // 6 × 30 ms of work each on ~3 processors each → ≥ 60 ms, ≤ ~90 ms.
    for i in 0..2 {
        let e = report.elapsed(i);
        assert!(e >= ms(55), "app {i} finished implausibly fast: {e}");
        assert!(e < ms(150), "app {i} too slow: {e}");
    }
}

#[test]
fn sa_app_releases_processors_when_parallelism_drops() {
    // App A has a burst of parallelism then goes single-threaded; app B is
    // steadily parallel. The allocator should move processors to B.
    let a = fork_join_body(8, ms(5));
    let b = fork_join_body(8, ms(30));
    let mut sys = SystemBuilder::new(4)
        .app(AppSpec::new(
            "a",
            ThreadApi::SchedulerActivations { max_processors: 4 },
            a,
        ))
        .app(AppSpec::new(
            "b",
            ThreadApi::SchedulerActivations { max_processors: 4 },
            b,
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    // B must get most of the machine after A's burst: 8×30 ms on ~4 cpus
    // is ≥ 60 ms; it must beat strict halving (8×30/2 = 120 ms).
    let eb = report.elapsed(1);
    assert!(eb < ms(115), "allocator failed to reassign: b took {eb}");
}

#[test]
fn deterministic_across_runs() {
    let run = |seed: u64| {
        let mut sys = SystemBuilder::new(4)
            .seed(seed)
            .daemons(sa_kernel::DaemonSpec::topaz_default_set())
            .app(AppSpec::new(
                "det",
                ThreadApi::SchedulerActivations { max_processors: 4 },
                fork_join_body(10, ms(10)),
            ))
            .build();
        let report = sys.run();
        assert!(report.all_done(), "{:?}", report.outcome);
        report.elapsed(0)
    };
    assert_eq!(run(1), run(1));
    assert_eq!(run(2), run(2));
    assert_ne!(run(1), run(3), "different seeds should perturb daemons");
}

#[test]
fn page_faults_block_and_resume_under_sa() {
    let pages: Vec<Op> = (1..=6)
        .chain(1..=6)
        .map(|p| Op::MemRead(sa_machine::PageId(p)))
        .collect();
    let mut app = AppSpec::new(
        "pf",
        ThreadApi::SchedulerActivations { max_processors: 1 },
        Box::new(ScriptBody::new("toucher", pages)),
    );
    app.mem_pages = Some(8);
    let mut sys = SystemBuilder::new(1).app(app).build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let m = sys.metrics(sys.apps()[0]);
    // 6 cold application faults (the second pass hits) plus the thread
    // manager's own page faulting in on the first upcall (§3.1's
    // upcall-page-fault rule).
    assert_eq!(m.page_faults.get(), 7);
    assert!(report.elapsed(0) >= ms(300), "faults did not block");
}

#[test]
fn activations_are_recycled_in_bulk() {
    // Generate many block/unblock cycles; the runtime must return husks.
    let mut state = 0;
    let body = FnBody::new("io-loop", move |_| {
        state += 1;
        if state <= 20 {
            Op::Io(us(100))
        } else {
            Op::Exit
        }
    });
    let mut sys = SystemBuilder::new(2)
        .app(AppSpec::new(
            "recycler",
            ThreadApi::SchedulerActivations { max_processors: 2 },
            Box::new(body),
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let m = sys.metrics(sys.apps()[0]);
    assert!(
        m.acts_cached.get() > 0,
        "no cached activations were reused: fresh={} cached={}",
        m.acts_fresh.get(),
        m.acts_cached.get()
    );
    // Caching should dominate after warmup.
    assert!(m.acts_cached.get() > m.acts_fresh.get());
}

#[test]
fn start_staggering_works() {
    let mut a = AppSpec::new(
        "late",
        ThreadApi::SchedulerActivations { max_processors: 2 },
        Box::new(ComputeBody::new(ms(5))),
    );
    a.start_at = SimTime::from_millis(100);
    let mut sys = SystemBuilder::new(2).app(a).build();
    let report = sys.run();
    assert!(report.all_done());
    assert!(sys.kernel().now() >= SimTime::from_millis(105));
    assert!(report.elapsed(0) < ms(7), "elapsed measured from start_at");
}

#[test]
fn mixed_mode_sa_and_kernel_thread_spaces_coexist() {
    // §4.1: "our implementation makes it possible for an address space to
    // use kernel threads, rather than requiring that every address space
    // use scheduler activations … there is no need for static partitioning
    // of processors." A Topaz app and an SA app share the machine under
    // the processor allocator.
    let mut sys = SystemBuilder::new(4)
        .app(AppSpec::new(
            "legacy-topaz",
            ThreadApi::TopazThreads,
            fork_join_body(6, ms(20)),
        ))
        .app(AppSpec::new(
            "modern-sa",
            ThreadApi::SchedulerActivations { max_processors: 4 },
            fork_join_body(6, ms(20)),
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    // Both finish, and neither is starved: with ~2 CPUs each, 6×20 ms of
    // work takes ≥ 60 ms and should be well under a serial 240 ms.
    for i in 0..2 {
        let e = report.elapsed(i);
        assert!(e >= ms(55), "app {i} impossibly fast: {e}");
        assert!(e < ms(400), "app {i} starved: {e}");
    }
}

#[test]
fn sa_space_beats_kernel_threads_in_mixed_mode() {
    // The same fine-grained workload side by side in one machine: the SA
    // app's thread operations stay at user level, the Topaz app traps.
    let fine = || fork_join_body(60, us(300));
    let mut sys = SystemBuilder::new(4)
        .app(AppSpec::new("topaz", ThreadApi::TopazThreads, fine()))
        .app(AppSpec::new(
            "sa",
            ThreadApi::SchedulerActivations { max_processors: 4 },
            fine(),
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let topaz = report.elapsed(0);
    let sa = report.elapsed(1);
    assert!(
        topaz.as_nanos() > sa.as_nanos() * 2,
        "kernel threads {topaz} should lose badly to SA {sa} on fine grain"
    );
}

#[test]
fn daemons_prefer_idle_processors_under_the_allocator() {
    // §5.3: "because our system explicitly allocates processors to address
    // spaces, these daemon threads cause preemptions only when there are
    // no idle processors available."
    let run = |cpus: u16| {
        let mut sys = SystemBuilder::new(cpus)
            .daemons(sa_kernel::DaemonSpec::topaz_default_set())
            .app(AppSpec::new(
                "app",
                ThreadApi::SchedulerActivations { max_processors: 2 },
                fork_join_body(4, ms(60)),
            ))
            .build();
        let report = sys.run();
        assert!(report.all_done(), "{:?}", report.outcome);
        sys.metrics(sys.apps()[0]).preemptions.get()
    };
    // With spare CPUs the daemons never touch the app…
    let roomy = run(4);
    // …while on a fully used machine they must preempt it.
    let tight = run(2);
    assert_eq!(roomy, 0, "daemons preempted despite idle processors");
    assert!(tight > 0, "no daemon pressure on a full machine");
}

#[test]
fn server_latency_tail_separates_the_systems() {
    // The request-server workload: original FastThreads' lost processors
    // produce catastrophic queueing; the scheduler-activation system with
    // the tuned upcall path has the best median of all.
    use sa_workload::server::{server, ServerConfig};
    let cfg = ServerConfig {
        requests: 200,
        ..ServerConfig::default()
    };
    let run = |api: ThreadApi, cost: sa_machine::CostModel| {
        let (body, stats) = server(cfg.clone());
        let mut sys = SystemBuilder::new(2)
            .cost(cost)
            .app(AppSpec::new("srv", api, body))
            .build();
        let report = sys.run();
        assert!(report.all_done(), "{:?}", report.outcome);
        let h = stats.response_times();
        assert_eq!(h.count(), cfg.requests as u64, "requests lost");
        (h.quantile(0.5), h.quantile(0.99))
    };
    let proto = sa_machine::CostModel::firefly_prototype();
    let (topaz_p50, _) = run(ThreadApi::TopazThreads, proto.clone());
    let (orig_p50, _) = run(ThreadApi::OrigFastThreads { vps: 2 }, proto.clone());
    let (sa_p50, _) = run(ThreadApi::SchedulerActivations { max_processors: 2 }, proto);
    let (tuned_p50, _) = run(
        ThreadApi::SchedulerActivations { max_processors: 2 },
        sa_machine::CostModel::tuned(),
    );
    // Original FastThreads queues catastrophically behind lost processors.
    assert!(
        orig_p50.as_nanos() > 10 * topaz_p50.as_nanos(),
        "orig p50 {orig_p50} vs topaz {topaz_p50}"
    );
    assert!(
        orig_p50.as_nanos() > 10 * sa_p50.as_nanos(),
        "orig p50 {orig_p50} vs sa {sa_p50}"
    );
    // With the paper's projected tuned upcalls, SA has the best median.
    assert!(
        tuned_p50 <= topaz_p50,
        "tuned SA p50 {tuned_p50} vs topaz {topaz_p50}"
    );
}

#[test]
fn concurrent_io_requests_overlap() {
    // The paper's disk is a fixed block per request with no contention
    // (§5.3): each request completes its latency after it is issued.
    let body = |n: usize| {
        let mut st = 0usize;
        let mut children: Vec<ThreadRef> = Vec::new();
        FnBody::new("io-fan", move |env| {
            if let sa_machine::OpResult::Forked(c) = env.last {
                children.push(c);
            }
            st += 1;
            if st <= n {
                Op::Fork(Box::new(ScriptBody::new("io", vec![Op::Io(ms(10))])))
            } else if st - n - 1 < children.len() {
                Op::Join(children[st - n - 1])
            } else {
                Op::Exit
            }
        })
    };
    let mut sys = SystemBuilder::new(2)
        .app(AppSpec::new(
            "io",
            ThreadApi::SchedulerActivations { max_processors: 2 },
            Box::new(body(4)),
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    let parallel = report.elapsed(0);
    // Four 10 ms requests: overlapped ≈ 10-15 ms, serialized ≥ 40 ms.
    assert!(
        parallel < ms(25),
        "fixed-latency did not overlap: {parallel}"
    );
}

#[test]
fn run_limit_reports_timeout_without_hanging() {
    let mut sys = SystemBuilder::new(1)
        .run_limit(SimTime::from_millis(5))
        .app(AppSpec::new(
            "tortoise",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            Box::new(ComputeBody::new(ms(1_000))),
        ))
        .build();
    let report = sys.run();
    assert!(report.outcome.timed_out);
    assert!(!report.all_done());
    assert!(report.elapsed[0].is_none());
}
