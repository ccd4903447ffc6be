//! Synthetic workload generators for tests and the ablations.

use sa_machine::ids::{LockId, ThreadRef};
use sa_machine::program::{FnBody, Op, OpResult, ThreadBody};
use sa_sim::SimDuration;

/// A root body that churns through `total` short-lived children while
/// never holding more than `window` alive at once: fork until the window
/// fills, join the oldest to make room, repeat. Each child computes
/// `work`, yields once (a ready-queue block/unblock round trip), and
/// exits, so every child exercises the full TCB lifecycle —
/// allocate, dispatch, requeue, exit, recycle. With `total` ≫ `window`
/// this is the slab-recycling stress: memory must stay bounded by the
/// window, not by the total spawn count.
pub fn thread_churn(total: usize, window: usize, work: SimDuration) -> Box<dyn ThreadBody> {
    assert!(window >= 1, "churn window must hold at least one thread");
    let mut pending: std::collections::VecDeque<ThreadRef> = std::collections::VecDeque::new();
    let mut spawned = 0usize;
    let mut joined = 0usize;
    Box::new(FnBody::new("thread-churn", move |env| {
        if let OpResult::Forked(c) = env.last {
            pending.push_back(c);
        }
        if spawned < total && spawned - joined < window {
            spawned += 1;
            let mut step = 0usize;
            return Op::Fork(Box::new(FnBody::new("churn-child", move |_| {
                step += 1;
                match step {
                    1 => Op::Compute(work),
                    2 => Op::Yield,
                    _ => Op::Exit,
                }
            })));
        }
        if let Some(c) = pending.pop_front() {
            joined += 1;
            return Op::Join(c);
        }
        Op::Exit
    }))
}

/// A worker that repeatedly acquires a shared lock, computes inside the
/// critical section, releases, then computes outside — the "lock ladder"
/// used to probe critical-section behaviour under preemption (§3.3).
pub fn lock_ladder(
    lock: LockId,
    rounds: usize,
    inside: SimDuration,
    outside: SimDuration,
) -> Box<dyn ThreadBody> {
    let mut step = 0usize;
    Box::new(FnBody::new("lock-ladder", move |_| {
        let round = step / 4;
        if round >= rounds {
            return Op::Exit;
        }
        let op = match step % 4 {
            0 => Op::Acquire(lock),
            1 => Op::Compute(inside),
            2 => Op::Release(lock),
            _ => Op::Compute(outside),
        };
        step += 1;
        op
    }))
}

/// Forks `n` lock-ladder workers sharing one lock, then joins them.
pub fn contended_ladder(
    n: usize,
    rounds: usize,
    inside: SimDuration,
    outside: SimDuration,
) -> Box<dyn ThreadBody> {
    let lock = LockId(77);
    let mut children: Vec<ThreadRef> = Vec::new();
    let mut forked = 0usize;
    let mut joined = 0usize;
    Box::new(FnBody::new("contended-ladder", move |env| {
        if let OpResult::Forked(c) = env.last {
            children.push(c);
        }
        if forked < n {
            forked += 1;
            return Op::Fork(lock_ladder(lock, rounds, inside, outside));
        }
        if joined < n {
            let c = children[joined];
            joined += 1;
            return Op::Join(c);
        }
        Op::Exit
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_machine::program::StepEnv;
    use sa_sim::SimTime;

    fn env(last: OpResult) -> StepEnv {
        StepEnv {
            now: SimTime::ZERO,
            self_ref: ThreadRef(0),
            last,
        }
    }

    #[test]
    fn thread_churn_bounds_live_children() {
        // total 5, window 2: forks must never run more than 2 ahead of
        // joins, and every child must eventually be joined.
        let mut b = thread_churn(5, 2, SimDuration::from_micros(1));
        let mut live = 0i64;
        let mut forked = 0usize;
        let mut joined = 0usize;
        let mut last = OpResult::Start;
        let mut next_ref = 1u64;
        loop {
            match b.step(&env(last)) {
                Op::Fork(_) => {
                    forked += 1;
                    live += 1;
                    assert!(live <= 2, "window exceeded");
                    last = OpResult::Forked(ThreadRef(next_ref));
                    next_ref += 1;
                }
                Op::Join(_) => {
                    joined += 1;
                    live -= 1;
                    last = OpResult::Done;
                }
                Op::Exit => break,
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert_eq!(forked, 5);
        assert_eq!(joined, 5);
    }

    #[test]
    fn lock_ladder_cycles() {
        let mut b = lock_ladder(
            LockId(1),
            1,
            SimDuration::from_micros(2),
            SimDuration::from_micros(3),
        );
        assert!(matches!(b.step(&env(OpResult::Start)), Op::Acquire(_)));
        assert!(matches!(b.step(&env(OpResult::Done)), Op::Compute(_)));
        assert!(matches!(b.step(&env(OpResult::Done)), Op::Release(_)));
        assert!(matches!(b.step(&env(OpResult::Done)), Op::Compute(_)));
        assert!(matches!(b.step(&env(OpResult::Done)), Op::Exit));
    }
}
