//! The `sim.queue` layer, driven alone: `EventQueue`'s public schedule,
//! cancel and pop calls over a standing backlog, in the kernel's pattern
//! (each delivered event schedules a successor, and a timer is armed and
//! then cancelled, like a time-slice quantum).

use sa_sim::{EventQueue, SimTime};
use std::hint::black_box;
use std::time::Instant;

const BACKLOG: u64 = 512;
const ROUNDS: usize = 9;
const STEPS_PER_ROUND: u64 = 50_000;
/// Each step pops one event, schedules its successor, arms one timer and
/// cancels the previous one.
const OPS_PER_STEP: u64 = 4;

/// Median host nanoseconds per queue operation over several rounds.
pub fn ns_per_op(seed: u64) -> f64 {
    let mut rng = seed | 1;
    let mut delay = move || {
        // xorshift64: delays of 1 us to ~1 ms, fixed by the seed.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        1_000 + rng % 1_000_000
    };
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..BACKLOG {
        q.schedule(SimTime::from_nanos(delay()), i);
    }
    let mut timer = q.schedule(SimTime::from_nanos(delay()), u64::MAX);
    let mut per_op = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_ROUND {
            let (now, ev) = q.pop().expect("the backlog never drains");
            let now = now.as_nanos();
            q.schedule(SimTime::from_nanos(now + delay()), black_box(ev));
            let next = q.schedule(SimTime::from_nanos(now + delay()), u64::MAX);
            q.cancel(std::mem::replace(&mut timer, next));
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / (STEPS_PER_ROUND * OPS_PER_STEP) as f64);
    }
    crate::median(&per_op)
}
