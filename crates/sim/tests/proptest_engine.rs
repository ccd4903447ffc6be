//! Property tests of the simulation engine against reference models.

use proptest::prelude::*;
use sa_sim::event::lazy::LazyEventQueue;
use sa_sim::stats::{Histogram, TimeWeighted};
use sa_sim::{EventCore, EventQueue, SimDuration, SimTime};

/// One step of the model-based interleaving test. Near delays are drawn
/// from a tiny range so same-instant ties (the determinism-critical case)
/// are common; sub-tick delays land distinct timestamps inside one 512 ns
/// wheel slot; far delays span the wheel's coarse levels up to past the
/// ~37-minute L3 horizon (exercising the overflow list and the cascade on
/// the way back down). `Cancel`/`Pop` indices are reduced modulo the
/// current state at execution time.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule at `now + n µs` (ties common).
    Schedule(u64),
    /// Schedule at `now + n ns` (same-tick, sub-tick ordering).
    ScheduleNs(u64),
    /// Schedule at `now + n ms` (coarse levels and overflow).
    ScheduleFar(u64),
    Cancel(usize),
    Pop,
    /// Drain one whole simultaneity class through the batch API.
    PopBatch,
    Peek,
}

fn queue_ops() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        4 => (0u64..8).prop_map(QueueOp::Schedule),
        2 => (0u64..1500).prop_map(QueueOp::ScheduleNs),
        1 => (0u64..2_400_000).prop_map(QueueOp::ScheduleFar),
        2 => (0usize..64).prop_map(QueueOp::Cancel),
        2 => Just(QueueOp::Pop),
        1 => Just(QueueOp::PopBatch),
        1 => Just(QueueOp::Peek),
    ]
}

/// Naive reference: a vec of live `(time_ns, seq, value)` entries, popped
/// by scanning for the minimum `(time, seq)`. Deliberately O(n) and
/// obvious.
#[derive(Default)]
struct ModelQueue {
    live: Vec<(u64, usize, usize)>,
}

impl ModelQueue {
    fn min_index(&self) -> Option<usize> {
        (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let i = self.min_index()?;
        let (t, _, v) = self.live.remove(i);
        Some((t, v))
    }

    fn peek_time(&self) -> Option<u64> {
        self.min_index().map(|i| self.live[i].0)
    }
}

proptest! {
    /// Events pop in nondecreasing time order with FIFO tie-breaking,
    /// regardless of the schedule order — on both cores.
    #[test]
    fn queue_pops_sorted_stable(times in prop::collection::vec(0u64..10_000, 1..200)) {
        for core in [EventCore::Wheel, EventCore::Indexed] {
            let mut q = EventQueue::with_core(core);
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_micros(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expected.sort_by_key(|&(t, i)| (t, i));
            let mut got = Vec::new();
            while let Some((at, idx)) = q.pop() {
                got.push((at.as_micros(), idx));
            }
            prop_assert_eq!(got, expected, "core {:?}", core);
        }
    }

    /// Cancellation removes exactly the cancelled events — on both cores.
    #[test]
    fn queue_cancellation_model(
        times in prop::collection::vec(0u64..10_000, 1..200),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        for core in [EventCore::Wheel, EventCore::Indexed] {
            let mut q = EventQueue::with_core(core);
            let mut tokens = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                tokens.push(q.schedule(SimTime::from_micros(t), i));
            }
            let mut expected: Vec<(u64, usize)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                let cancelled = *cancel_mask.get(i).unwrap_or(&false);
                if cancelled {
                    q.cancel(tokens[i]);
                } else {
                    expected.push((t, i));
                }
            }
            expected.sort_by_key(|&(t, i)| (t, i));
            let mut got = Vec::new();
            while let Some((at, idx)) = q.pop() {
                got.push((at.as_micros(), idx));
            }
            prop_assert_eq!(got, expected, "core {:?}", core);
        }
    }

    /// Interleaved schedule/pop keeps the clock monotone and never loses
    /// a live event, including events far enough out to cross every wheel
    /// level into the overflow list.
    #[test]
    fn queue_interleaved_clock_monotone(
        ops in prop::collection::vec((0u64..500, 0u8..8), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut scheduled = 0usize;
        let mut popped = 0usize;
        let mut last = SimTime::ZERO;
        for (delay, kind) in ops {
            match kind {
                // Far-future: milliseconds to tens of minutes out.
                0 => {
                    q.schedule(
                        q.now() + SimDuration::from_millis(delay * 5_000),
                        scheduled,
                    );
                    scheduled += 1;
                }
                1..=3 => {
                    q.schedule(q.now() + SimDuration::from_micros(delay), scheduled);
                    scheduled += 1;
                }
                _ => {
                    if let Some((at, _)) = q.pop() {
                        prop_assert!(at >= last);
                        last = at;
                        popped += 1;
                    }
                }
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(scheduled, popped);
    }

    /// Three-way model-based equivalence: arbitrary schedule/cancel/pop/
    /// batch/peek interleavings (with frequent same-instant ties, sub-tick
    /// collisions, and far-future overflow entries) agree step-for-step
    /// across the timing wheel, the indexed heap, the retained lazy
    /// baseline, and a naive sorted-vec reference. Also pins the
    /// exact-`len` semantics (after an eager cancel, `len()` and
    /// `live_len()` drop immediately) and cancel-after-pop refusal.
    #[test]
    fn queue_matches_model_under_interleaving(
        ops in prop::collection::vec(queue_ops(), 1..300)
    ) {
        let mut wheel = EventQueue::with_core(EventCore::Wheel);
        let mut indexed = EventQueue::with_core(EventCore::Indexed);
        let mut lazy = LazyEventQueue::new();
        let mut model = ModelQueue::default();
        // Live tokens, parallel across all implementations.
        type Toks = (
            sa_sim::EventToken,
            sa_sim::EventToken,
            sa_sim::event::lazy::LazyToken,
            usize,
        );
        let mut tokens: Vec<Toks> = Vec::new();
        let mut next_seq = 0usize;
        let schedule =
            |at: SimTime,
             wheel: &mut EventQueue<usize>,
             indexed: &mut EventQueue<usize>,
             lazy: &mut LazyEventQueue<usize>,
             model: &mut ModelQueue,
             tokens: &mut Vec<Toks>,
             next_seq: &mut usize| {
                let wtok = wheel.schedule(at, *next_seq);
                let itok = indexed.schedule(at, *next_seq);
                let ltok = lazy.schedule(at, *next_seq);
                model.live.push((at.as_nanos(), *next_seq, *next_seq));
                tokens.push((wtok, itok, ltok, *next_seq));
                *next_seq += 1;
            };
        for op in ops {
            match op {
                QueueOp::Schedule(us) => {
                    let at = wheel.now() + SimDuration::from_micros(us);
                    schedule(at, &mut wheel, &mut indexed, &mut lazy, &mut model,
                             &mut tokens, &mut next_seq);
                }
                QueueOp::ScheduleNs(ns) => {
                    let at = wheel.now() + SimDuration::from_nanos(ns);
                    schedule(at, &mut wheel, &mut indexed, &mut lazy, &mut model,
                             &mut tokens, &mut next_seq);
                }
                QueueOp::ScheduleFar(ms) => {
                    let at = wheel.now() + SimDuration::from_millis(ms);
                    schedule(at, &mut wheel, &mut indexed, &mut lazy, &mut model,
                             &mut tokens, &mut next_seq);
                }
                QueueOp::Cancel(i) => {
                    if tokens.is_empty() {
                        continue;
                    }
                    let (wtok, itok, ltok, seq) = tokens.swap_remove(i % tokens.len());
                    prop_assert!(wheel.cancel(wtok), "wheel refused live token {}", seq);
                    prop_assert!(indexed.cancel(itok), "indexed refused live token {}", seq);
                    prop_assert!(lazy.cancel(ltok), "lazy refused live token {}", seq);
                    let mi = model
                        .live
                        .iter()
                        .position(|&(_, s, _)| s == seq)
                        .expect("model out of sync");
                    model.live.remove(mi);
                    // Eager removal: exact len immediately, and a second
                    // cancel of the same token must refuse — on every impl.
                    prop_assert_eq!(wheel.len(), model.live.len());
                    prop_assert_eq!(indexed.len(), model.live.len());
                    prop_assert!(!wheel.cancel(wtok));
                    prop_assert!(!indexed.cancel(itok));
                    prop_assert!(!lazy.cancel(ltok));
                }
                QueueOp::Pop => {
                    let wgot = wheel.pop().map(|(t, v)| (t.as_nanos(), v));
                    let igot = indexed.pop().map(|(t, v)| (t.as_nanos(), v));
                    let lgot = lazy.pop().map(|(t, v)| (t.as_nanos(), v));
                    let want = model.pop();
                    prop_assert_eq!(wgot, want);
                    prop_assert_eq!(igot, want);
                    prop_assert_eq!(lgot, want);
                    if let Some((_, v)) = want {
                        let ti = tokens.iter().position(|&(_, _, _, s)| s == v);
                        if let Some(ti) = ti {
                            let (wtok, itok, ltok, _) = tokens.swap_remove(ti);
                            // A popped event's token is dead everywhere.
                            prop_assert!(!wheel.cancel(wtok));
                            prop_assert!(!indexed.cancel(itok));
                            prop_assert!(!lazy.cancel(ltok));
                        }
                    }
                }
                QueueOp::PopBatch => {
                    let wt = wheel.pop_batch();
                    let it = indexed.pop_batch();
                    prop_assert_eq!(wt, it);
                    let Some(t) = wt else {
                        prop_assert!(model.live.is_empty());
                        continue;
                    };
                    let mut wbatch = Vec::new();
                    while let Some(v) = wheel.batch_pop() {
                        wbatch.push(v);
                    }
                    let mut ibatch = Vec::new();
                    while let Some(v) = indexed.batch_pop() {
                        ibatch.push(v);
                    }
                    let mut want = Vec::new();
                    while model.peek_time() == Some(t.as_nanos()) {
                        want.push(model.pop().expect("peeked entry vanished").1);
                    }
                    prop_assert!(!want.is_empty(), "batch at {} not in model", t);
                    prop_assert_eq!(&wbatch, &want);
                    prop_assert_eq!(&ibatch, &want);
                    for &v in &want {
                        let lgot = lazy.pop();
                        prop_assert_eq!(lgot, Some((t, v)));
                        let ti = tokens.iter().position(|&(_, _, _, s)| s == v);
                        if let Some(ti) = ti {
                            let (wtok, itok, ltok, _) = tokens.swap_remove(ti);
                            prop_assert!(!wheel.cancel(wtok));
                            prop_assert!(!indexed.cancel(itok));
                            prop_assert!(!lazy.cancel(ltok));
                        }
                    }
                }
                QueueOp::Peek => {
                    let want = model.peek_time();
                    prop_assert_eq!(wheel.peek_time().map(|t| t.as_nanos()), want);
                    prop_assert_eq!(indexed.peek_time().map(|t| t.as_nanos()), want);
                }
            }
            prop_assert_eq!(wheel.len(), model.live.len());
            prop_assert_eq!(wheel.live_len(), model.live.len());
            prop_assert_eq!(wheel.is_empty(), model.live.is_empty());
            prop_assert_eq!(indexed.len(), model.live.len());
            prop_assert_eq!(indexed.now(), wheel.now());
        }
        // Drain: remaining events agree in full (time, value) order.
        let mut wgot = Vec::new();
        while let Some((t, v)) = wheel.pop() {
            wgot.push((t.as_nanos(), v));
        }
        let mut igot = Vec::new();
        while let Some((t, v)) = indexed.pop() {
            igot.push((t.as_nanos(), v));
        }
        let mut lgot = Vec::new();
        while let Some((t, v)) = lazy.pop() {
            lgot.push((t.as_nanos(), v));
        }
        let mut want = Vec::new();
        while let Some(e) = model.pop() {
            want.push(e);
        }
        prop_assert_eq!(&wgot, &want);
        prop_assert_eq!(&igot, &want);
        prop_assert_eq!(&lgot, &want);
    }

    /// The time-weighted gauge equals a straightforward integral.
    #[test]
    fn time_weighted_matches_reference(
        steps in prop::collection::vec((1u64..1000, -5i64..6), 1..100)
    ) {
        let mut g = TimeWeighted::new();
        let mut now = SimTime::ZERO;
        let mut level = 0i64;
        let mut area = 0i128;
        for (dt, delta) in steps {
            let next = now + SimDuration::from_micros(dt);
            area += level as i128 * (dt as i128) * 1_000;
            now = next;
            level += delta;
            g.adjust(now, delta);
        }
        prop_assert_eq!(g.level(), level);
        let mean = g.mean(now);
        let ref_mean = if now.as_nanos() == 0 {
            0.0
        } else {
            area as f64 / now.as_nanos() as f64
        };
        prop_assert!((mean - ref_mean).abs() < 1e-9, "{} vs {}", mean, ref_mean);
    }

    /// Histogram mean/min/max equal exact statistics.
    #[test]
    fn histogram_matches_reference(samples in prop::collection::vec(0u64..10_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.mean().as_nanos(), (sum / samples.len() as u128) as u64);
        prop_assert_eq!(h.min().as_nanos(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max().as_nanos(), *samples.iter().max().unwrap());
        // Quantiles are monotone and bounded by max.
        let q1 = h.quantile(0.25);
        let q2 = h.quantile(0.5);
        let q3 = h.quantile(0.99);
        prop_assert!(q1 <= q2 && q2 <= q3 && q3 <= h.max());
    }
}
