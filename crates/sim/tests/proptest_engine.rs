//! Property tests of the simulation engine against reference models.

use proptest::prelude::*;
use sa_sim::stats::{Histogram, TimeWeighted};
use sa_sim::{EventQueue, PopNext, SimDuration, SimTime};

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
    /// The kernel loop's extraction: pop only if the next event fires by
    /// `now + n ns`.
    PopWithin(u64),
}

fn queue_ops() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        4 => (0u64..8).prop_map(QueueOp::Schedule),
        2 => (0u64..1500).prop_map(QueueOp::ScheduleNs),
        1 => (0u64..2_400_000).prop_map(QueueOp::ScheduleFar),
        2 => (0usize..64).prop_map(QueueOp::Cancel),
        2 => Just(QueueOp::Pop),
        // Limits from nanoseconds to minutes past the clock, so deferrals
        // are common, often against a head event the deferred extraction
        // has cascaded down from a coarse level; the schedules that follow
        // then land between the clock and that event (the wheel's rewind).
        3 => (0u32..4, 0u64..10_000)
            .prop_map(|(level, ns)| QueueOp::PopWithin(ns << (8 * level))),
    ]
}

/// Naive reference: a vec of live `(time_ns, seq, value)` entries, popped
/// by scanning for the minimum `(time, seq)`, plus the clock. Deliberately
/// O(n) and obvious.
#[derive(Default)]
struct ModelQueue {
    live: Vec<(u64, usize, usize)>,
    now: u64,
}

impl ModelQueue {
    fn min_index(&self) -> Option<usize> {
        (0..self.live.len()).min_by_key(|&i| (self.live[i].0, self.live[i].1))
    }

    fn pop_within(&mut self, limit: u64) -> PopNext<usize> {
        let Some(i) = self.min_index() else {
            return PopNext::Empty;
        };
        let (t, _, v) = self.live[i];
        if t > limit {
            return PopNext::Deferred(SimTime::from_nanos(t));
        }
        self.live.remove(i);
        self.now = t;
        PopNext::Popped(SimTime::from_nanos(t), v)
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        match self.pop_within(u64::MAX) {
            PopNext::Popped(t, v) => Some((t.as_nanos(), v)),
            _ => None,
        }
    }
}

proptest! {
    /// Events pop in nondecreasing time order with FIFO tie-breaking,
    /// regardless of the schedule order.
    #[test]
    fn queue_pops_sorted_stable(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
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
        prop_assert_eq!(got, expected);
    }

    /// Cancellation removes exactly the cancelled events.
    #[test]
    fn queue_cancellation_model(
        times in prop::collection::vec(0u64..10_000, 1..200),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = EventQueue::new();
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
        prop_assert_eq!(got, expected);
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

    /// Model-based equivalence: arbitrary schedule/cancel/pop/pop-within
    /// interleavings (with frequent same-instant ties, sub-tick
    /// collisions, far-future overflow entries, and deferrals followed by
    /// schedules below the deferred event) agree step for step with a
    /// naive sorted-vec reference, including the clock. Also pins the
    /// exact-`len` semantics (after an eager cancel, `len()` drops
    /// immediately) and the refusal of repeated and post-pop cancels.
    #[test]
    fn queue_matches_model_under_interleaving(
        ops in prop::collection::vec(queue_ops(), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut model = ModelQueue::default();
        // Live tokens with the value each one schedules.
        let mut tokens: Vec<(sa_sim::EventToken, usize)> = Vec::new();
        let mut next_seq = 0usize;
        for op in ops {
            let delay = match op {
                QueueOp::Schedule(us) => Some(SimDuration::from_micros(us)),
                QueueOp::ScheduleNs(ns) => Some(SimDuration::from_nanos(ns)),
                QueueOp::ScheduleFar(ms) => Some(SimDuration::from_millis(ms)),
                _ => None,
            };
            if let Some(delay) = delay {
                let at = q.now() + delay;
                tokens.push((q.schedule(at, next_seq), next_seq));
                model.live.push((at.as_nanos(), next_seq, next_seq));
                next_seq += 1;
            }
            let got = match op {
                QueueOp::Cancel(i) => {
                    if tokens.is_empty() {
                        continue;
                    }
                    let (tok, seq) = tokens.swap_remove(i % tokens.len());
                    prop_assert!(q.cancel(tok), "refused live token {}", seq);
                    let mi = model
                        .live
                        .iter()
                        .position(|&(_, s, _)| s == seq)
                        .expect("model out of sync");
                    model.live.remove(mi);
                    // Eager removal: exact len immediately, and a second
                    // cancel of the same token must refuse.
                    prop_assert_eq!(q.len(), model.live.len());
                    prop_assert!(!q.cancel(tok));
                    None
                }
                QueueOp::Pop => {
                    let got = q.pop().map(|(t, v)| (t.as_nanos(), v));
                    prop_assert_eq!(got, model.pop());
                    got.map(|(_, v)| v)
                }
                QueueOp::PopWithin(ns) => {
                    let limit = q.now() + SimDuration::from_nanos(ns);
                    let got = q.pop_within(limit);
                    prop_assert_eq!(got, model.pop_within(limit.as_nanos()));
                    match got {
                        PopNext::Popped(_, v) => Some(v),
                        PopNext::Deferred(_) | PopNext::Empty => None,
                    }
                }
                _ => None,
            };
            if let Some(v) = got {
                // A popped event's token is dead.
                if let Some(ti) = tokens.iter().position(|&(_, s)| s == v) {
                    let (tok, _) = tokens.swap_remove(ti);
                    prop_assert!(!q.cancel(tok));
                }
            }
            prop_assert_eq!(q.len(), model.live.len());
            prop_assert_eq!(q.is_empty(), model.live.is_empty());
            // The model's clock stays put on a deferral, so this also
            // checks that `Deferred` leaves the queue's clock unmoved.
            prop_assert_eq!(q.now().as_nanos(), model.now);
        }
        // Drain: remaining events agree in full (time, value) order.
        let got: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, v)| (t.as_nanos(), v))
            .collect();
        let want: Vec<_> = std::iter::from_fn(|| model.pop()).collect();
        prop_assert_eq!(&got, &want);
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
