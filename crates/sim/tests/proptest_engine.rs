//! Property tests of the simulation engine against reference models.

use proptest::prelude::*;
use proptest::TestCaseError;
use sa_sim::stats::{Histogram, TimeWeighted};
use sa_sim::{EventQueue, PopNext, SimDuration, SimTime};

/// One step of the model-based interleaving test. Near delays are drawn
/// from a tiny range so same-instant ties (the determinism-critical case)
/// are common; nanosecond delays (under 1.5 µs) land distinct timestamps
/// close together; far delays reach 40 minutes. `Cancel`/`PopBelow`
/// indices are reduced modulo the current state at execution time.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule at `now + n µs` (ties common).
    Schedule(u64),
    /// Schedule at `now + n ns` (sub-microsecond ordering).
    ScheduleNs(u64),
    /// Schedule at `now + n ms` (far-future events).
    ScheduleFar(u64),
    Cancel(usize),
    Pop,
    /// A run limit: pop only if the next event fires by `now + n ns`.
    PopWithin(u64),
    /// A bound at a live event's exact key: only strictly earlier keys
    /// (same instant, lower seq included) may pop.
    PopBelow(usize),
    /// Reserve a sequence number for an outside event at `now + n ns`,
    /// like a CPU starting a segment.
    Reserve(u64),
    /// The kernel loop: deliver the union's next event — a bounded pop
    /// below the earliest outside key, or on a decline that outside event
    /// (clock moved with `advance_to`), followed by a schedule at the
    /// delivered instant, like a dispatch kick.
    Step,
}

fn queue_ops() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        4 => (0u64..8).prop_map(QueueOp::Schedule),
        2 => (0u64..1500).prop_map(QueueOp::ScheduleNs),
        1 => (0u64..2_400_000).prop_map(QueueOp::ScheduleFar),
        2 => (0usize..64).prop_map(QueueOp::Cancel),
        2 => Just(QueueOp::Pop),
        // Limits from nanoseconds to minutes past the clock, so deferrals
        // are common, often against a far head event; the schedules that
        // follow then land between the clock and that event.
        3 => (0u32..4, 0u64..10_000)
            .prop_map(|(level, ns)| QueueOp::PopWithin(ns << (8 * level))),
        2 => (0usize..64).prop_map(QueueOp::PopBelow),
        // Whole microseconds (ties with `Schedule`) and nanosecond offsets.
        2 => prop_oneof![(0u64..8).prop_map(|us| us * 1_000), 0u64..1500]
            .prop_map(QueueOp::Reserve),
        4 => Just(QueueOp::Step),
    ]
}

/// A `(time_ns, seq)` key.
type Key = (u64, u64);

fn bound(key: Key) -> (SimTime, u64) {
    (SimTime::from_nanos(key.0), key.1)
}

/// Naive reference: a vec of live `(time_ns, seq, value, outside)`
/// entries — queued events and reserved outside ones — popped by scanning
/// for the minimum `(time, seq)`, plus the clock. Deliberately O(n) and
/// obvious.
#[derive(Default)]
struct ModelQueue {
    live: Vec<(u64, u64, usize, bool)>,
    now: u64,
}

impl ModelQueue {
    /// Index of the minimal entry among queued (`outside == false`) or
    /// all (`None`) entries.
    fn min_index(&self, outside: Option<bool>) -> Option<usize> {
        (0..self.live.len())
            .filter(|&i| outside.is_none_or(|o| self.live[i].3 == o))
            .min_by_key(|&i| (self.live[i].0, self.live[i].1))
    }

    fn key(&self, i: usize) -> Key {
        (self.live[i].0, self.live[i].1)
    }

    /// The queue's contract: deliver the minimal queued entry if its key
    /// is below `bound`.
    fn pop_within(&mut self, bound: Key) -> PopNext<usize> {
        let Some(i) = self.min_index(Some(false)) else {
            return PopNext::Empty;
        };
        let (t, seq, v, _) = self.live[i];
        if (t, seq) >= bound {
            return PopNext::Deferred(SimTime::from_nanos(t));
        }
        self.live.remove(i);
        self.now = t;
        PopNext::Popped(SimTime::from_nanos(t), v)
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        match self.pop_within((u64::MAX, u64::MAX)) {
            PopNext::Popped(t, v) => Some((t.as_nanos(), v)),
            _ => None,
        }
    }
}

/// The queue under test beside its model; `seq` is the next sequence
/// number the queue hands out.
struct Harness {
    q: EventQueue<usize>,
    model: ModelQueue,
    seq: u64,
}

impl Harness {
    fn schedule(&mut self, at: SimTime) -> sa_sim::EventToken {
        let tok = self.q.schedule(at, self.seq as usize);
        self.model
            .live
            .push((at.as_nanos(), self.seq, self.seq as usize, false));
        self.seq += 1;
        tok
    }

    /// A bounded pop checked against the model. Like the kernel loop, it
    /// never lets the clock pass a reserved outside key: the bound is
    /// capped at the earliest one.
    fn pop_within(&mut self, key: Key) -> Result<PopNext<usize>, TestCaseError> {
        let key = match self.model.min_index(Some(true)) {
            Some(i) => key.min(self.model.key(i)),
            None => key,
        };
        let got = self.q.pop_within(bound(key));
        prop_assert_eq!(got, self.model.pop_within(key));
        prop_assert_eq!(self.q.now().as_nanos(), self.model.now);
        Ok(got)
    }

    /// One step of the kernel loop: the union's next event, which must be
    /// the model's minimum over queued and outside entries. `None` once
    /// both are empty.
    fn step(&mut self) -> Result<Option<(u64, usize)>, TestCaseError> {
        let Some(want) = self.model.min_index(None) else {
            prop_assert!(self.q.is_empty());
            return Ok(None);
        };
        let want = self.model.live[want];
        let outside = self.model.min_index(Some(true));
        let key = outside.map_or((u64::MAX, u64::MAX), |i| self.model.key(i));
        match self.pop_within(key)? {
            PopNext::Popped(t, v) => {
                prop_assert_eq!((t.as_nanos(), v, false), (want.0, want.2, want.3));
                Ok(Some((t.as_nanos(), v)))
            }
            PopNext::Deferred(_) | PopNext::Empty => {
                let i = outside.expect("a decline below the maximal bound");
                let (t, _, v, _) = self.model.live.remove(i);
                prop_assert_eq!((t, v, true), (want.0, want.2, want.3));
                self.q.advance_to(SimTime::from_nanos(t));
                self.model.now = t;
                Ok(Some((t, v)))
            }
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
    /// a live event, including events tens of minutes out.
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

    /// Model-based equivalence: arbitrary schedule/cancel/pop/bounded-pop
    /// interleavings (with frequent same-instant ties, sub-microsecond
    /// collisions, far-future entries, and deferrals followed by
    /// schedules below the deferred event), plus outside events on
    /// reserved sequence numbers delivered in union order, agree step for
    /// step with a naive sorted-vec reference, including the clock. Also
    /// pins the exact-`len` semantics (after a cancel, `len()` drops
    /// immediately) and the refusal of repeated and post-pop cancels.
    #[test]
    fn queue_matches_model_under_interleaving(
        ops in prop::collection::vec(queue_ops(), 1..300)
    ) {
        let mut h = Harness {
            q: EventQueue::new(),
            model: ModelQueue::default(),
            seq: 0,
        };
        // Live tokens with the value each one schedules.
        let mut tokens: Vec<(sa_sim::EventToken, usize)> = Vec::new();
        for op in ops {
            let delay = match op {
                QueueOp::Schedule(us) => Some(SimDuration::from_micros(us)),
                QueueOp::ScheduleNs(ns) => Some(SimDuration::from_nanos(ns)),
                QueueOp::ScheduleFar(ms) => Some(SimDuration::from_millis(ms)),
                _ => None,
            };
            if let Some(delay) = delay {
                let at = h.q.now() + delay;
                let v = h.seq as usize;
                tokens.push((h.schedule(at), v));
            }
            let got = match op {
                QueueOp::Cancel(i) => {
                    if tokens.is_empty() {
                        continue;
                    }
                    let (tok, seq) = tokens.swap_remove(i % tokens.len());
                    prop_assert!(h.q.cancel(tok), "refused live token {}", seq);
                    let mi = h
                        .model
                        .live
                        .iter()
                        .position(|&(_, _, v, o)| !o && v == seq)
                        .expect("model out of sync");
                    h.model.live.remove(mi);
                    // Exact len immediately, and a second cancel of the
                    // same token must refuse.
                    prop_assert!(!h.q.cancel(tok));
                    None
                }
                QueueOp::Pop if h.model.min_index(Some(true)).is_none() => {
                    let got = h.q.pop().map(|(t, v)| (t.as_nanos(), v));
                    prop_assert_eq!(got, h.model.pop());
                    got.map(|(_, v)| v)
                }
                QueueOp::Pop => match h.pop_within((u64::MAX, u64::MAX))? {
                    PopNext::Popped(_, v) => Some(v),
                    PopNext::Deferred(_) | PopNext::Empty => None,
                },
                QueueOp::PopWithin(ns) => {
                    let limit = h.q.now() + SimDuration::from_nanos(ns);
                    match h.pop_within((limit.as_nanos(), u64::MAX))? {
                        PopNext::Popped(_, v) => Some(v),
                        PopNext::Deferred(_) | PopNext::Empty => None,
                    }
                }
                QueueOp::PopBelow(i) => {
                    let queued: Vec<Key> = h
                        .model
                        .live
                        .iter()
                        .filter(|e| !e.3)
                        .map(|e| (e.0, e.1))
                        .collect();
                    if queued.is_empty() {
                        continue;
                    }
                    match h.pop_within(queued[i % queued.len()])? {
                        PopNext::Popped(_, v) => Some(v),
                        PopNext::Deferred(_) | PopNext::Empty => None,
                    }
                }
                QueueOp::Reserve(ns) => {
                    let at = h.q.now().as_nanos() + ns;
                    let seq = h.q.reserve_seq();
                    prop_assert_eq!(seq, h.seq, "reserve_seq left the schedule counter");
                    h.model.live.push((at, seq, seq as usize, true));
                    h.seq += 1;
                    None
                }
                QueueOp::Step => {
                    let got = h.step()?;
                    // The kernel's handler schedules at the delivered
                    // instant (a dispatch kick).
                    if got.is_some() {
                        let now = h.q.now();
                        let v = h.seq as usize;
                        tokens.push((h.schedule(now), v));
                    }
                    got.map(|(_, v)| v)
                }
                _ => None,
            };
            if let Some(v) = got {
                // A popped event's token is dead.
                if let Some(ti) = tokens.iter().position(|&(_, s)| s == v) {
                    let (tok, _) = tokens.swap_remove(ti);
                    prop_assert!(!h.q.cancel(tok));
                }
            }
            let queued = h.model.live.iter().filter(|e| !e.3).count();
            prop_assert_eq!(h.q.len(), queued);
            prop_assert_eq!(h.q.is_empty(), queued == 0);
            // The model's clock stays put on a deferral, so this also
            // checks that `Deferred` leaves the queue's clock unmoved.
            prop_assert_eq!(h.q.now().as_nanos(), h.model.now);
        }
        // Drain: the union comes out in full (time, seq) order.
        let mut want: Vec<_> = h.model.live.iter().map(|e| (e.0, e.1, e.2)).collect();
        want.sort();
        let want: Vec<_> = want.into_iter().map(|(t, _, v)| (t, v)).collect();
        let mut got = Vec::new();
        while let Some(e) = h.step()? {
            got.push(e);
        }
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
