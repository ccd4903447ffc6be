//! Deterministic, cancellable future-event list: a binary min-heap of
//! `(time, seq, slot)` entries over a slab of events.
//!
//! ## Ordering guarantee
//!
//! Every event takes its `seq` from one counter when it is scheduled, so
//! no two events share a `(time, seq)` key and the heap's minimum is one
//! well-defined event. Events pop in that unique strict ascending
//! `(time, seq)` order: two events at the same instant fire in the order
//! they were scheduled, and whole-system runs stay bit-for-bit
//! reproducible. The order depends on the keys alone, never on the heap's
//! layout, so no mix of schedules, cancels and pops can change it.
//!
//! ## Lazy cancellation
//!
//! An event lives in a slab slot, and its heap entry names the slot and
//! the event's `seq`. Cancel frees the slot in O(1) and leaves the entry
//! behind: an entry whose slot no longer holds its `seq` is dropped when
//! it surfaces. A cancel that leaves more than `len() + 64` dropped
//! entries behind compacts the heap with one `retain` pass, so after any
//! cancel the heap holds at most `2·len() + 64` entries, and a timer
//! re-armed on every quantum cannot grow it without bound.
//!
//! ## Bounded extraction and outside events
//!
//! [`EventQueue::pop_within`] delivers the next event only if its
//! `(time, seq)` key is below a caller's bound, and otherwise leaves the
//! clock where it is. A caller that keeps some events outside the queue
//! (the kernel keeps each CPU's segment completion in a per-CPU timer)
//! takes their sequence numbers from the same counter with
//! [`EventQueue::reserve_seq`], passes the earliest outside key as the
//! bound, and on a decline delivers that event itself after moving the
//! clock with [`EventQueue::advance_to`]. The union then comes out in the
//! same strict `(time, seq)` order as if every event had been queued.
//!
//! ## Tokens
//!
//! A token names its event's slot and `seq`. Sequence numbers are never
//! reused, so a stale token (its event fired or was cancelled, even if
//! the slot now holds another event) cancels nothing.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dropped entries a cancel may leave in the heap beyond `len()` before
/// it compacts the heap.
const SLACK: usize = 64;
/// End of the slab's free list.
const NIL: u32 = u32::MAX;

/// Identifies a scheduled event so it can be cancelled before it fires.
///
/// Cancelling a token whose event already fired (or was already
/// cancelled) is a no-op, even if the underlying slot has since been
/// reused for a new event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    slot: u32,
    seq: u64,
}

/// Outcome of [`EventQueue::pop_within`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PopNext<E> {
    /// No live events remain.
    Empty,
    /// The next event's key is not below the bound; the event stays
    /// queued (the clock does not advance) and its timestamp is reported.
    Deferred(SimTime),
    /// The next event, delivered; the clock advanced to its timestamp.
    Popped(SimTime, E),
}

/// A slab slot.
enum Slot<E> {
    /// Holds the event scheduled with sequence number `.0`.
    Live(u64, E),
    /// Free; `.0` is the next free slot, or `NIL`.
    Free(u32),
}

/// Whether `slot` holds the event scheduled with `seq`.
fn holds<E>(slots: &[Slot<E>], slot: u32, seq: u64) -> bool {
    matches!(slots.get(slot as usize), Some(&Slot::Live(s, _)) if s == seq)
}

/// A deterministic future-event list. See the module docs for the layout.
pub struct EventQueue<E> {
    /// Min-heap of `(time, seq, slot)` entries, cancelled ones included
    /// until they surface or a compaction drops them.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Slab of events, indexed by `EventToken::slot`.
    slots: Vec<Slot<E>>,
    /// Head of the free list threaded through the slab.
    free_head: u32,
    /// Live events: scheduled, neither fired nor cancelled.
    live: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the most recently
    /// delivered event (zero before the first).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Takes the next sequence number for an event the caller keeps
    /// outside the queue, exactly as a [`EventQueue::schedule`] at this
    /// point would have: the outside event then orders against queued
    /// ones by its `(time, seq)` key.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Moves the clock forward to `time`, for an outside event the caller
    /// delivers at its key after [`EventQueue::pop_within`] declined with
    /// that key as the bound.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current time.
    pub fn advance_to(&mut self, time: SimTime) {
        assert!(
            time >= self.now,
            "clock moved into the past: {time} < now {}",
            self.now
        );
        self.now = time;
    }

    /// Schedules `event` to fire at `time`; O(log n).
    ///
    /// `time` may equal the current time (the event fires "immediately",
    /// after already-queued events at the same instant), but must not be in
    /// the past.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current time; scheduling into the past
    /// indicates a bug in the caller.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventToken {
        assert!(
            time >= self.now,
            "scheduled event in the past: {time} < now {}",
            self.now
        );
        let seq = self.reserve_seq();
        let slot = match self.free_head {
            NIL => {
                self.slots.push(Slot::Live(seq, event));
                self.slots.len() as u32 - 1
            }
            slot => {
                let freed =
                    std::mem::replace(&mut self.slots[slot as usize], Slot::Live(seq, event));
                let Slot::Free(next) = freed else {
                    unreachable!("free list names a live slot")
                };
                self.free_head = next;
                slot
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
        self.live += 1;
        EventToken { slot, seq }
    }

    /// Cancels a previously scheduled event; O(1) amortized. The event
    /// leaves the queue at once (`len()` drops); its heap entry is dropped
    /// later (see the module docs).
    ///
    /// Cancelling an event that already fired (or was already cancelled) is
    /// a no-op; this makes preemption paths simpler for callers. Returns
    /// whether a live event was actually removed.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if !holds(&self.slots, token.slot, token.seq) {
            return false; // stale token: already fired or cancelled
        }
        self.free(token.slot);
        if self.heap.len() > 2 * self.live + SLACK {
            let slots = &self.slots;
            self.heap
                .retain(|&Reverse((_, seq, slot))| holds(slots, slot, seq));
        }
        true
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Returns `None` when no live events remain.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self.pop_within((SimTime::MAX, u64::MAX)) {
            PopNext::Popped(time, ev) => Some((time, ev)),
            PopNext::Empty => None,
            PopNext::Deferred(_) => unreachable!("no event key reaches the maximal bound"),
        }
    }

    /// Delivers the next live event if its `(time, seq)` key is below
    /// `bound`, advancing the clock to its timestamp; otherwise
    /// [`PopNext::Deferred`] reports the next event's timestamp and leaves
    /// it queued and the clock unmoved. `pop` passes the maximal bound, a
    /// time limit `t` (inclusive) is the bound `(t, u64::MAX)`, and a
    /// caller with outside events passes the earliest outside key.
    ///
    /// Cancelled entries that surface on the way are dropped, which
    /// nothing observes.
    pub fn pop_within(&mut self, bound: (SimTime, u64)) -> PopNext<E> {
        while let Some(&Reverse((time, seq, slot))) = self.heap.peek() {
            if !holds(&self.slots, slot, seq) {
                self.heap.pop(); // cancelled
            } else if (time, seq) >= bound {
                return PopNext::Deferred(time);
            } else {
                self.heap.pop();
                debug_assert!(time >= self.now, "event queue time inversion");
                self.now = time;
                return PopNext::Popped(time, self.free(slot));
            }
        }
        PopNext::Empty
    }

    /// Number of pending events: scheduled and neither fired nor
    /// cancelled. Exact: a cancelled event stops counting at once.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Takes the event out of `slot` and returns the slot to the free list.
    fn free(&mut self, slot: u32) -> E {
        let taken = std::mem::replace(&mut self.slots[slot as usize], Slot::Free(self.free_head));
        self.free_head = slot;
        self.live -= 1;
        let Slot::Live(_, event) = taken else {
            unreachable!("freed a free slot")
        };
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        q.schedule(t(5), 2);
        q.schedule(t(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn sub_tick_times_order_within_a_slot() {
        // Distinct nanosecond timestamps a few hundred ns apart pop in
        // time order, not insertion order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(300), 3);
        q.schedule(SimTime::from_nanos(100), 1);
        q.schedule(SimTime::from_nanos(200), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(200), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(300), 3)));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(10));
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), -1);
        q.schedule(t(20), 1);
        assert!(q.cancel(tok));
        assert_eq!(q.pop(), Some((t(20), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), 0);
        assert!(q.pop().is_some());
        assert!(!q.cancel(tok));
        q.schedule(t(20), 0);
        assert!(q.pop().is_some());
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), 1);
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stale_token_cannot_cancel_reused_slot() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(10), 1);
        q.cancel(tok);
        // The slab slot is reused for the next event; the stale token's
        // seq no longer matches.
        q.schedule(t(20), 2);
        assert!(!q.cancel(tok));
        assert_eq!(q.pop(), Some((t(20), 2)));
    }

    #[test]
    fn len_is_exact_under_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), 0);
        let b = q.schedule(t(20), 0);
        q.schedule(t(30), 0);
        assert_eq!(q.len(), 3);
        q.cancel(a);
        assert_eq!(q.len(), 2);
        q.cancel(b);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn same_instant_as_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(q.now(), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        let (now, _) = q.pop().unwrap();
        q.schedule(now + SimDuration::from_micros(5), 2);
        q.schedule(now + SimDuration::from_micros(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Times from 50 µs to 2 hours, each 60 to 200 times the one
        // before, scheduled in reverse order; they must pop sorted.
        let mut q = EventQueue::new();
        let hours2 = SimTime::from_millis(2 * 60 * 60 * 1000);
        let times = [
            hours2,
            SimTime::from_millis(60_000),
            SimTime::from_millis(1_000),
            SimTime::from_micros(5_000),
            SimTime::from_nanos(50_000),
        ];
        for (i, &at) in times.iter().enumerate() {
            q.schedule(at, i as i32);
        }
        let mut got = Vec::new();
        while let Some((at, v)) = q.pop() {
            got.push((at, v));
        }
        assert_eq!(
            got,
            vec![
                (times[4], 4),
                (times[3], 3),
                (times[2], 2),
                (times[1], 1),
                (times[0], 0),
            ]
        );
    }

    #[test]
    fn overflow_interleaves_with_near_events() {
        // A far-future event must still pop in order against events
        // scheduled much later in wall order but earlier in time,
        // including one 5 ns after it, once the clock has moved.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(3 * 60 * 60 * 1000); // 3 h
        let tok = q.schedule(far, 99);
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        // Schedule an event just before it and one just after it.
        q.schedule(far + SimDuration::from_nanos(5), 101);
        let before = SimTime::from_nanos(far.as_nanos() - 100_000);
        q.schedule(before, 100);
        assert_eq!(q.pop(), Some((before, 100)));
        assert_eq!(q.pop(), Some((far, 99)));
        assert_eq!(q.pop(), Some((far + SimDuration::from_nanos(5), 101)));
        assert!(!q.cancel(tok));
    }

    #[test]
    fn cancel_far_future_overflow_event() {
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(5 * 60 * 60 * 1000);
        let a = q.schedule(far, 1);
        let b = q.schedule(far + SimDuration::from_micros(1), 2);
        q.schedule(t(1), 0);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((t(1), 0)));
        assert_eq!(q.pop(), Some((far + SimDuration::from_micros(1), 2)));
        assert_eq!(q.pop(), None);
        assert!(!q.cancel(b));
    }

    #[test]
    fn heavy_cancel_mix_keeps_invariants() {
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        for i in 0..500u64 {
            tokens.push(q.schedule(t(i * 7919 % 1000 + 1000), i as i32));
        }
        // Cancel every third, pop a third, reschedule more.
        for (i, tok) in tokens.iter().enumerate() {
            if i % 3 == 0 {
                q.cancel(*tok);
            }
        }
        for _ in 0..150 {
            q.pop();
        }
        for i in 0..200u64 {
            q.schedule(
                q.now() + SimDuration::from_micros(i % 37 + 1),
                1000 + i as i32,
            );
        }
        let mut last = SimTime::ZERO;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
        }
        assert!(q.is_empty());
    }

    #[test]
    fn rearmed_timer_keeps_the_heap_bounded() {
        // A 100 ms timer re-armed 10⁴ times over a few live events, the
        // way the kernel re-arms a quantum: arm the new timer, cancel the
        // old one. Nothing pops, so no cancelled entry surfaces and only
        // compaction bounds the heap.
        let mut q = EventQueue::new();
        let quantum = SimDuration::from_millis(100);
        let far: Vec<SimTime> = (1..=3).map(|s| SimTime::from_millis(s * 1_000)).collect();
        for (i, &at) in far.iter().enumerate() {
            q.schedule(at, i as u64);
        }
        let mut timer = q.schedule(SimTime::ZERO + quantum, 100);
        for cycle in 1..=10_000u64 {
            q.advance_to(t(cycle));
            let next = q.schedule(q.now() + quantum, 100 + cycle);
            assert!(q.cancel(std::mem::replace(&mut timer, next)));
            assert_eq!(q.len(), 4);
            assert!(
                q.heap.len() <= 2 * q.len() + 64,
                "{} heap entries for {} events",
                q.heap.len(),
                q.len()
            );
        }
        assert_eq!(q.pop(), Some((t(10_000) + quantum, 10_100)));
        for (i, &at) in far.iter().enumerate() {
            assert_eq!(q.pop(), Some((at, i as u64)));
        }
        assert_eq!(q.pop(), None);
    }

    /// The bound for "fires at or before `limit`".
    fn through(limit: SimTime) -> (SimTime, u64) {
        (limit, u64::MAX)
    }

    #[test]
    fn pop_within_defers_without_touching_the_queue() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_within(through(t(100))), PopNext::Empty);
        let early = q.schedule(t(30), 0);
        q.schedule(t(50), 1);
        q.schedule(t(50), 2);
        // A cancelled entry is never reported: the deferral names the
        // next live event.
        assert!(q.cancel(early));
        // Past the limit: reported but not delivered, clock unmoved.
        assert_eq!(q.pop_within(through(t(40))), PopNext::Deferred(t(50)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 2);
        // At the limit (inclusive): delivered in schedule order.
        assert_eq!(q.pop_within(through(t(50))), PopNext::Popped(t(50), 1));
        assert_eq!(q.now(), t(50));
        assert_eq!(q.pop_within(through(t(50))), PopNext::Popped(t(50), 2));
        assert_eq!(q.pop_within(through(SimTime::MAX)), PopNext::Empty);
    }

    #[test]
    fn schedule_after_a_deferred_pop_keeps_order() {
        // A run stopped at a limit and acted on: events scheduled between
        // the clock and the deferred event must still come out first, in
        // order.
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(40_000), 2);
        q.schedule(t(3_000_000), 3);
        assert_eq!(q.pop_within(through(t(100))), PopNext::Popped(t(10), 1));
        assert_eq!(q.pop_within(through(t(100))), PopNext::Deferred(t(40_000)));
        assert_eq!(q.now(), t(10));
        q.schedule(t(10), 4);
        q.schedule(t(20_000), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (t(10), 4),
                (t(20_000), 5),
                (t(40_000), 2),
                (t(3_000_000), 3)
            ]
        );
    }

    #[test]
    fn schedule_below_a_declined_bound_keeps_order() {
        // A caller that declines at a bound and then schedules below it
        // (a run stopped and acted on) still gets the strict order, both
        // at the clock's instant and between the clock and the bound.
        let mut q = EventQueue::new();
        q.schedule(t(40_000), 1);
        q.schedule(t(40_000) + SimDuration::from_nanos(1), 2);
        q.pop();
        assert_eq!(
            q.pop_within((t(40_000) + SimDuration::from_nanos(1), 0)),
            PopNext::Deferred(t(40_000) + SimDuration::from_nanos(1))
        );
        q.schedule(t(40_000), 3);
        assert_eq!(q.pop(), Some((t(40_000), 3)));
        assert_eq!(q.pop(), Some((t(40_000) + SimDuration::from_nanos(1), 2)));
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(40_000), 2);
        q.pop();
        assert_eq!(
            q.pop_within(through(SimTime::from_nanos(t(40_000).as_nanos() - 1))),
            PopNext::Deferred(t(40_000))
        );
        q.schedule(t(20), 3);
        assert_eq!(q.pop(), Some((t(20), 3)));
        assert_eq!(q.pop(), Some((t(40_000), 2)));
    }

    #[test]
    fn bounded_pop_orders_by_seq_within_an_instant() {
        // An outside event reserved between two same-instant schedules
        // comes out between them: the bound's seq half decides.
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        let outside = (t(5), q.reserve_seq());
        q.schedule(t(5), 2);
        assert_eq!(q.pop_within(outside), PopNext::Popped(t(5), 1));
        assert_eq!(q.pop_within(outside), PopNext::Deferred(t(5)));
        q.advance_to(outside.0);
        assert_eq!(
            q.pop_within(through(SimTime::MAX)),
            PopNext::Popped(t(5), 2)
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn repeated_declines_leave_the_queue_untouched() {
        // Completion-style bounds well before the queued events: each
        // decline reports the next event's time exactly, and a timer
        // armed at the delivered instant and cancelled at once (its
        // entry left behind) disturbs neither the clock nor the order.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(3 * 60 * 60 * 1000);
        q.schedule(t(5_000), 1);
        q.schedule(far, 2);
        let mut now = SimTime::ZERO;
        for step in 1..=20u64 {
            let at = now + SimDuration::from_micros(step);
            let key = (at, q.reserve_seq());
            assert_eq!(q.pop_within(key), PopNext::Deferred(t(5_000)));
            q.advance_to(at);
            now = at;
            let tok = q.schedule(now, 100);
            assert!(q.cancel(tok));
        }
        assert_eq!(q.now(), now);
        assert_eq!(q.pop(), Some((t(5_000), 1)));
        assert_eq!(q.pop(), Some((far, 2)));
    }

    #[test]
    #[should_panic(expected = "clock moved into the past")]
    fn advance_to_the_past_panics() {
        let mut q = EventQueue::<()>::new();
        q.advance_to(t(10));
        q.advance_to(t(5));
    }
}
