//! Deterministic, cancellable future-event list with selectable cores.
//!
//! [`EventQueue`] is a facade over two interchangeable implementations:
//!
//! - [`wheel`] — a hierarchical timing wheel (Varghese–Lauck), the
//!   **default**: O(1) schedule and cancel, amortized O(1) pop with lazy
//!   cascade. The dominant simulator mix — schedule-soon, cancel-often
//!   (quantum timers cancelled on every early dispatch) — never pays a
//!   comparison-sort. See the [`wheel`] module docs for slot counts, tick
//!   granularity, and the cascade rule.
//! - [`indexed`] — the previous slab-backed indexed binary min-heap,
//!   retained as the differential baseline and selectable with
//!   [`EventCore::Indexed`]. (The still-older lazy-cancellation design
//!   survives in [`lazy`] for the same reason.)
//!
//! Both cores pop in the unique strict ascending `(time, sequence)` order
//! — the sequence number is assigned at schedule time, so two events at
//! the same instant always fire in the order they were scheduled. Core
//! choice is therefore unobservable through the API (the three-way
//! model-based proptests and whole-system trace-identity tests pin this),
//! and whole-system runs stay bit-for-bit reproducible.
//!
//! ## Tokens
//!
//! Tokens are generation-stamped slab indices shared by both cores: a
//! slot's generation bumps every time its entry leaves the queue (pop or
//! cancel), so a stale token held across slot reuse can never cancel the
//! wrong event.
//!
//! ## Same-tick batch delivery
//!
//! [`EventQueue::pop_batch`] stages *every* event at the next timestamp
//! and [`EventQueue::batch_pop`] delivers them one by one, so a step loop
//! applies a whole simultaneity class without re-entering the queue's
//! extraction machinery per event. Staged entries remain cancellable
//! (cancellation mid-batch suppresses delivery and returns `true`,
//! exactly as if the event were still queued), and events scheduled while
//! a batch drains — even at the same timestamp — form the *next* batch,
//! preserving the serial pop order byte-for-byte.

pub mod indexed;
pub mod lazy;
pub mod wheel;

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled before it fires.
///
/// Tokens are generation-stamped: cancelling a token whose event already
/// fired (or was already cancelled) is a no-op, even if the underlying
/// slot has since been reused for a new event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
    /// Which lane of a [`crate::shard::ShardedQueue`] issued this token.
    /// Always 0 for tokens issued by a plain [`EventQueue`] (the cores
    /// know nothing about lanes); the sharded facade stamps it so
    /// cancellation can find the owning lane without a search.
    pub(crate) lane: u32,
}

/// Which implementation backs an [`EventQueue`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EventCore {
    /// Hierarchical timing wheel (the default; see [`wheel`]).
    #[default]
    Wheel,
    /// Indexed binary min-heap, the differential baseline ([`indexed`]).
    Indexed,
}

impl EventCore {
    /// Stable name for reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            EventCore::Wheel => "wheel",
            EventCore::Indexed => "indexed",
        }
    }
}

/// Outcome of [`EventQueue::pop_batch_within`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchStart {
    /// No live events remain.
    Empty,
    /// The next event fires after the limit; the queue is untouched (the
    /// clock does not advance) and the event's timestamp is reported.
    Deferred(SimTime),
    /// A batch was staged at the returned timestamp (clock advanced).
    Started(SimTime),
}

/// Outcome of [`EventQueue::pop_within`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PopNext<E> {
    /// No live events remain.
    Empty,
    /// The next event fires after the limit; the queue is untouched (the
    /// clock does not advance) and the event's timestamp is reported.
    Deferred(SimTime),
    /// The next event, delivered; the clock advanced to its timestamp.
    Popped(SimTime, E),
}

// The wheel variant is ~5 KiB (inline slot heads and occupancy bitmaps)
// against the heap's handful of `Vec`s, but a queue is created once per
// simulation and never moved on the hot path — boxing it would buy
// nothing and cost a pointer chase on every schedule/cancel/pop.
#[allow(clippy::large_enum_variant)]
enum Core<E> {
    Wheel(wheel::WheelQueue<E>),
    Indexed(indexed::IndexedQueue<E>),
}

/// A deterministic future-event list.
pub struct EventQueue<E> {
    core: Core<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (timing-wheel) core with the
    /// clock at zero.
    pub fn new() -> Self {
        Self::with_core(EventCore::default())
    }

    /// Creates an empty queue on an explicit core (differential testing
    /// and benchmarking; production callers use [`EventQueue::new`]).
    pub fn with_core(core: EventCore) -> Self {
        EventQueue {
            core: match core {
                EventCore::Wheel => Core::Wheel(wheel::WheelQueue::new()),
                EventCore::Indexed => Core::Indexed(indexed::IndexedQueue::new()),
            },
        }
    }

    /// Which core backs this queue.
    pub fn core(&self) -> EventCore {
        match &self.core {
            Core::Wheel(_) => EventCore::Wheel,
            Core::Indexed(_) => EventCore::Indexed,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event or staged batch (zero before the first pop).
    pub fn now(&self) -> SimTime {
        match &self.core {
            Core::Wheel(q) => q.now(),
            Core::Indexed(q) => q.now(),
        }
    }

    /// Schedules `event` to fire at `time`.
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
        match &mut self.core {
            Core::Wheel(q) => q.schedule(time, event),
            Core::Indexed(q) => q.schedule(time, event),
        }
    }

    /// Cancels a previously scheduled event, removing it eagerly (O(1) on
    /// the wheel, O(log n) on the indexed heap).
    ///
    /// Cancelling an event that already fired (or was already cancelled) is
    /// a no-op; this makes preemption paths simpler for callers. Returns
    /// whether a live event was actually removed. An event staged by
    /// [`EventQueue::pop_batch`] but not yet delivered counts as live:
    /// cancelling it returns `true` and suppresses its delivery.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        match &mut self.core {
            Core::Wheel(q) => q.cancel(token),
            Core::Indexed(q) => q.cancel(token),
        }
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no live events remain. If a staged batch is
    /// pending (see [`EventQueue::pop_batch`]), its entries are served
    /// first — `pop` and the batch API interleave safely.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match &mut self.core {
            Core::Wheel(q) => q.pop(),
            Core::Indexed(q) => q.pop(),
        }
    }

    /// Stages every event at the next timestamp — one simultaneity class —
    /// for delivery via [`EventQueue::batch_pop`], advancing the clock to
    /// that timestamp and returning it.
    ///
    /// Returns `None` when no live events remain. The previous batch must
    /// be fully drained first. Events scheduled while the batch drains
    /// (even at the same timestamp) form the next batch, so delivery
    /// order is identical to repeated [`EventQueue::pop`].
    pub fn pop_batch(&mut self) -> Option<SimTime> {
        match &mut self.core {
            Core::Wheel(q) => q.pop_batch(),
            Core::Indexed(q) => q.pop_batch(),
        }
    }

    /// Fused peek + [`EventQueue::pop_batch`]: stages the next simultaneity
    /// class only if it fires at or before `limit`.
    ///
    /// A step loop with a run-limit check would otherwise pay a
    /// [`EventQueue::peek_time`] followed by a [`EventQueue::pop_batch`] —
    /// two scans of the queue head per batch. [`BatchStart::Deferred`]
    /// leaves the queue (and the clock) untouched, so a caller that stops
    /// on it observes exactly the state a peek-then-return would have left.
    pub fn pop_batch_within(&mut self, limit: SimTime) -> BatchStart {
        match &mut self.core {
            Core::Wheel(q) => q.pop_batch_within(limit),
            Core::Indexed(q) => q.pop_batch_within(limit),
        }
    }

    /// Fused peek + single-event pop: delivers the next live event if it
    /// fires at or before `limit`, otherwise [`PopNext::Deferred`] leaves
    /// the queue (and clock) untouched.
    ///
    /// Delivery order is the same strict `(time, seq)` order as every
    /// other extraction path, so a step loop built on this is
    /// byte-identical to one built on the batch API — without paying the
    /// staging machinery (slot walks, sequence sort, staging deque) on
    /// every simultaneity class of size one, which is the dominant case
    /// in system runs. Pending staged entries are served first, so the
    /// two APIs interleave safely.
    pub fn pop_within(&mut self, limit: SimTime) -> PopNext<E> {
        match &mut self.core {
            Core::Wheel(q) => q.pop_within(limit),
            Core::Indexed(q) => q.pop_within(limit),
        }
    }

    /// Delivers the next event of the staged batch in `(time, seq)` order,
    /// skipping entries cancelled since staging. `None` once the batch is
    /// drained.
    pub fn batch_pop(&mut self) -> Option<E> {
        match &mut self.core {
            Core::Wheel(q) => q.batch_pop(),
            Core::Indexed(q) => q.batch_pop(),
        }
    }

    /// Timestamp of the next live event without popping it, if any.
    ///
    /// Immutable: O(1) on the indexed heap; on the wheel, a bounded
    /// candidate-slot scan (no cascading).
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.core {
            Core::Wheel(q) => q.peek_time(),
            Core::Indexed(q) => q.peek_time(),
        }
    }

    /// Number of pending events: entries scheduled (or staged by
    /// [`EventQueue::pop_batch`]) and neither fired nor cancelled.
    ///
    /// Exact on both cores — cancellation removes entries immediately, so
    /// cancelled-but-unreaped corpses are never counted (only the retained
    /// [`lazy`] baseline keeps corpses, and it deliberately exposes no
    /// `len`).
    pub fn len(&self) -> usize {
        match &self.core {
            Core::Wheel(q) => q.len(),
            Core::Indexed(q) => q.len(),
        }
    }

    /// Number of live events; alias of [`EventQueue::len`], kept distinct
    /// in the API so callers written against the old lazy-cancel design
    /// (where `len` would have counted corpses awaiting reap) read
    /// unambiguously. Both counts always exclude cancelled entries.
    pub fn live_len(&self) -> usize {
        self.len()
    }

    /// True if no live events are scheduled or staged.
    pub fn is_empty(&self) -> bool {
        match &self.core {
            Core::Wheel(q) => q.is_empty(),
            Core::Indexed(q) => q.is_empty(),
        }
    }

    /// Validates the active core's structural invariants (test support).
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        match &self.core {
            Core::Wheel(q) => q.check_invariants(),
            Core::Indexed(q) => q.check_invariants(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Runs a closure against a fresh queue on each core.
    fn on_both_cores(f: impl Fn(EventQueue<i32>)) {
        f(EventQueue::with_core(EventCore::Wheel));
        f(EventQueue::with_core(EventCore::Indexed));
    }

    #[test]
    fn default_core_is_wheel() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.core(), EventCore::Wheel);
        assert_eq!(q.core().name(), "wheel");
    }

    #[test]
    fn pops_in_time_order() {
        on_both_cores(|mut q| {
            q.schedule(t(30), 3);
            q.schedule(t(10), 1);
            q.schedule(t(20), 2);
            assert_eq!(q.pop(), Some((t(10), 1)));
            assert_eq!(q.pop(), Some((t(20), 2)));
            assert_eq!(q.pop(), Some((t(30), 3)));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn ties_break_by_schedule_order() {
        on_both_cores(|mut q| {
            q.schedule(t(5), 1);
            q.schedule(t(5), 2);
            q.schedule(t(5), 3);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        });
    }

    #[test]
    fn sub_tick_times_order_within_a_slot() {
        // 512 ns wheel tick: distinct nanosecond timestamps sharing a tick
        // must still pop in time order, not insertion order.
        on_both_cores(|mut q| {
            q.schedule(SimTime::from_nanos(300), 3);
            q.schedule(SimTime::from_nanos(100), 1);
            q.schedule(SimTime::from_nanos(200), 2);
            assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 1)));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(200), 2)));
            assert_eq!(q.pop(), Some((SimTime::from_nanos(300), 3)));
        });
    }

    #[test]
    fn clock_advances_with_pops() {
        on_both_cores(|mut q| {
            q.schedule(t(10), 0);
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), t(10));
        });
    }

    #[test]
    fn cancel_suppresses_event() {
        on_both_cores(|mut q| {
            let tok = q.schedule(t(10), -1);
            q.schedule(t(20), 1);
            assert!(q.cancel(tok));
            assert_eq!(q.pop(), Some((t(20), 1)));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        on_both_cores(|mut q| {
            let tok = q.schedule(t(10), 0);
            assert!(q.pop().is_some());
            assert!(!q.cancel(tok));
            q.schedule(t(20), 0);
            assert!(q.pop().is_some());
        });
    }

    #[test]
    fn double_cancel_is_noop() {
        on_both_cores(|mut q| {
            let tok = q.schedule(t(10), 1);
            assert!(q.cancel(tok));
            assert!(!q.cancel(tok));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn stale_token_cannot_cancel_reused_slot() {
        on_both_cores(|mut q| {
            let tok = q.schedule(t(10), 1);
            q.cancel(tok);
            // The slab slot is reused for the next event; the stale token's
            // generation no longer matches.
            q.schedule(t(20), 2);
            assert!(!q.cancel(tok));
            assert_eq!(q.pop(), Some((t(20), 2)));
        });
    }

    #[test]
    fn peek_is_live_and_immutable() {
        on_both_cores(|mut q| {
            let tok = q.schedule(t(10), 0);
            q.schedule(t(20), 0);
            q.cancel(tok);
            let q_ref = &q; // immutable peek
            assert_eq!(q_ref.peek_time(), Some(t(20)));
        });
    }

    #[test]
    fn len_is_exact_under_cancellation() {
        on_both_cores(|mut q| {
            let a = q.schedule(t(10), 0);
            let b = q.schedule(t(20), 0);
            q.schedule(t(30), 0);
            assert_eq!(q.len(), 3);
            q.cancel(a);
            assert_eq!(q.len(), 2);
            assert_eq!(q.live_len(), 2);
            q.cancel(b);
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
            q.check_invariants();
        });
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
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics_indexed() {
        let mut q = EventQueue::with_core(EventCore::Indexed);
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    fn same_instant_as_now_is_allowed() {
        on_both_cores(|mut q| {
            q.schedule(t(10), 1);
            q.pop();
            q.schedule(q.now(), 2);
            assert_eq!(q.pop(), Some((t(10), 2)));
        });
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        on_both_cores(|mut q| {
            q.schedule(t(10), 1);
            let (now, _) = q.pop().unwrap();
            q.schedule(now + SimDuration::from_micros(5), 2);
            q.schedule(now + SimDuration::from_micros(1), 3);
            assert_eq!(q.pop().unwrap().1, 3);
            assert_eq!(q.pop().unwrap().1, 2);
        });
    }

    #[test]
    fn far_future_events_cross_every_wheel_level() {
        // One event per wheel level plus the overflow list (the L3 horizon
        // is ~37 virtual minutes; 2 hours lands in overflow), scheduled in
        // reverse order; they must pop sorted, cascading down as the
        // cursor advances.
        on_both_cores(|mut q| {
            let hours2 = SimTime::from_millis(2 * 60 * 60 * 1000);
            let times = [
                hours2,                       // overflow
                SimTime::from_millis(60_000), // L3 (1 min)
                SimTime::from_millis(1_000),  // L2 (1 s)
                SimTime::from_micros(5_000),  // L1 (5 ms)
                SimTime::from_nanos(50_000),  // L0 (50 µs)
            ];
            for (i, &at) in times.iter().enumerate() {
                q.schedule(at, i as i32);
            }
            q.check_invariants();
            let mut got = Vec::new();
            while let Some((at, v)) = q.pop() {
                got.push((at, v));
                q.check_invariants();
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
        });
    }

    #[test]
    fn overflow_interleaves_with_near_events() {
        // A far-future (overflow) event must still pop in order against
        // events scheduled much later in wall order but earlier in time,
        // including one landing in the same tick after the cursor has
        // advanced a long way.
        on_both_cores(|mut q| {
            let far = SimTime::from_millis(3 * 60 * 60 * 1000); // 3 h: overflow
            let tok = q.schedule(far, 99);
            q.schedule(t(10), 1);
            assert_eq!(q.pop(), Some((t(10), 1)));
            // Now close to `far` from the wheel's perspective: schedule an
            // event just before it and one in the same tick just after it.
            q.schedule(far + SimDuration::from_nanos(5), 101);
            let before = SimTime::from_nanos(far.as_nanos() - 100_000);
            q.schedule(before, 100);
            q.check_invariants();
            assert_eq!(q.pop(), Some((before, 100)));
            assert_eq!(q.pop(), Some((far, 99)));
            assert_eq!(q.pop(), Some((far + SimDuration::from_nanos(5), 101)));
            assert!(!q.cancel(tok));
        });
    }

    #[test]
    fn cancel_far_future_overflow_event() {
        on_both_cores(|mut q| {
            let far = SimTime::from_millis(5 * 60 * 60 * 1000);
            let a = q.schedule(far, 1);
            let b = q.schedule(far + SimDuration::from_micros(1), 2);
            q.schedule(t(1), 0);
            q.check_invariants();
            assert!(q.cancel(a));
            assert!(!q.cancel(a));
            q.check_invariants();
            assert_eq!(q.pop(), Some((t(1), 0)));
            assert_eq!(q.pop(), Some((far + SimDuration::from_micros(1), 2)));
            assert_eq!(q.pop(), None);
            assert!(!q.cancel(b));
        });
    }

    #[test]
    fn heavy_cancel_mix_keeps_invariants() {
        on_both_cores(|mut q| {
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
            q.check_invariants();
            for _ in 0..150 {
                q.pop();
            }
            q.check_invariants();
            for i in 0..200u64 {
                q.schedule(
                    q.now() + SimDuration::from_micros(i % 37 + 1),
                    1000 + i as i32,
                );
            }
            q.check_invariants();
            let mut last = SimTime::ZERO;
            while let Some((at, _)) = q.pop() {
                assert!(at >= last);
                last = at;
            }
            assert!(q.is_empty());
            q.check_invariants();
        });
    }

    // ---- batch API -----------------------------------------------------

    #[test]
    fn pop_batch_stages_one_simultaneity_class() {
        on_both_cores(|mut q| {
            q.schedule(t(10), 1);
            q.schedule(t(10), 2);
            q.schedule(t(20), 3);
            assert_eq!(q.pop_batch(), Some(t(10)));
            assert_eq!(q.now(), t(10));
            assert_eq!(q.len(), 3); // staged entries still count
            assert_eq!(q.peek_time(), Some(t(10)));
            assert_eq!(q.batch_pop(), Some(1));
            assert_eq!(q.batch_pop(), Some(2));
            assert_eq!(q.batch_pop(), None);
            assert_eq!(q.pop_batch(), Some(t(20)));
            assert_eq!(q.batch_pop(), Some(3));
            assert_eq!(q.batch_pop(), None);
            assert_eq!(q.pop_batch(), None);
        });
    }

    #[test]
    fn batch_respects_schedule_order_and_new_same_time_events() {
        on_both_cores(|mut q| {
            q.schedule(t(10), 1);
            q.schedule(t(10), 2);
            assert_eq!(q.pop_batch(), Some(t(10)));
            assert_eq!(q.batch_pop(), Some(1));
            // Scheduled mid-batch at the same instant: next batch, same t.
            q.schedule(t(10), 3);
            assert_eq!(q.batch_pop(), Some(2));
            assert_eq!(q.batch_pop(), None);
            assert_eq!(q.pop_batch(), Some(t(10)));
            assert_eq!(q.batch_pop(), Some(3));
            assert_eq!(q.batch_pop(), None);
        });
    }

    #[test]
    fn cancel_of_staged_event_suppresses_delivery() {
        on_both_cores(|mut q| {
            q.schedule(t(10), 1);
            let tok = q.schedule(t(10), 2);
            q.schedule(t(10), 3);
            assert_eq!(q.pop_batch(), Some(t(10)));
            assert_eq!(q.batch_pop(), Some(1));
            // Cancelling a staged, undelivered event is a live cancel.
            assert!(q.cancel(tok));
            assert!(!q.cancel(tok));
            assert_eq!(q.len(), 1);
            assert_eq!(q.batch_pop(), Some(3));
            assert_eq!(q.batch_pop(), None);
            q.check_invariants();
        });
    }

    #[test]
    fn staged_slot_reuse_cannot_confuse_the_batch() {
        on_both_cores(|mut q| {
            let tok = q.schedule(t(10), 1);
            q.schedule(t(10), 2);
            assert_eq!(q.pop_batch(), Some(t(10)));
            // Cancel the first staged entry, then reuse its slab slot for a
            // new event at the same instant: the stale deque entry must not
            // deliver the newcomer early.
            assert!(q.cancel(tok));
            q.schedule(t(10), 7);
            assert_eq!(q.batch_pop(), Some(2));
            assert_eq!(q.batch_pop(), None);
            assert_eq!(q.pop_batch(), Some(t(10)));
            assert_eq!(q.batch_pop(), Some(7));
            q.check_invariants();
        });
    }

    #[test]
    fn pop_drains_staged_entries_first() {
        on_both_cores(|mut q| {
            q.schedule(t(10), 1);
            q.schedule(t(10), 2);
            q.schedule(t(20), 3);
            assert_eq!(q.pop_batch(), Some(t(10)));
            assert_eq!(q.pop(), Some((t(10), 1)));
            assert_eq!(q.pop(), Some((t(10), 2)));
            assert_eq!(q.pop(), Some((t(20), 3)));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn pop_batch_within_defers_without_touching_the_queue() {
        on_both_cores(|mut q| {
            assert_eq!(q.pop_batch_within(t(100)), BatchStart::Empty);
            q.schedule(t(50), 1);
            q.schedule(t(50), 2);
            // Past the limit: reported but not staged, clock unmoved.
            assert_eq!(q.pop_batch_within(t(40)), BatchStart::Deferred(t(50)));
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.len(), 2);
            q.check_invariants();
            // At the limit (inclusive): staged as a normal batch.
            assert_eq!(q.pop_batch_within(t(50)), BatchStart::Started(t(50)));
            assert_eq!(q.now(), t(50));
            assert_eq!(q.batch_pop(), Some(1));
            assert_eq!(q.batch_pop(), Some(2));
            assert_eq!(q.batch_pop(), None);
            assert_eq!(q.pop_batch_within(SimTime::MAX), BatchStart::Empty);
        });
    }

    #[test]
    fn schedule_after_a_deferred_pop_keeps_order() {
        // A run stopped at a limit and acted on: the deferred extraction
        // may have cascaded the wheel ahead of the clock, and events
        // scheduled between the clock and the deferred event must still
        // come out first, in order.
        on_both_cores(|mut q| {
            q.schedule(t(10), 1);
            q.schedule(t(40_000), 2);
            q.schedule(t(3_000_000), 3);
            assert_eq!(q.pop_within(t(100)), PopNext::Popped(t(10), 1));
            assert_eq!(q.pop_within(t(100)), PopNext::Deferred(t(40_000)));
            assert_eq!(q.now(), t(10));
            q.schedule(t(10), 4);
            q.schedule(t(20_000), 5);
            q.check_invariants();
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
        });
    }

    #[test]
    fn batch_equals_serial_pops_under_mixed_load() {
        // The batch API must reproduce plain pop order exactly, including
        // sub-tick time ordering inside one wheel slot.
        let times: Vec<u64> = (0..400).map(|i| (i * 7919) % 700).collect();
        let serial = {
            let mut q = EventQueue::with_core(EventCore::Wheel);
            for (i, &ns) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(ns), i as i32);
            }
            let mut got = Vec::new();
            while let Some((at, v)) = q.pop() {
                got.push((at, v));
            }
            got
        };
        for core in [EventCore::Wheel, EventCore::Indexed] {
            let mut q = EventQueue::with_core(core);
            for (i, &ns) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(ns), i as i32);
            }
            let mut got = Vec::new();
            while let Some(t) = q.pop_batch() {
                while let Some(v) = q.batch_pop() {
                    got.push((t, v));
                }
            }
            assert_eq!(got, serial, "batch order diverged on {:?}", core);
        }
    }
}
