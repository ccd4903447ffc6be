//! Deterministic, cancellable future-event list: a hierarchical timing
//! wheel (Varghese–Lauck).
//!
//! Four levels of 256 slots over a 512 ns tick. Level 0 resolves single
//! ticks (horizon ~131 µs — comfortably past every cost-model constant),
//! each coarser level covers 256× the span of the one below (L1 ~33.6 ms,
//! L2 ~8.6 s, L3 ~36.7 min), and events beyond L3's horizon wait on an
//! unsorted overflow list. Schedule and cancel are O(1): a slot/level pair
//! is two shifts and a mask, entries live on intrusive doubly-linked lists
//! threaded through the slab, and per-level occupancy bitmaps make the
//! next-slot scan four word tests.
//!
//! ## Cascade rule
//!
//! The wheel cursor (`cur_tick`) advances lazily, only ever to the minimum
//! live tick. Extraction computes each level's first occupied slot (the
//! circular bitmap scan from the cursor's position) plus the overflow
//! minimum, takes the smallest slot-start across all of them, and — if the
//! winner is not at level 0 — relocates that one slot's entries, which
//! provably land at least one level finer (the slot start is aligned to
//! the finer level's window). Ties go to the *coarsest* holder, so events
//! sharing a tick are always merged into one level-0 slot before any of
//! them is delivered. Each entry therefore cascades at most `LEVELS − 1`
//! times over its lifetime: amortized O(1) per event.
//!
//! ## Ordering guarantee
//!
//! Events pop in the unique strict ascending `(time, seq)` order, where
//! `seq` is assigned at schedule time, so two events at the same instant
//! always fire in the order they were scheduled and whole-system runs stay
//! bit-for-bit reproducible. A level-0 slot spans one 512 ns tick, so it
//! can hold events at different nanosecond timestamps; delivery scans the
//! (tiny) slot list for the minimum `(time, seq)`, which also gives
//! same-instant events their schedule-order FIFO tie-break.
//!
//! ## Bounded extraction and outside events
//!
//! [`EventQueue::pop_within`] delivers the next event only if its
//! `(time, seq)` key is below a caller's bound, and never moves the cursor
//! past the bound's tick. A caller that keeps some events outside the
//! queue (the kernel keeps each CPU's segment completion in a per-CPU
//! timer) takes their sequence numbers from the same counter with
//! [`EventQueue::reserve_seq`], passes the earliest outside key as the
//! bound, and on a decline delivers that event itself after moving the
//! clock with [`EventQueue::advance_to`]. The union then comes out in the
//! same strict `(time, seq)` order as if every event had been queued, and
//! a schedule at the delivered instant finds the cursor at or behind its
//! tick, so it never takes the cold rewind.
//!
//! A cached next key lets the common decline (the outside event comes
//! first) return in O(1): a schedule below it, or into an empty queue,
//! sets it to the new event's key; an extraction that finds nothing below
//! its bound sets it to the exact next key; removing the minimal entry
//! forgets it.
//!
//! ## Tokens
//!
//! Tokens are generation-stamped slab indices: a slot's generation bumps
//! every time its entry leaves the queue (pop or cancel), so a stale token
//! held across slot reuse can never cancel the wrong event.

use crate::time::SimTime;

/// log2 of the tick in nanoseconds (512 ns): fine enough that a slot scan
/// stays short, coarse enough that the four-level horizon (~37 virtual
/// minutes) covers every non-degenerate scheduling distance.
const GRAN_SHIFT: u32 = 9;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; beyond them, the overflow list.
const LEVELS: usize = 4;
/// Occupancy-bitmap words per level.
const WORDS: usize = SLOTS / 64;
/// Null link.
const NIL: u32 = u32::MAX;

/// Identifies a scheduled event so it can be cancelled before it fires.
///
/// Tokens are generation-stamped: cancelling a token whose event already
/// fired (or was already cancelled) is a no-op, even if the underlying
/// slot has since been reused for a new event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    slot: u32,
    gen: u32,
}

/// Outcome of [`EventQueue::pop_within`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PopNext<E> {
    /// No live events remain.
    Empty,
    /// The next event's key is not below the bound; the queue is untouched
    /// (the clock does not advance) and the event's timestamp is reported.
    Deferred(SimTime),
    /// The next event, delivered; the clock advanced to its timestamp.
    Popped(SimTime, E),
}

/// Where a slab node currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// On the free list (no event).
    Free,
    /// In wheel level `.0`, slot `.1`.
    Slot(u8, u8),
    /// On the far-future overflow list.
    Overflow,
}

/// A slab node: the event plus its intrusive-list links.
struct Node<E> {
    time: SimTime,
    seq: u64,
    gen: u32,
    prev: u32,
    next: u32,
    loc: Loc,
    event: Option<E>,
}

/// A deterministic future-event list. See the module docs for the layout.
pub struct EventQueue<E> {
    /// Slab of nodes, indexed by `EventToken::slot`.
    nodes: Vec<Node<E>>,
    /// Head of the free slab slots, linked through their `next` fields.
    free_head: u32,
    /// Head of each slot's doubly-linked entry list.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level slot-occupancy bitmaps.
    occupied: [[u64; WORDS]; LEVELS],
    /// Live entries per level.
    level_len: [usize; LEVELS],
    /// Head of the overflow list (events past level 3's horizon).
    overflow_head: u32,
    /// Entries on the overflow list.
    overflow_len: usize,
    /// Cached minimum `(time, seq, slab slot)` of the overflow list;
    /// `None` iff the list is empty. Kept exact across inserts/removals so
    /// an extraction compares the overflow against the wheel levels
    /// without walking the list.
    overflow_min: Option<(SimTime, u64, u32)>,
    /// The wheel cursor, in ticks. Advances lazily, never past the
    /// minimum live tick, so every live entry's tick is `>= cur_tick`.
    cur_tick: u64,
    /// Memoized result of the last cascade: the level-0 slot (at tick
    /// `cur_tick`) holding the globally minimal live entry. Stays valid
    /// across schedules — an event at the cursor tick files into this very
    /// slot, and any later tick cannot beat it — and across removals that
    /// leave the slot nonempty; only emptying the slot invalidates it. Lets
    /// steady-state pops skip the per-level candidate scan.
    min_slot: Option<u8>,
    /// The minimal live `(time, seq)` key, when known (see the module
    /// docs): a bounded extraction whose bound does not exceed it declines
    /// without touching the bitmaps.
    next_key: Option<(SimTime, u64)>,
    next_seq: u64,
    now: SimTime,
    /// Live entries in the wheel and overflow.
    live: usize,
    /// Schedules that fell behind the cursor and re-filed the wheel.
    rewinds: u64,
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
            nodes: Vec::new(),
            free_head: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [[0; WORDS]; LEVELS],
            level_len: [0; LEVELS],
            overflow_head: NIL,
            overflow_len: 0,
            overflow_min: None,
            cur_tick: 0,
            min_slot: None,
            next_key: None,
            next_seq: 0,
            now: SimTime::ZERO,
            live: 0,
            rewinds: 0,
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

    /// How many schedules fell behind the wheel cursor and re-filed every
    /// live entry (the O(live) rewind). A caller that only schedules at or
    /// after the bound of its last declined extraction never causes one.
    pub fn rewinds(&self) -> u64 {
        self.rewinds
    }

    /// Schedules `event` to fire at `time`; O(1).
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
        let tick = time.as_nanos() >> GRAN_SHIFT;
        if tick < self.cur_tick {
            self.rewind(tick);
        }
        let seq = self.reserve_seq();
        if self.live == 0 || self.next_key.is_some_and(|k| (time, seq) < k) {
            self.next_key = Some((time, seq));
        }
        let idx = self.alloc(time, seq, event);
        self.place(idx);
        self.live += 1;
        EventToken {
            slot: idx,
            gen: self.nodes[idx as usize].gen,
        }
    }

    /// Cancels a previously scheduled event, removing it eagerly; O(1).
    ///
    /// Cancelling an event that already fired (or was already cancelled) is
    /// a no-op; this makes preemption paths simpler for callers. Returns
    /// whether a live event was actually removed.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(node) = self.nodes.get(token.slot as usize) else {
            return false;
        };
        if node.gen != token.gen || node.event.is_none() {
            return false; // stale token: already fired or cancelled
        }
        if self.next_key == Some((node.time, node.seq)) {
            self.next_key = None;
        }
        self.unlink(token.slot);
        self.live -= 1;
        self.free_node(token.slot);
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
    /// the queue and clock untouched. The one extraction routine: `pop`
    /// passes the maximal bound, a time limit `t` (inclusive) is the bound
    /// `(t, u64::MAX)`, and a caller with outside events passes the
    /// earliest outside key.
    ///
    /// Only the internal cascade may run, which is unobservable, and it
    /// never advances the cursor past the bound's tick: after a decline,
    /// a schedule at the bound's time needs no rewind.
    pub fn pop_within(&mut self, bound: (SimTime, u64)) -> PopNext<E> {
        if self.live == 0 {
            return PopNext::Empty;
        }
        if let Some(key) = self.next_key {
            if key >= bound {
                return PopNext::Deferred(key.0);
            }
        }
        let bound_tick = bound.0.as_nanos() >> GRAN_SHIFT;
        let best = loop {
            if let Some(slot) = self.min_slot {
                break self.slot_min(0, slot as usize);
            }
            let (start, level, slot) = self.min_candidate();
            if start > bound_tick {
                // Every live tick lies past the bound's: report the exact
                // next key without moving the cursor.
                let key = self.peek_min();
                self.next_key = Some(key);
                return PopNext::Deferred(key.0);
            }
            // Lazy cursor advance — never past the minimum live tick.
            // (A candidate start can sit below the cursor when it is the
            // cursor's own partially-elapsed coarse slot; never move back.)
            if start > self.cur_tick {
                self.cur_tick = start;
            }
            match level {
                0 => self.min_slot = Some(slot as u8),
                LEVELS => self.cascade_overflow(),
                _ => self.cascade_slot(level, slot),
            }
        };
        let key = self.key(best);
        if key >= bound {
            self.next_key = Some(key);
            return PopNext::Deferred(key.0);
        }
        self.unlink(best);
        self.live -= 1;
        self.next_key = None;
        let ev = self.free_node(best);
        debug_assert!(key.0 >= self.now, "event queue time inversion");
        self.now = key.0;
        PopNext::Popped(key.0, ev)
    }

    /// Number of pending events: scheduled and neither fired nor
    /// cancelled. Exact: cancellation removes entries immediately.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    // ---- slab ----------------------------------------------------------

    /// Allocates a slab node for `event`, reusing the free list.
    fn alloc(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        let idx = self.free_head;
        if idx == NIL {
            return self.grow(time, seq, event);
        }
        let n = &mut self.nodes[idx as usize];
        debug_assert!(n.event.is_none(), "free-list slot holds an event");
        self.free_head = n.next;
        n.next = NIL;
        n.time = time;
        n.seq = seq;
        n.event = Some(event);
        idx
    }

    /// Appends a fresh slab node for `event`. The slab only grows to the
    /// peak number of live events, so this stays off the hot path, and
    /// keeping it out of line lets `schedule` inline at its call sites.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        self.nodes.push(Node {
            time,
            seq,
            gen: 0,
            prev: NIL,
            next: NIL,
            loc: Loc::Free,
            event: Some(event),
        });
        self.nodes.len() as u32 - 1
    }

    /// Takes the event out of `idx`, bumps the generation (invalidating
    /// outstanding tokens), and returns the slot to the free list.
    fn free_node(&mut self, idx: u32) -> E {
        let n = &mut self.nodes[idx as usize];
        n.gen = n.gen.wrapping_add(1);
        n.loc = Loc::Free;
        n.prev = NIL;
        n.next = self.free_head;
        self.free_head = idx;
        n.event.take().expect("freed a dead wheel entry")
    }

    // ---- wheel placement -----------------------------------------------

    /// Files `idx` into the finest level whose window reaches its tick,
    /// or the overflow list beyond level 3's horizon.
    fn place(&mut self, idx: u32) {
        let tick = self.nodes[idx as usize].time.as_nanos() >> GRAN_SHIFT;
        debug_assert!(tick >= self.cur_tick, "placing an event behind the cursor");
        let mut k = 0;
        loop {
            let shift = k as u32 * LEVEL_BITS;
            if (tick >> shift) - (self.cur_tick >> shift) < SLOTS as u64 {
                let slot = ((tick >> shift) & (SLOTS as u64 - 1)) as usize;
                self.push_slot(k, slot, idx);
                return;
            }
            k += 1;
            if k == LEVELS {
                self.push_overflow(idx);
                return;
            }
        }
    }

    /// Moves the cursor back to `tick` and re-files every live entry
    /// relative to it. Needed only when a [`EventQueue::pop_within`] that
    /// deferred past its limit had cascaded the cursor ahead of the clock
    /// and a caller then schedules between the two — a run stopped mid-way
    /// and acted on. O(live); a run loop that only schedules at or after
    /// its last delivery never gets here.
    #[cold]
    fn rewind(&mut self, tick: u64) {
        self.rewinds += 1;
        let mut entries = Vec::with_capacity(self.live);
        for level in 0..LEVELS {
            for head in &mut self.heads[level] {
                let mut idx = std::mem::replace(head, NIL);
                while idx != NIL {
                    entries.push(idx);
                    idx = self.nodes[idx as usize].next;
                }
            }
            self.occupied[level] = [0; WORDS];
            self.level_len[level] = 0;
        }
        let mut idx = std::mem::replace(&mut self.overflow_head, NIL);
        while idx != NIL {
            entries.push(idx);
            idx = self.nodes[idx as usize].next;
        }
        self.overflow_len = 0;
        self.overflow_min = None;
        self.min_slot = None;
        self.cur_tick = tick;
        for idx in entries {
            self.place(idx);
        }
    }

    /// Links `idx` at the head of `level`/`slot`.
    fn push_slot(&mut self, level: usize, slot: usize, idx: u32) {
        let head = self.heads[level][slot];
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = head;
            n.loc = Loc::Slot(level as u8, slot as u8);
        }
        if head != NIL {
            self.nodes[head as usize].prev = idx;
        }
        self.heads[level][slot] = idx;
        self.occupied[level][slot / 64] |= 1u64 << (slot % 64);
        self.level_len[level] += 1;
    }

    /// Links `idx` at the head of the overflow list.
    fn push_overflow(&mut self, idx: u32) {
        let head = self.overflow_head;
        let key = {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = head;
            n.loc = Loc::Overflow;
            (n.time, n.seq)
        };
        if head != NIL {
            self.nodes[head as usize].prev = idx;
        }
        self.overflow_head = idx;
        self.overflow_len += 1;
        match self.overflow_min {
            Some((t, s, _)) if (t, s) < key => {}
            _ => self.overflow_min = Some((key.0, key.1, idx)),
        }
    }

    /// Unlinks `idx` from its wheel slot or the overflow list.
    fn unlink(&mut self, idx: u32) {
        let (prev, next, loc) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next, n.loc)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        match loc {
            Loc::Slot(level, slot) => {
                let (level, slot) = (level as usize, slot as usize);
                if prev == NIL {
                    self.heads[level][slot] = next;
                    if next == NIL {
                        self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
                        if level == 0 && self.min_slot == Some(slot as u8) {
                            self.min_slot = None;
                        }
                    }
                }
                self.level_len[level] -= 1;
            }
            Loc::Overflow => {
                if prev == NIL {
                    self.overflow_head = next;
                }
                self.overflow_len -= 1;
                if self.overflow_min.is_some_and(|(_, _, mi)| mi == idx) {
                    self.overflow_min = self.scan_overflow_min();
                }
            }
            Loc::Free => unreachable!("unlink of an unlinked entry"),
        }
    }

    /// Recomputes the overflow minimum by walking the list (removal of the
    /// cached minimum only — the list is rarely populated at all).
    fn scan_overflow_min(&self) -> Option<(SimTime, u64, u32)> {
        let mut best: Option<(SimTime, u64, u32)> = None;
        let mut idx = self.overflow_head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if best.is_none_or(|(t, s, _)| (n.time, n.seq) < (t, s)) {
                best = Some((n.time, n.seq, idx));
            }
            idx = n.next;
        }
        best
    }

    // ---- extraction ----------------------------------------------------

    /// First occupied slot of `level` in circular order from the cursor,
    /// with its absolute level-tick. `None` if the level is empty.
    fn candidate(&self, level: usize) -> Option<(usize, u64)> {
        if self.level_len[level] == 0 {
            return None;
        }
        let cur = self.cur_tick >> (level as u32 * LEVEL_BITS);
        let slot = self.scan_from(level, (cur & (SLOTS as u64 - 1)) as usize);
        // Recover the absolute level-tick: the unique value >= cur (the
        // cursor never passes a live entry) within one turn of the wheel.
        let mut l_tick = (cur & !(SLOTS as u64 - 1)) + slot as u64;
        if l_tick < cur {
            l_tick += SLOTS as u64;
        }
        Some((slot, l_tick))
    }

    /// First occupied slot of `level` scanning circularly from `start`.
    /// The level must be nonempty.
    fn scan_from(&self, level: usize, start: usize) -> usize {
        let bm = &self.occupied[level];
        let w0 = start / 64;
        let b0 = (start % 64) as u32;
        let first = (bm[w0] >> b0) << b0; // mask off bits below start
        if first != 0 {
            return w0 * 64 + first.trailing_zeros() as usize;
        }
        for step in 1..WORDS {
            let w = (w0 + step) % WORDS;
            if bm[w] != 0 {
                return w * 64 + bm[w].trailing_zeros() as usize;
            }
        }
        let low = if b0 == 0 {
            0
        } else {
            bm[w0] & ((1u64 << b0) - 1)
        };
        if low != 0 {
            return w0 * 64 + low.trailing_zeros() as usize;
        }
        unreachable!("scan_from on an empty level")
    }

    /// The minimum slot-start in ticks across the levels and the overflow
    /// list, with its holder: `(start, level, slot)`, where level `LEVELS`
    /// means the overflow list. `<=` keeps the *coarsest* holder on ties,
    /// so same-tick events merge into level 0 before any delivery. Every
    /// live tick is at least `start`. The queue must be nonempty.
    fn min_candidate(&self) -> (u64, usize, usize) {
        let mut best = (u64::MAX, usize::MAX, 0usize);
        for k in 0..LEVELS {
            if let Some((slot, l_tick)) = self.candidate(k) {
                let start = l_tick << (k as u32 * LEVEL_BITS);
                if start <= best.0 {
                    best = (start, k, slot);
                }
            }
        }
        if let Some((t, _, _)) = self.overflow_min {
            let tick = t.as_nanos() >> GRAN_SHIFT;
            if tick <= best.0 {
                best = (tick, LEVELS, 0);
            }
        }
        debug_assert_ne!(best.1, usize::MAX, "live count drifted");
        best
    }

    /// The exact minimal live key, found without moving the cursor: each
    /// level's first occupied slot from the cursor holds that level's
    /// earliest entries, so the minimum is among those slots and the
    /// overflow's cached minimum. The queue must be nonempty.
    fn peek_min(&self) -> (SimTime, u64) {
        let mut best = self
            .overflow_min
            .map_or((SimTime::MAX, u64::MAX), |(t, s, _)| (t, s));
        for k in 0..LEVELS {
            if let Some((slot, _)) = self.candidate(k) {
                best = best.min(self.key(self.slot_min(k, slot)));
            }
        }
        best
    }

    /// Empties `level`/`slot`, re-placing every entry (each lands at least
    /// one level finer — see the module docs).
    fn cascade_slot(&mut self, level: usize, slot: usize) {
        let mut idx = self.heads[level][slot];
        self.heads[level][slot] = NIL;
        self.occupied[level][slot / 64] &= !(1u64 << (slot % 64));
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.level_len[level] -= 1;
            self.place(idx);
            idx = next;
        }
    }

    /// Re-places every overflow entry; those still beyond the horizon
    /// rejoin the (rebuilt) overflow list.
    fn cascade_overflow(&mut self) {
        let mut idx = self.overflow_head;
        self.overflow_head = NIL;
        self.overflow_len = 0;
        self.overflow_min = None;
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            self.place(idx);
            idx = next;
        }
    }

    /// The `(time, seq)` key of slab entry `idx`.
    fn key(&self, idx: u32) -> (SimTime, u64) {
        let n = &self.nodes[idx as usize];
        (n.time, n.seq)
    }

    /// The entry with minimal `(time, seq)` in `level`/`slot` (nonempty).
    fn slot_min(&self, level: usize, slot: usize) -> u32 {
        let mut idx = self.heads[level][slot];
        debug_assert_ne!(idx, NIL, "slot_min on an empty slot");
        let mut best = idx;
        let mut best_key = self.key(idx);
        idx = self.nodes[idx as usize].next;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if (n.time, n.seq) < best_key {
                best = idx;
                best_key = (n.time, n.seq);
            }
            idx = n.next;
        }
        best
    }

    /// Validates every structural invariant (test support).
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut live = 0usize;
        for level in 0..LEVELS {
            let mut count = 0usize;
            for slot in 0..SLOTS {
                let bit = self.occupied[level][slot / 64] & (1u64 << (slot % 64)) != 0;
                assert_eq!(
                    bit,
                    self.heads[level][slot] != NIL,
                    "bitmap drift at L{level}[{slot}]"
                );
                let mut idx = self.heads[level][slot];
                let mut prev = NIL;
                while idx != NIL {
                    let n = &self.nodes[idx as usize];
                    assert_eq!(n.prev, prev, "broken prev link at slab {idx}");
                    assert_eq!(n.loc, Loc::Slot(level as u8, slot as u8), "loc drift");
                    assert!(n.event.is_some(), "dead entry linked in wheel");
                    let tick = n.time.as_nanos() >> GRAN_SHIFT;
                    assert!(tick >= self.cur_tick, "entry behind the cursor");
                    let shift = level as u32 * LEVEL_BITS;
                    assert_eq!(
                        ((tick >> shift) & (SLOTS as u64 - 1)) as usize,
                        slot,
                        "entry filed in the wrong slot"
                    );
                    assert!(
                        (tick >> shift) - (self.cur_tick >> shift) < SLOTS as u64,
                        "entry outside its level's window"
                    );
                    count += 1;
                    prev = idx;
                    idx = n.next;
                }
            }
            assert_eq!(count, self.level_len[level], "level_len drift at {level}");
            live += count;
        }
        if let Some(slot) = self.min_slot {
            assert_eq!(
                slot as u64,
                self.cur_tick & (SLOTS as u64 - 1),
                "min-slot cache off the cursor tick"
            );
            assert_ne!(
                self.heads[0][slot as usize], NIL,
                "min-slot cache points at an empty slot"
            );
        }
        let mut oc = 0usize;
        let mut idx = self.overflow_head;
        let mut prev = NIL;
        let mut omin: Option<(SimTime, u64, u32)> = None;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            assert_eq!(n.prev, prev, "broken overflow prev link");
            assert_eq!(n.loc, Loc::Overflow, "overflow loc drift");
            assert!(n.event.is_some(), "dead entry on overflow list");
            if omin.is_none_or(|(t, s, _)| (n.time, n.seq) < (t, s)) {
                omin = Some((n.time, n.seq, idx));
            }
            oc += 1;
            prev = idx;
            idx = n.next;
        }
        assert_eq!(oc, self.overflow_len, "overflow_len drift");
        assert_eq!(self.overflow_min, omin, "overflow min cache drift");
        live += oc;
        assert_eq!(live, self.live, "live count drift");
        let mut free = 0usize;
        let mut idx = self.free_head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            assert_eq!(n.loc, Loc::Free, "linked free slot in use");
            assert!(n.event.is_none(), "free slot holds an event");
            free += 1;
            idx = n.next;
        }
        assert_eq!(self.live + free, self.nodes.len(), "slab leak");
        if let Some(key) = self.next_key {
            let min = self
                .nodes
                .iter()
                .filter(|n| n.event.is_some())
                .map(|n| (n.time, n.seq))
                .min();
            assert_eq!(Some(key), min, "next-key cache drift");
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
        // 512 ns wheel tick: distinct nanosecond timestamps sharing a tick
        // must still pop in time order, not insertion order.
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
        // generation no longer matches.
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
        q.check_invariants();
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
    fn far_future_events_cross_every_wheel_level() {
        // One event per wheel level plus the overflow list (the L3 horizon
        // is ~37 virtual minutes; 2 hours lands in overflow), scheduled in
        // reverse order; they must pop sorted, cascading down as the
        // cursor advances.
        let mut q = EventQueue::new();
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
    }

    #[test]
    fn overflow_interleaves_with_near_events() {
        // A far-future (overflow) event must still pop in order against
        // events scheduled much later in wall order but earlier in time,
        // including one landing in the same tick after the cursor has
        // advanced a long way.
        let mut q = EventQueue::new();
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
    }

    #[test]
    fn cancel_far_future_overflow_event() {
        let mut q = EventQueue::new();
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
        q.check_invariants();
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
    }

    #[test]
    fn schedule_behind_a_cascaded_cursor_rewinds() {
        // A decline at a far limit may cascade the cursor up to the
        // limit's tick; a caller that then schedules below it (a run
        // stopped and acted on) takes the rewind, and order holds.
        let mut q = EventQueue::new();
        q.schedule(t(40_000), 1);
        q.schedule(t(40_000) + SimDuration::from_nanos(1), 2);
        q.pop();
        assert_eq!(
            q.pop_within((t(40_000) + SimDuration::from_nanos(1), 0)),
            PopNext::Deferred(t(40_000) + SimDuration::from_nanos(1))
        );
        assert_eq!(q.rewinds(), 0);
        q.schedule(t(40_000), 3);
        assert_eq!(q.rewinds(), 0, "a schedule at the clock's tick");
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(40_000), 2);
        q.pop();
        assert_eq!(
            q.pop_within(through(SimTime::from_nanos(t(40_000).as_nanos() - 1))),
            PopNext::Deferred(t(40_000))
        );
        q.schedule(t(20), 3);
        assert_eq!(q.rewinds(), 1);
        q.check_invariants();
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
    fn decline_keeps_the_cursor_at_the_bound_tick() {
        // Far events sit in coarse levels; a completion-style bound well
        // before them must neither cascade past its tick nor make the
        // schedule at its instant rewind, and the cached next key must
        // answer repeated declines exactly.
        let mut q = EventQueue::new();
        let far = SimTime::from_millis(3 * 60 * 60 * 1000); // overflow
        q.schedule(t(5_000), 1); // L1
        q.schedule(far, 2);
        let mut now = SimTime::ZERO;
        for step in 1..=20u64 {
            let at = now + SimDuration::from_micros(step);
            let key = (at, q.reserve_seq());
            assert_eq!(q.pop_within(key), PopNext::Deferred(t(5_000)));
            q.check_invariants();
            q.advance_to(at);
            now = at;
            let tok = q.schedule(now, 100);
            assert!(q.cancel(tok));
        }
        assert_eq!(q.rewinds(), 0);
        assert_eq!(q.now(), now);
        assert_eq!(q.pop(), Some((t(5_000), 1)));
        assert_eq!(q.pop(), Some((far, 2)));
        q.check_invariants();
    }

    #[test]
    #[should_panic(expected = "clock moved into the past")]
    fn advance_to_the_past_panics() {
        let mut q = EventQueue::<()>::new();
        q.advance_to(t(10));
        q.advance_to(t(5));
    }
}
