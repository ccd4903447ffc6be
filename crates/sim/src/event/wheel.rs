//! Hierarchical timing wheel (Varghese–Lauck): the default event core.
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
//! Identical to the indexed heap: strict ascending `(time, seq)`. A
//! level-0 slot spans one 512 ns tick, so it can hold events at different
//! nanosecond timestamps; delivery scans the (tiny) slot list for the
//! minimum `(time, seq)`, which also gives same-instant events their
//! schedule-order FIFO tie-break.

use super::{BatchStart, EventToken};
use crate::time::SimTime;
use std::collections::VecDeque;

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

/// Where a slab node currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    /// On the free list (no event).
    Free,
    /// In wheel level `.0`, slot `.1`.
    Slot(u8, u8),
    /// On the far-future overflow list.
    Overflow,
    /// Pulled into the current same-tick batch, awaiting delivery.
    Staged,
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

/// The timing-wheel event core. See the module docs for the layout.
pub struct WheelQueue<E> {
    /// Slab of nodes, indexed by `EventToken::slot`.
    nodes: Vec<Node<E>>,
    /// Free slab slots.
    free: Vec<u32>,
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
    /// `peek_time` stays `&self`.
    overflow_min: Option<(SimTime, u64, u32)>,
    /// The wheel cursor, in ticks. Advances lazily, never past the
    /// minimum live tick, so every live entry's tick is `>= cur_tick`.
    cur_tick: u64,
    /// Memoized result of the last cascade: the level-0 slot (at tick
    /// `cur_tick`) holding the globally minimal live entry. Stays valid
    /// across schedules — an event at the cursor tick files into this very
    /// slot, and any later tick cannot beat it — and across removals that
    /// leave the slot nonempty; only emptying the slot invalidates it. Lets
    /// steady-state pops and peeks skip the per-level candidate scan.
    min_slot: Option<u8>,
    /// The staged same-tick batch: `(slab slot, generation)` in delivery
    /// order. A generation mismatch marks an entry cancelled mid-batch.
    staged: VecDeque<(u32, u32)>,
    /// Staged entries not cancelled and not yet delivered.
    staged_live: usize,
    /// Timestamp shared by the staged batch.
    staged_time: SimTime,
    /// Reusable scratch for batch collection (`(seq, slot)` pairs).
    batch_scratch: Vec<(u64, u32)>,
    next_seq: u64,
    now: SimTime,
    /// Live entries in the wheel and overflow (excludes staged).
    live: usize,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelQueue<E> {
    /// Creates an empty wheel with the clock at zero.
    pub fn new() -> Self {
        WheelQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [[0; WORDS]; LEVELS],
            level_len: [0; LEVELS],
            overflow_head: NIL,
            overflow_len: 0,
            overflow_min: None,
            cur_tick: 0,
            min_slot: None,
            staged: VecDeque::new(),
            staged_live: 0,
            staged_time: SimTime::ZERO,
            batch_scratch: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            live: 0,
        }
    }

    /// Current virtual time (timestamp of the most recent pop or batch).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at `time`; O(1).
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current time.
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
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(time, seq, event);
        self.place(idx);
        self.live += 1;
        EventToken {
            slot: idx,
            gen: self.nodes[idx as usize].gen,
        }
    }

    /// Cancels a scheduled event eagerly; O(1). Returns whether a live
    /// event was actually removed (stale tokens are no-ops).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(node) = self.nodes.get(token.slot as usize) else {
            return false;
        };
        if node.gen != token.gen || node.event.is_none() {
            return false; // stale token: already fired or cancelled
        }
        match node.loc {
            Loc::Staged => {
                // Mid-batch cancellation: free the node now; the batch
                // deque entry is skipped by its generation mismatch.
                self.staged_live -= 1;
                self.free_node(token.slot);
                true
            }
            Loc::Slot(..) | Loc::Overflow => {
                self.unlink(token.slot);
                self.live -= 1;
                self.free_node(token.slot);
                true
            }
            Loc::Free => unreachable!("live generation on a free slot"),
        }
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Staged batch entries (see [`WheelQueue::pop_batch`]) are served
    /// first.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some((idx, gen)) = self.staged.pop_front() {
            if self.nodes[idx as usize].gen != gen {
                continue; // cancelled while staged (slot possibly reused)
            }
            debug_assert_eq!(self.nodes[idx as usize].loc, Loc::Staged);
            self.staged_live -= 1;
            let time = self.nodes[idx as usize].time;
            let ev = self.free_node(idx);
            return Some((time, ev));
        }
        let slot = self.prepare_min()?;
        let best = self.slot_min(slot);
        self.unlink(best);
        self.live -= 1;
        let time = self.nodes[best as usize].time;
        let ev = self.free_node(best);
        debug_assert!(time >= self.now, "event queue time inversion");
        self.now = time;
        Some((time, ev))
    }

    /// Stages every event at the next timestamp for delivery via
    /// [`WheelQueue::batch_pop`], advancing the clock to that timestamp
    /// and returning it. The previous batch must be fully drained.
    pub fn pop_batch(&mut self) -> Option<SimTime> {
        match self.pop_batch_within(SimTime::MAX) {
            BatchStart::Started(t) => Some(t),
            _ => None,
        }
    }

    /// [`WheelQueue::pop_batch`] fused with a limit check: stages the next
    /// batch only if its timestamp is at or before `limit`, otherwise
    /// reports it as [`BatchStart::Deferred`] without touching the queue
    /// (only the internal cascade may have run, which is unobservable).
    pub fn pop_batch_within(&mut self, limit: SimTime) -> BatchStart {
        debug_assert!(self.staged_live == 0, "pop_batch with a batch pending");
        self.staged.clear();
        let Some(slot) = self.prepare_min() else {
            return BatchStart::Empty;
        };
        // Every entry at the minimal time shares this tick (and after the
        // cascade in `prepare_min`, this level-0 slot). One walk finds the
        // minimum and the slot population; a second collects the batch.
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        scratch.clear();
        let head = self.heads[0][slot];
        let mut t = SimTime::MAX;
        let mut population = 0usize;
        let mut idx = head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.time < t {
                t = n.time;
            }
            population += 1;
            idx = n.next;
        }
        debug_assert_ne!(population, 0, "prepare_min returned an empty slot");
        if t > limit {
            self.batch_scratch = scratch;
            return BatchStart::Deferred(t);
        }
        idx = head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.time == t {
                scratch.push((n.seq, idx));
            }
            idx = n.next;
        }
        // Sort by sequence for schedule-order delivery.
        scratch.sort_unstable();
        if scratch.len() == population {
            // The whole slot fires at once (the common case: one
            // simultaneity class per tick): detach the list in O(1)
            // instead of per-entry pointer surgery.
            self.heads[0][slot] = NIL;
            self.occupied[0][slot / 64] &= !(1u64 << (slot % 64));
            self.level_len[0] -= population;
            if self.min_slot == Some(slot as u8) {
                self.min_slot = None;
            }
            for &(_, idx) in &scratch {
                let n = &mut self.nodes[idx as usize];
                n.loc = Loc::Staged;
                n.prev = NIL;
                n.next = NIL;
                self.staged.push_back((idx, n.gen));
            }
        } else {
            for &(_, idx) in &scratch {
                self.unlink(idx);
                let n = &mut self.nodes[idx as usize];
                n.loc = Loc::Staged;
                n.prev = NIL;
                n.next = NIL;
                self.staged.push_back((idx, n.gen));
            }
        }
        self.live -= scratch.len();
        self.staged_live += scratch.len();
        self.batch_scratch = scratch;
        self.staged_time = t;
        debug_assert!(t >= self.now, "event queue time inversion");
        self.now = t;
        BatchStart::Started(t)
    }

    /// Fused peek + pop of a single event: delivers the next live event if
    /// it fires at or before `limit`, else reports it without touching the
    /// queue. The per-event equivalent of [`WheelQueue::pop_batch_within`]
    /// — same delivery order (strict `(time, seq)`), none of the staging
    /// overhead (slot walks, sequence sort, staging deque) that a
    /// batch-of-one pays. Pending staged entries are served first so the
    /// two APIs interleave safely.
    pub fn pop_within(&mut self, limit: SimTime) -> super::PopNext<E> {
        while let Some((idx, gen)) = self.staged.pop_front() {
            if self.nodes[idx as usize].gen != gen {
                continue; // cancelled while staged
            }
            self.staged_live -= 1;
            let time = self.nodes[idx as usize].time;
            let ev = self.free_node(idx);
            return super::PopNext::Popped(time, ev);
        }
        let Some(slot) = self.prepare_min() else {
            return super::PopNext::Empty;
        };
        let best = self.slot_min(slot);
        let time = self.nodes[best as usize].time;
        if time > limit {
            return super::PopNext::Deferred(time);
        }
        self.unlink(best);
        self.live -= 1;
        let ev = self.free_node(best);
        debug_assert!(time >= self.now, "event queue time inversion");
        self.now = time;
        super::PopNext::Popped(time, ev)
    }

    /// Delivers the next event of the staged batch, skipping entries
    /// cancelled since staging. `None` once the batch is drained.
    pub fn batch_pop(&mut self) -> Option<E> {
        while let Some((idx, gen)) = self.staged.pop_front() {
            if self.nodes[idx as usize].gen != gen {
                continue;
            }
            self.staged_live -= 1;
            return Some(self.free_node(idx));
        }
        None
    }

    /// Timestamp of the next live event, if any. `&self`: the candidate
    /// scan reads bitmaps and slot lists without cascading.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.staged_live > 0 {
            return Some(self.staged_time);
        }
        if self.live == 0 {
            return None;
        }
        if let Some(slot) = self.min_slot {
            return Some(self.slot_min_time(0, slot as usize));
        }
        let mut best: Option<SimTime> = None;
        for k in 0..LEVELS {
            if let Some((slot, l_tick)) = self.candidate(k) {
                let start_ns = (l_tick << (k as u32 * LEVEL_BITS)) << GRAN_SHIFT;
                if best.is_some_and(|b| SimTime::from_nanos(start_ns) >= b) {
                    continue; // every entry in the slot is at or past start
                }
                let m = self.slot_min_time(k, slot);
                if best.is_none_or(|b| m < b) {
                    best = Some(m);
                }
            }
        }
        if let Some((t, _, _)) = self.overflow_min {
            if best.is_none_or(|b| t < b) {
                best = Some(t);
            }
        }
        best
    }

    /// Number of pending events (wheel, overflow, and undelivered staged
    /// entries). Exact: cancellation removes entries immediately, so no
    /// cancelled-but-unreaped corpses are ever counted.
    pub fn len(&self) -> usize {
        self.live + self.staged_live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---- slab ----------------------------------------------------------

    /// Allocates a slab node for `event`, reusing the free list.
    fn alloc(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                let n = &mut self.nodes[idx as usize];
                debug_assert!(n.event.is_none(), "free-list slot holds an event");
                n.time = time;
                n.seq = seq;
                n.event = Some(event);
                idx
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node {
                    time,
                    seq,
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    loc: Loc::Free,
                    event: Some(event),
                });
                idx
            }
        }
    }

    /// Takes the event out of `idx`, bumps the generation (invalidating
    /// outstanding tokens), and returns the slot to the free list.
    fn free_node(&mut self, idx: u32) -> E {
        let n = &mut self.nodes[idx as usize];
        n.gen = n.gen.wrapping_add(1);
        n.loc = Loc::Free;
        n.prev = NIL;
        n.next = NIL;
        let ev = n.event.take().expect("freed a dead wheel entry");
        self.free.push(idx);
        ev
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
    /// relative to it. Needed only when an extraction deferred past its
    /// limit (`pop_within`, `pop_batch_within`) had cascaded the cursor
    /// ahead of the clock and a caller then schedules between the two —
    /// a run stopped mid-way and acted on. O(live); a run loop that only
    /// schedules at or after its last delivery never gets here.
    #[cold]
    fn rewind(&mut self, tick: u64) {
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
            Loc::Free | Loc::Staged => unreachable!("unlink of an unlinked entry"),
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

    /// Cascades until the globally minimal live event sits in level 0,
    /// returning its slot; advances the cursor lazily. `None` if nothing
    /// is live. Amortized O(1): every cascade drops its entries at least
    /// one level.
    fn prepare_min(&mut self) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        if let Some(slot) = self.min_slot {
            return Some(slot as usize);
        }
        loop {
            // Minimum slot-start in ticks across levels and overflow.
            // `<=` keeps the *coarsest* holder on ties, so same-tick
            // events merge into level 0 before any delivery.
            let mut best_start = u64::MAX;
            let mut best_level = usize::MAX;
            let mut best_slot = 0usize;
            for k in 0..LEVELS {
                if let Some((slot, l_tick)) = self.candidate(k) {
                    let start = l_tick << (k as u32 * LEVEL_BITS);
                    if start <= best_start {
                        best_start = start;
                        best_level = k;
                        best_slot = slot;
                    }
                }
            }
            if let Some((t, _, _)) = self.overflow_min {
                let tick = t.as_nanos() >> GRAN_SHIFT;
                if tick <= best_start {
                    best_start = tick;
                    best_level = LEVELS;
                }
            }
            debug_assert_ne!(best_level, usize::MAX, "live count drifted");
            // Lazy cursor advance — never past the minimum live tick.
            // (A candidate start can sit below the cursor when it is the
            // cursor's own partially-elapsed coarse slot; never move back.)
            if best_start > self.cur_tick {
                self.cur_tick = best_start;
            }
            if best_level == 0 {
                self.min_slot = Some(best_slot as u8);
                return Some(best_slot);
            }
            if best_level == LEVELS {
                self.cascade_overflow();
            } else {
                self.cascade_slot(best_level, best_slot);
            }
        }
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

    /// The entry with minimal `(time, seq)` in level-0 `slot` (nonempty).
    fn slot_min(&self, slot: usize) -> u32 {
        let mut idx = self.heads[0][slot];
        debug_assert_ne!(idx, NIL, "slot_min on an empty slot");
        let mut best = idx;
        let mut best_key = {
            let n = &self.nodes[idx as usize];
            (n.time, n.seq)
        };
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

    /// The minimal timestamp in `level`/`slot` (nonempty).
    fn slot_min_time(&self, level: usize, slot: usize) -> SimTime {
        let mut best = SimTime::MAX;
        let mut idx = self.heads[level][slot];
        debug_assert_ne!(idx, NIL, "slot_min_time on an empty slot");
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if n.time < best {
                best = n.time;
            }
            idx = n.next;
        }
        best
    }

    /// Validates every structural invariant (test support).
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
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
        let staged_valid = self
            .staged
            .iter()
            .filter(|&&(i, g)| self.nodes[i as usize].gen == g)
            .count();
        assert_eq!(staged_valid, self.staged_live, "staged count drift");
        assert_eq!(
            self.live + self.staged_live + self.free.len(),
            self.nodes.len(),
            "slab leak"
        );
    }
}
