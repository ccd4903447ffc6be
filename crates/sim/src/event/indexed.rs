//! The indexed binary-heap event core, retained as the differential
//! baseline for the timing wheel (selectable via `EventCore::Indexed`).
//!
//! A slab-backed indexed min-heap ordered by `(time, seq)`: every live
//! entry's heap position is tracked in its slab node, so cancellation
//! removes eagerly in O(log n) (no corpses, no hash probes) and `len` is
//! an exact live count. Pop order is the unique ascending `(time, seq)`
//! order — identical to the wheel's, which is what the three-way
//! differential proptests pin down.

use super::{BatchStart, EventToken};
use crate::time::SimTime;
use std::collections::VecDeque;

/// `heap_pos` sentinel for entries pulled into the staged batch.
const STAGED: u32 = u32::MAX;

/// A slab node: the event plus its heap bookkeeping.
///
/// `event` is `None` while the slot sits on the free list; `heap_pos` is
/// the heap index while queued, or [`STAGED`] while awaiting batch
/// delivery.
struct Node<E> {
    time: SimTime,
    seq: u64,
    gen: u32,
    heap_pos: u32,
    event: Option<E>,
}

/// The indexed-heap event core.
pub struct IndexedQueue<E> {
    /// Slab of nodes, indexed by `EventToken::slot`.
    nodes: Vec<Node<E>>,
    /// Free slab slots.
    free: Vec<u32>,
    /// Binary min-heap of slab indices, ordered by `(time, seq)`.
    heap: Vec<u32>,
    /// The staged same-tick batch: `(slab slot, generation)` in delivery
    /// order. A generation mismatch marks an entry cancelled mid-batch.
    staged: VecDeque<(u32, u32)>,
    /// Staged entries not cancelled and not yet delivered.
    staged_live: usize,
    /// Timestamp shared by the staged batch.
    staged_time: SimTime,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for IndexedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> IndexedQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        IndexedQueue {
            nodes: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            staged: VecDeque::new(),
            staged_live: 0,
            staged_time: SimTime::ZERO,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time (timestamp of the most recent pop or batch).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at `time`; O(log n).
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
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len() as u32;
        let slot = match self.free.pop() {
            Some(slot) => {
                let n = &mut self.nodes[slot as usize];
                debug_assert!(n.event.is_none(), "free-list slot holds an event");
                n.time = time;
                n.seq = seq;
                n.heap_pos = pos;
                n.event = Some(event);
                slot
            }
            None => {
                let slot = self.nodes.len() as u32;
                self.nodes.push(Node {
                    time,
                    seq,
                    gen: 0,
                    heap_pos: pos,
                    event: Some(event),
                });
                slot
            }
        };
        self.heap.push(slot);
        self.sift_up(pos as usize);
        EventToken {
            slot,
            gen: self.nodes[slot as usize].gen,
        }
    }

    /// Cancels a scheduled event eagerly in O(log n). Returns whether a
    /// live event was actually removed (stale tokens are no-ops).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(node) = self.nodes.get(token.slot as usize) else {
            return false;
        };
        if node.gen != token.gen || node.event.is_none() {
            return false; // stale token: already fired or cancelled
        }
        if node.heap_pos == STAGED {
            // Mid-batch cancellation: free the node now; the batch deque
            // entry is skipped by its generation mismatch.
            self.staged_live -= 1;
            self.free_node(token.slot);
            return true;
        }
        let pos = node.heap_pos as usize;
        debug_assert_eq!(self.heap[pos], token.slot);
        self.detach_at(pos);
        self.free_node(token.slot);
        true
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Staged batch entries (see [`IndexedQueue::pop_batch`]) are served
    /// first.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some((slot, gen)) = self.staged.pop_front() {
            if self.nodes[slot as usize].gen != gen {
                continue; // cancelled while staged (slot possibly reused)
            }
            self.staged_live -= 1;
            let time = self.nodes[slot as usize].time;
            return Some((time, self.free_node(slot)));
        }
        let &slot = self.heap.first()?;
        let time = self.nodes[slot as usize].time;
        self.detach_at(0);
        debug_assert!(time >= self.now, "event queue time inversion");
        self.now = time;
        Some((time, self.free_node(slot)))
    }

    /// Stages every event at the next timestamp for delivery via
    /// [`IndexedQueue::batch_pop`], advancing the clock to that timestamp
    /// and returning it. The previous batch must be fully drained.
    pub fn pop_batch(&mut self) -> Option<SimTime> {
        match self.pop_batch_within(SimTime::MAX) {
            BatchStart::Started(t) => Some(t),
            _ => None,
        }
    }

    /// [`IndexedQueue::pop_batch`] fused with a limit check: stages the
    /// next batch only if its timestamp is at or before `limit`, otherwise
    /// reports it as [`BatchStart::Deferred`] without touching the queue.
    pub fn pop_batch_within(&mut self, limit: SimTime) -> BatchStart {
        debug_assert!(self.staged_live == 0, "pop_batch with a batch pending");
        let Some(&head) = self.heap.first() else {
            return BatchStart::Empty;
        };
        let t = self.nodes[head as usize].time;
        if t > limit {
            return BatchStart::Deferred(t);
        }
        self.staged.clear();
        while let Some(&slot) = self.heap.first() {
            if self.nodes[slot as usize].time != t {
                break;
            }
            // Heap pops come out in (time, seq) order already.
            self.detach_at(0);
            let n = &mut self.nodes[slot as usize];
            n.heap_pos = STAGED;
            self.staged.push_back((slot, n.gen));
            self.staged_live += 1;
        }
        self.staged_time = t;
        debug_assert!(t >= self.now, "event queue time inversion");
        self.now = t;
        BatchStart::Started(t)
    }

    /// Fused peek + pop of a single event: delivers the next live event if
    /// it fires at or before `limit`, else reports it without touching the
    /// queue. Per-event counterpart of [`IndexedQueue::pop_batch_within`]
    /// with identical delivery order. Staged entries are served first so
    /// the two APIs interleave safely.
    pub fn pop_within(&mut self, limit: SimTime) -> super::PopNext<E> {
        while let Some((slot, gen)) = self.staged.pop_front() {
            if self.nodes[slot as usize].gen != gen {
                continue;
            }
            self.staged_live -= 1;
            let time = self.nodes[slot as usize].time;
            return super::PopNext::Popped(time, self.free_node(slot));
        }
        let Some(&slot) = self.heap.first() else {
            return super::PopNext::Empty;
        };
        let time = self.nodes[slot as usize].time;
        if time > limit {
            return super::PopNext::Deferred(time);
        }
        self.detach_at(0);
        debug_assert!(time >= self.now, "event queue time inversion");
        self.now = time;
        super::PopNext::Popped(time, self.free_node(slot))
    }

    /// Delivers the next event of the staged batch, skipping entries
    /// cancelled since staging. `None` once the batch is drained.
    pub fn batch_pop(&mut self) -> Option<E> {
        while let Some((slot, gen)) = self.staged.pop_front() {
            if self.nodes[slot as usize].gen != gen {
                continue;
            }
            self.staged_live -= 1;
            return Some(self.free_node(slot));
        }
        None
    }

    /// Timestamp of the next live event without popping it, if any.
    /// O(1) and immutable: eager cancellation keeps the heap head live.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.staged_live > 0 {
            return Some(self.staged_time);
        }
        self.heap
            .first()
            .map(|&slot| self.nodes[slot as usize].time)
    }

    /// Number of pending events (queued plus undelivered staged entries).
    /// Exact: cancellation removes entries immediately, so no
    /// cancelled-but-unreaped corpses are ever counted.
    pub fn len(&self) -> usize {
        self.heap.len() + self.staged_live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // ---- heap internals ------------------------------------------------

    /// Takes the event out of `slot`, bumps the generation (invalidating
    /// outstanding tokens), and returns the slot to the free list.
    fn free_node(&mut self, slot: u32) -> E {
        let node = &mut self.nodes[slot as usize];
        node.gen = node.gen.wrapping_add(1);
        let ev = node.event.take().expect("freed a dead heap entry");
        self.free.push(slot);
        ev
    }

    /// `(time, seq)` key of the node at heap position `pos`.
    #[inline]
    fn key(&self, pos: usize) -> (SimTime, u64) {
        let n = &self.nodes[self.heap[pos] as usize];
        (n.time, n.seq)
    }

    /// Records that the node at heap position `pos` moved there.
    #[inline]
    fn place(&mut self, pos: usize) {
        let slot = self.heap[pos];
        self.nodes[slot as usize].heap_pos = pos as u32;
    }

    /// Detaches the entry at heap position `pos` from the heap, restoring
    /// the heap property around the displaced tail entry. The node keeps
    /// its event and generation (callers free or stage it).
    fn detach_at(&mut self, pos: usize) {
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos < self.heap.len() {
            // The displaced tail entry can need to move either way.
            self.place(pos);
            let moved_up = self.sift_up(pos);
            if !moved_up {
                self.sift_down(pos);
            }
        }
    }

    /// Restores the heap property upward from `pos`; returns whether the
    /// entry moved.
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let mut moved = false;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key(pos) < self.key(parent) {
                self.heap.swap(pos, parent);
                self.place(pos);
                self.place(parent);
                pos = parent;
                moved = true;
            } else {
                break;
            }
        }
        moved
    }

    /// Restores the heap property downward from `pos`.
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < len && self.key(right) < self.key(left) {
                child = right;
            }
            if self.key(child) < self.key(pos) {
                self.heap.swap(pos, child);
                self.place(pos);
                self.place(child);
                pos = child;
            } else {
                break;
            }
        }
    }

    /// Validates slab/heap cross-links (test support).
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        for (pos, &slot) in self.heap.iter().enumerate() {
            let n = &self.nodes[slot as usize];
            assert!(n.event.is_some(), "dead entry in heap at {pos}");
            assert_eq!(n.heap_pos as usize, pos, "stale heap_pos for slot {slot}");
            if pos > 0 {
                let parent = (pos - 1) / 2;
                assert!(
                    self.key(parent) <= self.key(pos),
                    "heap order violated at {pos}"
                );
            }
        }
        let staged_valid = self
            .staged
            .iter()
            .filter(|&&(i, g)| self.nodes[i as usize].gen == g)
            .count();
        assert_eq!(staged_valid, self.staged_live, "staged count drift");
        assert_eq!(
            self.heap.len() + self.staged_live + self.free.len(),
            self.nodes.len(),
            "slab leak"
        );
    }
}
