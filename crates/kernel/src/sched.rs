//! Kernel-thread ready queues.
//!
//! In [`crate::config::SchedMode::TopazNative`] there is one global queue
//! and the scheduler is oblivious to address spaces — the behaviour §2.2
//! criticizes. Under the processor allocator, each kernel-direct space has
//! its own queue and time-slices only within its allocation (§4.1).
//!
//! ## Hot-path design
//!
//! The queue keeps FIFO-within-priority order in per-level `VecDeque`s,
//! plus two indexes that keep every operation cheap:
//!
//! - a per-`KtId` **membership table** (`member`) recording the level and a
//!   push stamp, making `ReadyQueue::remove` O(1): the entry is
//!   tombstoned in place and reaped when a pop reaches it. A stamp (not
//!   just the level) distinguishes a live re-push from an old tombstone of
//!   the same thread at the same level;
//! - a cached **level bitmask** (`mask`), one bit per non-empty priority
//!   level, so `ReadyQueue::max_prio` and `ReadyQueue::has_at_least`
//!   are a handful of word operations instead of a scan over all levels.
//!   These run on every dispatch/preemption decision, which made the old
//!   linear scans the scheduler's hottest loop.

use crate::ids::KtId;
use std::collections::VecDeque;

/// Number of 64-bit words covering the full `u8` priority range.
const MASK_WORDS: usize = 4;

/// A priority ready queue: FIFO within each priority, higher priority first.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    /// Sparse per-priority queues; index = priority. Entries carry the
    /// push stamp that must match `member` to be live.
    levels: Vec<VecDeque<(KtId, u64)>>,
    /// `member[kt] = Some((prio, stamp))` while `kt` is queued.
    member: Vec<Option<(u8, u64)>>,
    /// Live entries per level (excludes tombstones).
    live: Vec<usize>,
    /// Bit `p` set ⇔ `live[p] > 0`.
    mask: [u64; MASK_WORDS],
    next_stamp: u64,
    len: usize,
}

impl ReadyQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn set_bit(&mut self, prio: u8) {
        self.mask[(prio >> 6) as usize] |= 1u64 << (prio & 63);
    }

    #[inline]
    fn clear_bit(&mut self, prio: u8) {
        self.mask[(prio >> 6) as usize] &= !(1u64 << (prio & 63));
    }

    /// Enqueues at the tail of its priority level.
    pub(crate) fn push(&mut self, kt: KtId, prio: u8) {
        let idx = prio as usize;
        if self.levels.len() <= idx {
            self.levels.resize_with(idx + 1, VecDeque::new);
            self.live.resize(idx + 1, 0);
        }
        if self.member.len() <= kt.index() {
            self.member.resize(kt.index() + 1, None);
        }
        debug_assert!(
            self.member[kt.index()].is_none(),
            "{kt} pushed while already queued"
        );
        if self.member[kt.index()].is_some() {
            // Release-mode safety net: a double push tombstones the old
            // entry so the live counts stay consistent.
            self.remove(kt);
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.member[kt.index()] = Some((prio, stamp));
        self.levels[idx].push_back((kt, stamp));
        self.live[idx] += 1;
        self.set_bit(prio);
        self.len += 1;
    }

    /// Dequeues the highest-priority, longest-waiting thread.
    pub(crate) fn pop(&mut self) -> Option<KtId> {
        let prio = self.max_prio()?;
        let idx = prio as usize;
        while let Some((kt, stamp)) = self.levels[idx].pop_front() {
            // Tombstones (removed or re-pushed entries) have a stale stamp.
            if self.member[kt.index()] != Some((prio, stamp)) {
                continue;
            }
            self.member[kt.index()] = None;
            self.live[idx] -= 1;
            if self.live[idx] == 0 {
                self.clear_bit(prio);
                self.levels[idx].clear(); // reap any trailing tombstones
            }
            self.len -= 1;
            return Some(kt);
        }
        unreachable!("mask bit set for a level with no live entries");
    }

    /// Highest priority currently queued.
    pub(crate) fn max_prio(&self) -> Option<u8> {
        for w in (0..MASK_WORDS).rev() {
            if self.mask[w] != 0 {
                let top = 63 - self.mask[w].leading_zeros() as usize;
                return Some((w * 64 + top) as u8);
            }
        }
        None
    }

    /// True if a thread of priority `>= prio` is waiting.
    pub(crate) fn has_at_least(&self, prio: u8) -> bool {
        let word = (prio >> 6) as usize;
        let above_in_word = self.mask[word] >> (prio & 63) != 0;
        above_in_word || self.mask[word + 1..].iter().any(|&w| w != 0)
    }

    /// Removes a specific thread (teardown paths) in O(1): the queue entry
    /// is tombstoned and reaped lazily by [`ReadyQueue::pop`].
    pub(crate) fn remove(&mut self, kt: KtId) -> bool {
        let Some(Some((prio, _))) = self.member.get(kt.index()).copied() else {
            return false;
        };
        self.member[kt.index()] = None;
        let idx = prio as usize;
        self.live[idx] -= 1;
        if self.live[idx] == 0 {
            self.clear_bit(prio);
            self.levels[idx].clear();
        }
        self.len -= 1;
        true
    }

    /// Number of queued threads.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_priority() {
        let mut q = ReadyQueue::new();
        q.push(KtId(1), 1);
        q.push(KtId(2), 1);
        assert_eq!(q.pop(), Some(KtId(1)));
        assert_eq!(q.pop(), Some(KtId(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn higher_priority_first() {
        let mut q = ReadyQueue::new();
        q.push(KtId(1), 1);
        q.push(KtId(2), 5);
        q.push(KtId(3), 1);
        assert_eq!(q.pop(), Some(KtId(2)));
        assert_eq!(q.pop(), Some(KtId(1)));
        assert_eq!(q.pop(), Some(KtId(3)));
    }

    #[test]
    fn max_prio_and_has_at_least() {
        let mut q = ReadyQueue::new();
        assert_eq!(q.max_prio(), None);
        q.push(KtId(1), 2);
        assert_eq!(q.max_prio(), Some(2));
        assert!(q.has_at_least(2));
        assert!(q.has_at_least(1));
        assert!(!q.has_at_least(3));
    }

    #[test]
    fn remove_specific() {
        let mut q = ReadyQueue::new();
        q.push(KtId(1), 1);
        q.push(KtId(2), 1);
        assert!(q.remove(KtId(1)));
        assert!(!q.remove(KtId(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some(KtId(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn remove_then_repush_same_level_keeps_fifo() {
        let mut q = ReadyQueue::new();
        q.push(KtId(1), 1);
        q.push(KtId(2), 1);
        assert!(q.remove(KtId(1)));
        // Re-push at the same level: kt1 must now be *behind* kt2, even
        // though its tombstone sits ahead of kt2 in the deque.
        q.push(KtId(1), 1);
        assert_eq!(q.pop(), Some(KtId(2)));
        assert_eq!(q.pop(), Some(KtId(1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn remove_then_repush_other_level() {
        let mut q = ReadyQueue::new();
        q.push(KtId(1), 1);
        q.push(KtId(2), 3);
        assert!(q.remove(KtId(2)));
        q.push(KtId(2), 0);
        assert_eq!(q.max_prio(), Some(1));
        assert_eq!(q.pop(), Some(KtId(1)));
        assert_eq!(q.pop(), Some(KtId(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn high_priority_levels_use_upper_mask_words() {
        let mut q = ReadyQueue::new();
        q.push(KtId(1), 200);
        q.push(KtId(2), 64);
        q.push(KtId(3), 0);
        assert_eq!(q.max_prio(), Some(200));
        assert!(q.has_at_least(200));
        assert!(q.has_at_least(65));
        assert!(!q.has_at_least(201));
        assert_eq!(q.pop(), Some(KtId(1)));
        assert_eq!(q.max_prio(), Some(64));
        assert_eq!(q.pop(), Some(KtId(2)));
        assert_eq!(q.pop(), Some(KtId(3)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.max_prio(), None);
    }

    #[test]
    fn len_tracks_removals_and_pops() {
        let mut q = ReadyQueue::new();
        for i in 0..10 {
            q.push(KtId(i), (i % 3) as u8);
        }
        assert_eq!(q.len(), 10);
        assert!(q.remove(KtId(4)));
        assert!(q.remove(KtId(7)));
        assert_eq!(q.len(), 8);
        let mut popped = Vec::new();
        while let Some(kt) = q.pop() {
            popped.push(kt);
        }
        assert_eq!(popped.len(), 8);
        assert!(!popped.contains(&KtId(4)));
        assert!(!popped.contains(&KtId(7)));
    }
}
