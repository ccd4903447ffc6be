//! Processor-assignment dwell ledger: every nanosecond of every CPU,
//! attributed to the address space that *held* the processor.
//!
//! The [`TimeLedger`](crate::TimeLedger) answers "what was each CPU
//! doing"; this ledger answers the allocator's question: "who owned it,
//! for how long, and which decision took it away". Each CPU's history is
//! a sequence of [`DwellEpisode`]s — half-open intervals during which
//! the CPU's assignment did not change — and the episodes of one CPU
//! partition the run's makespan *exactly*, in integer nanoseconds
//! ([`DwellLedger::verify`], the same no-epsilon discipline as
//! `TimeLedger::verify`).
//!
//! Episodes carry the allocator decision ids that opened and closed
//! them, so churn diagnostics (dwell histograms, flap counts, windowed
//! reallocation rates) can be joined back to the specific decisions a
//! policy change must suppress.
//!
//! **Storage.** An episode is stored as a 32-B row: its start and end,
//! the opening and closing decision ids as `u32`s, the processor, and
//! the space, with `u32::MAX` for an unassigned processor. Readers get
//! [`DwellEpisode`]s by value ([`DwellLedger::episodes`]). The start is
//! stored even though it equals the end of the CPU's previous episode,
//! so [`DwellLedger::verify`] checks contiguity against what was
//! recorded rather than assuming it.

use crate::paged::{PagedVec, SharedPage};
use crate::time::{SimDuration, SimTime};

/// Episodes per page of the ledger's record stream (128 KiB pages).
const EPISODE_PAGE: usize = 4096;

/// The stored space of an unassigned processor.
const UNASSIGNED: u32 = u32::MAX;

/// One maximal interval during which a CPU's assignment was constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwellEpisode {
    /// The processor.
    pub cpu: u32,
    /// The space that held it, or `None` while unassigned.
    pub space: Option<u32>,
    /// When the assignment began.
    pub start: SimTime,
    /// When it ended (episode is the half-open `[start, end)`).
    pub end: SimTime,
    /// Allocator decision that opened the episode (0 = none: boot, or a
    /// release not driven by a recorded decision).
    pub opened_by: u64,
    /// Allocator decision that ended it (0 = none: voluntary release,
    /// space completion, or end-of-run seal).
    pub closed_by: u64,
}

impl DwellEpisode {
    /// The episode's length.
    pub fn dwell(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// An episode as the ledger stores it (module docs, "Storage").
#[derive(Debug, Clone, Copy)]
struct EpisodeRow {
    start: SimTime,
    end: SimTime,
    opened_by: u32,
    closed_by: u32,
    cpu: u32,
    /// The holding space, or [`UNASSIGNED`].
    space: u32,
}

// The ledger's memory figures (DESIGN.md §6, "Storage") assume this row
// size: a layout change must fail here, not only in the peak-RSS gates.
const _: () = assert!(core::mem::size_of::<EpisodeRow>() == 32);

impl EpisodeRow {
    fn unpack(&self) -> DwellEpisode {
        DwellEpisode {
            cpu: self.cpu,
            space: (self.space != UNASSIGNED).then_some(self.space),
            start: self.start,
            end: self.end,
            opened_by: self.opened_by.into(),
            closed_by: self.closed_by.into(),
        }
    }
}

/// The ledger's record stream of packed episode rows.
type EpisodeRows = PagedVec<EpisodeRow, EPISODE_PAGE, SharedPage<EpisodeRow>>;

/// Per-window churn rollup derived from the episode stream
/// (see [`DwellLedger::churn_windows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnWindow {
    /// Window index (window `w` covers `[w*width, (w+1)*width)`).
    pub window: u64,
    /// Assignment changes driven by an allocator decision whose episode
    /// ended inside this window.
    pub reallocations: u64,
    /// Assigned episodes that *ended* inside this window.
    pub episodes_ended: u64,
    /// Summed dwell (ns) of the assigned episodes ending here (mean
    /// dwell = `dwell_ns / episodes_ended`).
    pub dwell_ns: u64,
}

/// Append-only record of per-CPU assignment episodes.
///
/// The kernel calls [`DwellLedger::assign`] on every grant and
/// [`DwellLedger::release`] on every release; a snapshot for reporting
/// is a clone with [`DwellLedger::seal`] applied, which closes the open
/// tail episodes so the partition covers the whole makespan.
///
/// Episodes live in fixed pages that never move: growth allocates one
/// page and copies nothing. A snapshot shares every full page with the
/// ledger it was cloned from and copies only the partly filled last
/// page, so sealing it appends to its own page and neither side's
/// later episodes show in the other.
#[derive(Debug, Clone)]
pub struct DwellLedger {
    /// Per-CPU open episode: (space or [`UNASSIGNED`], start, opening
    /// decision).
    open: Vec<(u32, SimTime, u32)>,
    episodes: EpisodeRows,
    sealed: bool,
}

impl DwellLedger {
    /// Creates a ledger for `n_cpus` processors, all unassigned from
    /// time zero.
    pub fn new(n_cpus: usize) -> Self {
        DwellLedger {
            open: vec![(UNASSIGNED, SimTime::ZERO, 0); n_cpus],
            episodes: PagedVec::new(),
            sealed: false,
        }
    }

    /// Closes `cpu`'s open episode at `now` by `decision` and opens one
    /// held by `next` (a space or [`UNASSIGNED`]). Panics on a decision
    /// id above `u32::MAX`, which the row has no room for.
    fn close(&mut self, cpu: usize, now: SimTime, decision: u64, next: u32) {
        let decision = u32::try_from(decision)
            .unwrap_or_else(|_| panic!("dwell ledger: decision id {decision} above u32::MAX"));
        let (space, start, opened_by) = self.open[cpu];
        debug_assert!(now >= start, "dwell episode closing before it opened");
        self.episodes.push(EpisodeRow {
            start,
            end: now,
            opened_by,
            closed_by: decision,
            cpu: cpu as u32,
            space,
        });
        self.open[cpu] = (next, now, decision);
    }

    /// Records that `cpu` was granted to `space` at `now` by `decision`.
    /// Panics on space `u32::MAX`, which marks an unassigned processor.
    pub fn assign(&mut self, cpu: usize, space: u32, now: SimTime, decision: u64) {
        debug_assert!(!self.sealed);
        assert_ne!(
            space, UNASSIGNED,
            "dwell ledger: space id u32::MAX marks an unassigned processor"
        );
        self.close(cpu, now, decision, space);
    }

    /// Records that `cpu` was released from its owner at `now` by
    /// `decision` (0 when the release was voluntary, not an allocator
    /// preemption).
    pub fn release(&mut self, cpu: usize, now: SimTime, decision: u64) {
        debug_assert!(!self.sealed);
        self.close(cpu, now, decision, UNASSIGNED);
    }

    /// Closes every open episode at `now` so the per-CPU partitions are
    /// complete. Call on a clone at reporting time (mirrors the
    /// windowed-ledger snapshot discipline).
    pub fn seal(&mut self, now: SimTime) {
        debug_assert!(!self.sealed);
        for cpu in 0..self.open.len() {
            self.close(cpu, now, 0, UNASSIGNED);
        }
        self.sealed = true;
    }

    /// Number of CPUs tracked.
    pub fn num_cpus(&self) -> usize {
        self.open.len()
    }

    /// All closed episodes, in close order.
    pub fn episodes(&self) -> Episodes<'_> {
        Episodes {
            rows: &self.episodes,
        }
    }

    /// Checks the conservation invariant, exactly, in nanoseconds: for
    /// each CPU, the episodes (in order) are contiguous from time zero
    /// to `makespan`, with no gap, overlap, or negative length. Requires
    /// a sealed ledger (otherwise the open tails are uncovered). On
    /// failure, reports the first fault of the lowest-numbered failing
    /// CPU.
    pub fn verify(&self, makespan: SimTime) -> Result<(), String> {
        if !self.sealed {
            return Err("dwell ledger not sealed".into());
        }
        // One walk of the stream per block of CPUs (a single walk on any
        // machine the simulator models), with the block's cursors on the
        // stack, so a check allocates nothing unless it fails.
        const BLOCK: usize = 64;
        for base in (0..self.open.len()).step_by(BLOCK) {
            let cpus = base..self.open.len().min(base + BLOCK);
            // Per CPU, where its episodes have reached so far.
            let mut reached = [SimTime::ZERO; BLOCK];
            // The first fault of the lowest-numbered CPU found faulty.
            let mut fault: Option<(usize, String)> = None;
            for ep in &self.episodes {
                let cpu = ep.cpu as usize;
                if !cpus.contains(&cpu) || fault.as_ref().is_some_and(|(f, _)| *f <= cpu) {
                    continue;
                }
                let cursor = &mut reached[cpu - base];
                if ep.start != *cursor {
                    let (start, cursor) = (ep.start.as_nanos(), cursor.as_nanos());
                    let msg = format!(
                        "cpu{cpu}: episode starts at {start} ns, previous ended at {cursor} ns"
                    );
                    fault = Some((cpu, msg));
                } else if ep.end < ep.start {
                    fault = Some((cpu, format!("cpu{cpu}: episode ends before it starts")));
                } else {
                    *cursor = ep.end;
                }
            }
            let walked_clean = fault.as_ref().map_or(cpus.end, |(f, _)| *f);
            for cpu in base..walked_clean {
                if reached[cpu - base] != makespan {
                    return Err(format!(
                        "cpu{cpu}: episodes cover [0, {}] ns, makespan is {} ns",
                        reached[cpu - base].as_nanos(),
                        makespan.as_nanos()
                    ));
                }
            }
            if let Some((_, msg)) = fault {
                return Err(msg);
            }
        }
        Ok(())
    }

    /// One past the highest space index that ever held a processor.
    pub fn num_spaces(&self) -> usize {
        self.episodes()
            .iter()
            .filter_map(|e| e.space)
            .map(|s| s as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Per-space count of *flaps*: assigned episodes shorter than
    /// `threshold` — processors yanked back before the space could use
    /// them.
    pub fn flap_counts(&self, threshold: SimDuration) -> Vec<u64> {
        let mut out = vec![0u64; self.num_spaces()];
        for ep in self.episodes() {
            if let Some(sp) = ep.space {
                if ep.dwell() < threshold {
                    out[sp as usize] += 1;
                }
            }
        }
        out
    }

    /// Windowed churn series of width `width`: per window, how many
    /// decision-driven reallocations landed there and the dwell mass of
    /// the assigned episodes that ended there. Windows with no activity
    /// are included (zeroed) so the series is dense up to the last
    /// episode end.
    pub fn churn_windows(&self, width: SimDuration) -> Vec<ChurnWindow> {
        let width_ns = width.as_nanos();
        assert!(width_ns > 0, "zero churn window width");
        let last_end = self
            .episodes()
            .iter()
            .map(|e| e.end.as_nanos())
            .max()
            .unwrap_or(0);
        if last_end == 0 {
            return Vec::new();
        }
        let n = last_end.div_ceil(width_ns);
        let mut out: Vec<ChurnWindow> = (0..n)
            .map(|window| ChurnWindow {
                window,
                reallocations: 0,
                episodes_ended: 0,
                dwell_ns: 0,
            })
            .collect();
        for ep in self.episodes() {
            // An episode ending exactly on the makespan belongs to the
            // last real window, not a phantom one past the end.
            let w = ((ep.end.as_nanos().min(last_end - 1)) / width_ns) as usize;
            if ep.closed_by != 0 {
                out[w].reallocations += 1;
            }
            if ep.space.is_some() {
                out[w].episodes_ended += 1;
                out[w].dwell_ns += ep.dwell().as_nanos();
            }
        }
        out
    }
}

/// A ledger's closed episodes, in close order, read by value (see
/// [`DwellLedger::episodes`]).
#[derive(Clone, Copy)]
pub struct Episodes<'a> {
    rows: &'a EpisodeRows,
}

impl<'a> Episodes<'a> {
    /// Number of episodes.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no episode has closed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates the episodes in close order.
    pub fn iter(&self) -> EpisodeIter<'a> {
        EpisodeIter {
            rows: self.rows.iter(),
        }
    }

    /// Where episode `i`'s row is stored, so a test can check that two
    /// snapshots share a page rather than hold copies.
    #[doc(hidden)]
    pub fn row_address(&self, i: usize) -> *const () {
        (&self.rows[i] as *const EpisodeRow).cast()
    }
}

impl core::fmt::Debug for Episodes<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Episodes<'a> {
    type Item = DwellEpisode;
    type IntoIter = EpisodeIter<'a>;

    fn into_iter(self) -> EpisodeIter<'a> {
        self.iter()
    }
}

/// The episodes of an [`Episodes`] view, by value.
#[derive(Clone)]
pub struct EpisodeIter<'a> {
    rows: core::iter::Flatten<core::slice::Iter<'a, SharedPage<EpisodeRow>>>,
}

impl Iterator for EpisodeIter<'_> {
    type Item = DwellEpisode;

    fn next(&mut self) -> Option<DwellEpisode> {
        self.rows.next().map(EpisodeRow::unpack)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl DoubleEndedIterator for EpisodeIter<'_> {
    fn next_back(&mut self) -> Option<DwellEpisode> {
        self.rows.next_back().map(EpisodeRow::unpack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn episodes_partition_the_makespan() {
        let mut d = DwellLedger::new(2);
        d.assign(0, 5, t(10), 1);
        d.release(0, t(40), 2);
        d.assign(0, 6, t(40), 3);
        d.assign(1, 5, t(25), 4);
        d.seal(t(100));
        d.verify(t(100)).unwrap();
        // cpu0: [0,10) none, [10,40) as5, [40,40) none? no — assign at 40
        // closed the none-episode opened by release at 40 (zero length).
        let cpu0: Vec<DwellEpisode> = d.episodes().iter().filter(|e| e.cpu == 0).collect();
        assert_eq!(cpu0.len(), 4);
        assert_eq!(cpu0[1].space, Some(5));
        assert_eq!(cpu0[1].dwell(), SimDuration::from_micros(30));
        assert_eq!(cpu0[1].opened_by, 1);
        assert_eq!(cpu0[1].closed_by, 2);
        assert_eq!(cpu0[3].space, Some(6));
        assert_eq!(cpu0[3].closed_by, 0); // sealed, not decided
    }

    #[test]
    fn verify_requires_seal_and_exactness() {
        let mut d = DwellLedger::new(1);
        d.assign(0, 0, t(10), 1);
        assert!(d.verify(t(10)).is_err()); // not sealed
        d.seal(t(50));
        assert!(d.verify(t(49)).is_err()); // off by 1us, rejected
        d.verify(t(50)).unwrap();
    }

    #[test]
    fn verify_reports_the_lowest_numbered_failing_cpu() {
        // Both CPUs miss the makespan, and cpu1's first episode is first
        // in the stream: cpu0 is still the one reported.
        let mut d = DwellLedger::new(2);
        d.assign(1, 0, t(10), 1);
        d.assign(0, 0, t(20), 2);
        d.seal(t(50));
        assert_eq!(
            d.verify(t(60)),
            Err("cpu0: episodes cover [0, 50000] ns, makespan is 60000 ns".into())
        );
        // A contiguity fault read first on cpu1 still loses to cpu0's
        // short cover: the lowest-numbered failing CPU is reported.
        let row = |cpu, start, end| EpisodeRow {
            start: t(start),
            end: t(end),
            opened_by: 0,
            closed_by: 0,
            cpu,
            space: UNASSIGNED,
        };
        let mut d = DwellLedger::new(2);
        d.episodes.push(row(1, 5, 50));
        d.episodes.push(row(0, 0, 40));
        d.sealed = true;
        assert_eq!(
            d.verify(t(50)),
            Err("cpu0: episodes cover [0, 40000] ns, makespan is 50000 ns".into())
        );
        d.episodes.push(row(0, 40, 50));
        assert_eq!(
            d.verify(t(50)),
            Err("cpu1: episode starts at 5000 ns, previous ended at 0 ns".into())
        );
        // Past the first block of 64 CPUs: a clean ledger verifies, and a
        // fault in the third block is found.
        let mut d = DwellLedger::new(130);
        for cpu in 0..130 {
            d.assign(cpu, 1, t(cpu as u64), 1);
        }
        d.seal(t(200));
        d.verify(t(200)).unwrap();
        d.episodes.push(row(129, 7, 9));
        assert_eq!(
            d.verify(t(200)),
            Err("cpu129: episode starts at 7000 ns, previous ended at 200000 ns".into())
        );
    }

    #[test]
    fn histograms_and_flaps_roll_up_per_space() {
        let mut d = DwellLedger::new(1);
        d.assign(0, 0, t(0), 1);
        d.release(0, t(3), 2); // 3us dwell: a flap at 10us threshold
        d.assign(0, 1, t(3), 3);
        d.release(0, t(53), 4); // 50us dwell
        d.seal(t(60));
        assert_eq!(
            d.flap_counts(SimDuration::from_micros(10)),
            vec![1, 0],
            "only the 3us episode flaps"
        );
    }

    #[test]
    fn churn_windows_bucket_episode_ends() {
        let mut d = DwellLedger::new(1);
        d.assign(0, 0, t(10), 1);
        d.release(0, t(90), 2); // ends in window 0
        d.assign(0, 1, t(90), 3);
        d.seal(t(250)); // assigned episode ends at 250 (window 2)
        let w = d.churn_windows(SimDuration::from_micros(100));
        assert_eq!(w.len(), 3);
        // Window 0: grant@10 (closes the boot none-episode), release@90,
        // and the same-instant re-grant@90 — three assignment changes.
        assert_eq!(w[0].reallocations, 3);
        assert_eq!(w[0].episodes_ended, 1);
        assert_eq!(w[0].dwell_ns, 80_000);
        assert_eq!(w[1].reallocations, 0);
        // Seal closes with decision 0: counted as an episode end, not a
        // reallocation; end==250 lands in the last real window.
        assert_eq!(w[2].reallocations, 0);
        assert_eq!(w[2].episodes_ended, 1);
        assert_eq!(w[2].dwell_ns, 160_000);
    }

    #[test]
    fn empty_ledger_is_trivially_conserved() {
        let mut d = DwellLedger::new(3);
        d.seal(SimTime::ZERO);
        d.verify(SimTime::ZERO).unwrap();
        assert_eq!(d.num_spaces(), 0);
        assert!(d.churn_windows(SimDuration::from_micros(1)).is_empty());
    }

    /// One assignment change: `(cpu, space or None for a release, time
    /// step, decision id)`.
    type Change = (usize, Option<u32>, u64, u64);

    fn changes() -> impl Strategy<Value = Change> {
        let space = prop_oneof![
            Just(None),
            (0u32..8).prop_map(Some),
            (0u32..u32::MAX).prop_map(Some),
            Just(Some(u32::MAX - 1)),
        ];
        let decision = prop_oneof![
            Just(0u64),
            0u64..1 << 20,
            0u64..=u64::from(u32::MAX),
            Just(u64::from(u32::MAX)),
        ];
        (0usize..4, space, 0u64..1 << 40, decision)
    }

    proptest! {
        /// Episodes read back exactly as the changes made them, assigned
        /// or not, with decision ids up to `u32::MAX`, forward, backward
        /// and by `for ep in ledger.episodes()`; and they still partition
        /// the makespan.
        #[test]
        fn episodes_read_back_as_pushed(ops in prop::collection::vec(changes(), 0..200)) {
            let mut d = DwellLedger::new(4);
            let mut open = [(None, SimTime::ZERO, 0u64); 4];
            let mut model = Vec::new();
            let mut now = SimTime::ZERO;
            let mut close = |cpu: usize, now, closed_by, next, model: &mut Vec<_>| {
                let (space, start, opened_by) = open[cpu];
                model.push(DwellEpisode {
                    cpu: cpu as u32,
                    space,
                    start,
                    end: now,
                    opened_by,
                    closed_by,
                });
                open[cpu] = (next, now, closed_by);
            };
            for &(cpu, space, step, decision) in &ops {
                now = SimTime::from_nanos(now.as_nanos() + step);
                match space {
                    Some(s) => d.assign(cpu, s, now, decision),
                    None => d.release(cpu, now, decision),
                }
                close(cpu, now, decision, space, &mut model);
            }
            d.seal(now);
            for cpu in 0..4 {
                close(cpu, now, 0, None, &mut model);
            }
            d.verify(now).unwrap();
            let episodes = d.episodes();
            prop_assert_eq!(episodes.len(), model.len());
            prop_assert_eq!(episodes.is_empty(), model.is_empty());
            prop_assert_eq!(episodes.iter().collect::<Vec<_>>(), model.clone());
            prop_assert!(episodes.iter().rev().eq(model.iter().rev().copied()));
            let mut looped = Vec::new();
            for ep in d.episodes() {
                looped.push(ep);
            }
            prop_assert_eq!(looped, model);
        }
    }

    #[test]
    #[should_panic(expected = "above u32::MAX")]
    fn an_episode_decision_id_of_2_pow_32_does_not_pack() {
        let mut d = DwellLedger::new(1);
        d.assign(0, 0, t(1), 1 << 32);
    }

    #[test]
    #[should_panic(expected = "marks an unassigned processor")]
    fn a_dwell_space_id_of_u32_max_is_refused() {
        let mut d = DwellLedger::new(1);
        d.assign(0, u32::MAX, t(1), 1);
    }
}
