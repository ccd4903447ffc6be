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

use crate::paged::{PagedVec, SharedPage};
use crate::time::{SimDuration, SimTime};

/// Episodes per page of the ledger's record stream (192 KiB pages).
const EPISODE_PAGE: usize = 4096;

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

// The ledger's memory figures (DESIGN.md §6, "Storage") assume this row
// size: a layout change must fail here, not only in the peak-RSS gates.
const _: () = assert!(core::mem::size_of::<DwellEpisode>() == 48);

impl DwellEpisode {
    /// The episode's length.
    pub fn dwell(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

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
    /// Per-CPU open episode: (space, start, opening decision).
    open: Vec<(Option<u32>, SimTime, u64)>,
    episodes: PagedVec<DwellEpisode, EPISODE_PAGE, SharedPage<DwellEpisode>>,
    sealed: bool,
}

impl DwellLedger {
    /// Creates a ledger for `n_cpus` processors, all unassigned from
    /// time zero.
    pub fn new(n_cpus: usize) -> Self {
        DwellLedger {
            open: vec![(None, SimTime::ZERO, 0); n_cpus],
            episodes: PagedVec::new(),
            sealed: false,
        }
    }

    fn close(&mut self, cpu: usize, now: SimTime, decision: u64, next: Option<u32>) {
        let (space, start, opened_by) = self.open[cpu];
        debug_assert!(now >= start, "dwell episode closing before it opened");
        self.episodes.push(DwellEpisode {
            cpu: cpu as u32,
            space,
            start,
            end: now,
            opened_by,
            closed_by: decision,
        });
        self.open[cpu] = (next, now, decision);
    }

    /// Records that `cpu` was granted to `space` at `now` by `decision`.
    pub fn assign(&mut self, cpu: usize, space: u32, now: SimTime, decision: u64) {
        debug_assert!(!self.sealed);
        self.close(cpu, now, decision, Some(space));
    }

    /// Records that `cpu` was released from its owner at `now` by
    /// `decision` (0 when the release was voluntary, not an allocator
    /// preemption).
    pub fn release(&mut self, cpu: usize, now: SimTime, decision: u64) {
        debug_assert!(!self.sealed);
        self.close(cpu, now, decision, None);
    }

    /// Closes every open episode at `now` so the per-CPU partitions are
    /// complete. Call on a clone at reporting time (mirrors the
    /// windowed-ledger snapshot discipline).
    pub fn seal(&mut self, now: SimTime) {
        debug_assert!(!self.sealed);
        for cpu in 0..self.open.len() {
            self.close(cpu, now, 0, None);
        }
        self.sealed = true;
    }

    /// Number of CPUs tracked.
    pub fn num_cpus(&self) -> usize {
        self.open.len()
    }

    /// All closed episodes, in close order.
    pub fn episodes(&self) -> &PagedVec<DwellEpisode, EPISODE_PAGE, SharedPage<DwellEpisode>> {
        &self.episodes
    }

    /// Checks the conservation invariant, exactly, in nanoseconds: for
    /// each CPU, the episodes (in order) are contiguous from time zero
    /// to `makespan`, with no gap, overlap, or negative length. Requires
    /// a sealed ledger (otherwise the open tails are uncovered).
    pub fn verify(&self, makespan: SimTime) -> Result<(), String> {
        if !self.sealed {
            return Err("dwell ledger not sealed".into());
        }
        for cpu in 0..self.open.len() {
            let mut cursor = SimTime::ZERO;
            for ep in self.episodes.iter().filter(|e| e.cpu == cpu as u32) {
                if ep.start != cursor {
                    return Err(format!(
                        "cpu{cpu}: episode starts at {} ns, previous ended at {} ns",
                        ep.start.as_nanos(),
                        cursor.as_nanos()
                    ));
                }
                if ep.end < ep.start {
                    return Err(format!("cpu{cpu}: episode ends before it starts"));
                }
                cursor = ep.end;
            }
            if cursor != makespan {
                return Err(format!(
                    "cpu{cpu}: episodes cover [0, {}] ns, makespan is {} ns",
                    cursor.as_nanos(),
                    makespan.as_nanos()
                ));
            }
        }
        Ok(())
    }

    /// One past the highest space index that ever held a processor.
    pub fn num_spaces(&self) -> usize {
        self.episodes
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
        for ep in &self.episodes {
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
            .episodes
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
        for ep in &self.episodes {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let cpu0: Vec<_> = d.episodes().iter().filter(|e| e.cpu == 0).collect();
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
}
