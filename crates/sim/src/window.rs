//! Windowed time-series metrics: the [`TimeLedger`](crate::TimeLedger)
//! rolled into fixed simulated-time windows.
//!
//! A [`WindowedLedger`] receives the same charge stream as the flat
//! ledger — every CPU·ns interval classified into a
//! [`CpuState`], plus the thread·ns wait gauges — but
//! distributes each interval across fixed-width windows, splitting
//! exactly at window boundaries. The result is a deterministic time
//! series of ledger-state shares and mean wait backlogs, with the same
//! conservation invariant per window that the flat ledger has for the
//! whole run: the seven state columns of every complete window sum to
//! exactly `cpus × width`.
//!
//! Charges arrive at segment *completion* (interval end), possibly out
//! of order across CPUs; distribution is pure accumulation, so order
//! does not matter. Wait gauges are level-change streams; the engine
//! integrates `level × time` per window, splitting at boundaries, so a
//! window's `area / width` is the exact time-mean backlog.

use crate::ledger::{CpuState, WaitKind};
use crate::time::{SimDuration, SimTime};

/// Fixed-window rollup of CPU-state charges and wait-gauge levels.
///
/// Windows are `[k*width, (k+1)*width)` in simulated nanoseconds and are
/// materialized on demand; `window_count` covers the highest charged or
/// integrated instant.
#[derive(Debug, Clone)]
pub struct WindowedLedger {
    width_ns: u64,
    cpus: u32,
    /// Per-window CPU·ns by state.
    states: Vec<[u64; CpuState::COUNT]>,
    /// Per-window thread·ns wait areas (level × time integral).
    wait_area: Vec<[i64; WaitKind::COUNT]>,
    /// Machine-wide current wait levels and their last change time.
    wait_level: [i64; WaitKind::COUNT],
    wait_last_ns: [u64; WaitKind::COUNT],
}

impl WindowedLedger {
    /// Creates an empty rollup with the given window width.
    pub fn new(width: SimDuration, cpus: u32) -> Self {
        let width_ns = width.as_nanos();
        assert!(width_ns > 0, "window width must be positive");
        WindowedLedger {
            width_ns,
            cpus,
            states: Vec::new(),
            wait_area: Vec::new(),
            wait_level: [0; WaitKind::COUNT],
            wait_last_ns: [0; WaitKind::COUNT],
        }
    }

    /// Window width.
    pub fn width(&self) -> SimDuration {
        SimDuration::from_nanos(self.width_ns)
    }

    /// Number of physical CPUs charged into each window.
    pub fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Number of materialized windows.
    pub fn window_count(&self) -> usize {
        self.states.len().max(self.wait_area.len())
    }

    /// Start time of window `w`.
    pub fn window_start(&self, w: usize) -> SimTime {
        SimTime::from_nanos(w as u64 * self.width_ns)
    }

    /// CPU·ns charged to `state` in window `w` (zero if unmaterialized).
    pub fn state_ns(&self, w: usize, state: CpuState) -> u64 {
        self.states.get(w).map_or(0, |row| row[state.index()])
    }

    /// Thread·ns wait area of `kind` in window `w`, clamped non-negative
    /// (transient negatives can only come from misuse; conservation is
    /// checked in [`WindowedLedger::verify`]).
    pub fn wait_area_ns(&self, w: usize, kind: WaitKind) -> u64 {
        self.wait_area
            .get(w)
            .map_or(0, |row| row[kind.index()].max(0) as u64)
    }

    /// Exact time-mean backlog of `kind` over window `w` (threads).
    pub fn wait_mean(&self, w: usize, kind: WaitKind) -> f64 {
        self.wait_area_ns(w, kind) as f64 / self.width_ns as f64
    }

    fn grow_states(&mut self, w: usize) {
        if self.states.len() <= w {
            self.states.resize(w + 1, [0; CpuState::COUNT]);
        }
    }

    fn grow_wait(&mut self, w: usize) {
        if self.wait_area.len() <= w {
            self.wait_area.resize(w + 1, [0; WaitKind::COUNT]);
        }
    }

    /// Charges `dur` of `state` ending at `end`, split exactly across
    /// the windows the interval overlaps. Mirrors the flat ledger's
    /// `charge`: every charge site passes the interval end.
    pub fn charge(&mut self, state: CpuState, end: SimTime, dur: SimDuration) {
        let dur_ns = dur.as_nanos();
        if dur_ns == 0 {
            return;
        }
        let end_ns = end.as_nanos();
        debug_assert!(end_ns >= dur_ns, "charge interval precedes time zero");
        let mut start = end_ns - dur_ns;
        let si = state.index();
        while start < end_ns {
            let w = (start / self.width_ns) as usize;
            let wend = (w as u64 + 1) * self.width_ns;
            let take = wend.min(end_ns) - start;
            self.grow_states(w);
            self.states[w][si] += take;
            start += take;
        }
    }

    /// Integrates the current level of `kind` up to `now_ns`, splitting
    /// the elapsed interval at window boundaries.
    fn integrate(&mut self, kind: usize, now_ns: u64) {
        let level = self.wait_level[kind];
        let mut start = self.wait_last_ns[kind];
        debug_assert!(start <= now_ns, "wait gauge time went backwards");
        if level != 0 {
            while start < now_ns {
                let w = (start / self.width_ns) as usize;
                let wend = (w as u64 + 1) * self.width_ns;
                let take = wend.min(now_ns) - start;
                self.grow_wait(w);
                self.wait_area[w][kind] += level * take as i64;
                start += take;
            }
        }
        self.wait_last_ns[kind] = now_ns;
    }

    /// Adjusts the machine-wide wait gauge of `kind` by `delta` threads
    /// at `now`. A finished space's threads leave with the negated
    /// levels [`TimeLedger::clear_waits`](crate::TimeLedger::clear_waits)
    /// returns.
    pub fn note_wait(&mut self, kind: WaitKind, now: SimTime, delta: i64) {
        let ki = kind.index();
        self.integrate(ki, now.as_nanos());
        self.wait_level[ki] += delta;
    }

    /// Integrates every wait gauge up to `now` so window areas reflect
    /// levels held through the snapshot instant.
    pub fn seal(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        for ki in 0..WaitKind::COUNT {
            self.integrate(ki, now_ns);
        }
    }

    /// Checks per-window conservation after every charge is closed: the
    /// seven state columns of each window must sum to exactly
    /// `cpus × width` (the final window to `cpus × (makespan mod width)`),
    /// and wait areas must be non-negative.
    pub fn verify(&self, makespan: SimTime) -> Result<(), String> {
        let makespan_ns = makespan.as_nanos();
        let full = (makespan_ns / self.width_ns) as usize;
        let tail_ns = makespan_ns % self.width_ns;
        let expect_windows = full + usize::from(tail_ns > 0);
        if self.states.len() != expect_windows {
            return Err(format!(
                "windowed ledger has {} state windows, expected {expect_windows} \
                 for makespan {makespan}",
                self.states.len()
            ));
        }
        for (w, row) in self.states.iter().enumerate() {
            let got: u64 = row.iter().sum();
            let span = if w < full { self.width_ns } else { tail_ns };
            let want = span * self.cpus as u64;
            if got != want {
                return Err(format!(
                    "window {w}: states sum to {got} ns, expected {want} ns \
                     ({} cpus x {span} ns)",
                    self.cpus
                ));
            }
        }
        for (w, row) in self.wait_area.iter().enumerate() {
            for (ki, &area) in row.iter().enumerate() {
                if area < 0 {
                    return Err(format!(
                        "window {w}: negative {} wait area {area}",
                        WaitKind::ALL[ki].name()
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn charge_splits_across_window_boundaries() {
        // 100us windows, one CPU. Charge 250us of user work ending at
        // 250us: windows get 100/100/50.
        let mut w = WindowedLedger::new(us(100), 1);
        w.charge(CpuState::User, t(250), us(250));
        assert_eq!(w.state_ns(0, CpuState::User), 100_000);
        assert_eq!(w.state_ns(1, CpuState::User), 100_000);
        assert_eq!(w.state_ns(2, CpuState::User), 50_000);
        assert_eq!(w.state_ns(3, CpuState::User), 0);
    }

    #[test]
    fn conservation_per_window() {
        let mut w = WindowedLedger::new(us(100), 2);
        // CPU A: user 0..150, idle 150..250. CPU B: kernel 0..250.
        w.charge(CpuState::User, t(150), us(150));
        w.charge(CpuState::Idle, t(250), us(100));
        w.charge(CpuState::Kernel, t(250), us(250));
        w.verify(t(250)).expect("windows conserve");
        // Partial-window shortfall must be caught.
        assert!(w.verify(t(260)).is_err());
    }

    #[test]
    fn wait_area_integrates_level_changes_exactly() {
        let mut w = WindowedLedger::new(us(100), 1);
        // Two threads ready from 50us to 170us: window 0 gets 2*50us,
        // window 1 gets 2*70us.
        w.note_wait(WaitKind::Ready, t(50), 2);
        w.note_wait(WaitKind::Ready, t(170), -2);
        w.seal(t(200));
        assert_eq!(w.wait_area_ns(0, WaitKind::Ready), 100_000);
        assert_eq!(w.wait_area_ns(1, WaitKind::Ready), 140_000);
        assert!((w.wait_mean(0, WaitKind::Ready) - 1.0).abs() < 1e-12);
        assert!((w.wait_mean(1, WaitKind::Ready) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn clear_space_drops_only_that_spaces_level() {
        // The flat ledger keeps the per-space levels; the levels its
        // `clear_waits` drops leave the machine-wide windowed gauge.
        let mut flat = crate::TimeLedger::new(1);
        let mut w = WindowedLedger::new(us(100), 1);
        for (space, n) in [(0, 3), (1, 1)] {
            flat.note_wait(space, WaitKind::BlockedIo, t(0), n);
            w.note_wait(WaitKind::BlockedIo, t(0), n);
        }
        let levels = flat.clear_waits(0, t(50));
        assert_eq!(levels, [0, 3, 0]);
        for (kind, level) in WaitKind::ALL.into_iter().zip(levels) {
            w.note_wait(kind, t(50), -level);
        }
        w.seal(t(100));
        // 4 threads for 50us, then 1 thread for 50us.
        assert_eq!(w.wait_area_ns(0, WaitKind::BlockedIo), 250_000);
        assert_eq!(flat.wait_ns(1, WaitKind::BlockedIo, t(100)), 100_000);
    }

    #[test]
    fn seal_is_idempotent() {
        let mut w = WindowedLedger::new(us(100), 1);
        w.note_wait(WaitKind::Ready, t(0), 1);
        w.seal(t(80));
        w.seal(t(80));
        assert_eq!(w.wait_area_ns(0, WaitKind::Ready), 80_000);
    }

    #[test]
    fn zero_duration_charges_are_ignored() {
        let mut w = WindowedLedger::new(us(100), 1);
        w.charge(CpuState::User, t(50), SimDuration::ZERO);
        assert_eq!(w.window_count(), 0);
    }

    #[test]
    fn charge_exactly_on_boundary_stays_in_lower_window() {
        let mut w = WindowedLedger::new(us(100), 1);
        w.charge(CpuState::User, t(100), us(100));
        assert_eq!(w.state_ns(0, CpuState::User), 100_000);
        assert_eq!(w.window_count(), 1);
        w.verify(t(100)).expect("exactly one full window");
    }
}
