//! Time-attribution ledger: every nanosecond of every CPU, classified.
//!
//! The paper's argument is about *where time goes* under each thread model
//! (idle processors during I/O, spin time in critical sections, upcall
//! overhead). Counters and histograms answer "how often" and "how long per
//! event"; the ledger answers the budget question: for a run of makespan
//! `T` on `P` processors, exactly `P × T` nanoseconds existed — which
//! state consumed each one?
//!
//! ## Model
//!
//! Each CPU is, at every instant, in exactly one [`CpuState`]. The kernel
//! charges every completed (or cancelled) segment and every idle interval
//! here, attributed to the address space that was dispatched (or to the
//! unattributed pool when no space was). Because the states are exclusive
//! and exhaustive, the per-CPU rollups must sum *exactly* to the makespan —
//! [`TimeLedger::verify`] checks this in integer nanoseconds, no epsilon.
//!
//! Thread *wait* states (ready-waiting, blocked on I/O, blocked on
//! synchronization) are not CPU states — a thread waits while its former
//! processor does something else — so they are tracked as per-space
//! time-weighted gauges ([`WaitKind`]) alongside, in thread·nanoseconds.
//! They overlap CPU time and are deliberately excluded from the
//! conservation sum.

use crate::stats::TimeWeighted;
use crate::time::{SimDuration, SimTime};

/// Exclusive state of one CPU at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuState {
    /// Running application work (the paper's "useful work").
    User,
    /// Running preemptible thread-package code (dispatch, queue surgery).
    Overhead,
    /// Running a non-preemptible kernel path (traps, syscalls, switches).
    Kernel,
    /// Running upcall entry/processing code in the user runtime.
    Upcall,
    /// Spin-waiting on a held lock.
    Spin,
    /// Spinning in a user-level idle loop looking for work.
    IdleSpin,
    /// No unit dispatched: the processor is idle in the kernel.
    Idle,
}

impl CpuState {
    /// Number of states (array dimension).
    pub const COUNT: usize = 7;

    /// All states, in display order.
    pub const ALL: [CpuState; CpuState::COUNT] = [
        CpuState::User,
        CpuState::Overhead,
        CpuState::Kernel,
        CpuState::Upcall,
        CpuState::Spin,
        CpuState::IdleSpin,
        CpuState::Idle,
    ];

    /// Stable snake_case name used in tables, folded stacks, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CpuState::User => "running_user",
            CpuState::Overhead => "runtime_overhead",
            CpuState::Kernel => "kernel",
            CpuState::Upcall => "upcall",
            CpuState::Spin => "spin",
            CpuState::IdleSpin => "idle_spin",
            CpuState::Idle => "idle",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            CpuState::User => 0,
            CpuState::Overhead => 1,
            CpuState::Kernel => 2,
            CpuState::Upcall => 3,
            CpuState::Spin => 4,
            CpuState::IdleSpin => 5,
            CpuState::Idle => 6,
        }
    }
}

/// A thread wait state, tracked per space in thread·nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Runnable but not dispatched (ready-queue wait).
    Ready,
    /// Blocked in the kernel on disk I/O or a page fault.
    BlockedIo,
    /// Blocked in the kernel on synchronization (locks, cvs, channels, joins).
    BlockedSync,
}

impl WaitKind {
    /// Number of wait kinds (array dimension).
    pub const COUNT: usize = 3;

    /// All wait kinds, in display order.
    pub const ALL: [WaitKind; WaitKind::COUNT] =
        [WaitKind::Ready, WaitKind::BlockedIo, WaitKind::BlockedSync];

    /// Stable snake_case name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            WaitKind::Ready => "ready_wait",
            WaitKind::BlockedIo => "blocked_io",
            WaitKind::BlockedSync => "blocked_sync",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            WaitKind::Ready => 0,
            WaitKind::BlockedIo => 1,
            WaitKind::BlockedSync => 2,
        }
    }
}

/// The full time-attribution matrix for one run.
///
/// Cheap to maintain (a `u64` add per charge), so the kernel keeps one
/// unconditionally — tracing does not need to be enabled.
#[derive(Debug, Clone)]
pub struct TimeLedger {
    /// `cpus[c][s]` = nanoseconds CPU `c` spent in state `s`.
    cpus: Vec<[u64; CpuState::COUNT]>,
    /// `spaces[sp][s]` = nanoseconds charged to space `sp` in state `s`
    /// (grown on demand by raw space index).
    spaces: Vec<[u64; CpuState::COUNT]>,
    /// Time charged with no space dispatched (in practice: idle).
    unattributed: [u64; CpuState::COUNT],
    /// `waits[sp][k]` = gauge of threads of space `sp` in wait state `k`.
    waits: Vec<[TimeWeighted; WaitKind::COUNT]>,
}

impl TimeLedger {
    /// Creates a ledger for a machine with `n_cpus` processors.
    pub fn new(n_cpus: usize) -> Self {
        TimeLedger {
            cpus: vec![[0; CpuState::COUNT]; n_cpus],
            spaces: Vec::new(),
            unattributed: [0; CpuState::COUNT],
            waits: Vec::new(),
        }
    }

    fn ensure_space(&mut self, space: usize) {
        if self.spaces.len() <= space {
            self.spaces.resize(space + 1, [0; CpuState::COUNT]);
        }
    }

    /// Charges `dur` of `state` on `cpu`, attributed to `space` (a raw
    /// space index) or to the unattributed pool.
    pub fn charge(&mut self, cpu: usize, space: Option<usize>, state: CpuState, dur: SimDuration) {
        let ns = dur.as_nanos();
        self.cpus[cpu][state.index()] += ns;
        match space {
            Some(sp) => {
                self.ensure_space(sp);
                self.spaces[sp][state.index()] += ns;
            }
            None => self.unattributed[state.index()] += ns,
        }
    }

    /// Adjusts the wait gauge `kind` of `space` by `delta` threads at `now`.
    pub fn note_wait(&mut self, space: usize, kind: WaitKind, now: SimTime, delta: i64) {
        if self.waits.len() <= space {
            self.waits.resize_with(space + 1, Default::default);
        }
        self.waits[space][kind.index()].adjust(now, delta);
    }

    /// Zeroes all wait gauges of `space` at `now` (space teardown: any
    /// still-waiting threads are being destroyed, not served). Returns
    /// the levels dropped, indexed in `WaitKind::ALL` order.
    pub fn clear_waits(&mut self, space: usize, now: SimTime) -> [i64; WaitKind::COUNT] {
        let mut levels = [0; WaitKind::COUNT];
        if let Some(w) = self.waits.get_mut(space) {
            for (g, level) in w.iter_mut().zip(&mut levels) {
                *level = g.level();
                g.set(now, 0);
            }
        }
        levels
    }

    /// Number of CPUs.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// One past the highest space index ever charged or waited.
    pub fn num_spaces(&self) -> usize {
        self.spaces.len().max(self.waits.len())
    }

    /// Nanoseconds CPU `cpu` spent in `state`.
    pub fn cpu_ns(&self, cpu: usize, state: CpuState) -> u64 {
        self.cpus[cpu][state.index()]
    }

    /// Total nanoseconds charged on `cpu`, across all states.
    pub fn cpu_total_ns(&self, cpu: usize) -> u64 {
        self.cpus[cpu].iter().sum()
    }

    /// Nanoseconds charged to `space` in `state` (0 if never charged).
    pub fn space_ns(&self, space: usize, state: CpuState) -> u64 {
        self.spaces.get(space).map_or(0, |row| row[state.index()])
    }

    /// Nanoseconds charged with no space dispatched, in `state`.
    pub fn unattributed_ns(&self, state: CpuState) -> u64 {
        self.unattributed[state.index()]
    }

    /// Machine-wide nanoseconds in `state` (sum over CPUs).
    pub fn total_ns(&self, state: CpuState) -> u64 {
        self.cpus.iter().map(|row| row[state.index()]).sum()
    }

    /// Thread·nanoseconds `space` spent in wait state `kind` over
    /// `[ZERO, now]` (0 if the gauge dipped negative, which `verify`
    /// reports as an error).
    pub fn wait_ns(&self, space: usize, kind: WaitKind, now: SimTime) -> u64 {
        self.waits
            .get(space)
            .map_or(0, |w| w[kind.index()].area(now).max(0) as u64)
    }

    /// Checks the conservation invariant, exactly, in nanoseconds:
    ///
    /// 1. each CPU's states sum to `makespan` (so the grand total is
    ///    `cpus × makespan`);
    /// 2. for each state, per-space rollups plus the unattributed pool
    ///    equal the per-CPU totals;
    /// 3. no wait gauge is negative (more releases than acquires).
    pub fn verify(&self, makespan: SimTime) -> Result<(), String> {
        let want = makespan.as_nanos();
        for (cpu, row) in self.cpus.iter().enumerate() {
            let got: u64 = row.iter().sum();
            if got != want {
                return Err(format!(
                    "cpu{cpu}: states sum to {got} ns, makespan is {want} ns \
                     (off by {})",
                    got as i128 - want as i128
                ));
            }
        }
        for state in CpuState::ALL {
            let by_cpu = self.total_ns(state);
            let by_space: u64 = (0..self.spaces.len())
                .map(|sp| self.space_ns(sp, state))
                .sum::<u64>()
                + self.unattributed_ns(state);
            if by_cpu != by_space {
                return Err(format!(
                    "state {}: per-CPU total {by_cpu} ns != per-space rollup {by_space} ns",
                    state.name()
                ));
            }
        }
        for (sp, w) in self.waits.iter().enumerate() {
            for kind in WaitKind::ALL {
                let area = w[kind.index()].area(makespan);
                if area < 0 {
                    return Err(format!(
                        "space {sp}: wait gauge {} went negative ({area} thread·ns)",
                        kind.name()
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

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn charges_roll_up_and_conserve() {
        let mut l = TimeLedger::new(2);
        l.charge(0, Some(0), CpuState::User, us(60));
        l.charge(0, Some(1), CpuState::Kernel, us(40));
        l.charge(1, Some(0), CpuState::Spin, us(30));
        l.charge(1, None, CpuState::Idle, us(70));
        assert_eq!(l.cpu_ns(0, CpuState::User), 60_000);
        assert_eq!(l.space_ns(0, CpuState::Spin), 30_000);
        assert_eq!(l.unattributed_ns(CpuState::Idle), 70_000);
        assert_eq!(l.total_ns(CpuState::User), 60_000);
        l.verify(SimTime::from_micros(100)).unwrap();
    }

    #[test]
    fn verify_rejects_short_cpu() {
        let mut l = TimeLedger::new(1);
        l.charge(0, None, CpuState::Idle, us(99));
        let err = l.verify(SimTime::from_micros(100)).unwrap_err();
        assert!(err.contains("cpu0"), "{err}");
    }

    #[test]
    fn verify_is_exact_not_approximate() {
        let mut l = TimeLedger::new(1);
        l.charge(0, None, CpuState::Idle, SimDuration::from_nanos(99_999));
        l.charge(0, Some(0), CpuState::User, SimDuration::from_nanos(2));
        assert!(l.verify(SimTime::from_nanos(100_000)).is_err());
        let mut ok = TimeLedger::new(1);
        ok.charge(0, None, CpuState::Idle, SimDuration::from_nanos(99_999));
        ok.charge(0, Some(0), CpuState::User, SimDuration::from_nanos(1));
        ok.verify(SimTime::from_nanos(100_000)).unwrap();
    }

    #[test]
    fn wait_gauges_integrate_and_clear() {
        let mut l = TimeLedger::new(1);
        let t = SimTime::from_micros;
        l.note_wait(0, WaitKind::BlockedIo, t(0), 1);
        l.note_wait(0, WaitKind::BlockedIo, t(10), 1);
        l.note_wait(0, WaitKind::BlockedIo, t(20), -2);
        // 1 thread for 10us + 2 threads for 10us = 30 thread·us.
        assert_eq!(l.wait_ns(0, WaitKind::BlockedIo, t(50)), 30_000);
        l.note_wait(0, WaitKind::Ready, t(30), 1);
        l.clear_waits(0, t(40));
        assert_eq!(l.wait_ns(0, WaitKind::Ready, t(100)), 10_000);
    }

    #[test]
    fn negative_wait_gauge_fails_verify() {
        let mut l = TimeLedger::new(1);
        l.note_wait(0, WaitKind::Ready, SimTime::ZERO, -1);
        assert!(l.verify(SimTime::from_micros(1)).is_err());
    }

    #[test]
    fn state_names_are_stable() {
        let names: Vec<&str> = CpuState::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "running_user",
                "runtime_overhead",
                "kernel",
                "upcall",
                "spin",
                "idle_spin",
                "idle"
            ]
        );
    }
}
