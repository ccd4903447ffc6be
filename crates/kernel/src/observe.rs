//! The kernel's observation path: where every CPU nanosecond went, which
//! allocator decisions were taken, and who held each processor when.
//!
//! The kernel reports to one [`Observer`] at its choke points, one call
//! each: a closed interval of CPU time (`charge`), a wait-gauge change
//! (`wait`), a finished space (`space_done`), an allocator decision
//! (`decide`, for all three kinds), a processor changing hands
//! (`assign`, `release`), an upcall batch reaching its runtime
//! (`delivered`), and user work starting on a processor
//! (`user_dispatch`). The observer feeds its sinks from those calls:
//!
//! - the flat [`TimeLedger`], always, behind per-CPU [`ChargeAcc`]s;
//! - the [`WindowedLedger`], the [`ProvenanceLog`] with its grant chains,
//!   and the [`DwellLedger`], each when enabled. A disabled sink is a
//!   `None`, so it costs one predictable branch per choke point.
//!
//! Decision ids advance whether or not the log is on, so enabling it
//! never renumbers a run. The typed trace stays a kernel field: it is
//! already one stream behind one closure gate, and the runtimes borrow it
//! through `RtEnv`.

use crate::ids::AsId;
use crate::kernel::Kernel;
use crate::provenance::{AllocDecision, AllocDecisionKind, GrantChain, ProvenanceLog};
use crate::upcall::UpcallEvent;
use sa_sim::{
    CpuState, DwellLedger, SimDuration, SimTime, TimeLedger, UpcallKind, WaitKind, WindowedLedger,
};

/// A CPU's open interval at a snapshot: `(cpu, space, state, elapsed)`.
type OpenInterval = (usize, Option<usize>, CpuState, SimDuration);

/// Per-CPU pending ledger charges, accumulated until the dispatched
/// space changes. The dispatch loop charges one segment per event; a CPU
/// runs long stretches of segments for the same space, so merging them
/// here turns three array-indexed ledger adds per micro-op into one
/// plain `u64` add, flushed once per space switch (or ledger read).
/// Pure summation, so conservation (`sum == cpus × makespan`) is exact.
#[derive(Clone, Default)]
struct ChargeAcc {
    /// Raw space index plus one; 0 means unattributed.
    key: u32,
    /// Pending nanoseconds, indexed in `CpuState::ALL` order.
    ns: [u64; CpuState::COUNT],
}

impl ChargeAcc {
    /// Drains the pending sums into `ledger` for `cpu`.
    fn flush_into(&mut self, ledger: &mut TimeLedger, cpu: usize) {
        let space = self.key.checked_sub(1).map(|s| s as usize);
        for (i, state) in CpuState::ALL.iter().enumerate() {
            if self.ns[i] != 0 {
                ledger.charge(cpu, space, *state, SimDuration::from_nanos(self.ns[i]));
                self.ns[i] = 0;
            }
        }
    }
}

/// Every sink the kernel's observation choke points feed (module docs).
pub(crate) struct Observer {
    /// Where every CPU nanosecond went (always on).
    ledger: TimeLedger,
    /// Per-CPU charges not yet flushed into `ledger`.
    pending: Vec<ChargeAcc>,
    /// The same charges and wait gauges, rolled into fixed windows.
    windowed: Option<Box<WindowedLedger>>,
    /// The last decision id handed out (ids are dense from 1).
    decisions: u64,
    /// The decision log and its grant chains.
    log: Option<Box<ProvenanceLog>>,
    /// Per CPU, the row of a grant chain still waiting for its first
    /// user dispatch (only ever set while the log is on).
    open_grant: Vec<Option<u32>>,
    /// The processor-assignment episodes.
    dwell: Option<Box<DwellLedger>>,
}

impl Observer {
    /// An observer of `cpus` processors with every optional sink off.
    pub(crate) fn new(cpus: usize) -> Self {
        Observer {
            ledger: TimeLedger::new(cpus),
            pending: vec![ChargeAcc::default(); cpus],
            windowed: None,
            decisions: 0,
            log: None,
            open_grant: vec![None; cpus],
            dwell: None,
        }
    }

    /// Charges `dur` of `state` on `cpu`, ending at `now`, to `space` (a
    /// raw index) or to no space.
    pub(crate) fn charge(
        &mut self,
        cpu: usize,
        space: Option<usize>,
        state: CpuState,
        dur: SimDuration,
        now: SimTime,
    ) {
        let key = space.map_or(0, |s| s as u32 + 1);
        let acc = &mut self.pending[cpu];
        if acc.key != key {
            acc.flush_into(&mut self.ledger, cpu);
            acc.key = key;
        }
        acc.ns[state as usize] += dur.as_nanos();
        if let Some(w) = &mut self.windowed {
            w.charge(state, now, dur);
        }
    }

    /// Adjusts `space`'s `kind` wait gauge by `delta` threads at `now`.
    pub(crate) fn wait(&mut self, space: AsId, kind: WaitKind, delta: i64, now: SimTime) {
        self.ledger.note_wait(space.index(), kind, now, delta);
        if let Some(w) = &mut self.windowed {
            w.note_wait(kind, now, delta);
        }
    }

    /// `space` finished at `now`: threads still on its wait gauges are
    /// being destroyed, not served, so their wait clocks stop.
    pub(crate) fn space_done(&mut self, space: AsId, now: SimTime) {
        let levels = self.ledger.clear_waits(space.index(), now);
        if let Some(w) = &mut self.windowed {
            for (kind, level) in WaitKind::ALL.into_iter().zip(levels) {
                w.note_wait(kind, now, -level);
            }
        }
    }

    /// Takes an allocator decision at `now`; returns its id.
    pub(crate) fn decide(&mut self, now: SimTime, kind: AllocDecisionKind) -> u64 {
        self.decisions += 1;
        let id = self.decisions;
        if let Some(log) = &mut self.log {
            log.decisions.push(AllocDecision { id, at: now, kind });
        }
        id
    }

    /// `cpu` passes to `space` at `now` by `decision` (0 = none). A
    /// grant to a scheduler-activation space (`chain`) opens the grant
    /// chain that its first user dispatch closes.
    pub(crate) fn assign(
        &mut self,
        cpu: usize,
        space: AsId,
        now: SimTime,
        decision: u64,
        chain: bool,
    ) {
        if let Some(d) = &mut self.dwell {
            d.assign(cpu, space.0, now, decision);
        }
        if let (true, Some(log)) = (chain, &mut self.log) {
            self.open_grant[cpu] = Some(log.grants.push(GrantChain::new(decision, now)));
        }
    }

    /// `cpu` leaves its owner at `now` because of `decision` (0 = none);
    /// a grant chain still open on it will never complete.
    pub(crate) fn release(&mut self, cpu: usize, now: SimTime, decision: u64) {
        if let Some(d) = &mut self.dwell {
            d.release(cpu, now, decision);
        }
        self.open_grant[cpu] = None;
    }

    /// An upcall batch reaches `space`'s runtime at `now`: each
    /// `AddProcessor` closes the upcall leg of its grant chain. Debug
    /// builds check every stamp here, where it is made (see
    /// [`ProvenanceLog::check_stamp`]).
    pub(crate) fn delivered(&mut self, space: AsId, events: &[UpcallEvent], now: SimTime) {
        let Some(log) = &mut self.log else { return };
        for ev in events {
            let Some(d) = ev.decision().filter(|&d| d != 0) else {
                continue;
            };
            if cfg!(debug_assertions) {
                log.check_stamp(space.0, d, ev.kind(), now);
            }
            if ev.kind() == UpcallKind::AddProcessor {
                if let Some(g) = log.grant_mut(d).filter(|g| g.upcall_at().is_none()) {
                    g.set_upcall_at(now);
                }
            }
        }
    }

    /// User work starts on `cpu` at `now`: closes the first-dispatch leg
    /// of the grant chain open there, if any.
    pub(crate) fn user_dispatch(&mut self, cpu: usize, now: SimTime) {
        if let (Some(chain), Some(log)) = (self.open_grant[cpu].take(), &mut self.log) {
            log.grants[chain as usize].set_first_dispatch_at(now);
        }
    }
}

impl Kernel {
    /// Every CPU's open interval at the current virtual time: the
    /// in-flight segment's elapsed part, or the idle stretch. Both
    /// ledger snapshots close exactly these.
    fn open_intervals(&self) -> impl Iterator<Item = OpenInterval> + '_ {
        let now = self.q.now();
        let open = move |cpu: usize| match (&self.cpus[cpu].inflight, self.cpus[cpu].idle_since) {
            (Some(inf), _) => {
                let space = self.running_space_index(cpu);
                Some((cpu, space, inf.seg.ledger_state(), now.since(inf.started)))
            }
            (None, Some(since)) => Some((cpu, None, CpuState::Idle, now.since(since))),
            (None, None) => None,
        };
        (0..self.cpus.len()).filter_map(open)
    }

    /// A snapshot of the time-attribution ledger with every open interval
    /// (an in-flight segment, an idle stretch) closed at the current
    /// virtual time, so per-CPU sums equal the makespan exactly. Does not
    /// mutate kernel state; callable mid-run or after [`Kernel::run`].
    pub fn time_ledger(&self) -> TimeLedger {
        let obs = &self.obs;
        let mut ledger = obs.ledger.clone();
        for (cpu, acc) in obs.pending.iter().enumerate() {
            acc.clone().flush_into(&mut ledger, cpu);
        }
        for (cpu, space, state, elapsed) in self.open_intervals() {
            ledger.charge(cpu, space, state, elapsed);
        }
        ledger
    }

    /// Turns on the windowed rollup of the charge stream (SLO pipeline).
    /// Must be called before the run starts so window 0 is complete.
    pub fn enable_windowed_ledger(&mut self, width: SimDuration) {
        let cpus = self.cpus.len() as u32;
        self.obs.windowed = Some(Box::new(WindowedLedger::new(width, cpus)));
    }

    /// A snapshot of the windowed ledger (if enabled) with every open
    /// interval closed and every wait gauge integrated up to now, so
    /// per-window conservation holds exactly (see
    /// [`WindowedLedger::verify`]).
    pub fn windowed_ledger(&self) -> Option<WindowedLedger> {
        let mut w = self.obs.windowed.as_deref().cloned()?;
        let now = self.q.now();
        for (_, _, state, elapsed) in self.open_intervals() {
            w.charge(state, now, elapsed);
        }
        w.seal(now);
        Some(w)
    }

    /// Turns on decision-provenance recording (records at the three
    /// choke points plus grant chains). Decision ids advance regardless;
    /// only record-keeping is gated. Call before the run starts so the
    /// recorded ids are dense from 1.
    pub fn enable_decision_log(&mut self) {
        self.obs.log = Some(Box::default());
    }

    /// The provenance log, if enabled.
    pub fn decision_log(&self) -> Option<&ProvenanceLog> {
        self.obs.log.as_deref()
    }

    /// Turns on the processor-assignment dwell ledger. Call before the
    /// run starts so episode 0 opens at time zero.
    pub fn enable_dwell_ledger(&mut self) {
        self.obs.dwell = Some(Box::new(DwellLedger::new(self.cpus.len())));
    }

    /// A snapshot of the dwell ledger (if enabled) sealed at the current
    /// virtual time, so per-CPU episodes partition the makespan exactly
    /// (see [`DwellLedger::verify`]).
    pub fn dwell_ledger(&self) -> Option<DwellLedger> {
        let mut d = self.obs.dwell.as_deref().cloned()?;
        d.seal(self.q.now());
        Some(d)
    }
}
