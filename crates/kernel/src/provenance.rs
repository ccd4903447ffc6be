//! Allocator decision provenance: typed records at the three §4.1 choke
//! points, joined to the upcalls and assignment changes they cause.
//!
//! Every allocator decision — a `targets()` recomputation, a `pick_cpu()`
//! grant, or a preemption-victim choice — gets a monotonically increasing
//! id from a single kernel-wide sequence. The id is stamped onto the
//! resulting artifacts:
//!
//! - the [`UpcallEvent::AddProcessor`](crate::upcall::UpcallEvent) /
//!   [`UpcallEvent::Preempted`](crate::upcall::UpcallEvent) notifications
//!   the decision produces,
//! - the `Grant`/`ActStop` trace events,
//! - the [`DwellLedger`](sa_sim::DwellLedger) episodes it opens/closes,
//!
//! so a slow request's tail window can be traced back to the specific
//! reallocation decisions inside it. The id sequence always advances
//! (one `u64` add per decision); the *records* are kept only when the
//! log is enabled ([`Kernel::enable_decision_log`]), keeping the
//! disabled hot path at one branch per choke point.
//!
//! For grants to scheduler-activation spaces the log also keeps a
//! [`GrantChain`]: the causal timestamps decision → preempt done →
//! `add_processor` upcall delivered → first user dispatch. The legs
//! telescope, so they sum *exactly* (integer nanoseconds) to the
//! episode's startup wait — the quantity PR 8's SLO layer showed
//! dominating the tail.
//!
//! **Storage.** The log is append-only and, under open-loop overload,
//! the largest thing a run holds, so it grows without copying: the
//! record streams are [`PagedVec`]s (4 096-row pages that never move),
//! and the `Targets` vectors live in an arena of 16 384-entry pages in
//! which a record never straddles a page. A `Targets` record whose
//! demand and target vectors equal the previous `Targets` record's
//! shares that record's [`CountsRange`] instead of appending a copy;
//! on the SLO profiles about 97% of them do (DESIGN.md §6).

use crate::ids::AsId;
use crate::kernel::Kernel;
use sa_sim::{PagedVec, SimTime, UpcallKind};

/// Rows per page of the log's record streams.
const LOG_PAGE: usize = 4096;

/// Entries per page of the `Targets` counts arena (64 KiB). A record
/// larger than a page gets a page of its own size.
const COUNTS_PAGE: usize = 1 << 14;

/// What an allocator decision decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocDecisionKind {
    /// A `targets()` recomputation: the per-space demand the policy saw
    /// and the allocation it chose (deltas between consecutive records
    /// are the demand changes that triggered reallocations).
    Targets {
        /// The demand and target vectors, interned in the log's counts
        /// arena (resolve with [`ProvenanceLog::targets_counts`]); equal
        /// consecutive records share one range. Interning keeps the
        /// ~1-per-request records allocation-free and `AllocDecision`
        /// small — the difference between ~12% and ~5% audit overhead on
        /// the SLO bench cell.
        counts: CountsRange,
    },
    /// A `pick_cpu()` grant of a free processor to a space.
    Grant {
        /// The granted processor.
        cpu: u32,
        /// The receiving space.
        space: u32,
    },
    /// A preemption-victim choice: a processor taken from a space.
    Victim {
        /// The victim processor.
        cpu: u32,
        /// The space losing it.
        space: u32,
        /// Why the victim was needed.
        reason: VictimReason,
    },
}

/// Which allocator path needed a preemption victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimReason {
    /// A `targets()` rebalance reclaiming the processor.
    Realloc,
    /// Another space's demand stealing the processor via `pick_cpu()`.
    Steal,
    /// The space preempted its own virtual processor (`preempt_vp`
    /// downcall).
    PreemptVp,
    /// A victim taken on the space's own processor to deliver an urgent
    /// notification (§3.1).
    Notify,
}

impl VictimReason {
    /// Short label for tables and CSV.
    pub fn name(self) -> &'static str {
        match self {
            VictimReason::Realloc => "realloc",
            VictimReason::Steal => "steal",
            VictimReason::PreemptVp => "preempt_vp",
            VictimReason::Notify => "notify",
        }
    }
}

/// A range in the [`ProvenanceLog`] counts arena holding one `Targets`
/// record's per-space demand vector followed by its targets vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountsRange {
    /// Arena page holding the record.
    page: u32,
    /// Offset of the demand vector within the page.
    offset: u32,
    /// Spaces per vector (the record occupies `2 * spaces` slots).
    spaces: u32,
}

impl AllocDecisionKind {
    /// Short label for tables and CSV.
    pub fn name(&self) -> &'static str {
        match self {
            AllocDecisionKind::Targets { .. } => "targets",
            AllocDecisionKind::Grant { .. } => "grant",
            AllocDecisionKind::Victim { .. } => "victim",
        }
    }
}

/// One recorded allocator decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDecision {
    /// Monotonic id (dense from 1 across all decision kinds).
    pub id: u64,
    /// When it was taken.
    pub at: SimTime,
    /// What was decided.
    pub kind: AllocDecisionKind,
}

// The log's memory figures (DESIGN.md §6, "Storage") assume these row
// sizes: a layout change must fail here, not only in the peak-RSS gates.
const _: () = assert!(core::mem::size_of::<AllocDecision>() == 32);
const _: () = assert!(core::mem::size_of::<GrantChain>() == 64);

/// The causal chain of one grant to a scheduler-activation space:
/// decision → preempt delivered → `add_processor` upcall → first user
/// dispatch. Timestamps are absolute; the legs telescope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantChain {
    /// The grant decision this chain belongs to.
    pub decision: u64,
    /// The granted processor.
    pub cpu: u32,
    /// The receiving space.
    pub space: u32,
    /// When the allocator decided (and assigned the CPU).
    pub decided_at: SimTime,
    /// When the victim's preemption (if the grant needed one) completed.
    /// Under the simulator's instantaneous-IPI model the stop happens in
    /// the same instant as the decision, so this equals `decided_at`;
    /// the leg is kept so a model with IPI latency slots in unchanged.
    pub preempt_done_at: SimTime,
    /// When the `add_processor` upcall batch reached the runtime
    /// (`None`: the grant aborted — upcall deferred on a runtime page
    /// fault and the CPU was returned).
    pub upcall_at: Option<SimTime>,
    /// When the first user-work segment started on the granted CPU
    /// (`None`: the processor was reclaimed before any user work ran).
    pub first_dispatch_at: Option<SimTime>,
}

impl GrantChain {
    /// The chain completed: the space actually ran user work.
    pub fn completed(&self) -> bool {
        self.upcall_at.is_some() && self.first_dispatch_at.is_some()
    }

    /// The three legs (decision→preempt, preempt→upcall, upcall→first
    /// dispatch) in nanoseconds, for a completed chain.
    pub fn legs_ns(&self) -> Option<[u64; 3]> {
        let up = self.upcall_at?;
        let fd = self.first_dispatch_at?;
        Some([
            self.preempt_done_at.since(self.decided_at).as_nanos(),
            up.since(self.preempt_done_at).as_nanos(),
            fd.since(up).as_nanos(),
        ])
    }

    /// Decision-to-first-dispatch total (the episode's startup wait),
    /// for a completed chain. Equals the sum of [`GrantChain::legs_ns`]
    /// exactly, by telescoping.
    pub fn startup_wait_ns(&self) -> Option<u64> {
        Some(self.first_dispatch_at?.since(self.decided_at).as_nanos())
    }
}

/// The decision-provenance log (enable with
/// [`Kernel::enable_decision_log`], read with [`Kernel::decision_log`]).
///
/// Append-only, in pages that never move (see the module docs): growth
/// allocates one page and copies nothing.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    /// Every decision, in id order (4 096-row pages).
    pub decisions: PagedVec<AllocDecision, LOG_PAGE>,
    /// Grant chains for scheduler-activation spaces, in decision order
    /// (4 096-row pages).
    pub grants: PagedVec<GrantChain, LOG_PAGE>,
    /// Interned demand/targets vectors for `Targets` records: pages of
    /// at least `COUNTS_PAGE` entries, each filled only up to its
    /// allocated capacity, so a record never straddles two pages.
    counts: Vec<Vec<u32>>,
    /// The latest `Targets` record's range: the next record shares it
    /// when its vectors are equal.
    last_counts: Option<CountsRange>,
    /// Reused buffer for the demand vector of the record being taken.
    demand: Vec<u32>,
}

impl ProvenanceLog {
    /// The grant chain for `decision`, if one was opened (grants are
    /// pushed in decision order, so this is a binary search).
    pub fn grant(&self, decision: u64) -> Option<&GrantChain> {
        self.find_grant(decision, self.grants.len())
            .map(|i| &self.grants[i])
    }

    /// Resolves a `Targets` record's interned `(demand, targets)`
    /// per-space vectors.
    pub fn targets_counts(&self, r: CountsRange) -> (&[u32], &[u32]) {
        let (start, n) = (r.offset as usize, r.spaces as usize);
        self.counts[r.page as usize][start..start + 2 * n].split_at(n)
    }

    /// Interns one `Targets` record's vectors. A record equal to the
    /// previous `Targets` record shares its range; any other appends
    /// `2 * spaces` entries, opening a page when the current one cannot
    /// hold all of them.
    fn intern_counts(&mut self, demand: &[u32], targets: &[u32]) -> CountsRange {
        debug_assert_eq!(demand.len(), targets.len());
        if let Some(prev) = self.last_counts {
            if self.targets_counts(prev) == (demand, targets) {
                return prev;
            }
        }
        let need = demand.len() + targets.len();
        if self
            .counts
            .last()
            .is_none_or(|page| page.capacity() - page.len() < need)
        {
            self.counts.push(Vec::with_capacity(need.max(COUNTS_PAGE)));
        }
        let page_idx = self.counts.len() - 1;
        let page = &mut self.counts[page_idx];
        let r = CountsRange {
            page: u32::try_from(page_idx).expect("counts arena overflowed u32 pages"),
            offset: u32::try_from(page.len()).expect("counts page overflowed u32 offsets"),
            spaces: u32::try_from(demand.len()).expect("space count overflowed u32"),
        };
        page.extend_from_slice(demand);
        page.extend_from_slice(targets);
        self.last_counts = Some(r);
        r
    }

    /// Index of the grant chain for `decision` among the first `n`
    /// chains, by binary search (chains are pushed in decision order).
    fn find_grant(&self, decision: u64, n: usize) -> Option<usize> {
        let (mut lo, mut hi) = (0, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.grants[mid].decision.cmp(&decision) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// As [`ProvenanceLog::grant`], mutable, biased toward the hot case:
    /// the chain being closed was opened recently (the `add_processor`
    /// upcall follows its grant within a batch or two), so scan a few
    /// entries from the tail before paying the full binary search.
    fn grant_mut(&mut self, decision: u64) -> Option<&mut GrantChain> {
        let n = self.grants.len();
        for i in (n.saturating_sub(8)..n).rev() {
            match self.grants[i].decision.cmp(&decision) {
                std::cmp::Ordering::Equal => return Some(&mut self.grants[i]),
                // Sorted ascending: everything earlier is smaller still.
                std::cmp::Ordering::Less => return None,
                std::cmp::Ordering::Greater => {}
            }
        }
        let i = self.find_grant(decision, n.saturating_sub(8))?;
        Some(&mut self.grants[i])
    }

    /// Checks a decision id stamped onto an upcall event delivered to
    /// `space` at `now`: it names a recorded decision (ids are dense from
    /// 1), of the kind the event reports (grant → `AddProcessor`, victim
    /// → `Preempted`), about the receiving space, taken no later than
    /// now. Deliveries to one space are then monotone in time because
    /// the clock is.
    fn check_stamp(&self, space: u32, decision: u64, kind: UpcallKind, now: SimTime) {
        let n = self.decisions.len() as u64;
        assert!(
            (1..=n).contains(&decision),
            "upcall stamped with decision {decision}, {n} recorded"
        );
        let d = &self.decisions[decision as usize - 1];
        assert_eq!(d.id, decision, "decision ids are not dense");
        let concerned = match (d.kind, kind) {
            (AllocDecisionKind::Grant { space, .. }, UpcallKind::AddProcessor)
            | (AllocDecisionKind::Victim { space, .. }, UpcallKind::Preempted) => space,
            (other, _) => panic!(
                "decision {decision} ({}) stamped onto a {kind} upcall",
                other.name()
            ),
        };
        assert_eq!(
            concerned, space,
            "decision {decision} concerned as{concerned}, delivered to as{space}"
        );
        assert!(
            d.at <= now,
            "decision {decision} delivered at {now:?}, before it was made at {:?}",
            d.at
        );
    }
}

impl Kernel {
    /// Turns on decision-provenance recording (records at the three
    /// choke points plus grant chains). Decision ids advance regardless;
    /// only record-keeping is gated. Call before the run starts so the
    /// recorded ids are dense from 1.
    pub fn enable_decision_log(&mut self) {
        self.provenance = Some(Box::default());
    }

    /// The provenance log, if enabled.
    pub fn decision_log(&self) -> Option<&ProvenanceLog> {
        self.provenance.as_deref()
    }

    /// Turns on the processor-assignment dwell ledger. Call before the
    /// run starts so episode 0 opens at time zero.
    pub fn enable_dwell_ledger(&mut self) {
        self.dwell = Some(Box::new(sa_sim::DwellLedger::new(self.cpus.len())));
    }

    /// A snapshot of the dwell ledger (if enabled) sealed at the current
    /// virtual time, so per-CPU episodes partition the makespan exactly
    /// (see [`sa_sim::DwellLedger::verify`]).
    pub fn dwell_ledger(&self) -> Option<sa_sim::DwellLedger> {
        let mut d = self.dwell.as_deref().cloned()?;
        d.seal(self.q.now());
        Some(d)
    }

    /// Allocates the next decision id (always advances; one add).
    pub(crate) fn next_decision(&mut self) -> u64 {
        self.next_decision_id += 1;
        self.next_decision_id
    }

    /// True when decision records are being kept.
    pub(crate) fn provenance_enabled(&self) -> bool {
        self.provenance.is_some()
    }

    /// Appends a decision record (call only when
    /// [`Kernel::provenance_enabled`]; `kind` construction is the
    /// caller's to skip when disabled).
    pub(crate) fn record_decision(&mut self, id: u64, kind: AllocDecisionKind) {
        let at = self.q.now();
        if let Some(p) = &mut self.provenance {
            debug_assert!(p.decisions.iter().next_back().is_none_or(|d| d.id < id));
            p.decisions.push(AllocDecision { id, at, kind });
        }
    }

    /// Records a `targets()` recomputation decision: the demand the
    /// policy saw and the targets it chose. Returns the decision id.
    pub(crate) fn note_targets_decision(&mut self, targets: &[u32]) -> u64 {
        let id = self.next_decision();
        // The log steps out of the kernel while the demand vector is
        // read (space_demand borrows the whole kernel).
        if let Some(mut p) = self.provenance.take() {
            let mut demand = std::mem::take(&mut p.demand);
            demand.clear();
            demand.extend((0..self.spaces.len()).map(|idx| self.space_demand(AsId(idx as u32))));
            let counts = p.intern_counts(&demand, targets);
            p.demand = demand;
            self.provenance = Some(p);
            self.record_decision(id, AllocDecisionKind::Targets { counts });
        }
        id
    }

    /// Opens the grant chain for `decision` (scheduler-activation grants
    /// only; no-op when the log is disabled). Returns the chain's row in
    /// the grants table, for O(1) closure at first dispatch.
    pub(crate) fn open_grant_chain(
        &mut self,
        decision: u64,
        cpu: usize,
        space: AsId,
    ) -> Option<u32> {
        let now = self.q.now();
        let p = self.provenance.as_mut()?;
        Some(p.grants.push(GrantChain {
            decision,
            cpu: cpu as u32,
            space: space.0,
            decided_at: now,
            preempt_done_at: now,
            upcall_at: None,
            first_dispatch_at: None,
        }))
    }

    /// Notes a decision-carrying upcall event reaching the runtime: an
    /// `AddProcessor` closes the upcall leg of its grant chain. Debug
    /// builds check the stamp here, where it is made (see
    /// [`ProvenanceLog::check_stamp`]).
    pub(crate) fn note_decision_delivered(&mut self, space: AsId, decision: u64, kind: UpcallKind) {
        let now = self.q.now();
        if let Some(p) = &mut self.provenance {
            if cfg!(debug_assertions) {
                p.check_stamp(space.0, decision, kind, now);
            }
            if kind == UpcallKind::AddProcessor {
                if let Some(g) = p.grant_mut(decision) {
                    if g.upcall_at.is_none() {
                        g.upcall_at = Some(now);
                    }
                }
            }
        }
    }

    /// Closes the first-dispatch leg of an open grant chain, addressed
    /// by the index [`Kernel::open_grant_chain`] returned.
    pub(crate) fn note_first_dispatch(&mut self, chain: u32) {
        let now = self.q.now();
        if let Some(p) = &mut self.provenance {
            if let Some(g) = p.grants.get_mut(chain as usize) {
                if g.first_dispatch_at.is_none() {
                    g.first_dispatch_at = Some(now);
                }
            }
        }
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
    fn grant_chain_legs_telescope_exactly() {
        let g = GrantChain {
            decision: 7,
            cpu: 2,
            space: 1,
            decided_at: t(100),
            preempt_done_at: t(100),
            upcall_at: Some(t(137)),
            first_dispatch_at: Some(t(161)),
        };
        assert!(g.completed());
        let legs = g.legs_ns().unwrap();
        assert_eq!(legs, [0, 37_000, 24_000]);
        assert_eq!(legs.iter().sum::<u64>(), g.startup_wait_ns().unwrap());
    }

    #[test]
    fn aborted_chain_has_no_legs() {
        let g = GrantChain {
            decision: 3,
            cpu: 0,
            space: 0,
            decided_at: t(5),
            preempt_done_at: t(5),
            upcall_at: None,
            first_dispatch_at: None,
        };
        assert!(!g.completed());
        assert_eq!(g.legs_ns(), None);
        assert_eq!(g.startup_wait_ns(), None);
    }

    #[test]
    fn log_finds_grants_by_decision_id() {
        let mut log = ProvenanceLog::default();
        for d in [2u64, 5, 9] {
            log.grants.push(GrantChain {
                decision: d,
                cpu: 0,
                space: 0,
                decided_at: t(d),
                preempt_done_at: t(d),
                upcall_at: None,
                first_dispatch_at: None,
            });
        }
        assert_eq!(log.grant(5).unwrap().decided_at, t(5));
        assert!(log.grant(4).is_none());
        log.grant_mut(9).unwrap().upcall_at = Some(t(10));
        assert_eq!(log.grant(9).unwrap().upcall_at, Some(t(10)));
    }

    /// One `Targets` record in an interning sequence.
    #[derive(Debug, Clone)]
    enum Record {
        /// The previous record's vectors again.
        Repeat,
        /// `(demand, target)` per space. Entries are drawn from `0..3`,
        /// so a fresh record sometimes equals its predecessor too.
        Fresh(Vec<(u32, u32)>),
    }

    fn records() -> impl Strategy<Value = Record> {
        prop_oneof![
            6 => Just(Record::Repeat),
            3 => prop::collection::vec((0u32..3, 0u32..3), 1..8).prop_map(Record::Fresh),
            // Large records fill counts pages within a few draws, and
            // those over 8 192 spaces need a page of their own.
            1 => prop::collection::vec((0u32..3, 0u32..3), 3_000..9_000).prop_map(Record::Fresh),
        ]
    }

    fn arena_len(log: &ProvenanceLog) -> usize {
        log.counts.iter().map(Vec::len).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every interned record resolves to exactly its own vectors, a
        /// record equal to its predecessor shares the predecessor's
        /// range, any other grows the arena by exactly `2 * spaces`, and
        /// arena pages never move.
        #[test]
        fn interning_shares_exact_repeats(seq in prop::collection::vec(records(), 1..40)) {
            let mut log = ProvenanceLog::default();
            let mut model: Vec<(CountsRange, Vec<u32>, Vec<u32>)> = Vec::new();
            let mut page_addrs: Vec<*const u32> = Vec::new();
            for record in seq {
                let (demand, targets) = match (record, model.last()) {
                    (Record::Fresh(pairs), _) => pairs.into_iter().unzip(),
                    (Record::Repeat, Some((_, d, t))) => (d.clone(), t.clone()),
                    (Record::Repeat, None) => continue,
                };
                let before = arena_len(&log);
                let r = log.intern_counts(&demand, &targets);
                let grown = arena_len(&log) - before;
                match model.last() {
                    Some((prev, d, t)) if *d == demand && *t == targets => {
                        prop_assert_eq!(r, *prev);
                        prop_assert_eq!(grown, 0);
                    }
                    _ => prop_assert_eq!(grown, 2 * demand.len()),
                }
                model.push((r, demand, targets));
                for (i, page) in log.counts.iter().enumerate() {
                    match page_addrs.get(i) {
                        Some(&addr) => prop_assert_eq!(page.as_ptr(), addr, "page {} moved", i),
                        None => page_addrs.push(page.as_ptr()),
                    }
                }
            }
            for (r, d, t) in &model {
                prop_assert_eq!(log.targets_counts(*r), (&d[..], &t[..]));
            }
        }
    }

    #[test]
    fn tail_biased_grant_lookup_matches_binary_search() {
        let mut log = ProvenanceLog::default();
        for d in 0..100u64 {
            log.grants.push(GrantChain {
                decision: d * 3 + 1,
                cpu: 0,
                space: 0,
                decided_at: t(d),
                preempt_done_at: t(d),
                upcall_at: None,
                first_dispatch_at: None,
            });
        }
        // Hits and misses both near the tail and deep in the body, so
        // the scan path and the binary fallback both execute.
        for d in [1u64, 2, 148, 149, 150, 151, 295, 297, 298, 299, 400] {
            assert_eq!(
                log.grant_mut(d).map(|g| g.decision),
                log.grant(d).map(|g| g.decision),
                "lookup mismatch for decision {d}"
            );
        }
    }

    #[test]
    fn decision_kind_names_are_stable() {
        assert_eq!(
            AllocDecisionKind::Targets {
                counts: CountsRange {
                    page: 0,
                    offset: 0,
                    spaces: 0
                }
            }
            .name(),
            "targets"
        );
        assert_eq!(
            AllocDecisionKind::Grant { cpu: 0, space: 0 }.name(),
            "grant"
        );
        assert_eq!(
            AllocDecisionKind::Victim {
                cpu: 0,
                space: 0,
                reason: VictimReason::Realloc
            }
            .name(),
            "victim"
        );
    }
}
