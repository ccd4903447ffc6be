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
//! log is enabled
//! ([`Kernel::enable_decision_log`](crate::Kernel::enable_decision_log)),
//! keeping the disabled hot path at one branch per choke point.
//!
//! For grants to scheduler-activation spaces the log also keeps a
//! [`GrantChain`]: the causal timestamps decision → `add_processor`
//! upcall delivered → first user dispatch. The legs telescope, so they
//! sum *exactly* (integer nanoseconds) to the episode's startup wait —
//! the quantity the SLO report shows dominating the tail.
//!
//! The log keeps what the decision audit reads: each decision's id,
//! time and kind, with the processor and space of a grant or victim,
//! and the chains. A `Targets` record carries no vectors; a victim
//! record does not say which allocator path needed it.
//!
//! **Storage.** The log is append-only and, under open-loop overload,
//! the largest thing a run holds, so it grows without copying and keeps
//! its rows packed. Both record streams live on [`PagedVec`] pages of
//! 4 096 rows that never move. The [`DecisionStream`] stores a decision
//! in 16 B: its time, and one word packing the kind tag (bits 62–63),
//! the processor (bits 32–61, so a processor of 2³⁰ or more panics) and
//! the space (bits 0–31). Its id is not stored: ids are dense, so a
//! decision's id is the stream's first id plus its row number, and it
//! is read back as an [`AllocDecision`] by value. A [`GrantChain`] is
//! 32 B: an unset leg holds `SimTime::MAX` instead of an `Option`'s
//! extra word.

use sa_sim::{PagedVec, SimTime, UpcallKind};

/// Rows per page of the log's record streams.
const LOG_PAGE: usize = 4096;

/// What an allocator decision decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocDecisionKind {
    /// A `targets()` recomputation (about one per request on the SLO
    /// profiles).
    Targets,
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
    },
}

impl AllocDecisionKind {
    /// Short label for tables and CSV.
    pub fn name(&self) -> &'static str {
        match self {
            AllocDecisionKind::Targets => "targets",
            AllocDecisionKind::Grant { .. } => "grant",
            AllocDecisionKind::Victim { .. } => "victim",
        }
    }
}

/// One recorded allocator decision, as the log hands it out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDecision {
    /// Monotonic id (dense from 1 across all decision kinds).
    pub id: u64,
    /// When it was taken.
    pub at: SimTime,
    /// What was decided.
    pub kind: AllocDecisionKind,
}

/// A decision as the log stores it (module docs, "Storage").
#[derive(Clone, Copy)]
struct DecisionRow {
    at: SimTime,
    /// Kind tag, processor and space.
    word: u64,
}

// The log's memory figures (DESIGN.md §6, "Storage") assume these row
// sizes: a layout change must fail here, not only in the peak-RSS gates.
const _: () = assert!(core::mem::size_of::<DecisionRow>() == 16);
const _: () = assert!(core::mem::size_of::<GrantChain>() == 32);

/// Bits of a packed decision word that hold the processor.
const CPU_BITS: u32 = 30;

impl DecisionRow {
    /// Packs `kind` taken at `at`. Panics on a processor of 2³⁰ or more,
    /// which the word has no room for.
    fn pack(at: SimTime, kind: AllocDecisionKind) -> Self {
        let (tag, cpu, space) = match kind {
            AllocDecisionKind::Targets => (0, 0, 0),
            AllocDecisionKind::Grant { cpu, space } => (1, cpu, space),
            AllocDecisionKind::Victim { cpu, space } => (2, cpu, space),
        };
        assert!(
            cpu < 1 << CPU_BITS,
            "decision on cpu{cpu}: the log packs processors below 2^{CPU_BITS}"
        );
        DecisionRow {
            at,
            word: tag << (CPU_BITS + 32) | u64::from(cpu) << 32 | u64::from(space),
        }
    }

    /// The decision this row holds, given its id.
    fn unpack(self, id: u64) -> AllocDecision {
        let cpu = (self.word >> 32) as u32 & ((1 << CPU_BITS) - 1);
        let space = self.word as u32;
        let kind = match self.word >> (CPU_BITS + 32) {
            0 => AllocDecisionKind::Targets,
            1 => AllocDecisionKind::Grant { cpu, space },
            2 => AllocDecisionKind::Victim { cpu, space },
            tag => unreachable!("decision row with kind tag {tag}"),
        };
        AllocDecision {
            id,
            at: self.at,
            kind,
        }
    }
}

/// Every recorded decision, in id order, stored packed (module docs,
/// "Storage"); read back by value.
#[derive(Clone, Default)]
pub struct DecisionStream {
    /// The id of the first row; row `i` holds decision `first + i`.
    first: u64,
    rows: PagedVec<DecisionRow, LOG_PAGE>,
}

impl DecisionStream {
    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The decision with id `id`, or `None` if it was not recorded.
    pub fn get(&self, id: u64) -> Option<AllocDecision> {
        let row = usize::try_from(id.checked_sub(self.first)?).ok()?;
        self.rows.get(row).map(|r| r.unpack(id))
    }

    /// Iterates the decisions in id order.
    pub fn iter(&self) -> DecisionIter<'_> {
        let first = self.first;
        DecisionIter {
            stream: self,
            ids: first..first + self.rows.len() as u64,
        }
    }

    /// Appends decision `d`, which must take the next id: the first push
    /// sets the stream's first id, and ids are dense from there.
    pub(crate) fn push(&mut self, d: AllocDecision) {
        if self.rows.is_empty() {
            self.first = d.id;
        }
        debug_assert_eq!(
            d.id,
            self.first + self.rows.len() as u64,
            "decision ids are not dense"
        );
        self.rows.push(DecisionRow::pack(d.at, d.kind));
    }
}

impl core::fmt::Debug for DecisionStream {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a DecisionStream {
    type Item = AllocDecision;
    type IntoIter = DecisionIter<'a>;

    fn into_iter(self) -> DecisionIter<'a> {
        self.iter()
    }
}

/// The decisions of a [`DecisionStream`], by value, in id order.
#[derive(Clone)]
pub struct DecisionIter<'a> {
    stream: &'a DecisionStream,
    /// The ids not yet yielded.
    ids: core::ops::Range<u64>,
}

impl DecisionIter<'_> {
    /// The decision with id `id`, which the stream holds.
    fn decode(&self, id: u64) -> AllocDecision {
        self.stream.rows[(id - self.stream.first) as usize].unpack(id)
    }
}

impl Iterator for DecisionIter<'_> {
    type Item = AllocDecision;

    fn next(&mut self) -> Option<AllocDecision> {
        let id = self.ids.next()?;
        Some(self.decode(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl DoubleEndedIterator for DecisionIter<'_> {
    fn next_back(&mut self) -> Option<AllocDecision> {
        let id = self.ids.next_back()?;
        Some(self.decode(id))
    }
}

/// The causal chain of one grant to a scheduler-activation space:
/// decision → `add_processor` upcall → first user dispatch. Timestamps
/// are absolute; the legs telescope. The granted processor and the
/// receiving space are in the `Grant` record the chain's `decision`
/// names (`ProvenanceLog::decisions.get(decision)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantChain {
    /// The grant decision this chain belongs to.
    pub decision: u64,
    /// When the allocator decided (and assigned the CPU).
    pub decided_at: SimTime,
    /// See [`GrantChain::upcall_at`]; `SimTime::MAX` until set.
    upcall_at: SimTime,
    /// See [`GrantChain::first_dispatch_at`]; `SimTime::MAX` until set.
    first_dispatch_at: SimTime,
}

impl GrantChain {
    /// The chain `decision` opens at `decided_at`, with neither later leg
    /// closed yet.
    pub fn new(decision: u64, decided_at: SimTime) -> Self {
        GrantChain {
            decision,
            decided_at,
            upcall_at: SimTime::MAX,
            first_dispatch_at: SimTime::MAX,
        }
    }

    /// When the `add_processor` upcall batch reached the runtime
    /// (`None`: the grant aborted — upcall deferred on a runtime page
    /// fault and the CPU was returned).
    pub fn upcall_at(&self) -> Option<SimTime> {
        (self.upcall_at != SimTime::MAX).then_some(self.upcall_at)
    }

    /// When the first user-work segment started on the granted CPU
    /// (`None`: the processor was reclaimed before any user work ran).
    pub fn first_dispatch_at(&self) -> Option<SimTime> {
        (self.first_dispatch_at != SimTime::MAX).then_some(self.first_dispatch_at)
    }

    /// Closes the upcall leg at `at`.
    pub(crate) fn set_upcall_at(&mut self, at: SimTime) {
        debug_assert!(at != SimTime::MAX, "SimTime::MAX marks an unset leg");
        self.upcall_at = at;
    }

    /// Closes the first-dispatch leg at `at`.
    pub(crate) fn set_first_dispatch_at(&mut self, at: SimTime) {
        debug_assert!(at != SimTime::MAX, "SimTime::MAX marks an unset leg");
        self.first_dispatch_at = at;
    }

    /// The three legs (decision→preempt, preempt→upcall, upcall→first
    /// dispatch) in nanoseconds, for a completed chain (the upcall was
    /// delivered and user work ran). The first leg is always 0: under
    /// the simulator's instantaneous-IPI model a victim the grant needed
    /// stops in the decision's own instant.
    pub fn legs_ns(&self) -> Option<[u64; 3]> {
        let up = self.upcall_at()?;
        let fd = self.first_dispatch_at()?;
        Some([
            0,
            up.since(self.decided_at).as_nanos(),
            fd.since(up).as_nanos(),
        ])
    }

    /// Decision-to-first-dispatch total (the episode's startup wait),
    /// for a completed chain. Equals the sum of [`GrantChain::legs_ns`]
    /// exactly, by telescoping.
    pub fn startup_wait_ns(&self) -> Option<u64> {
        Some(self.first_dispatch_at()?.since(self.decided_at).as_nanos())
    }
}

/// The decision-provenance log (enable with
/// [`Kernel::enable_decision_log`](crate::Kernel::enable_decision_log),
/// read with [`Kernel::decision_log`](crate::Kernel::decision_log)).
///
/// Append-only, in pages that never move (see the module docs): growth
/// allocates one page and copies nothing.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLog {
    /// Every decision, in id order (4 096-row pages of 16-B rows).
    pub decisions: DecisionStream,
    /// Grant chains for scheduler-activation spaces, in decision order
    /// (4 096-row pages).
    pub grants: PagedVec<GrantChain, LOG_PAGE>,
}

impl ProvenanceLog {
    /// The grant chain for `decision`, if one was opened (grants are
    /// pushed in decision order, so this is a binary search).
    pub fn grant(&self, decision: u64) -> Option<&GrantChain> {
        self.find_grant(decision, self.grants.len())
            .map(|i| &self.grants[i])
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
    pub(crate) fn grant_mut(&mut self, decision: u64) -> Option<&mut GrantChain> {
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
    /// `space` at `now`: it names a recorded decision, of the kind the
    /// event reports (grant → `AddProcessor`, victim → `Preempted`),
    /// about the receiving space, taken no later than now. Deliveries to
    /// one space are then monotone in time because the clock is. (That
    /// ids are dense is checked as each decision is recorded.)
    pub(crate) fn check_stamp(&self, space: u32, decision: u64, kind: UpcallKind, now: SimTime) {
        let Some(d) = self.decisions.get(decision) else {
            panic!(
                "upcall stamped with decision {decision}, {} recorded",
                self.decisions.len()
            )
        };
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// A chain with its legs closed as given.
    fn chain(
        decision: u64,
        decided_at: SimTime,
        upcall_at: Option<SimTime>,
        first_dispatch_at: Option<SimTime>,
    ) -> GrantChain {
        let mut g = GrantChain::new(decision, decided_at);
        if let Some(at) = upcall_at {
            g.set_upcall_at(at);
        }
        if let Some(at) = first_dispatch_at {
            g.set_first_dispatch_at(at);
        }
        g
    }

    #[test]
    fn grant_chain_legs_telescope_exactly() {
        let g = chain(7, t(100), Some(t(137)), Some(t(161)));
        let legs = g.legs_ns().unwrap();
        assert_eq!(legs, [0, 37_000, 24_000]);
        assert_eq!(legs.iter().sum::<u64>(), g.startup_wait_ns().unwrap());
    }

    #[test]
    fn aborted_chain_has_no_legs() {
        let g = GrantChain::new(3, t(5));
        assert_eq!((g.upcall_at(), g.first_dispatch_at()), (None, None));
        assert_eq!(g.legs_ns(), None);
        assert_eq!(g.startup_wait_ns(), None);
    }

    #[test]
    fn log_finds_grants_by_decision_id() {
        let mut log = ProvenanceLog::default();
        for d in [2u64, 5, 9] {
            log.grants.push(GrantChain::new(d, t(d)));
        }
        assert_eq!(log.grant(5).unwrap().decided_at, t(5));
        assert!(log.grant(4).is_none());
        log.grant_mut(9).unwrap().set_upcall_at(t(10));
        assert_eq!(log.grant(9).unwrap().upcall_at(), Some(t(10)));
    }

    #[test]
    fn tail_biased_grant_lookup_matches_binary_search() {
        let mut log = ProvenanceLog::default();
        for d in 0..100u64 {
            log.grants.push(GrantChain::new(d * 3 + 1, t(d)));
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
        assert_eq!(AllocDecisionKind::Targets.name(), "targets");
        assert_eq!(
            AllocDecisionKind::Grant { cpu: 0, space: 0 }.name(),
            "grant"
        );
        assert_eq!(
            AllocDecisionKind::Victim { cpu: 0, space: 0 }.name(),
            "victim"
        );
    }

    /// Any decision the packing accepts: every kind, cpu below 2^30, any
    /// space, any time below `SimTime::MAX`.
    fn decision_kinds() -> impl Strategy<Value = AllocDecisionKind> {
        let cpu = || prop_oneof![0u32..64, 0u32..1 << CPU_BITS, Just((1u32 << CPU_BITS) - 1)];
        let space = || prop_oneof![0u32..64, any::<u32>(), Just(u32::MAX)];
        prop_oneof![
            Just(AllocDecisionKind::Targets),
            (cpu(), space()).prop_map(|(cpu, space)| AllocDecisionKind::Grant { cpu, space }),
            (cpu(), space()).prop_map(|(cpu, space)| AllocDecisionKind::Victim { cpu, space }),
        ]
    }

    fn times() -> impl Strategy<Value = SimTime> {
        prop_oneof![0u64..1_000_000, 0u64..u64::MAX, Just(u64::MAX - 1)]
            .prop_map(SimTime::from_nanos)
    }

    proptest! {
        /// Decisions read back exactly as pushed, by id, by `iter` in
        /// both directions and by `for d in &stream`, from any first id.
        #[test]
        fn decisions_read_back_as_pushed(
            first in prop_oneof![Just(1u64), 1u64..1 << 40],
            rows in prop::collection::vec((times(), decision_kinds()), 0..300),
        ) {
            let mut stream = DecisionStream::default();
            let pushed: Vec<AllocDecision> = rows
                .iter()
                .zip(first..)
                .map(|(&(at, kind), id)| AllocDecision { id, at, kind })
                .collect();
            for &d in &pushed {
                stream.push(d);
            }
            prop_assert_eq!(stream.len(), pushed.len());
            prop_assert_eq!(stream.is_empty(), pushed.is_empty());
            for &d in &pushed {
                prop_assert_eq!(stream.get(d.id), Some(d));
            }
            prop_assert_eq!(stream.get(first - 1), None);
            prop_assert_eq!(stream.get(first + pushed.len() as u64), None);
            prop_assert_eq!(stream.iter().collect::<Vec<_>>(), pushed.clone());
            prop_assert!(stream.iter().rev().eq(pushed.iter().rev().copied()));
            let mut looped = Vec::new();
            for d in &stream {
                looped.push(d);
            }
            prop_assert_eq!(looped, pushed);
        }

        /// Chains read back exactly as built, with every mix of set and
        /// unset legs.
        #[test]
        fn grant_chains_read_back_as_built(
            decision in any::<u64>(),
            decided_at in times(),
            upcall_at in prop_oneof![Just(None), times().prop_map(Some)],
            first_dispatch_at in prop_oneof![Just(None), times().prop_map(Some)],
        ) {
            let g = chain(decision, decided_at, upcall_at, first_dispatch_at);
            prop_assert_eq!(g.decision, decision);
            prop_assert_eq!(g.decided_at, decided_at);
            prop_assert_eq!(g.upcall_at(), upcall_at);
            prop_assert_eq!(g.first_dispatch_at(), first_dispatch_at);
        }
    }

    #[test]
    #[should_panic(expected = "packs processors below 2^30")]
    fn a_decision_on_cpu_2_pow_30_does_not_pack() {
        let mut stream = DecisionStream::default();
        stream.push(AllocDecision {
            id: 1,
            at: t(1),
            kind: AllocDecisionKind::Grant {
                cpu: 1 << 30,
                space: 0,
            },
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "decision ids are not dense")]
    fn a_decision_pushed_out_of_id_order_is_caught() {
        let mut stream = DecisionStream::default();
        for id in [1, 2, 4] {
            stream.push(AllocDecision {
                id,
                at: t(id),
                kind: AllocDecisionKind::Targets,
            });
        }
    }
}
