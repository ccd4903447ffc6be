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
//! the largest thing a run holds, so it grows without copying: both
//! record streams are [`PagedVec`]s (4 096-row pages that never move).

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
const _: () = assert!(core::mem::size_of::<GrantChain>() == 48);

/// The causal chain of one grant to a scheduler-activation space:
/// decision → `add_processor` upcall → first user dispatch. Timestamps
/// are absolute; the legs telescope. The granted processor and the
/// receiving space are in the `Grant` record the chain's `decision`
/// names (`ProvenanceLog::decisions[decision - 1]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantChain {
    /// The grant decision this chain belongs to.
    pub decision: u64,
    /// When the allocator decided (and assigned the CPU).
    pub decided_at: SimTime,
    /// When the `add_processor` upcall batch reached the runtime
    /// (`None`: the grant aborted — upcall deferred on a runtime page
    /// fault and the CPU was returned).
    pub upcall_at: Option<SimTime>,
    /// When the first user-work segment started on the granted CPU
    /// (`None`: the processor was reclaimed before any user work ran).
    pub first_dispatch_at: Option<SimTime>,
}

impl GrantChain {
    /// The three legs (decision→preempt, preempt→upcall, upcall→first
    /// dispatch) in nanoseconds, for a completed chain (the upcall was
    /// delivered and user work ran). The first leg is always 0: under
    /// the simulator's instantaneous-IPI model a victim the grant needed
    /// stops in the decision's own instant.
    pub fn legs_ns(&self) -> Option<[u64; 3]> {
        let up = self.upcall_at?;
        let fd = self.first_dispatch_at?;
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
        Some(self.first_dispatch_at?.since(self.decided_at).as_nanos())
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
    /// Every decision, in id order (4 096-row pages).
    pub decisions: PagedVec<AllocDecision, LOG_PAGE>,
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
    /// `space` at `now`: it names a recorded decision (ids are dense from
    /// 1), of the kind the event reports (grant → `AddProcessor`, victim
    /// → `Preempted`), about the receiving space, taken no later than
    /// now. Deliveries to one space are then monotone in time because
    /// the clock is.
    pub(crate) fn check_stamp(&self, space: u32, decision: u64, kind: UpcallKind, now: SimTime) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn grant_chain_legs_telescope_exactly() {
        let g = GrantChain {
            decision: 7,
            decided_at: t(100),
            upcall_at: Some(t(137)),
            first_dispatch_at: Some(t(161)),
        };
        let legs = g.legs_ns().unwrap();
        assert_eq!(legs, [0, 37_000, 24_000]);
        assert_eq!(legs.iter().sum::<u64>(), g.startup_wait_ns().unwrap());
    }

    #[test]
    fn aborted_chain_has_no_legs() {
        let g = GrantChain {
            decision: 3,
            decided_at: t(5),
            upcall_at: None,
            first_dispatch_at: None,
        };
        assert_eq!(g.legs_ns(), None);
        assert_eq!(g.startup_wait_ns(), None);
    }

    #[test]
    fn log_finds_grants_by_decision_id() {
        let mut log = ProvenanceLog::default();
        for d in [2u64, 5, 9] {
            log.grants.push(GrantChain {
                decision: d,
                decided_at: t(d),
                upcall_at: None,
                first_dispatch_at: None,
            });
        }
        assert_eq!(log.grant(5).unwrap().decided_at, t(5));
        assert!(log.grant(4).is_none());
        log.grant_mut(9).unwrap().upcall_at = Some(t(10));
        assert_eq!(log.grant(9).unwrap().upcall_at, Some(t(10)));
    }

    #[test]
    fn tail_biased_grant_lookup_matches_binary_search() {
        let mut log = ProvenanceLog::default();
        for d in 0..100u64 {
            log.grants.push(GrantChain {
                decision: d * 3 + 1,
                decided_at: t(d),
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
}
