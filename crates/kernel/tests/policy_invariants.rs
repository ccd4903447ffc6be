//! Property tests of the §4.1 allocation invariants over *every* built-in
//! [`AllocPolicy`] — the contract the trait documents:
//!
//! 1. Work conservation: `sum(targets) == min(total_cpus, sum(demands))` —
//!    no processor idles while any space has unmet demand, and the
//!    allocation never exceeds the machine.
//! 2. Demand cap: `targets[i] <= spaces[i].demand` — a space is never
//!    handed processors it did not ask for.
//! 3. `pick_cpu` returns a member of the free set it was offered.
//! 4. Purity: the same view yields the same answer, twice — policies may
//!    not smuggle in host state (the determinism rule the module docs
//!    impose on policy authors).
//! 5. The kernel's allocation-free path — each built-in policy's core on
//!    reused buffers, and the memo that skips repeated views — answers
//!    exactly what a fresh `AllocPolicy::targets` does.

use proptest::prelude::*;
use sa_kernel::policy::{AllocPolicySelect, PolicyScratch, TargetsMemo};
use sa_kernel::{AllocPolicyKind, AllocView, SpaceDemand};

/// A random space: small demands so contention, saturation, and zero
/// (finished/unstarted) demand are all common; a few priority levels so
/// strata interact.
fn space() -> impl Strategy<Value = SpaceDemand> {
    (0u32..12, 0u8..4, 0u32..7).prop_map(|(demand, priority, assigned)| SpaceDemand {
        demand,
        priority,
        assigned,
    })
}

proptest! {
    #[test]
    fn every_policy_satisfies_the_alloc_invariants(
        spaces in prop::collection::vec(space(), 1..10),
        cpus in 0u32..33,
        rotation in 0u32..64,
        owners in prop::collection::vec((0u32..10, any::<bool>()), 33),
        free_mask in prop::collection::vec(any::<bool>(), 33),
    ) {
        let last_space: Vec<Option<u32>> = owners
            .iter()
            .map(|&(s, some)| some.then_some(s % spaces.len() as u32))
            .collect();
        let free: Vec<usize> = (0..cpus as usize).filter(|&c| free_mask[c]).collect();
        let view = AllocView {
            spaces: &spaces,
            total_cpus: cpus,
            rotation,
            last_space: &last_space,
        };
        let demand_sum: u32 = spaces.iter().map(|s| s.demand).sum();
        for kind in AllocPolicyKind::ALL {
            let policy = kind.build();
            let (targets, remainder) = policy.targets(&view);
            prop_assert_eq!(targets.len(), spaces.len(), "{}: one target per space", kind);
            for (i, (&t, s)) in targets.iter().zip(&spaces).enumerate() {
                prop_assert!(
                    t <= s.demand,
                    "{}: space {i} granted {t} > demand {}",
                    kind, s.demand
                );
            }
            prop_assert_eq!(
                targets.iter().sum::<u32>(),
                cpus.min(demand_sum),
                "{}: not work-conserving (cpus {}, demand {})",
                kind, cpus, demand_sum
            );
            // Purity: ask again, get the same answer.
            let (again, rem_again) = policy.targets(&view);
            prop_assert_eq!(&again, &targets, "{}: targets not a pure function", kind);
            prop_assert_eq!(rem_again, remainder, "{}: remainder not a pure function", kind);
            if !free.is_empty() {
                for s in 0..spaces.len() {
                    let cpu = policy.pick_cpu(&view, s, &free);
                    prop_assert!(
                        free.contains(&cpu),
                        "{}: pick_cpu({s}) chose cpu {cpu} outside the free set {:?}",
                        kind, free
                    );
                }
            }
        }
    }

    /// Rotating the remainder must move processors around *without*
    /// changing the total handed out or violating any per-space cap —
    /// rotation redistributes, it never creates or destroys capacity.
    #[test]
    fn rotation_preserves_totals(
        spaces in prop::collection::vec(space(), 1..8),
        cpus in 1u32..16,
    ) {
        let demand_sum: u32 = spaces.iter().map(|s| s.demand).sum();
        for kind in AllocPolicyKind::ALL {
            let policy = kind.build();
            let mut sums = Vec::new();
            for rotation in 0..8 {
                let view = AllocView {
                    spaces: &spaces,
                    total_cpus: cpus,
                    rotation,
                    last_space: &[],
                };
                let (targets, _) = policy.targets(&view);
                for (i, (&t, s)) in targets.iter().zip(&spaces).enumerate() {
                    prop_assert!(
                        t <= s.demand,
                        "{}: rotation {rotation}, space {i} over demand",
                        kind
                    );
                }
                sums.push(targets.iter().sum::<u32>());
            }
            prop_assert!(
                sums.iter().all(|&s| s == cpus.min(demand_sum)),
                "{}: rotation changed the allocated total: {:?}",
                kind, sums
            );
        }
    }

    /// The kernel asks a policy for targets through a one-entry memo (the
    /// last view and its answer) and the built-in policies' cores write
    /// into reused buffers. Over random view sequences — repeated views,
    /// rotation bumps, and single-field edits to demand, assignment and
    /// last owner — both must equal a fresh `AllocPolicy::targets` for
    /// every built-in policy, through the enum and through `Custom`, and
    /// the memo must answer exactly the calls whose view repeats the
    /// previous call's.
    #[test]
    fn memo_and_core_equal_fresh_targets(
        start in prop::collection::vec(space(), 1..10),
        cpus in 0u32..33,
        steps in prop::collection::vec((0u8..8, 0usize..33, 0u32..12), 1..40),
    ) {
        for kind in AllocPolicyKind::ALL {
            let fresh = kind.build();
            for select in [kind.build_select(), AllocPolicySelect::Custom(kind.build())] {
                let mut spaces = start.clone();
                let mut last_space: Vec<Option<u32>> = vec![None; cpus as usize];
                let mut rotation = 0u32;
                let mut memo = TargetsMemo::default();
                let mut scratch = PolicyScratch::default();
                let mut core = Vec::new();
                let mut prev = None;
                let mut repeats = 0u64;
                for &(op, i, v) in &steps {
                    let n = spaces.len();
                    match op {
                        0..=2 => {}
                        3 | 4 => rotation += 1,
                        5 => spaces[i % n].demand = v,
                        6 => spaces[i % n].assigned = v % 7,
                        _ if !last_space.is_empty() => {
                            let cpu = i % last_space.len();
                            last_space[cpu] = (v % 3 != 0).then_some(v % n as u32);
                        }
                        _ => {}
                    }
                    let key = (spaces.clone(), last_space.clone(), rotation);
                    repeats += u64::from(prev.as_ref() == Some(&key));
                    prev = Some(key);
                    let view = AllocView {
                        spaces: &spaces,
                        total_cpus: cpus,
                        rotation,
                        last_space: &last_space,
                    };
                    let (want, want_rem) = fresh.targets(&view);
                    let core_rem = select.targets_into(&view, &mut scratch, &mut core);
                    prop_assert_eq!(&core, &want, "{}: core differs from fresh targets", kind);
                    prop_assert_eq!(core_rem, want_rem, "{}: core remainder differs", kind);
                    let (got, got_rem) = memo.targets(&select, &view);
                    prop_assert_eq!(got, &want[..], "{}: memo differs from fresh targets", kind);
                    prop_assert_eq!(got_rem, want_rem, "{}: memo remainder differs", kind);
                }
                prop_assert_eq!(memo.calls(), steps.len() as u64);
                prop_assert_eq!(memo.hits(), repeats, "{}: memo hit count", kind);
            }
        }
    }
}
