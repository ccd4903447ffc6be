//! Pluggable processor-allocation policies: the *policy* half of the
//! allocator's policy/mechanism split.
//!
//! The paper's point (§4.1–§4.2) is that processor allocation is a policy
//! layered on a fixed mechanism — the kernel moves processors between
//! address spaces (preempt, release, grant, notify), while *which* space
//! deserves *how many* processors is a separable decision. This module
//! holds that decision. A policy sees only an [`AllocView`] — per-space
//! demand, priority, and current assignment plus per-CPU last-owner facts
//! — and answers two questions:
//!
//! 1. [`AllocPolicy::targets`]: how many processors should each space
//!    hold right now?
//! 2. [`AllocPolicy::pick_cpu`]: given several free processors, which one
//!    should a particular space receive?
//!
//! The mechanism in [`crate::alloc`] does the rest (victim selection,
//! deferred preemption at segment boundaries, §3.1 notifications).
//!
//! # Determinism rules for policy authors
//!
//! Policies run inside a deterministic single-threaded simulation whose
//! results must be byte-identical across runs and across host-parallel
//! sweep workers. A policy must therefore be a *pure function of its
//! view*: no interior mutability, no host randomness, no clocks, no
//! iteration over unordered containers. Ties must be broken by stable
//! criteria (lowest space index, lowest CPU index). The only sanctioned
//! source of time-variation is [`AllocView::rotation`], which the kernel
//! bumps once per quantum while a remainder exists.
//!
//! Purity is load-bearing, not advisory: the kernel memoizes `targets`
//! ([`TargetsMemo`]) and asks the policy again only when the view
//! differs from the last one it asked about. A policy whose answer
//! depends on anything outside the view would silently see fewer calls
//! than the kernel makes decisions.

use sa_sim::SimDuration;
use std::cmp::Reverse;
use std::fmt;
use std::str::FromStr;

/// Read-only per-space facts a policy may consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceDemand {
    /// Current processor demand (0 for unstarted or finished spaces).
    /// Kernel-direct spaces' demand is read from internal kernel
    /// structures; SA spaces' demand comes from their Table 3 hints.
    pub demand: u32,
    /// Allocation priority: higher wins (kernel daemons sit above all
    /// application spaces).
    pub priority: u8,
    /// Processors currently assigned to the space.
    pub assigned: u32,
}

/// A read-only snapshot of the allocator-relevant kernel state.
pub struct AllocView<'a> {
    /// Per-space facts, indexed by space.
    pub spaces: &'a [SpaceDemand],
    /// Total processors in the machine.
    pub total_cpus: u32,
    /// Rotation counter for remainder processors: bumped once per quantum
    /// while the division leaves a remainder (§4.1 time-slicing).
    pub rotation: u32,
    /// Per-CPU: the space that last ran on this processor, if any
    /// (§4.2's cache-affinity consideration).
    pub last_space: &'a [Option<u32>],
}

/// A processor-allocation policy.
///
/// `Send` because whole simulations are fanned across host threads by the
/// sweep harness; policies are stateless values, never shared.
pub trait AllocPolicy: Send {
    /// Stable policy name (CLI `--alloc=` value).
    fn name(&self) -> &'static str;

    /// The target allocation: how many processors each space should hold.
    /// Also reports whether the division left a remainder, so the kernel
    /// knows to keep the rotation timer running.
    ///
    /// Must be a pure function of `view`: the kernel memoizes the answer
    /// and skips the call while the view is unchanged (see
    /// [`TargetsMemo`]).
    ///
    /// Every policy must satisfy the §4.1 invariants (proptested in
    /// `tests/policy_invariants.rs`): `targets[i] <= spaces[i].demand`,
    /// and `sum(targets) == min(total_cpus, sum(demands))` — no processor
    /// idles while any space has unmet demand, and allocations never
    /// exceed the machine.
    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool);

    /// Given the free processors (`free` is non-empty, ascending), which
    /// one should `space` receive? Must return a member of `free`.
    fn pick_cpu(&self, _view: &AllocView<'_>, _space: usize, free: &[usize]) -> usize {
        free[0]
    }

    /// Minimum dwell: how long a space must hold a granted processor
    /// before the allocator may pick it as a reallocation or steal
    /// victim. `None` (the default) disables the debounce entirely — the
    /// mechanism takes the exact pre-hysteresis paths, so every policy
    /// without a dwell is byte-identical to before this hook existed.
    /// Voluntary releases (the runtime yields the processor, the space
    /// finishes) are never delayed.
    fn min_dwell(&self) -> Option<SimDuration> {
        None
    }
}

/// Reusable working storage for the built-in policies' allocation-free
/// cores ([`AllocPolicySelect::targets_into`]). Holds no state between
/// calls: any scratch gives the same answer as a fresh one.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch {
    /// Space indices by descending priority, ties by ascending index.
    order: Vec<usize>,
    /// One priority level's claimants: `(space index, demand)`.
    group: Vec<(usize, u32)>,
}

/// Clears `out` to one zero target per space of `view`.
fn reset_targets(out: &mut Vec<u32>, view: &AllocView<'_>) {
    out.clear();
    out.resize(view.spaces.len(), 0);
}

/// Fills `order` with the space indices by descending priority, ties by
/// ascending index. The keys are unique, so the in-place unstable sort
/// gives exactly the stable sort's order without its buffer.
fn sort_by_priority(order: &mut Vec<usize>, view: &AllocView<'_>) {
    order.clear();
    order.extend(0..view.spaces.len());
    order.sort_unstable_by_key(|&i| (Reverse(view.spaces[i].priority), i));
}

/// The paper's §4.1 policy: priorities strictly dominate, and within a
/// priority level processors are divided evenly, with unused shares
/// redistributed ("if some address spaces do not need all of the
/// processors in their share, those processors are divided evenly among
/// the remainder"). When the division leaves a remainder, the extra
/// processors go to a rotating subset of the claimants.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpaceShareEven;

impl SpaceShareEven {
    /// The allocation-free core of [`AllocPolicy::targets`]: writes one
    /// target per space into `out` (reusing its capacity) and returns
    /// the remainder flag.
    pub(crate) fn targets_into(
        &self,
        view: &AllocView<'_>,
        scratch: &mut PolicyScratch,
        out: &mut Vec<u32>,
    ) -> bool {
        reset_targets(out, view);
        let mut has_remainder = false;
        let mut avail = view.total_cpus;
        let PolicyScratch { order, group } = scratch;
        sort_by_priority(order, view);
        let mut i = 0;
        while i < order.len() && avail > 0 {
            let prio = view.spaces[order[i]].priority;
            // One priority level's claimants, in ascending index order (a
            // run of `order`, whose ties break by index): the rotation
            // below counts positions in that order.
            group.clear();
            while i < order.len() && view.spaces[order[i]].priority == prio {
                let idx = order[i];
                let d = view.spaces[idx].demand;
                if d > 0 {
                    group.push((idx, d));
                }
                i += 1;
            }
            // Waterfall even split within the priority level.
            while !group.is_empty() && avail > 0 {
                let share = avail / group.len() as u32;
                let len = group.len();
                let start = (view.rotation as usize) % len;
                if share == 0 {
                    // Fewer processors than claimants: one each to a
                    // rotating window of claimants (time-slicing the
                    // remainder, deterministically).
                    has_remainder = true;
                    for k in 0..(avail as usize) {
                        let (idx, _) = group[(start + k) % len];
                        out[idx] += 1;
                    }
                    avail = 0;
                    break;
                }
                if group.iter().all(|&(_, d)| d > share) {
                    // Everyone wants more than the share: split evenly and
                    // hand the remainder out one-by-one, rotating who gets
                    // the extras.
                    let rem = (avail - share * len as u32) as usize;
                    if rem > 0 {
                        has_remainder = true;
                    }
                    for (k, &(idx, _)) in group.iter().enumerate() {
                        let gets_extra = (k + len - start) % len < rem;
                        out[idx] += share + u32::from(gets_extra);
                    }
                    avail = 0;
                    break;
                }
                // Satisfy everyone asking no more than the share; the
                // rest split what is left in the next round.
                group.retain(|&(idx, d)| {
                    let satisfied = d <= share;
                    if satisfied {
                        out[idx] += d;
                        avail -= d;
                    }
                    !satisfied
                });
            }
        }
        has_remainder
    }
}

impl AllocPolicy for SpaceShareEven {
    fn name(&self) -> &'static str {
        "even"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        let mut out = Vec::new();
        let rem = self.targets_into(view, &mut PolicyScratch::default(), &mut out);
        (out, rem)
    }
}

/// §4.2's cache-affinity note made allocation policy: shares are divided
/// exactly as [`SpaceShareEven`] does, but when several processors are
/// free the space preferentially receives one it ran on most recently
/// ("processors idle in the context of the address space they were last
/// used in, so that they can be reclaimed cheaply").
#[derive(Debug, Clone, Copy, Default)]
pub struct Affinity;

impl AllocPolicy for Affinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        SpaceShareEven.targets(view)
    }

    fn pick_cpu(&self, view: &AllocView<'_>, space: usize, free: &[usize]) -> usize {
        free.iter()
            .copied()
            .find(|&cpu| view.last_space.get(cpu).copied().flatten() == Some(space as u32))
            .unwrap_or(free[0])
    }
}

/// The §2.2 pathology as a policy: strict priority with no space-sharing.
/// Each space, in descending priority (ties by index), takes everything
/// it demands before any lower space sees a processor — so a demanding
/// high-priority space starves everyone below it, exactly the behavior
/// the paper's allocator exists to avoid. Useful for reproducing the
/// pathology on demand; never rotates shares.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrictPriority;

impl StrictPriority {
    /// The allocation-free core of [`AllocPolicy::targets`], as for
    /// [`SpaceShareEven`]; never reports a remainder.
    pub(crate) fn targets_into(
        &self,
        view: &AllocView<'_>,
        scratch: &mut PolicyScratch,
        out: &mut Vec<u32>,
    ) -> bool {
        reset_targets(out, view);
        let mut avail = view.total_cpus;
        sort_by_priority(&mut scratch.order, view);
        for &idx in &scratch.order {
            if avail == 0 {
                break;
            }
            let take = view.spaces[idx].demand.min(avail);
            out[idx] = take;
            avail -= take;
        }
        false
    }
}

impl AllocPolicy for StrictPriority {
    fn name(&self) -> &'static str {
        "strict-priority"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        let mut out = Vec::new();
        let rem = self.targets_into(view, &mut PolicyScratch::default(), &mut out);
        (out, rem)
    }
}

/// Default minimum dwell for [`Hysteresis`]: long enough to amortize the
/// upcall/stop machinery a reallocation costs (tens of microseconds per
/// move on the Firefly cost model) across many quanta, short enough that
/// the allocator still tracks bursty demand shifts.
pub const DEFAULT_MIN_DWELL: SimDuration = SimDuration::from_millis(50);

/// [`SpaceShareEven`] with reallocation hysteresis: targets are computed
/// exactly as the paper's §4.1 policy does, but a processor granted to a
/// space may not be *taken back* (reallocation victim or steal) until it
/// has dwelled there for [`Hysteresis::min_dwell`]. Bursty multi-space
/// loads otherwise make the allocator churn — a space's demand dips for
/// one quantum, its processor is pulled, and the next burst pays a full
/// grant + upcall round trip to get it back. The debounce trades a
/// bounded amount of allocation lag (at most `min_dwell` per move) for
/// that churn; the dwell ledger and `sa-experiments audit` judge the
/// trade.
#[derive(Debug, Clone, Copy)]
pub struct Hysteresis {
    /// Minimum time a granted processor is held before victim eligibility.
    pub min_dwell: SimDuration,
}

impl Default for Hysteresis {
    fn default() -> Self {
        Hysteresis {
            min_dwell: DEFAULT_MIN_DWELL,
        }
    }
}

impl AllocPolicy for Hysteresis {
    fn name(&self) -> &'static str {
        "hysteresis"
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        SpaceShareEven.targets(view)
    }

    fn min_dwell(&self) -> Option<SimDuration> {
        Some(self.min_dwell)
    }
}

/// Selector for the built-in allocation policies (CLI / config surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocPolicyKind {
    /// [`SpaceShareEven`] — the paper's §4.1 default.
    #[default]
    SpaceShareEven,
    /// [`Affinity`] — §4.2 cache-affinity grant preference.
    Affinity,
    /// [`StrictPriority`] — the §2.2 starvation pathology.
    StrictPriority,
    /// [`Hysteresis`] — §4.1 shares with a minimum-dwell debounce.
    Hysteresis,
}

impl AllocPolicyKind {
    /// Every built-in policy, in CLI listing order.
    pub const ALL: [AllocPolicyKind; 4] = [
        AllocPolicyKind::SpaceShareEven,
        AllocPolicyKind::Affinity,
        AllocPolicyKind::StrictPriority,
        AllocPolicyKind::Hysteresis,
    ];

    /// Stable name (CLI `--alloc=` value).
    pub fn name(self) -> &'static str {
        match self {
            AllocPolicyKind::SpaceShareEven => "even",
            AllocPolicyKind::Affinity => "affinity",
            AllocPolicyKind::StrictPriority => "strict-priority",
            AllocPolicyKind::Hysteresis => "hysteresis",
        }
    }

    /// Instantiates the policy as an enum-dispatched
    /// [`AllocPolicySelect`] (the kernel's storage form: built-in
    /// policies dispatch statically, see the type's docs).
    pub fn build_select(self) -> AllocPolicySelect {
        match self {
            AllocPolicyKind::SpaceShareEven => AllocPolicySelect::Even(SpaceShareEven),
            AllocPolicyKind::Affinity => AllocPolicySelect::Affinity(Affinity),
            AllocPolicyKind::StrictPriority => AllocPolicySelect::StrictPriority(StrictPriority),
            AllocPolicyKind::Hysteresis => AllocPolicySelect::Hysteresis(Hysteresis::default()),
        }
    }

    /// Instantiates the policy as a trait object.
    pub fn build(self) -> Box<dyn AllocPolicy> {
        match self {
            AllocPolicyKind::SpaceShareEven => Box::new(SpaceShareEven),
            AllocPolicyKind::Affinity => Box::new(Affinity),
            AllocPolicyKind::StrictPriority => Box::new(StrictPriority),
            AllocPolicyKind::Hysteresis => Box::new(Hysteresis::default()),
        }
    }
}

impl fmt::Display for AllocPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AllocPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "even" | "space-share-even" => Ok(AllocPolicyKind::SpaceShareEven),
            "affinity" => Ok(AllocPolicyKind::Affinity),
            "strict-priority" | "priority" => Ok(AllocPolicyKind::StrictPriority),
            "hysteresis" | "dwell" => Ok(AllocPolicyKind::Hysteresis),
            other => Err(format!(
                "unknown allocation policy '{other}' (expected one of: {})",
                AllocPolicyKind::ALL.map(|k| k.name()).join(", ")
            )),
        }
    }
}

/// Enum-dispatched allocation-policy holder: the kernel's storage form.
///
/// Every kernel configures one of the built-in policies via
/// [`AllocPolicyKind`], so the `Box<dyn AllocPolicy>` the kernel held
/// since the policy/mechanism split was provably monomorphic at every
/// `targets`/`pick_cpu` call; this enum resolves those calls statically
/// while [`Custom`] keeps the open trait for out-of-tree policies and
/// for wrappers around the built-in ones (see
/// [`crate::Kernel::set_alloc_policy`]).
///
/// [`Custom`]: AllocPolicySelect::Custom
pub enum AllocPolicySelect {
    /// [`SpaceShareEven`], statically dispatched.
    Even(SpaceShareEven),
    /// [`Affinity`], statically dispatched.
    Affinity(Affinity),
    /// [`StrictPriority`], statically dispatched.
    StrictPriority(StrictPriority),
    /// [`Hysteresis`], statically dispatched.
    Hysteresis(Hysteresis),
    /// Any other policy, behind the original trait object.
    Custom(Box<dyn AllocPolicy>),
}

impl AllocPolicySelect {
    /// Stable policy name (see [`AllocPolicy::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            AllocPolicySelect::Even(p) => p.name(),
            AllocPolicySelect::Affinity(p) => p.name(),
            AllocPolicySelect::StrictPriority(p) => p.name(),
            AllocPolicySelect::Hysteresis(p) => p.name(),
            AllocPolicySelect::Custom(p) => p.name(),
        }
    }

    /// [`AllocPolicy::targets`] written into `out` (reusing its
    /// capacity); returns the remainder flag. The built-in policies run
    /// their allocation-free cores on `scratch`; [`Custom`] calls its
    /// trait object and moves the answer in.
    ///
    /// [`Custom`]: AllocPolicySelect::Custom
    pub fn targets_into(
        &self,
        view: &AllocView<'_>,
        scratch: &mut PolicyScratch,
        out: &mut Vec<u32>,
    ) -> bool {
        match self {
            AllocPolicySelect::Even(_)
            | AllocPolicySelect::Affinity(_)
            | AllocPolicySelect::Hysteresis(_) => SpaceShareEven.targets_into(view, scratch, out),
            AllocPolicySelect::StrictPriority(p) => p.targets_into(view, scratch, out),
            AllocPolicySelect::Custom(p) => {
                let (targets, rem) = p.targets(view);
                *out = targets;
                rem
            }
        }
    }

    /// See [`AllocPolicy::pick_cpu`].
    pub fn pick_cpu(&self, view: &AllocView<'_>, space: usize, free: &[usize]) -> usize {
        match self {
            AllocPolicySelect::Even(p) => p.pick_cpu(view, space, free),
            AllocPolicySelect::Affinity(p) => p.pick_cpu(view, space, free),
            AllocPolicySelect::StrictPriority(p) => p.pick_cpu(view, space, free),
            AllocPolicySelect::Hysteresis(p) => p.pick_cpu(view, space, free),
            AllocPolicySelect::Custom(p) => p.pick_cpu(view, space, free),
        }
    }

    /// See [`AllocPolicy::min_dwell`].
    pub fn min_dwell(&self) -> Option<SimDuration> {
        match self {
            AllocPolicySelect::Even(p) => p.min_dwell(),
            AllocPolicySelect::Affinity(p) => p.min_dwell(),
            AllocPolicySelect::StrictPriority(p) => p.min_dwell(),
            AllocPolicySelect::Hysteresis(p) => p.min_dwell(),
            AllocPolicySelect::Custom(p) => p.min_dwell(),
        }
    }
}

/// The kernel's memo of [`AllocPolicy::targets`]: the last view it was
/// asked about and the policy's answer for it (targets plus the
/// remainder flag). The key is the whole [`AllocView`] — per-space
/// demand, priority and assignment, `last_space`, `rotation` and
/// `total_cpus` — so a hit returns exactly what the policy would, for
/// every policy that obeys the purity rule (the module docs), including
/// [`AllocPolicySelect::Custom`] ones.
///
/// Every buffer is reused: once they have grown to the machine's size, a
/// decision allocates nothing, hit or miss (built-in policies).
#[derive(Debug, Default)]
pub struct TargetsMemo {
    /// The memoized view; meaningful only while `valid`.
    spaces: Vec<SpaceDemand>,
    last_space: Vec<Option<u32>>,
    total_cpus: u32,
    rotation: u32,
    valid: bool,
    /// The policy's answer for that view.
    targets: Vec<u32>,
    has_remainder: bool,
    scratch: PolicyScratch,
    calls: u64,
    hits: u64,
}

impl TargetsMemo {
    /// `policy`'s targets for `view`: the memoized answer when `view`
    /// equals the last view asked about, otherwise a fresh one (which
    /// then becomes the memo).
    pub fn targets(&mut self, policy: &AllocPolicySelect, view: &AllocView<'_>) -> (&[u32], bool) {
        self.calls += 1;
        if self.valid && self.holds(view) {
            self.hits += 1;
        } else {
            self.has_remainder = policy.targets_into(view, &mut self.scratch, &mut self.targets);
            self.spaces.clear();
            self.spaces.extend_from_slice(view.spaces);
            self.last_space.clear();
            self.last_space.extend_from_slice(view.last_space);
            self.total_cpus = view.total_cpus;
            self.rotation = view.rotation;
            self.valid = true;
        }
        (&self.targets, self.has_remainder)
    }

    /// Is `view` the memoized view?
    fn holds(&self, view: &AllocView<'_>) -> bool {
        self.total_cpus == view.total_cpus
            && self.rotation == view.rotation
            && self.spaces == view.spaces
            && self.last_space == view.last_space
    }

    /// Forgets the memoized answer (the policy was replaced).
    pub fn clear(&mut self) {
        self.valid = false;
    }

    /// Calls to [`TargetsMemo::targets`] so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Calls answered from the memo, without asking the policy.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(spaces: &[SpaceDemand], cpus: u32, rotation: u32) -> (Vec<u32>, bool, Vec<u32>) {
        let v = AllocView {
            spaces,
            total_cpus: cpus,
            rotation,
            last_space: &[],
        };
        let (even, rem) = SpaceShareEven.targets(&v);
        let (strict, _) = StrictPriority.targets(&v);
        (even, rem, strict)
    }

    fn sd(demand: u32, priority: u8) -> SpaceDemand {
        SpaceDemand {
            demand,
            priority,
            assigned: 0,
        }
    }

    #[test]
    fn even_split_redistributes_unused_shares() {
        // 6 CPUs, demands 1 and 10 at equal priority: §4.1's example —
        // the small space gets its 1, the big one absorbs the rest.
        let (even, rem, _) = view_of(&[sd(1, 1), sd(10, 1)], 6, 0);
        assert_eq!(even, vec![1, 5]);
        assert!(!rem);
    }

    #[test]
    fn remainder_rotates() {
        // 5 CPUs between two equal claimants: the extra one rotates.
        let (a, rem_a, _) = view_of(&[sd(10, 1), sd(10, 1)], 5, 0);
        let (b, rem_b, _) = view_of(&[sd(10, 1), sd(10, 1)], 5, 1);
        assert!(rem_a && rem_b);
        assert_eq!(a.iter().sum::<u32>(), 5);
        assert_eq!(b.iter().sum::<u32>(), 5);
        assert_ne!(a, b, "rotation must move the remainder processor");
    }

    #[test]
    fn strict_priority_starves_lower_spaces() {
        // The §2.2 pathology: a demanding high-priority space takes the
        // whole machine; even split would have shared it.
        let (even, _, strict) = view_of(&[sd(6, 2), sd(6, 1)], 6, 0);
        assert_eq!(strict, vec![6, 0]);
        assert_eq!(even, vec![6, 0], "priorities dominate in both policies");
        let (even_eq, _, strict_eq) = view_of(&[sd(6, 1), sd(6, 1)], 6, 0);
        assert_eq!(even_eq, vec![3, 3]);
        assert_eq!(strict_eq, vec![6, 0], "ties break by index, no sharing");
    }

    #[test]
    fn affinity_prefers_last_owner_else_first_free() {
        let spaces = [sd(2, 1), sd(2, 1)];
        let v = AllocView {
            spaces: &spaces,
            total_cpus: 4,
            rotation: 0,
            last_space: &[None, Some(1), Some(0), None],
        };
        assert_eq!(Affinity.pick_cpu(&v, 0, &[1, 2, 3]), 2);
        assert_eq!(Affinity.pick_cpu(&v, 1, &[1, 2, 3]), 1);
        // No history for the space: fall back to the lowest free CPU,
        // which is what the default (even) policy always does.
        assert_eq!(Affinity.pick_cpu(&v, 0, &[0, 3]), 0);
        assert_eq!(SpaceShareEven.pick_cpu(&v, 0, &[2, 3]), 2);
    }

    #[test]
    fn hysteresis_shares_like_even_but_declares_a_dwell() {
        let spaces = [sd(1, 1), sd(10, 1)];
        let v = AllocView {
            spaces: &spaces,
            total_cpus: 6,
            rotation: 0,
            last_space: &[],
        };
        assert_eq!(
            Hysteresis::default().targets(&v),
            SpaceShareEven.targets(&v)
        );
        assert_eq!(
            Hysteresis::default().min_dwell(),
            Some(DEFAULT_MIN_DWELL),
            "hysteresis must declare its dwell"
        );
        assert_eq!(SpaceShareEven.min_dwell(), None);
        assert_eq!(Affinity.min_dwell(), None);
        assert_eq!(StrictPriority.min_dwell(), None);
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in AllocPolicyKind::ALL {
            assert_eq!(kind.name().parse::<AllocPolicyKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!("bogus".parse::<AllocPolicyKind>().is_err());
    }
}
