//! Pluggable ready-queue disciplines for the user-level scheduler.
//!
//! The point of user-level thread management (§2.1) is that the
//! application chooses its own scheduling discipline without kernel
//! involvement. This module makes that concrete: the ready-list *data
//! structure* is a policy behind [`ReadyPolicy`], while everything else
//! in [`crate::FastThreads`] — dispatch costing, upcall processing,
//! idle hysteresis, §3.1 preemption requests — is mechanism that works
//! with any discipline.
//!
//! A policy owns every ready thread. The mechanism tells it when a
//! thread becomes runnable ([`ReadyPolicy::push`], or
//! [`ReadyPolicy::push_cold`] for yielders that must go behind every
//! other runnable thread) and asks for the next thread to dispatch on a
//! processor ([`ReadyPolicy::pop`], or [`ReadyPolicy::pop_best`] under
//! priority scheduling). The returned [`Pick`] reports how the pick was
//! found — how many queues were scanned, whether it came off another
//! processor's queue — so the mechanism can charge the Table 4
//! dispatch costs identically to the old inlined code.
//!
//! # Determinism rules for policy authors
//!
//! Ready policies run inside a deterministic simulation: a policy must
//! be a pure function of its push/pop history (no host randomness, no
//! clocks, no hashing-dependent iteration), and ties must break by
//! stable criteria (queue position, slot index). Costs are *charged by
//! the mechanism* from the [`Pick`] — a policy never charges time
//! itself, it only reports `scan_steps`.

use crate::types::UtId;
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// How a ready thread was found, so dispatch can be costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// The thread to dispatch.
    pub t: UtId,
    /// Ready-queue scan steps to charge (`ut_scan_step` each).
    pub scan_steps: u64,
    /// The thread came off another processor's queue (counts as a steal).
    pub stolen: bool,
}

/// A ready-queue discipline.
///
/// `Send` because whole simulations are fanned across host threads by
/// the sweep harness.
pub trait ReadyPolicy: Send {
    /// Stable policy name (CLI `--ready=` value).
    fn name(&self) -> &'static str;

    /// Grows internal per-processor state to `n` slots.
    fn ensure_slots(&mut self, n: usize);

    /// A thread became runnable on `slot` (the hot end of the queue).
    fn push(&mut self, slot: usize, t: UtId);

    /// A yielding thread goes to the *cold* end: every other runnable
    /// thread must be dispatched before it runs again.
    fn push_cold(&mut self, slot: usize, t: UtId);

    /// Next thread for `slot` to dispatch, if any.
    fn pop(&mut self, slot: usize) -> Option<Pick>;

    /// Highest-priority runnable thread anywhere (`prio` maps a thread
    /// to its priority; higher wins). Used when
    /// `FtConfig::priority_scheduling` is on.
    fn pop_best(&mut self, slot: usize, prio: &dyn Fn(UtId) -> u8) -> Option<Pick>;

    /// Ready threads associated with `slot` (diagnostics only).
    fn len(&self, slot: usize) -> usize;

    /// Ready threads in total (diagnostics only).
    fn total(&self) -> usize;
}

/// The paper's §4.2 discipline and the package default: per-processor
/// LIFO ready lists with idle stealing. A processor pops its own list
/// newest-first (cache-warm), and an idle processor scans the other
/// lists round-robin from its own index, stealing the *oldest* entry —
/// charging one `ut_scan_step` per list visited.
#[derive(Debug, Default)]
pub struct LocalLifo {
    queues: Vec<VecDeque<UtId>>,
}

impl ReadyPolicy for LocalLifo {
    fn name(&self) -> &'static str {
        "local"
    }

    fn ensure_slots(&mut self, n: usize) {
        if self.queues.len() < n {
            self.queues.resize_with(n, VecDeque::new);
        }
    }

    fn push(&mut self, slot: usize, t: UtId) {
        self.queues[slot].push_back(t);
    }

    fn push_cold(&mut self, slot: usize, t: UtId) {
        self.queues[slot].push_front(t);
    }

    fn pop(&mut self, slot: usize) -> Option<Pick> {
        if let Some(t) = self.queues[slot].pop_back() {
            return Some(Pick {
                t,
                scan_steps: 0,
                stolen: false,
            });
        }
        let n = self.queues.len();
        for k in 1..n {
            let victim = (slot + k) % n;
            if let Some(t) = self.queues[victim].pop_front() {
                return Some(Pick {
                    t,
                    scan_steps: k as u64,
                    stolen: true,
                });
            }
        }
        None
    }

    fn pop_best(&mut self, slot: usize, prio: &dyn Fn(UtId) -> u8) -> Option<Pick> {
        // Ties: the latest entry on its list wins, preserving LIFO
        // within a priority level.
        let mut best: Option<(usize, usize, u8)> = None;
        for (si, q) in self.queues.iter().enumerate() {
            for (pos, &t) in q.iter().enumerate() {
                let p = prio(t);
                if best.is_none_or(|(_, _, bp)| p >= bp) {
                    best = Some((si, pos, p));
                }
            }
        }
        let (vslot, pos, _) = best?;
        let t = self.queues[vslot].remove(pos).expect("picked position");
        let stolen = vslot != slot;
        Some(Pick {
            t,
            scan_steps: u64::from(stolen),
            stolen,
        })
    }

    fn len(&self, slot: usize) -> usize {
        self.queues.get(slot).map_or(0, VecDeque::len)
    }

    fn total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// One machine-wide FIFO ready queue: every processor dispatches the
/// oldest runnable thread. Fair (bounded waiting) but cache-cold, and
/// on a real machine the single queue is a contention point — the
/// trade-off §4.2 argues against for fine-grained parallelism.
#[derive(Debug, Default)]
pub struct GlobalFifo {
    queue: VecDeque<UtId>,
}

impl ReadyPolicy for GlobalFifo {
    fn name(&self) -> &'static str {
        "global-fifo"
    }

    fn ensure_slots(&mut self, _n: usize) {}

    fn push(&mut self, _slot: usize, t: UtId) {
        self.queue.push_back(t);
    }

    fn push_cold(&mut self, _slot: usize, t: UtId) {
        // FIFO's tail *is* the cold end: everything ahead runs first.
        self.queue.push_back(t);
    }

    fn pop(&mut self, _slot: usize) -> Option<Pick> {
        self.queue.pop_front().map(|t| Pick {
            t,
            scan_steps: 0,
            stolen: false,
        })
    }

    fn pop_best(&mut self, _slot: usize, prio: &dyn Fn(UtId) -> u8) -> Option<Pick> {
        // Ties: the oldest entry wins, preserving FIFO within a
        // priority level.
        let mut best: Option<(usize, u8)> = None;
        for (pos, &t) in self.queue.iter().enumerate() {
            let p = prio(t);
            if best.is_none_or(|(_, bp)| p > bp) {
                best = Some((pos, p));
            }
        }
        let (pos, _) = best?;
        let t = self.queue.remove(pos).expect("picked position");
        Some(Pick {
            t,
            scan_steps: 0,
            stolen: false,
        })
    }

    fn len(&self, slot: usize) -> usize {
        if slot == 0 {
            self.queue.len()
        } else {
            0
        }
    }

    fn total(&self) -> usize {
        self.queue.len()
    }
}

/// One machine-wide LIFO ready stack: every processor dispatches the
/// newest runnable thread (depth-first, cache-warm, unfair under load).
#[derive(Debug, Default)]
pub struct GlobalLifo {
    queue: VecDeque<UtId>,
}

impl ReadyPolicy for GlobalLifo {
    fn name(&self) -> &'static str {
        "global-lifo"
    }

    fn ensure_slots(&mut self, _n: usize) {}

    fn push(&mut self, _slot: usize, t: UtId) {
        self.queue.push_back(t);
    }

    fn push_cold(&mut self, _slot: usize, t: UtId) {
        // Bottom of the stack: every other runnable thread pops first.
        self.queue.push_front(t);
    }

    fn pop(&mut self, _slot: usize) -> Option<Pick> {
        self.queue.pop_back().map(|t| Pick {
            t,
            scan_steps: 0,
            stolen: false,
        })
    }

    fn pop_best(&mut self, _slot: usize, prio: &dyn Fn(UtId) -> u8) -> Option<Pick> {
        // Ties: the newest entry wins, preserving LIFO within a
        // priority level.
        let mut best: Option<(usize, u8)> = None;
        for (pos, &t) in self.queue.iter().enumerate() {
            let p = prio(t);
            if best.is_none_or(|(_, bp)| p >= bp) {
                best = Some((pos, p));
            }
        }
        let (pos, _) = best?;
        let t = self.queue.remove(pos).expect("picked position");
        Some(Pick {
            t,
            scan_steps: 0,
            stolen: false,
        })
    }

    fn len(&self, slot: usize) -> usize {
        if slot == 0 {
            self.queue.len()
        } else {
            0
        }
    }

    fn total(&self) -> usize {
        self.queue.len()
    }
}

/// Selector for the built-in ready-queue disciplines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadyPolicyKind {
    /// [`LocalLifo`] — per-processor LIFO with idle stealing (§4.2, the
    /// package default).
    #[default]
    LocalLifo,
    /// [`GlobalFifo`] — one machine-wide FIFO queue.
    GlobalFifo,
    /// [`GlobalLifo`] — one machine-wide LIFO stack.
    GlobalLifo,
}

impl ReadyPolicyKind {
    /// Every built-in discipline, in CLI listing order.
    pub const ALL: [ReadyPolicyKind; 3] = [
        ReadyPolicyKind::LocalLifo,
        ReadyPolicyKind::GlobalFifo,
        ReadyPolicyKind::GlobalLifo,
    ];

    /// Stable name (CLI `--ready=` value).
    pub fn name(self) -> &'static str {
        match self {
            ReadyPolicyKind::LocalLifo => "local",
            ReadyPolicyKind::GlobalFifo => "global-fifo",
            ReadyPolicyKind::GlobalLifo => "global-lifo",
        }
    }

    /// Instantiates the discipline as an enum-dispatched
    /// [`ReadyPolicySelect`] (the runtime's storage form: built-in
    /// disciplines dispatch statically, see the type's docs).
    pub fn build_select(self) -> ReadyPolicySelect {
        match self {
            ReadyPolicyKind::LocalLifo => ReadyPolicySelect::LocalLifo(LocalLifo::default()),
            ReadyPolicyKind::GlobalFifo => ReadyPolicySelect::GlobalFifo(GlobalFifo::default()),
            ReadyPolicyKind::GlobalLifo => ReadyPolicySelect::GlobalLifo(GlobalLifo::default()),
        }
    }

    /// Instantiates the discipline as a trait object.
    pub fn build(self) -> Box<dyn ReadyPolicy> {
        match self {
            ReadyPolicyKind::LocalLifo => Box::<LocalLifo>::default(),
            ReadyPolicyKind::GlobalFifo => Box::<GlobalFifo>::default(),
            ReadyPolicyKind::GlobalLifo => Box::<GlobalLifo>::default(),
        }
    }
}

impl fmt::Display for ReadyPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ReadyPolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "local" | "local-lifo" => Ok(ReadyPolicyKind::LocalLifo),
            "global-fifo" | "fifo" => Ok(ReadyPolicyKind::GlobalFifo),
            "global-lifo" | "lifo" => Ok(ReadyPolicyKind::GlobalLifo),
            other => Err(format!(
                "unknown ready policy '{other}' (expected one of: {})",
                ReadyPolicyKind::ALL.map(|k| k.name()).join(", ")
            )),
        }
    }
}

/// Enum-dispatched ready-policy holder: the runtime's storage form.
///
/// Every simulation configures one of the built-in disciplines via
/// [`ReadyPolicyKind`], so the `Box<dyn ReadyPolicy>` indirection on the
/// dispatch path was provably monomorphic; this enum lets the compiler
/// resolve (and inline) those calls statically while [`Custom`] keeps the
/// open trait for out-of-tree disciplines and for wrappers around the
/// built-in ones (see [`crate::FastThreads::set_ready_policy`]).
///
/// [`Custom`]: ReadyPolicySelect::Custom
pub enum ReadyPolicySelect {
    /// [`LocalLifo`], statically dispatched.
    LocalLifo(LocalLifo),
    /// [`GlobalFifo`], statically dispatched.
    GlobalFifo(GlobalFifo),
    /// [`GlobalLifo`], statically dispatched.
    GlobalLifo(GlobalLifo),
    /// Any other discipline, behind the original trait object.
    Custom(Box<dyn ReadyPolicy>),
}

impl ReadyPolicySelect {
    /// Stable policy name (see [`ReadyPolicy::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.name(),
            ReadyPolicySelect::GlobalFifo(p) => p.name(),
            ReadyPolicySelect::GlobalLifo(p) => p.name(),
            ReadyPolicySelect::Custom(p) => p.name(),
        }
    }

    /// See [`ReadyPolicy::ensure_slots`].
    pub fn ensure_slots(&mut self, n: usize) {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.ensure_slots(n),
            ReadyPolicySelect::GlobalFifo(p) => p.ensure_slots(n),
            ReadyPolicySelect::GlobalLifo(p) => p.ensure_slots(n),
            ReadyPolicySelect::Custom(p) => p.ensure_slots(n),
        }
    }

    /// See [`ReadyPolicy::push`].
    #[inline]
    pub fn push(&mut self, slot: usize, t: UtId) {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.push(slot, t),
            ReadyPolicySelect::GlobalFifo(p) => p.push(slot, t),
            ReadyPolicySelect::GlobalLifo(p) => p.push(slot, t),
            ReadyPolicySelect::Custom(p) => p.push(slot, t),
        }
    }

    /// See [`ReadyPolicy::push_cold`].
    #[inline]
    pub fn push_cold(&mut self, slot: usize, t: UtId) {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.push_cold(slot, t),
            ReadyPolicySelect::GlobalFifo(p) => p.push_cold(slot, t),
            ReadyPolicySelect::GlobalLifo(p) => p.push_cold(slot, t),
            ReadyPolicySelect::Custom(p) => p.push_cold(slot, t),
        }
    }

    /// See [`ReadyPolicy::pop`].
    #[inline]
    pub fn pop(&mut self, slot: usize) -> Option<Pick> {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.pop(slot),
            ReadyPolicySelect::GlobalFifo(p) => p.pop(slot),
            ReadyPolicySelect::GlobalLifo(p) => p.pop(slot),
            ReadyPolicySelect::Custom(p) => p.pop(slot),
        }
    }

    /// See [`ReadyPolicy::pop_best`].
    pub fn pop_best(&mut self, slot: usize, prio: &dyn Fn(UtId) -> u8) -> Option<Pick> {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.pop_best(slot, prio),
            ReadyPolicySelect::GlobalFifo(p) => p.pop_best(slot, prio),
            ReadyPolicySelect::GlobalLifo(p) => p.pop_best(slot, prio),
            ReadyPolicySelect::Custom(p) => p.pop_best(slot, prio),
        }
    }

    /// See [`ReadyPolicy::len`].
    pub fn len(&self, slot: usize) -> usize {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.len(slot),
            ReadyPolicySelect::GlobalFifo(p) => p.len(slot),
            ReadyPolicySelect::GlobalLifo(p) => p.len(slot),
            ReadyPolicySelect::Custom(p) => p.len(slot),
        }
    }

    /// See [`ReadyPolicy::total`].
    pub fn total(&self) -> usize {
        match self {
            ReadyPolicySelect::LocalLifo(p) => p.total(),
            ReadyPolicySelect::GlobalFifo(p) => p.total(),
            ReadyPolicySelect::GlobalLifo(p) => p.total(),
            ReadyPolicySelect::Custom(p) => p.total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> UtId {
        UtId(n)
    }

    #[test]
    fn local_pops_own_newest_then_steals_oldest() {
        let mut p = LocalLifo::default();
        p.ensure_slots(3);
        p.push(0, t(1));
        p.push(0, t(2));
        p.push(2, t(3));
        p.push(2, t(4));
        // Own list: LIFO.
        assert_eq!(
            p.pop(0),
            Some(Pick {
                t: t(2),
                scan_steps: 0,
                stolen: false
            })
        );
        // Slot 1 is empty: steal the *oldest* from slot 2, one scan
        // step away ((1+1) % 3 = 2).
        assert_eq!(
            p.pop(1),
            Some(Pick {
                t: t(3),
                scan_steps: 1,
                stolen: true
            })
        );
        // Yielders go to the cold end: stolen before, popped last.
        p.push_cold(0, t(5));
        assert_eq!(p.pop(0).unwrap().t, t(1));
        assert_eq!(p.pop(0).unwrap().t, t(5));
        // Own list dry: the scan reaches slot 2's leftover, two steps away.
        assert_eq!(
            p.pop(0),
            Some(Pick {
                t: t(4),
                scan_steps: 2,
                stolen: true
            })
        );
        assert_eq!(p.pop(0), None);
        assert_eq!(p.total(), 0);
    }

    #[test]
    fn global_fifo_is_fair_and_global_lifo_is_not() {
        let mut f = GlobalFifo::default();
        let mut l = GlobalLifo::default();
        for q in [&mut f as &mut dyn ReadyPolicy, &mut l] {
            q.ensure_slots(2);
            q.push(0, t(1));
            q.push(1, t(2));
        }
        assert_eq!(f.pop(1).unwrap().t, t(1), "FIFO: oldest first");
        assert_eq!(l.pop(0).unwrap().t, t(2), "LIFO: newest first");
        // Neither global queue ever charges scan steps or steals.
        assert!(!f.pop(0).unwrap().stolen);
        assert_eq!(l.pop(1).unwrap().scan_steps, 0);
    }

    #[test]
    fn pop_best_breaks_ties_by_discipline() {
        let prio = |x: UtId| if x.0 >= 10 { 2u8 } else { 1 };
        let mut p = LocalLifo::default();
        p.ensure_slots(2);
        p.push(0, t(10));
        p.push(1, t(11));
        // Latest wins a tie; coming off slot 1's queue from slot 0
        // counts as a steal with one scan step.
        assert_eq!(
            p.pop_best(0, &prio),
            Some(Pick {
                t: t(11),
                scan_steps: 1,
                stolen: true
            })
        );
        assert_eq!(p.pop_best(0, &prio).unwrap().t, t(10));
        assert_eq!(p.pop_best(0, &prio), None);

        let mut f = GlobalFifo::default();
        f.push(0, t(10));
        f.push(0, t(11));
        f.push(0, t(1));
        assert_eq!(f.pop_best(0, &prio).unwrap().t, t(10), "FIFO tie: oldest");
        let mut l = GlobalLifo::default();
        l.push(0, t(10));
        l.push(0, t(11));
        l.push(0, t(1));
        assert_eq!(l.pop_best(0, &prio).unwrap().t, t(11), "LIFO tie: newest");
    }

    /// Every built-in discipline picks identically through its
    /// enum-dispatched form and through the `Custom` trait-object route,
    /// over a scripted mix of pushes, cold pushes, pops and priority pops
    /// across slots, with the slot count growing mid-run.
    #[test]
    fn select_and_custom_route_pick_identically() {
        let prio = |x: UtId| (x.0 % 3) as u8;
        let script = |mut p: ReadyPolicySelect| {
            let mut log = Vec::new();
            let mut rng = 0x9e37_79b9u32;
            let mut slots = 2;
            p.ensure_slots(slots);
            for n in 0..400u32 {
                if n == 200 {
                    slots = 5;
                    p.ensure_slots(slots);
                }
                rng ^= rng << 13;
                rng ^= rng >> 17;
                rng ^= rng << 5;
                let slot = (rng >> 8) as usize % slots;
                let pick = match rng % 6 {
                    0 | 1 => {
                        p.push(slot, t(n));
                        None
                    }
                    2 => {
                        p.push_cold(slot, t(n));
                        None
                    }
                    3 | 4 => p.pop(slot),
                    _ => p.pop_best(slot, &prio),
                };
                log.push((pick, p.len(slot), p.total()));
            }
            for slot in 0..slots {
                while let Some(pick) = p.pop(slot) {
                    log.push((Some(pick), p.len(slot), p.total()));
                }
            }
            log
        };
        for kind in ReadyPolicyKind::ALL {
            let select = script(kind.build_select());
            assert!(select.iter().any(|(pick, ..)| pick.is_some()), "{kind}");
            assert_eq!(
                select,
                script(ReadyPolicySelect::Custom(kind.build())),
                "{kind}"
            );
        }
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in ReadyPolicyKind::ALL {
            assert_eq!(kind.name().parse::<ReadyPolicyKind>().unwrap(), kind);
            assert_eq!(kind.build().name(), kind.name());
        }
        assert!("bogus".parse::<ReadyPolicyKind>().is_err());
    }
}
