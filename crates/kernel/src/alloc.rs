//! The processor allocator (§4.1).
//!
//! Space-shares processors among address spaces while respecting priorities
//! and guaranteeing that no processor idles if some space has work:
//! "Processors are divided evenly among address spaces; if some address
//! spaces do not need all of the processors in their share, those
//! processors are divided evenly among the remainder."
//!
//! Kernel-direct (Topaz) spaces compete on the same footing as
//! scheduler-activation spaces: "there is no need for static partitioning
//! of processors." Their demand is read from internal kernel structures;
//! SA spaces' demand comes from their Table 3 hints.

use crate::config::SchedMode;
use crate::exec::Running;
use crate::ids::AsId;
use crate::kernel::{Event, Kernel};
use crate::policy::{AllocView, SpaceDemand, TargetsMemo};
use crate::provenance::AllocDecisionKind;
use crate::space::SpaceKind;
use crate::upcall::UpcallEvent;
use sa_sim::TraceEvent;

/// The allocator's reusable buffers: the view the policy reads, the
/// free-CPU list, and `rebalance`'s copy of the targets. Once they have
/// grown to the machine's size, an allocator decision allocates nothing.
#[derive(Default)]
pub(crate) struct AllocBufs {
    /// Per-space view rows, refreshed before every policy question.
    spaces: Vec<SpaceDemand>,
    /// Per-CPU last owner, refreshed with `spaces`.
    last_space: Vec<Option<u32>>,
    total_cpus: u32,
    rotation: u32,
    /// Grantable CPUs, ascending (the `pick_cpu` offer).
    free: Vec<usize>,
    /// [`Kernel::rebalance`]'s copy of the targets, taken out while it
    /// moves processors. A deferred upcall can re-enter `rebalance`; the
    /// nested call then starts from an empty buffer.
    rebalance_targets: Vec<u32>,
}

impl AllocBufs {
    /// The view as last refreshed.
    fn view(&self) -> AllocView<'_> {
        AllocView {
            spaces: &self.spaces,
            total_cpus: self.total_cpus,
            rotation: self.rotation,
            last_space: &self.last_space,
        }
    }
}

impl Kernel {
    /// A space's current processor demand.
    pub(crate) fn space_demand(&self, id: AsId) -> u32 {
        let s = &self.spaces[id.index()];
        if !s.started || s.done {
            return 0;
        }
        match &s.kind {
            SpaceKind::KernelDirect { .. } | SpaceKind::UserOnKt { .. } => {
                // Internal kernel data: runnable + running threads.
                let running = self
                    .cpus
                    .iter()
                    .filter(|c| {
                        c.assigned == Some(id)
                            && matches!(c.running, Running::Kt(kt)
                                if self.kts.hot[kt.index()].space == id)
                    })
                    .count() as u32;
                s.ready.len() as u32 + running
            }
            SpaceKind::UserOnSa => {
                if !s.runtime_pages_resident {
                    // Cannot enter the space until its manager pages it in.
                    0
                } else {
                    // The Table-3 hints; a pending notification always
                    // justifies at least one processor.
                    let base = s.sa.desired;
                    if s.sa.pending_events.is_empty() {
                        base
                    } else {
                        base.max(1)
                    }
                }
            }
        }
    }

    /// Refreshes the allocator's view buffers from kernel state.
    fn refresh_alloc_view(&mut self) {
        let mut spaces = std::mem::take(&mut self.alloc.spaces);
        spaces.clear();
        spaces.extend((0..self.spaces.len()).map(|idx| SpaceDemand {
            demand: self.space_demand(AsId(idx as u32)),
            priority: self.spaces[idx].priority,
            assigned: self.spaces[idx].assigned_cpus,
        }));
        self.alloc.spaces = spaces;
        self.alloc.last_space.clear();
        self.alloc
            .last_space
            .extend(self.cpus.iter().map(|c| c.last_space.map(|s| s.0)));
        self.alloc.total_cpus = self.cpus.len() as u32;
        self.alloc.rotation = self.share_rotation;
    }

    /// Asks the configured [`crate::policy::AllocPolicy`] (through the
    /// memo) for the target allocation of the current state, and whether
    /// the division left a remainder (so the rotation timer knows to keep
    /// running).
    pub(crate) fn alloc_targets(&mut self) -> (&[u32], bool) {
        self.refresh_alloc_view();
        self.targets_memo
            .targets(&self.alloc_policy, &self.alloc.view())
    }

    /// The allocator's targets memo: how often the kernel asked for
    /// targets, and how many of those asks it answered without the policy.
    pub fn targets_memo(&self) -> &TargetsMemo {
        &self.targets_memo
    }

    /// Which free CPU should `space` receive? The mechanism collects the
    /// grantable CPUs; the policy picks among them (§4.2 affinity hook;
    /// the default policy takes the lowest-numbered, matching the old
    /// inlined scan).
    pub(crate) fn pick_grant_cpu(&mut self, space: AsId) -> Option<usize> {
        let cpus = &self.cpus;
        self.alloc.free.clear();
        self.alloc.free.extend((0..cpus.len()).filter(|&c| {
            cpus[c].assigned.is_none()
                && matches!(cpus[c].running, Running::Idle)
                && cpus[c].inflight.is_none()
                && !cpus[c].realloc_pending
        }));
        if self.alloc.free.is_empty() {
            return None;
        }
        self.refresh_alloc_view();
        let free = &self.alloc.free;
        let cpu = self
            .alloc_policy
            .pick_cpu(&self.alloc.view(), space.index(), free);
        debug_assert!(free.contains(&cpu), "policy picked a non-free CPU");
        Some(cpu)
    }

    /// Recomputes the allocation and moves processors to match.
    pub(crate) fn rebalance(&mut self) {
        if self.cfg.sched != SchedMode::SaAllocator {
            return;
        }
        let mut targets = std::mem::take(&mut self.alloc.rebalance_targets);
        let (memo, has_remainder) = self.alloc_targets();
        targets.clear();
        targets.extend_from_slice(memo);
        // Choke point 1: the targets() recomputation is a decision.
        self.obs.decide(self.q.now(), AllocDecisionKind::Targets);
        if has_remainder && !self.rotation_armed {
            // Time-slice the remainder: rotate which spaces hold the extra
            // processors once per quantum.
            self.rotation_armed = true;
            let at = self.q.now() + self.cost.quantum;
            self.sched_ev(at, Event::RotateShares);
        }
        // Phase 1: take processors from over-allocated spaces.
        #[expect(clippy::needless_range_loop, reason = "indexes two tables")]
        for idx in 0..self.spaces.len() {
            let id = AsId(idx as u32);
            while self.spaces[idx].assigned_cpus > targets[idx] {
                let Some(cpu) = self.pick_release_victim(id) else {
                    break; // everything eligible is mid-kernel-path
                };
                if !self.take_cpu_from(cpu) {
                    break;
                }
                self.metrics.reallocations.inc();
            }
        }
        // Phase 2: grant free processors to under-allocated spaces.
        'grant: {
            #[expect(clippy::needless_range_loop, reason = "indexes two tables")]
            for idx in 0..self.spaces.len() {
                let id = AsId(idx as u32);
                while self.spaces[idx].assigned_cpus < targets[idx] {
                    let Some(cpu) = self.pick_grant_cpu(id) else {
                        break 'grant;
                    };
                    let before = self.spaces[idx].assigned_cpus;
                    self.grant_cpu_to(cpu, id);
                    self.metrics.reallocations.inc();
                    if self.spaces[idx].assigned_cpus <= before {
                        // The grant did not stick (upcall deferred on a page
                        // fault, or demand evaporated); avoid re-granting in
                        // a zero-time loop.
                        break;
                    }
                }
            }
        }
        self.arm_dwell_retry(&targets);
        self.alloc.rebalance_targets = targets;
    }

    /// Is `cpu` inside its minimum-dwell window (hysteresis veto)? Always
    /// false under policies without a dwell, so the default allocator's
    /// victim choices are untouched.
    pub(crate) fn dwell_holds(&self, cpu: usize) -> bool {
        let Some(dwell) = self.alloc_policy.min_dwell() else {
            return false;
        };
        self.cpus[cpu]
            .assigned_since
            .is_some_and(|at| self.q.now() < at + dwell)
    }

    /// Hysteresis liveness: a rebalance pass that left one space over
    /// target while another sat under target was dwell-veto-limited (the
    /// only way Phase 1 declines work the targets demand). Re-run the
    /// allocator when the earliest outstanding dwell expires, so the
    /// deferred move happens without waiting for an unrelated event.
    fn arm_dwell_retry(&mut self, targets: &[u32]) {
        let Some(dwell) = self.alloc_policy.min_dwell() else {
            return;
        };
        if self.dwell_retry_armed {
            return;
        }
        let over = (0..self.spaces.len()).any(|i| self.spaces[i].assigned_cpus > targets[i]);
        let under = (0..self.spaces.len()).any(|i| self.spaces[i].assigned_cpus < targets[i]);
        if !over || !under {
            return;
        }
        let now = self.q.now();
        let Some(at) = self
            .cpus
            .iter()
            .filter_map(|c| c.assigned_since)
            .map(|since| since + dwell)
            .filter(|&t| t > now)
            .min()
        else {
            return;
        };
        self.dwell_retry_armed = true;
        self.sched_ev(at, Event::DwellRetry);
    }

    /// Chooses which of a space's processors to give up, preferring ones
    /// whose activation reported itself idle.
    fn pick_release_victim(&self, space: AsId) -> Option<usize> {
        let mut fallback = None;
        for cpu in 0..self.cpus.len() {
            if self.cpus[cpu].assigned != Some(space)
                || self.cpus[cpu].realloc_pending
                || self.dwell_holds(cpu)
            {
                continue;
            }
            match self.cpus[cpu].running {
                Running::Idle => return Some(cpu),
                Running::Act(a)
                    if self.acts[a.index()].idle_hint && self.act_victim_eligible(cpu) =>
                {
                    return Some(cpu);
                }
                _ => {}
            }
            fallback.get_or_insert(cpu);
        }
        fallback
    }

    /// Takes `cpu` from its current owner. Returns false if the move had to
    /// be deferred to the next segment boundary.
    pub(crate) fn take_cpu_from(&mut self, cpu: usize) -> bool {
        let Some(owner) = self.cpus[cpu].assigned else {
            return true; // already free
        };
        match self.cpus[cpu].running {
            Running::Idle => {
                if self.cpus[cpu].inflight.is_some() {
                    self.cpus[cpu].realloc_pending = true;
                    return false;
                }
                let d = self.note_victim_decision(cpu, owner);
                self.release_cpu_by(cpu, d);
                true
            }
            Running::Kt(kt) => {
                let can_now = self.cpus[cpu]
                    .inflight
                    .as_ref()
                    .is_none_or(|inf| inf.seg.preemptible);
                if !can_now {
                    self.cpus[cpu].realloc_pending = true;
                    return false;
                }
                self.preempt_kt_to_queue(cpu, kt);
                let d = self.note_victim_decision(cpu, owner);
                self.release_cpu_by(cpu, d);
                true
            }
            Running::Act(_) => {
                if !self.act_victim_eligible(cpu) {
                    self.cpus[cpu].realloc_pending = true;
                    return false;
                }
                let ev = self.stop_activation_on(cpu);
                self.release_cpu_by(cpu, ev.decision().unwrap_or(0));
                // §3.1: the old address space must still be notified — on
                // another of its processors, or pended if it has none.
                self.notify_preemption(owner, ev);
                true
            }
        }
    }

    /// Routes a Preempted event to its space (possibly by preempting a
    /// second processor of that space, per §3.1).
    pub(crate) fn notify_preemption(&mut self, space: AsId, ev: UpcallEvent) {
        if self.spaces[space.index()].done {
            return;
        }
        // When the last processor is preempted, the notification is
        // delayed until the space is next given a processor.
        let now = self.q.now();
        self.spaces[space.index()].sa.pending_events.push(ev);
        self.spaces[space.index()].sa.pending_since.push(now);
        if self.spaces[space.index()].assigned_cpus > 0 {
            self.try_deliver_pending(space);
        }
    }

    /// Choke point 3 for non-activation victims: records the decision
    /// behind taking `cpu` from `owner` (activation victims get theirs
    /// in [`Kernel::stop_activation_on`], where the `Preempted` upcall
    /// is stamped). Returns the decision id.
    pub(crate) fn note_victim_decision(&mut self, cpu: usize, owner: AsId) -> u64 {
        let kind = AllocDecisionKind::Victim {
            cpu: cpu as u32,
            space: owner.0,
        };
        self.obs.decide(self.q.now(), kind)
    }

    /// Releases `cpu` from its owner, leaving it unassigned and idle.
    /// Remembers the owner as the CPU's last space (§4.2 affinity input).
    /// Voluntary releases (runtime gave the processor up, space
    /// finished) come through here; allocator-driven releases use
    /// [`Kernel::release_cpu_by`] with the victim decision.
    pub(crate) fn release_cpu(&mut self, cpu: usize) {
        self.release_cpu_by(cpu, 0);
    }

    /// As [`Kernel::release_cpu`], ending the dwell episode with the
    /// allocator decision that caused the release (0 = none).
    pub(crate) fn release_cpu_by(&mut self, cpu: usize, decision: u64) {
        if let Some(owner) = self.cpus[cpu].assigned.take() {
            self.spaces[owner.index()].assigned_cpus -= 1;
            self.cpus[cpu].last_space = Some(owner);
            self.cpus[cpu].assigned_since = None;
            self.obs.release(cpu, self.q.now(), decision);
        }
        debug_assert!(self.cpus[cpu].inflight.is_none());
        self.set_idle(cpu);
    }

    /// Records `cpu` as held by `space` from now: the owner, the dwell
    /// start the hysteresis veto reads, the space's count, and the
    /// observer's episode opened by `decision` (0 = none), with the grant
    /// chain of a scheduler-activation grant. Allocator grants and
    /// debugger resumes both come through here.
    pub(crate) fn assign_cpu(&mut self, cpu: usize, space: AsId, decision: u64) {
        let now = self.q.now();
        self.cpus[cpu].assigned = Some(space);
        self.cpus[cpu].assigned_since = Some(now);
        self.spaces[space.index()].assigned_cpus += 1;
        let chain = decision != 0 && self.spaces[space.index()].is_sa();
        self.obs.assign(cpu, space, now, decision, chain);
    }

    /// Assigns a free CPU to `space` and starts it working
    /// (choke point 2: the `pick_cpu()` grant decision).
    pub(crate) fn grant_cpu_to(&mut self, cpu: usize, space: AsId) {
        debug_assert!(self.cpus[cpu].assigned.is_none());
        debug_assert!(self.cpus[cpu].inflight.is_none());
        let kind = AllocDecisionKind::Grant {
            cpu: cpu as u32,
            space: space.0,
        };
        let decision = self.obs.decide(self.q.now(), kind);
        self.assign_cpu(cpu, space, decision);
        self.trace.event(self.q.now(), || TraceEvent::Grant {
            cpu: cpu as u32,
            space: space.0,
            decision,
        });
        match &self.spaces[space.index()].kind {
            SpaceKind::UserOnSa => {
                self.deliver_upcall_on_cpu(cpu, space, UpcallEvent::AddProcessor { decision });
            }
            SpaceKind::KernelDirect { .. } | SpaceKind::UserOnKt { .. } => {
                if let Some(kt) = self.spaces[space.index()].ready.pop() {
                    self.note_ready_wait(kt, -1);
                    self.dispatch_kt(cpu, kt);
                    self.schedule_dispatch(cpu);
                } else {
                    // Demand evaporated between decision and grant.
                    self.release_cpu(cpu);
                }
            }
        }
    }
}
