//! Wrappers that put a probe span around each public boundary the kernel
//! calls through. Each forwards every trait method to the wrapped value;
//! only the hot-path methods named by the layer table open spans.

use crate::probe::{self, Layer};
use sa_kernel::policy::{AllocPolicy, AllocView};
use sa_kernel::upcall::{PollReason, RtEnv, TcbSlabStats, UpcallEvent, UserRuntime, VpAction};
use sa_kernel::VpId;
use sa_machine::{Op, StepEnv, ThreadBody};
use sa_sim::SimDuration;
use sa_uthread::{FastThreads, Pick, ReadyPolicy, UtId};

/// `ThreadBody::step` under a `Workload` span. Children forked through
/// `Op::Fork`/`Op::ForkPrio` are wrapped in turn, so every thread of the
/// application is measured.
pub struct ProbedBody(pub Box<dyn ThreadBody>);

impl ProbedBody {
    /// Wraps `body`. The wrapper's allocation and time are the
    /// benchmark's, not the forking layer's.
    pub fn boxed(body: Box<dyn ThreadBody>) -> Box<dyn ThreadBody> {
        probe::span(Layer::Bench, || Box::new(ProbedBody(body)))
    }
}

impl ThreadBody for ProbedBody {
    fn step(&mut self, env: &StepEnv) -> Op {
        match probe::span(Layer::Workload, || self.0.step(env)) {
            Op::Fork(child) => Op::Fork(ProbedBody::boxed(child)),
            Op::ForkPrio(child, prio) => Op::ForkPrio(ProbedBody::boxed(child), prio),
            op => op,
        }
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn span_id(&self) -> Option<u64> {
        self.0.span_id()
    }
}

/// `UserRuntime::{deliver_upcall, poll}` under `Uthread` spans.
pub struct ProbedRuntime(pub FastThreads);

impl UserRuntime for ProbedRuntime {
    fn kthread_vps(&self) -> Option<u32> {
        self.0.kthread_vps()
    }

    fn set_main(&mut self, body: Box<dyn ThreadBody>) {
        self.0.set_main(body)
    }

    fn deliver_upcall(&mut self, env: &mut RtEnv<'_>, vp: VpId, events: &[UpcallEvent]) {
        probe::span(Layer::Uthread, || self.0.deliver_upcall(env, vp, events))
    }

    fn poll(&mut self, env: &mut RtEnv<'_>, vp: VpId, reason: PollReason) -> VpAction {
        probe::span(Layer::Uthread, || self.0.poll(env, vp, reason))
    }

    fn quiescent(&self) -> bool {
        self.0.quiescent()
    }

    fn desired_processors(&self) -> u32 {
        self.0.desired_processors()
    }

    fn stats_line(&self) -> String {
        self.0.stats_line()
    }

    fn ready_wait_ns(&self) -> u64 {
        self.0.ready_wait_ns()
    }

    fn debug_dump(&self) -> String {
        self.0.debug_dump()
    }

    fn tcb_slab_stats(&self) -> Option<TcbSlabStats> {
        self.0.tcb_slab_stats()
    }
}

/// `AllocPolicy::{targets, pick_cpu}` under `Policy` spans.
pub struct ProbedAlloc(pub Box<dyn AllocPolicy>);

impl AllocPolicy for ProbedAlloc {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn targets(&self, view: &AllocView<'_>) -> (Vec<u32>, bool) {
        probe::span(Layer::Policy, || self.0.targets(view))
    }

    fn pick_cpu(&self, view: &AllocView<'_>, space: usize, free: &[usize]) -> usize {
        probe::span(Layer::Policy, || self.0.pick_cpu(view, space, free))
    }

    fn min_dwell(&self) -> Option<SimDuration> {
        self.0.min_dwell()
    }
}

/// `ReadyPolicy` queue operations under `Ready` spans, counting picks and
/// steals for the steal ratio.
pub struct ProbedReady(pub Box<dyn ReadyPolicy>);

fn counted(pick: Option<Pick>) -> Option<Pick> {
    if let Some(p) = &pick {
        probe::note_pick(p.stolen);
    }
    pick
}

impl ReadyPolicy for ProbedReady {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn ensure_slots(&mut self, n: usize) {
        self.0.ensure_slots(n)
    }

    fn push(&mut self, slot: usize, t: UtId) {
        probe::span(Layer::Ready, || self.0.push(slot, t))
    }

    fn push_cold(&mut self, slot: usize, t: UtId) {
        probe::span(Layer::Ready, || self.0.push_cold(slot, t))
    }

    fn pop(&mut self, slot: usize) -> Option<Pick> {
        counted(probe::span(Layer::Ready, || self.0.pop(slot)))
    }

    fn pop_best(&mut self, slot: usize, prio: &dyn Fn(UtId) -> u8) -> Option<Pick> {
        counted(probe::span(Layer::Ready, || self.0.pop_best(slot, prio)))
    }

    fn len(&self, slot: usize) -> usize {
        self.0.len(slot)
    }

    fn total(&self) -> usize {
        self.0.total()
    }
}
