//! The kernel proper: state, construction, and the event loop.

use crate::config::{KernelConfig, SchedMode, SpaceKindSpec, SpaceSpec};
use crate::daemon::DaemonState;
use crate::exec::{KtFlavor, Running, Seg};
use crate::ids::{ActId, AsId, KtId, VpId};
use crate::io::DiskOp;
use crate::kthread::{KtState, KtTable};
use crate::metrics::{KernelMetrics, RunOutcome, SpaceMetrics};
use crate::policy::{AllocPolicy, AllocPolicySelect};
use crate::sched::ReadyQueue;
use crate::space::{Residency, SaState, Space, SpaceKind};
use sa_machine::{CostModel, Disk};
use sa_sim::{
    CpuState, EventQueue, EventToken, PopNext, SimRng, SimTime, TimeLedger, Trace, TraceEvent,
    WaitKind,
};

/// Priority of kernel daemon threads: above every application space.
pub(crate) const DAEMON_PRIO: u8 = 255;

/// Events driving the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// The in-flight segment on `cpu` completed (stale if `gen` mismatches).
    SegDone { cpu: usize, gen: u64 },
    /// (Re-)enter the dispatch loop on `cpu` (stale if `gen` mismatches).
    Dispatch { cpu: usize, gen: u64 },
    /// Time-slice expiry for the kernel thread on `cpu`.
    QuantumExpire { cpu: usize, gen: u64 },
    /// A disk operation finished.
    DiskDone { op: u32 },
    /// A kernel daemon wants to run.
    DaemonWake { idx: u32 },
    /// An address space reaches its configured start time.
    StartSpace { space: AsId },
    /// Retry a deferred scheduler-activation notification.
    RetryNotify { space: AsId },
    /// Rotate which same-priority spaces hold the remainder processors
    /// (the allocator's time-slicing of a non-integer share, §4.1).
    RotateShares,
    /// Re-run the allocator once the earliest minimum-dwell window
    /// expires (only armed by policies with hysteresis, so default-policy
    /// runs never see this event).
    DwellRetry,
}

/// Per-CPU dispatch state.
pub(crate) struct Cpu {
    /// Invalidates stale per-CPU events; bumped whenever the CPU's
    /// disposition changes.
    pub gen: u64,
    /// What is dispatched here.
    pub running: Running,
    /// The segment currently executing, if any.
    pub inflight: Option<Inflight>,
    /// Which address space this CPU is allocated to (allocator mode).
    pub assigned: Option<AsId>,
    /// Outstanding time-slice timer.
    pub quantum_tok: Option<EventToken>,
    /// A processor reallocation deferred until the current non-preemptible
    /// segment or kernel path finishes.
    pub realloc_pending: bool,
    /// When the CPU last went idle (for idle-time accounting).
    pub idle_since: Option<SimTime>,
    /// The space this CPU was last allocated to (§4.2 affinity input).
    pub last_space: Option<AsId>,
    /// When the current assignment was granted (hysteresis dwell input;
    /// cleared on release).
    pub assigned_since: Option<SimTime>,
    /// Index (in the provenance log's grants vec) of a grant chain whose
    /// first user dispatch has not happened yet (set only while the
    /// decision log is enabled; closed O(1) in `start_seg`).
    pub open_grant: Option<u32>,
}

/// A segment in flight on a CPU.
pub(crate) struct Inflight {
    pub seg: Seg,
    pub started: SimTime,
    pub token: EventToken,
}

/// Per-CPU pending ledger charges, accumulated until the dispatched
/// space changes. The dispatch loop charges one segment per event; a CPU
/// runs long stretches of segments for the same space, so merging them
/// here turns three array-indexed ledger adds per micro-op into one
/// plain `u64` add, flushed once per space switch (or ledger read).
/// Pure summation, so conservation (`sum == cpus × makespan`) is exact.
#[derive(Clone)]
pub(crate) struct ChargeAcc {
    /// Raw space index plus one; 0 means unattributed.
    key: u32,
    /// Pending nanoseconds, indexed in `CpuState::ALL` order.
    ns: [u64; CpuState::COUNT],
}

impl ChargeAcc {
    fn new() -> Self {
        ChargeAcc {
            key: 0,
            ns: [0; CpuState::COUNT],
        }
    }

    /// Drains the pending sums into `ledger` for `cpu`.
    fn flush_into(&mut self, ledger: &mut TimeLedger, cpu: usize) {
        let space = if self.key == 0 {
            None
        } else {
            Some(self.key as usize - 1)
        };
        for (i, state) in CpuState::ALL.iter().enumerate() {
            if self.ns[i] != 0 {
                ledger.charge(
                    cpu,
                    space,
                    *state,
                    sa_sim::SimDuration::from_nanos(self.ns[i]),
                );
                self.ns[i] = 0;
            }
        }
    }
}

/// The simulated operating system kernel.
///
/// Owns the machine (CPUs, disk), every address space, all kernel threads
/// and scheduler activations, and the event queue that drives them.
pub struct Kernel {
    pub(crate) cfg: KernelConfig,
    pub(crate) cost: CostModel,
    /// Prebuilt protection-boundary segments (see [`SegCache`]).
    pub(crate) segs: crate::exec::SegCache,
    pub(crate) q: EventQueue<Event>,
    pub(crate) rng: SimRng,
    /// Execution trace (enable with [`Kernel::set_trace`]).
    pub(crate) trace: Trace,
    pub(crate) cpus: Vec<Cpu>,
    pub(crate) spaces: Vec<Space>,
    pub(crate) kts: KtTable,
    pub(crate) acts: Vec<crate::activation::Activation>,
    pub(crate) disk: Disk,
    pub(crate) diskops: Vec<Option<DiskOp>>,
    pub(crate) daemons: Vec<DaemonState>,
    /// Global ready queue (native mode).
    pub(crate) global_rq: ReadyQueue,
    pub(crate) metrics: KernelMetrics,
    /// Where every CPU nanosecond went (always on; a `u64` add per charge).
    pub(crate) ledger: TimeLedger,
    /// Per-CPU charge accumulators in front of `ledger` (see [`ChargeAcc`]).
    pending_charges: Vec<ChargeAcc>,
    /// Optional windowed rollup of the same charge stream (off by
    /// default; the SLO pipeline turns it on). Boxed so the disabled
    /// case costs one branch per charge.
    windowed: Option<Box<sa_sim::WindowedLedger>>,
    /// Allocator decision sequence (always advances, even with the log
    /// off, so stamped ids are identical whether or not anyone records).
    pub(crate) next_decision_id: u64,
    /// Optional decision-provenance log (see `provenance.rs`). Boxed so
    /// the disabled case costs one branch per choke point.
    pub(crate) provenance: Option<Box<crate::provenance::ProvenanceLog>>,
    /// Optional processor-assignment dwell ledger (same gating).
    pub(crate) dwell: Option<Box<sa_sim::DwellLedger>>,
    /// Rotation counter for remainder processors (§4.1 time-slicing).
    pub(crate) share_rotation: u32,
    /// A `RotateShares` event is outstanding.
    pub(crate) rotation_armed: bool,
    /// A `DwellRetry` event is outstanding (hysteresis liveness).
    pub(crate) dwell_retry_armed: bool,
    /// Non-daemon spaces created / finished. The run loop asks "are all
    /// application spaces done?" after every event; two counters answer
    /// in O(1) instead of scanning the space table.
    app_spaces: usize,
    app_spaces_done: usize,
    /// Something happened that could have made a space quiescent (a
    /// runtime poll/upcall, a kernel-thread exit, an activation unblock).
    /// The run loop only walks the space table when this is set; most
    /// events (segment completions, dispatches) can't retire a space and
    /// skip the scan entirely.
    pub(crate) quiesce_dirty: bool,
    /// The processor-allocation policy (built from
    /// [`KernelConfig::alloc_policy`]; the mechanism in `alloc.rs` asks
    /// it for targets and grant picks). Enum-dispatched: the built-in
    /// policies resolve statically (see [`AllocPolicySelect`]).
    pub(crate) alloc_policy: AllocPolicySelect,
    /// The allocator's reusable view and free-list buffers.
    pub(crate) alloc: crate::alloc::AllocBufs,
    /// The policy's last targets and the view they answer (see
    /// [`crate::policy::TargetsMemo`]).
    pub(crate) targets_memo: crate::policy::TargetsMemo,
    /// Emptied upcall batches, recycled so a notification allocates
    /// nothing once the pool holds one batch per in-flight upcall.
    pub(crate) upcall_batches: Vec<crate::exec::UpcallBatch>,
    /// The kick buffer lent to every runtime callback's [`RtEnv`] and
    /// taken back, emptied, once its kicks are applied: a contended
    /// lock release wakes its spinner without allocating.
    ///
    /// [`RtEnv`]: crate::upcall::RtEnv
    pub(crate) kicks: Vec<VpId>,
}

impl Kernel {
    /// Creates a kernel for the given machine configuration and cost model.
    pub fn new(cfg: KernelConfig, cost: CostModel) -> Self {
        let cpus = (0..cfg.cpus)
            .map(|_| Cpu {
                gen: 0,
                running: Running::Idle,
                inflight: None,
                assigned: None,
                quantum_tok: None,
                realloc_pending: false,
                idle_since: Some(SimTime::ZERO),
                last_space: None,
                assigned_since: None,
                open_grant: None,
            })
            .collect();
        let n_cpus = cfg.cpus as usize;
        let disk = Disk::new(cfg.disk);
        let rng = SimRng::new(cfg.seed);
        let alloc_policy = cfg.alloc_policy.build_select();
        let q = EventQueue::with_core(cfg.event_core);
        let segs = crate::exec::SegCache::new(&cost);
        let mut kernel = Kernel {
            cfg,
            cost,
            segs,
            q,
            rng,
            trace: Trace::disabled(),
            cpus,
            spaces: Vec::new(),
            kts: KtTable::default(),
            acts: Vec::new(),
            disk,
            diskops: Vec::new(),
            daemons: Vec::new(),
            global_rq: ReadyQueue::new(),
            metrics: KernelMetrics::default(),
            ledger: TimeLedger::new(n_cpus),
            pending_charges: vec![ChargeAcc::new(); n_cpus],
            windowed: None,
            next_decision_id: 0,
            provenance: None,
            dwell: None,
            share_rotation: 0,
            rotation_armed: false,
            dwell_retry_armed: false,
            app_spaces: 0,
            app_spaces_done: 0,
            quiesce_dirty: false,
            alloc_policy,
            alloc: Default::default(),
            targets_memo: Default::default(),
            upcall_batches: Vec::new(),
            kicks: Vec::new(),
        };
        kernel.init_daemons();
        kernel
    }

    /// Installs a trace sink (replaces the default disabled trace).
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Replaces the allocation policy with a custom trait-object policy —
    /// the pre-flattening dynamic-dispatch shape (differential tests use
    /// this to pin enum dispatch to the `Box<dyn>` path byte-for-byte).
    pub fn set_alloc_policy(&mut self, p: Box<dyn AllocPolicy>) {
        self.alloc_policy = AllocPolicySelect::Custom(p);
        self.targets_memo.clear();
    }

    /// Read access to the trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Kernel-wide metrics.
    pub fn kernel_metrics(&self) -> &KernelMetrics {
        &self.metrics
    }

    /// Per-space metrics.
    pub fn space_metrics(&self, space: AsId) -> &SpaceMetrics {
        &self.spaces[space.index()].metrics
    }

    /// The user runtime's internal state dump, if the space has one.
    pub fn runtime_dump(&self, space: AsId) -> String {
        self.spaces[space.index()]
            .runtime
            .as_ref()
            .map(|rt| rt.debug_dump())
            .unwrap_or_default()
    }

    /// Total ready-list wait inside the space's user runtime, in
    /// nanoseconds (0 for kernel-direct spaces).
    pub fn runtime_ready_wait_ns(&self, space: AsId) -> u64 {
        self.spaces[space.index()]
            .runtime
            .as_ref()
            .map_or(0, |rt| rt.ready_wait_ns())
    }

    /// Resident TCB-slab footprint of the space's user runtime (`None`
    /// for kernel-direct spaces or runtimes without slab tables).
    pub fn runtime_tcb_slab_stats(&self, space: AsId) -> Option<crate::upcall::TcbSlabStats> {
        self.spaces[space.index()]
            .runtime
            .as_ref()
            .and_then(|rt| rt.tcb_slab_stats())
    }

    /// The user runtime's own statistics line, if the space has one.
    pub fn runtime_stats(&self, space: AsId) -> String {
        self.spaces[space.index()]
            .runtime
            .as_ref()
            .map(|rt| rt.stats_line())
            .unwrap_or_default()
    }

    /// When `space` finished all its work, if it has.
    pub fn space_completion(&self, space: AsId) -> Option<SimTime> {
        self.spaces[space.index()].completed_at
    }

    /// When `space` started.
    pub fn space_start(&self, space: AsId) -> Option<SimTime> {
        self.spaces[space.index()].started_at
    }

    /// Elapsed virtual time from a space's start to its completion.
    pub fn space_elapsed(&self, space: AsId) -> Option<sa_sim::SimDuration> {
        let s = &self.spaces[space.index()];
        Some(s.completed_at?.since(s.started_at?))
    }

    /// Registers an address space; it starts at its configured time once
    /// [`Kernel::run`] is called.
    pub fn add_space(&mut self, spec: SpaceSpec) -> AsId {
        let id = AsId(self.spaces.len() as u32);
        let (kind, runtime, main) = match spec.kind {
            SpaceKindSpec::KernelDirect { flavor, main } => {
                (SpaceKind::KernelDirect { flavor }, None, Some(main))
            }
            SpaceKindSpec::UserLevel { runtime, main } => {
                let kind = if runtime.kthread_vps().is_some() {
                    SpaceKind::UserOnKt { vps: Vec::new() }
                } else {
                    SpaceKind::UserOnSa
                };
                (kind, Some(runtime), Some(main))
            }
        };
        let mut runtime = runtime;
        let mut pending_main = None;
        match (&mut runtime, main) {
            (Some(rt), Some(main)) => rt.set_main(main),
            (None, main) => pending_main = main,
            _ => {}
        }
        let dc = crate::interp::DirectCosts::resolve(&self.cost, &kind);
        let space = Space {
            id,
            name: spec.name,
            priority: spec.priority,
            kind,
            runtime,
            sa: SaState::default(),
            ready: ReadyQueue::new(),
            klocks: Default::default(),
            kcvs: Default::default(),
            kchans: Default::default(),
            residency: Residency::new(spec.mem_pages),
            runtime_pages_resident: true,
            live_kthreads: 0,
            assigned_cpus: 0,
            started: false,
            done: false,
            completed_at: None,
            started_at: None,
            is_daemon_space: false,
            dc,
            metrics: SpaceMetrics::default(),
        };
        self.app_spaces += 1;
        self.spaces.push(space);
        if let Some(main) = pending_main {
            // Kernel-direct: create the main kernel thread now (readied at
            // space start).
            let flavor = match self.spaces[id.index()].kind {
                SpaceKind::KernelDirect { .. } => KtFlavor::AppBody,
                _ => unreachable!(),
            };
            let kt = self.new_kthread(id, 1, flavor);
            self.kts.cold[kt.index()].body = Some(main);
            self.kts.cold[kt.index()].resume =
                Some(crate::exec::ResumeWith::Op(sa_machine::OpResult::Start));
            // Not readied yet; `start_space` does that.
            self.kts.hot[kt.index()].state = KtState::Blocked(crate::kthread::BlockKind::Parked);
            self.spaces[id.index()].live_kthreads = 1;
        }
        self.sched_ev(spec.start_at, Event::StartSpace { space: id });
        id
    }

    /// Allocates a kernel thread control block.
    pub(crate) fn new_kthread(&mut self, space: AsId, prio: u8, flavor: KtFlavor) -> KtId {
        self.kts.push(space, prio, flavor)
    }

    /// Allocates a fresh activation control block.
    pub(crate) fn new_activation(&mut self, space: AsId) -> ActId {
        let id = ActId(self.acts.len() as u32);
        self.acts
            .push(crate::activation::Activation::new(id, space));
        id
    }

    fn start_space(&mut self, id: AsId) {
        self.quiesce_dirty = true;
        let now = self.q.now();
        {
            let s = &mut self.spaces[id.index()];
            debug_assert!(!s.started, "space started twice");
            s.started = true;
            s.started_at = Some(now);
        }
        let name = self.spaces[id.index()].name.clone();
        self.trace
            .event(now, || TraceEvent::SpaceStart { space: id.0, name });
        match self.spaces[id.index()].kind {
            SpaceKind::KernelDirect { .. } => {
                // Ready the main thread created in `add_space`.
                let main = (0..self.kts.len())
                    .find(|&i| {
                        let h = &self.kts.hot[i];
                        h.space == id && matches!(h.flavor, KtFlavor::AppBody)
                    })
                    .map(|i| KtId(i as u32))
                    .expect("kernel-direct space without main thread");
                self.kts.hot[main.index()].state = KtState::Ready;
                self.make_runnable(main);
            }
            SpaceKind::UserOnKt { .. } => {
                let n = self.spaces[id.index()]
                    .runtime
                    .as_ref()
                    .expect("user space without runtime")
                    .kthread_vps()
                    .expect("UserOnKt runtime without VP count");
                let mut vps = Vec::with_capacity(n as usize);
                for i in 0..n {
                    let kt = self.new_kthread(id, 1, KtFlavor::Vp(VpId(i)));
                    self.kts.cold[kt.index()].resume = Some(crate::exec::ResumeWith::Fresh);
                    vps.push(kt);
                }
                if let SpaceKind::UserOnKt { vps: slot } = &mut self.spaces[id.index()].kind {
                    *slot = vps.clone();
                }
                self.spaces[id.index()].live_kthreads = n;
                for kt in vps {
                    self.make_runnable(kt);
                }
            }
            SpaceKind::UserOnSa => {
                // "When a program is started, the kernel creates a scheduler
                // activation, assigns it to a processor, and upcalls into the
                // application address space at a fixed entry point." (§3.1)
                self.spaces[id.index()].sa.desired = 1;
                self.rebalance();
            }
        }
        if self.cfg.sched == SchedMode::SaAllocator {
            self.rebalance();
        }
    }

    /// Runs until every application space finishes, the event queue drains,
    /// or the configured time limit is hit.
    ///
    /// Each iteration delivers one event with `pop_within` — a fused
    /// peek + pop that applies the run-limit check without a separate
    /// queue-head scan. Delivery is the queue's strict `(time, seq)`
    /// order, so every trace, metric, and golden output is byte-identical
    /// to both the old batch-staging loop and the still-older
    /// one-pop-per-iteration loop. System runs measure ~1.0 events per
    /// simultaneity class, which made the batch staging machinery (slot
    /// walks, sequence sort, staging deque) pure per-event overhead —
    /// the single-pop loop skips all of it.
    ///
    /// Handlers commit strictly one at a time: the allocator's grants are
    /// dependent decisions, so a run is serial (DESIGN.md §7).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(self.cfg.run_limit)
    }

    /// As [`Kernel::run`], but stops before the first event after `until`
    /// (or the configured run limit, if earlier), reporting `timed_out`.
    /// The queue and clock are left untouched, so a later `run` or
    /// `run_until` resumes exactly where this one stopped — which lets a
    /// caller act on the kernel mid-run (e.g. the §4.4 debugger calls).
    pub fn run_until(&mut self, until: SimTime) -> RunOutcome {
        let limit = until.min(self.cfg.run_limit);
        loop {
            if self.all_app_spaces_done() {
                return RunOutcome {
                    end: self.q.now(),
                    timed_out: false,
                    deadlocked: false,
                };
            }
            match self.q.pop_within(limit) {
                PopNext::Empty => {
                    return RunOutcome {
                        end: self.q.now(),
                        timed_out: false,
                        deadlocked: true,
                    };
                }
                PopNext::Deferred(_) => {
                    return RunOutcome {
                        end: self.q.now(),
                        timed_out: true,
                        deadlocked: false,
                    };
                }
                PopNext::Popped(_, ev) => {
                    self.metrics.events.inc();
                    self.handle_event(ev);
                    if self.quiesce_dirty {
                        self.check_quiescence();
                    }
                    #[cfg(debug_assertions)]
                    self.check_invariants();
                }
            }
        }
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::SegDone { cpu, gen } => {
                if self.cpus[cpu].gen == gen {
                    self.on_seg_done(cpu);
                }
            }
            Event::Dispatch { cpu, gen } => {
                if self.cpus[cpu].gen == gen && self.cpus[cpu].inflight.is_none() {
                    self.advance_cpu(cpu);
                }
            }
            Event::QuantumExpire { cpu, gen } => {
                if self.cpus[cpu].gen == gen {
                    self.on_quantum_expire(cpu);
                }
            }
            Event::DiskDone { op } => self.on_disk_done(op),
            Event::DaemonWake { idx } => self.on_daemon_wake(idx as usize),
            Event::StartSpace { space } => self.start_space(space),
            Event::RetryNotify { space } => self.retry_notify(space),
            Event::RotateShares => {
                self.rotation_armed = false;
                self.share_rotation = self.share_rotation.wrapping_add(1);
                self.rebalance();
            }
            Event::DwellRetry => {
                self.dwell_retry_armed = false;
                self.rebalance();
            }
        }
    }

    fn all_app_spaces_done(&self) -> bool {
        debug_assert_eq!(
            self.app_spaces,
            self.spaces.iter().filter(|s| !s.is_daemon_space).count(),
            "app-space counter drift"
        );
        debug_assert_eq!(
            self.app_spaces_done,
            self.spaces
                .iter()
                .filter(|s| !s.is_daemon_space && s.done)
                .count(),
            "app-space done-counter drift"
        );
        self.app_spaces > 0 && self.app_spaces_done == self.app_spaces
    }

    /// Detects freshly quiescent spaces and retires them.
    fn check_quiescence(&mut self) {
        self.quiesce_dirty = false;
        for i in 0..self.spaces.len() {
            let s = &self.spaces[i];
            if !s.started || s.done || s.is_daemon_space {
                continue;
            }
            let quiescent = match &s.kind {
                SpaceKind::KernelDirect { .. } => s.live_kthreads == 0,
                SpaceKind::UserOnKt { .. } | SpaceKind::UserOnSa => {
                    s.sa.blocked.is_empty() && s.runtime.as_ref().is_some_and(|rt| rt.quiescent())
                }
            };
            if quiescent {
                self.finish_space(AsId(i as u32));
            }
        }
    }

    /// Verifies the paper's structural invariants (debug builds).
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        for s in &self.spaces {
            if !s.started || s.done || !s.is_sa() {
                continue;
            }
            // §3.1: "there are always exactly as many running scheduler
            // activations (vessels for running user-level threads) as there
            // are processors assigned to the address space."
            let dispatched = self
                .cpus
                .iter()
                .filter(
                    |c| matches!(c.running, Running::Act(a) if self.acts[a.index()].space == s.id),
                )
                .count();
            assert_eq!(
                s.sa.running.len(),
                dispatched,
                "activation invariant violated for {}: {} running acts vs {} dispatched CPUs",
                s.id,
                s.sa.running.len(),
                dispatched
            );
            let assigned = self
                .cpus
                .iter()
                .filter(|c| c.assigned == Some(s.id))
                .count() as u32;
            assert_eq!(
                s.assigned_cpus, assigned,
                "assigned-cpu accounting drifted for {}",
                s.id
            );
        }
    }

    pub(crate) fn finish_space(&mut self, id: AsId) {
        let now = self.q.now();
        self.trace
            .event(now, || TraceEvent::SpaceDone { space: id.0 });
        self.spaces[id.index()].done = true;
        if !self.spaces[id.index()].is_daemon_space {
            self.app_spaces_done += 1;
        }
        self.spaces[id.index()].completed_at = Some(now);
        // Any threads still on the gauges are being destroyed, not served:
        // stop the wait clocks.
        self.ledger.clear_waits(id.index(), now);
        if let Some(w) = &mut self.windowed {
            w.clear_space(id.index(), now);
        }
        // Tear down whatever is still dispatched for this space.
        for cpu in 0..self.cpus.len() {
            let belongs = match self.cpus[cpu].running {
                Running::Kt(kt) => self.kts.hot[kt.index()].space == id,
                Running::Act(a) => self.acts[a.index()].space == id,
                Running::Idle => false,
            };
            if belongs {
                self.halt_cpu_unit(cpu);
            }
        }
        // Remove parked VPs / ready threads of this space.
        let vps: Vec<KtId> = match &self.spaces[id.index()].kind {
            SpaceKind::UserOnKt { vps } => vps.clone(),
            _ => Vec::new(),
        };
        for kt in vps {
            if self.kts.hot[kt.index()].state != KtState::Dead {
                self.global_rq.remove(kt);
                self.spaces[id.index()].ready.remove(kt);
                self.kts.hot[kt.index()].state = KtState::Dead;
            }
        }
        // Reclaim activations.
        let sa = std::mem::take(&mut self.spaces[id.index()].sa);
        for a in sa.running.into_iter().chain(sa.blocked).chain(sa.discarded) {
            self.acts[a.index()].state = crate::activation::ActState::Cached;
        }
        self.spaces[id.index()].sa.cached = sa.cached;
        // Release CPUs (allocator mode) and give freed CPUs work.
        if self.cfg.sched == SchedMode::SaAllocator {
            for cpu in 0..self.cpus.len() {
                if self.cpus[cpu].assigned == Some(id) {
                    self.release_cpu(cpu);
                }
            }
            self.rebalance();
        } else {
            for cpu in 0..self.cpus.len() {
                if matches!(self.cpus[cpu].running, Running::Idle)
                    && self.cpus[cpu].inflight.is_none()
                {
                    self.schedule_dispatch(cpu);
                }
            }
        }
    }

    /// Forcibly removes whatever runs on `cpu` (space teardown).
    fn halt_cpu_unit(&mut self, cpu: usize) {
        self.cancel_inflight(cpu);
        match self.cpus[cpu].running {
            Running::Kt(kt) => {
                self.kts.hot[kt.index()].state = KtState::Dead;
            }
            Running::Act(a) => {
                self.acts[a.index()].state = crate::activation::ActState::Cached;
                let space = self.acts[a.index()].space;
                let sa = &mut self.spaces[space.index()].sa;
                sa.running.retain(|&x| x != a);
            }
            Running::Idle => {}
        }
        self.set_idle(cpu);
    }

    /// Charges `dur` of `state` on `cpu` through the per-CPU accumulator
    /// (the single entry point for all three charge choke points:
    /// completed segments, cancelled segments, ended idle stretches).
    pub(crate) fn charge_cpu(
        &mut self,
        cpu: usize,
        space: Option<usize>,
        state: CpuState,
        dur: sa_sim::SimDuration,
    ) {
        let key = space.map_or(0, |s| s as u32 + 1);
        let acc = &mut self.pending_charges[cpu];
        if acc.key != key {
            acc.flush_into(&mut self.ledger, cpu);
            acc.key = key;
        }
        acc.ns[state as usize] += dur.as_nanos();
        // Every charge site passes an interval ending now, so the
        // windowed rollup can split it across window boundaries exactly.
        if let Some(w) = &mut self.windowed {
            w.charge(state, self.q.now(), dur);
        }
    }

    /// Cancels the in-flight segment on `cpu` without charging the partial
    /// time to the space's metrics (teardown only). The ledger still
    /// records the elapsed portion — the CPU really did spend that time —
    /// or its conservation invariant would leak a gap.
    pub(crate) fn cancel_inflight(&mut self, cpu: usize) {
        if let Some(inf) = self.cpus[cpu].inflight.take() {
            self.q.cancel(inf.token);
            let elapsed = self.q.now().since(inf.started);
            let space = self.running_space_index(cpu);
            self.charge_cpu(cpu, space, inf.seg.ledger_state(), elapsed);
        }
        self.bump_gen(cpu);
    }

    /// The raw index of the space dispatched on `cpu`, if any.
    pub(crate) fn running_space_index(&self, cpu: usize) -> Option<usize> {
        match self.cpus[cpu].running {
            Running::Kt(kt) => Some(self.kts.hot[kt.index()].space.index()),
            Running::Act(a) => Some(self.acts[a.index()].space.index()),
            Running::Idle => None,
        }
    }

    /// Adjusts the ready-wait gauge of `kt`'s space by `delta` threads.
    /// Call on every ready-queue push (+1) and pop (−1).
    pub(crate) fn note_ready_wait(&mut self, kt: KtId, delta: i64) {
        let space = self.kts.hot[kt.index()].space;
        self.ledger
            .note_wait(space.index(), WaitKind::Ready, self.q.now(), delta);
        if let Some(w) = &mut self.windowed {
            w.note_wait(space.index(), WaitKind::Ready, self.q.now(), delta);
        }
    }

    /// Adjusts a blocked-wait gauge of `space` by `delta` threads.
    pub(crate) fn note_blocked_wait(&mut self, space: AsId, kind: WaitKind, delta: i64) {
        self.ledger
            .note_wait(space.index(), kind, self.q.now(), delta);
        if let Some(w) = &mut self.windowed {
            w.note_wait(space.index(), kind, self.q.now(), delta);
        }
    }

    /// A snapshot of the time-attribution ledger with every open interval
    /// (an in-flight segment, an idle stretch) closed at the current
    /// virtual time, so per-CPU sums equal the makespan exactly. Does not
    /// mutate kernel state; callable mid-run or after [`Kernel::run`].
    pub fn time_ledger(&self) -> TimeLedger {
        let now = self.q.now();
        let mut ledger = self.ledger.clone();
        for cpu in 0..self.cpus.len() {
            let mut pending = self.pending_charges[cpu].clone();
            pending.flush_into(&mut ledger, cpu);
            if let Some(inf) = &self.cpus[cpu].inflight {
                let elapsed = now.since(inf.started);
                let space = self.running_space_index(cpu);
                ledger.charge(cpu, space, inf.seg.ledger_state(), elapsed);
            } else if let Some(since) = self.cpus[cpu].idle_since {
                ledger.charge(cpu, None, CpuState::Idle, now.since(since));
            }
        }
        ledger
    }

    /// Turns on the windowed rollup of the charge stream (SLO pipeline).
    /// Must be called before the run starts so window 0 is complete.
    pub fn enable_windowed_ledger(&mut self, width: sa_sim::SimDuration) {
        self.windowed = Some(Box::new(sa_sim::WindowedLedger::new(
            width,
            self.cpus.len() as u32,
        )));
    }

    /// A snapshot of the windowed ledger (if enabled) with every open
    /// interval closed and every wait gauge integrated up to now, so
    /// per-window conservation holds exactly (see
    /// [`WindowedLedger::verify`](sa_sim::WindowedLedger::verify)).
    pub fn windowed_ledger(&self) -> Option<sa_sim::WindowedLedger> {
        let mut w = self.windowed.as_deref().cloned()?;
        let now = self.q.now();
        for cpu in 0..self.cpus.len() {
            if let Some(inf) = &self.cpus[cpu].inflight {
                w.charge(inf.seg.ledger_state(), now, now.since(inf.started));
            } else if let Some(since) = self.cpus[cpu].idle_since {
                w.charge(CpuState::Idle, now, now.since(since));
            }
        }
        w.seal(now);
        Some(w)
    }

    /// Invalidates all outstanding per-CPU events.
    pub(crate) fn bump_gen(&mut self, cpu: usize) {
        self.cpus[cpu].gen += 1;
        if let Some(tok) = self.cpus[cpu].quantum_tok.take() {
            self.q.cancel(tok);
        }
    }

    /// Marks `cpu` idle and starts idle accounting.
    pub(crate) fn set_idle(&mut self, cpu: usize) {
        self.cpus[cpu].running = Running::Idle;
        if self.cpus[cpu].idle_since.is_none() {
            self.cpus[cpu].idle_since = Some(self.q.now());
        }
    }

    /// Ends idle accounting on `cpu` (it is about to run something).
    pub(crate) fn end_idle(&mut self, cpu: usize) {
        if let Some(since) = self.cpus[cpu].idle_since.take() {
            let d = self.q.now().since(since);
            self.metrics.charge_idle(d);
            self.charge_cpu(cpu, None, CpuState::Idle, d);
        }
    }

    /// Schedules an immediate dispatch of `cpu` (with the current gen).
    pub(crate) fn schedule_dispatch(&mut self, cpu: usize) {
        let gen = self.cpus[cpu].gen;
        self.sched_ev(self.q.now(), Event::Dispatch { cpu, gen });
    }

    /// Schedules `ev` at `time` (the single kernel-wide entry point for
    /// event scheduling).
    pub(crate) fn sched_ev(&mut self, time: SimTime, ev: Event) -> EventToken {
        self.q.schedule(time, ev)
    }
}
