//! The kernel proper: state, construction, and the event loop.

use crate::config::{KernelConfig, SchedMode, SpaceKindSpec, SpaceSpec};
use crate::daemon::DaemonState;
use crate::exec::{KtFlavor, Running, Seg};
use crate::ids::{ActId, AsId, KtId, VpId};
use crate::io::DiskOp;
use crate::kthread::{KtState, KtTable};
use crate::metrics::{KernelMetrics, RunOutcome, SpaceMetrics};
use crate::observe::Observer;
use crate::policy::{AllocPolicy, AllocPolicySelect};
use crate::sched::ReadyQueue;
use crate::space::{Residency, SaState, Space, SpaceKind};
use sa_machine::{CostModel, Disk};
use sa_sim::{CpuState, EventQueue, EventToken, PopNext, SimRng, SimTime, Trace, TraceEvent};

/// Priority of kernel daemon threads: above every application space.
pub(crate) const DAEMON_PRIO: u8 = 255;

/// Events driving the kernel through its event queue. Segment
/// completions are not among them: each CPU keeps its one in-flight
/// completion in the kernel's per-CPU key array instead (see
/// [`Kernel::run_until`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
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
}

/// A segment in flight on a CPU.
pub(crate) struct Inflight {
    pub seg: Seg,
    pub started: SimTime,
    /// The event-queue sequence number reserved for its completion (read
    /// by the debug-build invariant check).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub seq: u64,
}

/// A per-CPU completion key: `done_at << 64 | seq`, so `u128` order is
/// the event queue's `(time, seq)` order.
pub(crate) fn seg_key(done_at: SimTime, seq: u64) -> u128 {
    (done_at.as_nanos() as u128) << 64 | seq as u128
}

/// The key of a CPU with no segment in flight.
pub(crate) const NO_SEG: u128 = u128::MAX;

/// A completion key as the event queue's `(time, seq)` bound.
fn key_bound(key: u128) -> (SimTime, u64) {
    (SimTime::from_nanos((key >> 64) as u64), key as u64)
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
    /// Each CPU's in-flight segment completion as a [`seg_key`], or
    /// [`NO_SEG`]: the per-CPU timers the run loop merges with the event
    /// queue. Dense, so finding the earliest reads a few contiguous words.
    pub(crate) seg_keys: Vec<u128>,
    pub(crate) spaces: Vec<Space>,
    pub(crate) kts: KtTable,
    pub(crate) acts: Vec<crate::activation::Activation>,
    pub(crate) disk: Disk,
    pub(crate) diskops: Vec<Option<DiskOp>>,
    pub(crate) daemons: Vec<DaemonState>,
    /// Global ready queue (native mode).
    pub(crate) global_rq: ReadyQueue,
    pub(crate) metrics: KernelMetrics,
    /// The time ledgers, decision log and dwell ledger (`observe.rs`).
    pub(crate) obs: Observer,
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
    /// Spaces, one bit per index, whose own action (a runtime
    /// poll/upcall, a kernel-thread exit, an activation unblock, the
    /// space's start) could have made them quiescent since they were
    /// last checked; only a space's own actions can. A quiescence check
    /// visits just these; most events (segment completions, dispatches)
    /// mark none and skip the check entirely.
    quiesce_dirty: Vec<u64>,
    /// A check is due after this event: set by [`Kernel::mark_quiesce`],
    /// not by [`Kernel::note_quiescent`].
    quiesce_any: bool,
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
            })
            .collect();
        let n_cpus = cfg.cpus as usize;
        let disk = Disk::new(cfg.disk);
        let rng = SimRng::new(cfg.seed);
        let alloc_policy = cfg.alloc_policy.build_select();
        let segs = crate::exec::SegCache::new(&cost);
        let mut kernel = Kernel {
            cfg,
            cost,
            segs,
            q: EventQueue::new(),
            rng,
            trace: Trace::disabled(),
            cpus,
            seg_keys: vec![NO_SEG; n_cpus],
            spaces: Vec::new(),
            kts: KtTable::default(),
            acts: Vec::new(),
            disk,
            diskops: Vec::new(),
            daemons: Vec::new(),
            global_rq: ReadyQueue::new(),
            metrics: KernelMetrics::default(),
            obs: Observer::new(n_cpus),
            share_rotation: 0,
            rotation_armed: false,
            dwell_retry_armed: false,
            app_spaces: 0,
            app_spaces_done: 0,
            quiesce_dirty: Vec::new(),
            quiesce_any: false,
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

    /// Replaces the allocation policy with a custom trait-object policy:
    /// one defined outside this crate, or a built-in one wrapped by a
    /// caller (for example a probe that times each policy call).
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
        self.quiesce_dirty.resize(self.spaces.len().div_ceil(64), 0);
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
        self.mark_quiesce(id);
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

    /// Runs until every application space finishes, no event remains, or
    /// the configured time limit is hit.
    ///
    /// Events come from two sources: the event queue, and the per-CPU
    /// segment completions in `seg_keys` (each CPU runs at most one
    /// segment at a time, §3.1, and its completion is reserved a sequence
    /// number from the queue's own counter). Each iteration asks the queue
    /// for an event below the earliest completion's key with one bounded
    /// `pop_within`; if it declines, that completion is next. Delivery is
    /// therefore the union's strict `(time, seq)` order — exactly the
    /// order had every completion been queued — which is what makes every
    /// trace, metric, and golden output a pure function of the seed.
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
    /// A run is deadlocked only when the queue is empty and no CPU has a
    /// segment in flight.
    pub fn run_until(&mut self, until: SimTime) -> RunOutcome {
        let limit = seg_key(until.min(self.cfg.run_limit), u64::MAX);
        loop {
            if self.all_app_spaces_done() {
                return RunOutcome {
                    end: self.q.now(),
                    timed_out: false,
                    deadlocked: false,
                };
            }
            let (cpu, seg) = self.next_seg_done();
            match self.q.pop_within(key_bound(seg.min(limit))) {
                PopNext::Popped(_, ev) => {
                    self.metrics.events.inc();
                    self.handle_event(ev);
                }
                _ if seg < limit => {
                    self.q.advance_to(key_bound(seg).0);
                    self.metrics.events.inc();
                    self.on_seg_done(cpu);
                }
                declined => {
                    let deadlocked = matches!(declined, PopNext::Empty) && seg == NO_SEG;
                    return RunOutcome {
                        end: self.q.now(),
                        timed_out: !deadlocked,
                        deadlocked,
                    };
                }
            }
            if self.quiesce_any {
                self.check_quiescence();
            }
            #[cfg(debug_assertions)]
            self.check_invariants();
        }
    }

    /// The CPU whose in-flight segment completes first, with its key
    /// ([`NO_SEG`] if no CPU has one). Keys are unique, so the earliest is
    /// well defined.
    ///
    /// Which CPU finishes first is unpredictable, and the branches a plain
    /// `if key < best` compiles to mispredict often (7% of `slo`'s host
    /// samples, against 6% for this form); masks select without
    /// branching.
    fn next_seg_done(&self) -> (usize, u128) {
        let (mut cpu, mut best) = (0, NO_SEG);
        for (i, &key) in self.seg_keys.iter().enumerate() {
            let take = ((key < best) as usize).wrapping_neg();
            cpu = (i & take) | (cpu & !take);
            let take = take as u64 as u128;
            let take = take << 64 | take;
            best = (key & take) | (best & !take);
        }
        (cpu, best)
    }

    fn handle_event(&mut self, ev: Event) {
        match ev {
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

    /// Marks `space` for a quiescence check after this event.
    pub(crate) fn mark_quiesce(&mut self, space: AsId) {
        self.note_quiescent(space);
        self.quiesce_any = true;
    }

    /// Includes `space` in the next quiescence check without making one
    /// due.
    pub(crate) fn note_quiescent(&mut self, space: AsId) {
        let i = space.index();
        self.quiesce_dirty[i / 64] |= 1 << (i % 64);
    }

    /// The lowest marked space index at or above `from`, unmarking it.
    fn take_dirty_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = self.quiesce_dirty.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.quiesce_dirty[w] &= !(1 << (i % 64));
                return Some(i);
            }
            w += 1;
            bits = *self.quiesce_dirty.get(w)?;
        }
    }

    /// Detects freshly quiescent spaces among the marked ones and retires
    /// them in ascending index order. A space marked while an earlier one
    /// retires is checked in the same pass if its index is higher, and in
    /// the next pass otherwise — the spaces and order a walk over every
    /// space gives.
    fn check_quiescence(&mut self) {
        self.quiesce_any = false;
        let mut from = 0;
        while let Some(i) = self.take_dirty_from(from) {
            from = i + 1;
            if self.space_quiescent(i) {
                self.finish_space(AsId(i as u32));
            }
        }
    }

    /// Is space `i` started, unfinished, and out of work?
    fn space_quiescent(&self, i: usize) -> bool {
        let s = &self.spaces[i];
        if !s.started || s.done || s.is_daemon_space {
            return false;
        }
        match &s.kind {
            SpaceKind::KernelDirect { .. } => s.live_kthreads == 0,
            SpaceKind::UserOnKt { .. } | SpaceKind::UserOnSa => {
                s.sa.blocked.is_empty() && s.runtime.as_ref().is_some_and(|rt| rt.quiescent())
            }
        }
    }

    /// Verifies the paper's structural invariants (debug builds).
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        let now = self.q.now();
        for (cpu, c) in self.cpus.iter().enumerate() {
            // The per-CPU timer is the in-flight segment's completion.
            let want = c
                .inflight
                .as_ref()
                .map_or(NO_SEG, |inf| seg_key(inf.started + inf.seg.dur, inf.seq));
            assert_eq!(
                self.seg_keys[cpu], want,
                "cpu{cpu}: completion key out of step with its in-flight segment"
            );
            assert!(
                want == NO_SEG || key_bound(want).0 >= now,
                "cpu{cpu}: segment completion behind the clock"
            );
        }
        for (i, s) in self.spaces.iter().enumerate() {
            // Only a space's own actions make it quiescent, and each marks
            // or notes it: an unmarked space must not be waiting to retire.
            let marked = self.quiesce_dirty[i / 64] & (1 << (i % 64)) != 0;
            assert!(
                marked || !self.space_quiescent(i),
                "{} went quiescent unmarked",
                s.id
            );
        }
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
        self.obs.space_done(id, now);
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

    /// Cancels the in-flight segment on `cpu` (teardown only), charging
    /// the elapsed part: the CPU really did spend that time.
    pub(crate) fn cancel_inflight(&mut self, cpu: usize) {
        self.take_inflight_remainder(cpu);
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
        self.obs
            .wait(space, sa_sim::WaitKind::Ready, delta, self.q.now());
    }

    /// Takes the in-flight segment off `cpu`; clearing its completion key
    /// is the cancel.
    pub(crate) fn take_inflight(&mut self, cpu: usize) -> Option<Inflight> {
        self.seg_keys[cpu] = NO_SEG;
        self.cpus[cpu].inflight.take()
    }

    /// Invalidates all outstanding per-CPU events. The in-flight segment,
    /// if any, must already be taken: its completion is not an event.
    pub(crate) fn bump_gen(&mut self, cpu: usize) {
        debug_assert!(
            self.cpus[cpu].inflight.is_none(),
            "cpu{cpu}: disposition changed under an in-flight segment"
        );
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
            let now = self.q.now();
            self.obs
                .charge(cpu, None, CpuState::Idle, now.since(since), now);
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
