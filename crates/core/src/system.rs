//! The `System` builder: one-stop construction of a simulated machine,
//! kernel, and application address spaces.

use sa_kernel::{
    AllocPolicyKind, DaemonSpec, Kernel, KernelConfig, KernelFlavor, RunOutcome, SchedMode,
    SpaceKindSpec, SpaceMetrics, SpaceSpec,
};
use sa_machine::disk::DiskConfig;
use sa_machine::program::ThreadBody;
use sa_machine::CostModel;
use sa_sim::{EventCore, SimDuration, SimTime, Trace};
use sa_uthread::{CriticalSectionMode, FastThreads, FtConfig, ReadyPolicyKind, SpinPolicy};

/// Which thread system an application uses — the four columns of the
/// paper's comparison.
#[derive(Debug, Clone)]
pub enum ThreadApi {
    /// Program directly with Topaz kernel threads.
    TopazThreads,
    /// Program with Ultrix-style heavyweight processes.
    UltrixProcesses,
    /// Original FastThreads on kernel-thread virtual processors.
    OrigFastThreads {
        /// Number of virtual processors to create.
        vps: u32,
    },
    /// New FastThreads on scheduler activations (the paper's system).
    SchedulerActivations {
        /// Upper bound on processors the application will request.
        max_processors: u32,
    },
}

/// One application to run.
pub struct AppSpec {
    /// Debug name.
    pub name: String,
    /// Thread system.
    pub api: ThreadApi,
    /// Main thread body.
    pub main: Box<dyn ThreadBody>,
    /// Allocation priority (higher wins); default 1.
    pub priority: u8,
    /// Resident-set size in pages (None = no paging).
    pub mem_pages: Option<usize>,
    /// Start offset.
    pub start_at: SimTime,
    /// Critical-section mode for FastThreads variants.
    pub critical: CriticalSectionMode,
    /// User-lock contention policy for FastThreads variants.
    pub lock_policy: SpinPolicy,
    /// Priority scheduling in FastThreads variants (see
    /// `FtConfig::priority_scheduling`).
    pub priority_scheduling: bool,
    /// Ready-queue discipline for FastThreads variants (see
    /// `FtConfig::ready_policy`).
    pub ready_policy: ReadyPolicyKind,
}

impl AppSpec {
    /// An application with default knobs.
    pub fn new(name: impl Into<String>, api: ThreadApi, main: Box<dyn ThreadBody>) -> Self {
        AppSpec {
            name: name.into(),
            api,
            main,
            priority: 1,
            mem_pages: None,
            start_at: SimTime::ZERO,
            critical: CriticalSectionMode::ZeroOverhead,
            lock_policy: SpinPolicy::default(),
            priority_scheduling: false,
            ready_policy: ReadyPolicyKind::default(),
        }
    }
}

/// Handle to a running application within a [`System`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppId(pub(crate) sa_kernel::AsId);

/// Builder for a complete simulated system.
pub struct SystemBuilder {
    cpus: u16,
    cost: CostModel,
    sched: Option<SchedMode>,
    alloc_policy: AllocPolicyKind,
    daemons: Vec<DaemonSpec>,
    disk: DiskConfig,
    seed: u64,
    event_core: EventCore,
    dyn_policies: bool,
    run_limit: SimTime,
    trace: Option<Trace>,
    windowed: Option<SimDuration>,
    decision_audit: bool,
    apps: Vec<AppSpec>,
}

impl SystemBuilder {
    /// A builder for a machine with `cpus` processors (the paper's Firefly
    /// had six) using the prototype cost model.
    pub fn new(cpus: u16) -> Self {
        SystemBuilder {
            cpus,
            cost: CostModel::firefly_prototype(),
            sched: None,
            alloc_policy: AllocPolicyKind::default(),
            daemons: Vec::new(),
            disk: DiskConfig::default(),
            seed: 0x5eed,
            event_core: EventCore::default(),
            dyn_policies: false,
            run_limit: SimTime::from_millis(600_000),
            trace: None,
            windowed: None,
            decision_audit: false,
            apps: Vec::new(),
        }
    }

    /// Replaces the cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Forces the scheduling regime. By default it is inferred: any
    /// scheduler-activation application selects the modified kernel
    /// ([`SchedMode::SaAllocator`]); otherwise the native kernel.
    pub fn sched(mut self, sched: SchedMode) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Selects the kernel's processor-allocation policy (§4.1/§4.2);
    /// defaults to the paper's even space-sharing.
    pub fn alloc_policy(mut self, policy: AllocPolicyKind) -> Self {
        self.alloc_policy = policy;
        self
    }

    /// Enables kernel daemon threads (§5.3).
    pub fn daemons(mut self, daemons: Vec<DaemonSpec>) -> Self {
        self.daemons = daemons;
        self
    }

    /// Replaces the disk configuration.
    pub fn disk(mut self, disk: DiskConfig) -> Self {
        self.disk = disk;
        self
    }

    /// Sets the RNG seed (runs are reproducible per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the event-queue core (differential testing and benchmarking;
    /// the cores are observationally identical, so production callers keep
    /// the default timing wheel).
    pub fn event_core(mut self, core: EventCore) -> Self {
        self.event_core = core;
        self
    }

    /// Sets the hard virtual-time limit.
    pub fn run_limit(mut self, limit: SimTime) -> Self {
        self.run_limit = limit;
        self
    }

    /// Installs a trace sink.
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Turns on the windowed metrics rollup with the given window width
    /// (time series of ledger-state shares and wait backlogs; see
    /// [`sa_sim::WindowedLedger`]). Off by default — the flat ledger is
    /// always on, the windowed rollup only when a report needs it.
    pub fn windowed_metrics(mut self, width: SimDuration) -> Self {
        self.windowed = Some(width);
        self
    }

    /// Turns on allocator decision provenance: the kernel keeps typed
    /// [`sa_kernel::AllocDecision`] records at its three allocation choke
    /// points plus grant-latency causal chains, and a
    /// [`sa_sim::DwellLedger`] of per-CPU assignment episodes. Off by
    /// default — decision *ids* are stamped onto upcalls either way (one
    /// counter increment), only record-keeping is gated here.
    pub fn decision_audit(mut self, on: bool) -> Self {
        self.decision_audit = on;
        self
    }

    /// Routes the allocation and ready policies through their original
    /// `Box<dyn>` trait objects instead of the enum-dispatched fast path.
    /// Observationally equivalent by construction; differential tests run
    /// both shapes and diff the traces.
    pub fn dyn_policies(mut self, on: bool) -> Self {
        self.dyn_policies = on;
        self
    }

    /// Adds an application.
    pub fn app(mut self, app: AppSpec) -> Self {
        self.apps.push(app);
        self
    }

    /// Builds the system (the kernel boots; applications start when
    /// [`System::run`] is called).
    pub fn build(self) -> System {
        let sched = self.sched.unwrap_or_else(|| {
            if self
                .apps
                .iter()
                .any(|a| matches!(a.api, ThreadApi::SchedulerActivations { .. }))
            {
                SchedMode::SaAllocator
            } else {
                SchedMode::TopazNative
            }
        });
        let cfg = KernelConfig {
            cpus: self.cpus,
            sched,
            alloc_policy: self.alloc_policy,
            daemons: self.daemons,
            disk: self.disk,
            seed: self.seed,
            event_core: self.event_core,
            run_limit: self.run_limit,
        };
        let mut kernel = Kernel::new(cfg, self.cost);
        if self.dyn_policies {
            kernel.set_alloc_policy(self.alloc_policy.build());
        }
        if let Some(trace) = self.trace {
            kernel.set_trace(trace);
        }
        if let Some(width) = self.windowed {
            kernel.enable_windowed_ledger(width);
        }
        if self.decision_audit {
            kernel.enable_decision_log();
            kernel.enable_dwell_ledger();
        }
        let mut ids = Vec::new();
        for app in self.apps {
            let kind = match app.api {
                ThreadApi::TopazThreads => SpaceKindSpec::KernelDirect {
                    flavor: KernelFlavor::TopazThreads,
                    main: app.main,
                },
                ThreadApi::UltrixProcesses => SpaceKindSpec::KernelDirect {
                    flavor: KernelFlavor::UltrixProcesses,
                    main: app.main,
                },
                ThreadApi::OrigFastThreads { vps } => {
                    let mut cfg = FtConfig::kernel_threads(vps);
                    cfg.critical = app.critical;
                    cfg.lock_policy = app.lock_policy;
                    cfg.priority_scheduling = app.priority_scheduling;
                    cfg.ready_policy = app.ready_policy;
                    let ready_kind = cfg.ready_policy;
                    let mut rt = FastThreads::new(cfg);
                    if self.dyn_policies {
                        rt.set_ready_policy(ready_kind.build());
                    }
                    SpaceKindSpec::UserLevel {
                        runtime: Box::new(rt),
                        main: app.main,
                    }
                }
                ThreadApi::SchedulerActivations { max_processors } => {
                    let mut cfg = FtConfig::scheduler_activations(max_processors);
                    cfg.critical = app.critical;
                    cfg.lock_policy = app.lock_policy;
                    cfg.priority_scheduling = app.priority_scheduling;
                    cfg.ready_policy = app.ready_policy;
                    let ready_kind = cfg.ready_policy;
                    let mut rt = FastThreads::new(cfg);
                    if self.dyn_policies {
                        rt.set_ready_policy(ready_kind.build());
                    }
                    SpaceKindSpec::UserLevel {
                        runtime: Box::new(rt),
                        main: app.main,
                    }
                }
            };
            let id = kernel.add_space(SpaceSpec {
                name: app.name,
                priority: app.priority,
                kind,
                mem_pages: app.mem_pages,
                start_at: app.start_at,
            });
            ids.push(AppId(id));
        }
        System { kernel, apps: ids }
    }
}

/// Result of a full system run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Kernel-loop outcome.
    pub outcome: RunOutcome,
    /// Per-application elapsed time (start → completion), in app order.
    pub elapsed: Vec<Option<SimDuration>>,
}

impl RunReport {
    /// Elapsed time of application `i`.
    ///
    /// # Panics
    ///
    /// Panics if that application never completed — check
    /// [`RunOutcome::timed_out`]/[`RunOutcome::deadlocked`] first when a
    /// run may legitimately fail.
    pub fn elapsed(&self, i: usize) -> SimDuration {
        self.elapsed[i].expect("application did not complete")
    }

    /// True when every application finished.
    pub fn all_done(&self) -> bool {
        !self.outcome.timed_out
            && !self.outcome.deadlocked
            && self.elapsed.iter().all(Option::is_some)
    }
}

/// A built system ready to run.
pub struct System {
    kernel: Kernel,
    apps: Vec<AppId>,
}

impl System {
    /// Runs to completion (or the time limit) and reports.
    pub fn run(&mut self) -> RunReport {
        let outcome = self.kernel.run();
        let elapsed = self
            .apps
            .iter()
            .map(|a| self.kernel.space_elapsed(a.0))
            .collect();
        RunReport { outcome, elapsed }
    }

    /// The application handles, in the order added.
    pub fn apps(&self) -> &[AppId] {
        &self.apps
    }

    /// Kernel-side metrics for an application.
    pub fn metrics(&self, app: AppId) -> &SpaceMetrics {
        self.kernel.space_metrics(app.0)
    }

    /// The user-level runtime's statistics line for an application.
    pub fn runtime_stats(&self, app: AppId) -> String {
        self.kernel.runtime_stats(app.0)
    }

    /// The user-level runtime's internal state dump for an application.
    pub fn runtime_dump(&self, app: AppId) -> String {
        self.kernel.runtime_dump(app.0)
    }

    /// The time-attribution ledger, with open intervals closed at the
    /// current virtual time (see [`sa_sim::TimeLedger`]).
    pub fn time_ledger(&self) -> sa_sim::TimeLedger {
        self.kernel.time_ledger()
    }

    /// The windowed metrics rollup, if enabled via
    /// [`SystemBuilder::windowed_metrics`], with open intervals closed
    /// so per-window conservation holds.
    pub fn windowed_ledger(&self) -> Option<sa_sim::WindowedLedger> {
        self.kernel.windowed_ledger()
    }

    /// The allocator decision log, if enabled via
    /// [`SystemBuilder::decision_audit`].
    pub fn decision_log(&self) -> Option<&sa_kernel::ProvenanceLog> {
        self.kernel.decision_log()
    }

    /// The per-CPU dwell ledger, sealed at the current virtual time, if
    /// enabled via [`SystemBuilder::decision_audit`].
    pub fn dwell_ledger(&self) -> Option<sa_sim::DwellLedger> {
        self.kernel.dwell_ledger()
    }

    /// Total user-runtime ready-wait for an application (ready → running
    /// delay inside the user-level thread package), in nanoseconds. Zero
    /// for kernel-direct applications, whose ready waits the kernel's
    /// ledger gauges see directly.
    pub fn runtime_ready_wait_ns(&self, app: AppId) -> u64 {
        self.kernel.runtime_ready_wait_ns(app.0)
    }

    /// Resident TCB-slab footprint of an application's user runtime
    /// (`None` for kernel-direct applications).
    pub fn tcb_slab_stats(&self, app: AppId) -> Option<sa_kernel::upcall::TcbSlabStats> {
        self.kernel.runtime_tcb_slab_stats(app.0)
    }

    /// Access to the underlying kernel (trace, global metrics, time).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable access to the underlying kernel (policy injection in
    /// differential tests).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_machine::ComputeBody;

    #[test]
    fn builder_infers_sched_mode() {
        let sys = SystemBuilder::new(2)
            .app(AppSpec::new(
                "a",
                ThreadApi::TopazThreads,
                Box::new(ComputeBody::null()),
            ))
            .build();
        // Native mode: no allocator rebalances will be counted after run.
        let _ = sys;
    }

    #[test]
    fn run_report_panics_on_missing_elapsed() {
        let report = RunReport {
            outcome: RunOutcome {
                end: SimTime::ZERO,
                timed_out: true,
                deadlocked: false,
            },
            elapsed: vec![None],
        };
        assert!(!report.all_done());
        let r = std::panic::catch_unwind(|| report.elapsed(0));
        assert!(r.is_err());
    }
}
