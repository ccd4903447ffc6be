//! Kernel and address-space configuration.

use crate::policy::AllocPolicyKind;
use crate::upcall::UserRuntime;
use sa_machine::disk::DiskConfig;
use sa_machine::program::ThreadBody;
use sa_sim::{EventCore, SimDuration, SimTime};

/// Which processor-scheduling regime the kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// The unmodified Topaz kernel: one global kernel-thread scheduler,
    /// priority + round-robin time slicing, oblivious to address spaces
    /// and to user-level thread state (§2.2). Baseline for "Topaz threads"
    /// and "original FastThreads".
    TopazNative,
    /// The paper's modified kernel: the processor allocator space-shares
    /// CPUs among address spaces (§4.1); scheduler-activation spaces get
    /// upcalls, kernel-thread spaces get the Topaz scheduler *within their
    /// allocation*, so both kinds coexist without static partitioning.
    SaAllocator,
}

/// A periodic kernel daemon thread (§5.3: "the Topaz operating system has
/// several daemon threads which wake up periodically, execute for a short
/// time, and then go back to sleep").
#[derive(Debug, Clone, Copy)]
pub struct DaemonSpec {
    /// Mean interval between wakeups (jittered per-daemon, seeded).
    pub period: SimDuration,
    /// How long each burst runs.
    pub burst: SimDuration,
}

impl DaemonSpec {
    /// The daemon set used by the application experiments: three daemons
    /// on staggered periods with ~1 ms bursts (§5.3 blames "several daemon
    /// threads which wake up periodically" for the Figure 1 divergence).
    pub fn topaz_default_set() -> Vec<DaemonSpec> {
        vec![
            DaemonSpec {
                period: SimDuration::from_millis(30),
                burst: SimDuration::from_millis(1),
            },
            DaemonSpec {
                period: SimDuration::from_millis(45),
                burst: SimDuration::from_millis(1),
            },
            DaemonSpec {
                period: SimDuration::from_millis(60),
                burst: SimDuration::from_millis(1),
            },
        ]
    }
}

/// Kernel-wide configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Number of physical processors (the paper's Firefly had six).
    pub cpus: u16,
    /// Scheduling regime.
    pub sched: SchedMode,
    /// Processor-allocation policy (only consulted in
    /// [`SchedMode::SaAllocator`]).
    pub alloc_policy: AllocPolicyKind,
    /// Kernel daemon threads.
    pub daemons: Vec<DaemonSpec>,
    /// Disk device configuration.
    pub disk: DiskConfig,
    /// RNG seed; identical seeds reproduce runs exactly.
    pub seed: u64,
    /// Which event-queue implementation drives the run. Cores are
    /// observationally identical (pinned by trace-identity tests); the
    /// non-default [`EventCore::Indexed`] exists for differential testing
    /// and benchmarking.
    pub event_core: EventCore,
    /// Hard stop: the run aborts (reporting `timed_out`) if virtual time
    /// exceeds this bound, so misconfigured workloads cannot hang a suite.
    pub run_limit: SimTime,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            cpus: 6,
            sched: SchedMode::SaAllocator,
            alloc_policy: AllocPolicyKind::default(),
            daemons: Vec::new(),
            disk: DiskConfig::default(),
            seed: 0x005e_ed5a,
            event_core: EventCore::default(),
            run_limit: SimTime::from_millis(600_000), // 10 virtual minutes
        }
    }
}

/// Which heavyweight cost set a kernel-scheduled space charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFlavor {
    /// Topaz kernel threads: Table 1's middle column.
    TopazThreads,
    /// Ultrix-like processes: Table 1's right column. Structurally modelled
    /// as kernel threads whose create/exit/signal/wait paths pay
    /// address-space-scale costs; the latency benchmarks never share
    /// fine-grained state across processes, so the missing address-space
    /// separation is unobservable.
    UltrixProcesses,
}

/// What kind of thread management an address space uses.
pub enum SpaceKindSpec {
    /// Application programs directly against kernel threads (or processes);
    /// every thread operation traps.
    KernelDirect {
        /// Cost flavor.
        flavor: KernelFlavor,
        /// The main thread's body.
        main: Box<dyn ThreadBody>,
    },
    /// A user-level thread package manages the space's parallelism. The
    /// substrate (kernel-thread VPs vs. scheduler activations) is chosen by
    /// [`UserRuntime::kthread_vps`].
    UserLevel {
        /// The thread-package instance (already holding its main body, or
        /// it will receive it via [`UserRuntime::set_main`]).
        runtime: Box<dyn UserRuntime>,
        /// The main thread's body.
        main: Box<dyn ThreadBody>,
    },
}

/// Specification of one address space.
pub struct SpaceSpec {
    /// Debug label.
    pub name: String,
    /// Allocation priority: higher wins (kernel daemons run above all
    /// application spaces).
    pub priority: u8,
    /// Thread-management kind.
    pub kind: SpaceKindSpec,
    /// Resident-set capacity in pages; `None` disables page faulting.
    pub mem_pages: Option<usize>,
    /// Delay before the space starts (staggers multiprogrammed runs).
    pub start_at: SimTime,
}

impl SpaceSpec {
    /// A kernel-direct space with default priority and no paging.
    pub fn kernel_direct(
        name: impl Into<String>,
        flavor: KernelFlavor,
        main: Box<dyn ThreadBody>,
    ) -> Self {
        SpaceSpec {
            name: name.into(),
            priority: 1,
            kind: SpaceKindSpec::KernelDirect { flavor, main },
            mem_pages: None,
            start_at: SimTime::ZERO,
        }
    }

    /// A user-level-threads space with default priority and no paging.
    pub fn user_level(
        name: impl Into<String>,
        runtime: Box<dyn UserRuntime>,
        main: Box<dyn ThreadBody>,
    ) -> Self {
        SpaceSpec {
            name: name.into(),
            priority: 1,
            kind: SpaceKindSpec::UserLevel { runtime, main },
            mem_pages: None,
            start_at: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_machine() {
        let c = KernelConfig::default();
        assert_eq!(c.cpus, 6);
        assert_eq!(c.sched, SchedMode::SaAllocator);
        assert_eq!(c.alloc_policy, AllocPolicyKind::SpaceShareEven);
        assert!(c.daemons.is_empty());
        assert_eq!(c.event_core, EventCore::Wheel);
    }

    #[test]
    fn default_daemon_set_has_three() {
        assert_eq!(DaemonSpec::topaz_default_set().len(), 3);
    }
}
