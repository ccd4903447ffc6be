//! Configuration of the FastThreads-like runtime.

use crate::ready::ReadyPolicyKind;
use crate::sync::SpinPolicy;

/// Which substrate the thread package runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// Kernel threads as virtual processors — **original FastThreads**.
    /// The kernel delivers no events; VPs are scheduled obliviously
    /// (the integration problems of §2.2).
    KernelThreads {
        /// Number of VPs to create (typically the machine's CPU count).
        vps: u32,
    },
    /// Scheduler activations — **new FastThreads** (the paper's system).
    SchedulerActivations,
}

/// How critical sections interact with preemption (§3.3, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CriticalSectionMode {
    /// The paper's zero-overhead scheme: an exact copy of each critical
    /// section lets the upcall handler continue a preempted lock holder
    /// with **no cost on the common-case path**.
    ZeroOverhead,
    /// Recovery via an explicit per-thread flag set/cleared around every
    /// critical section — the §5.1 ablation (34→49 µs Null Fork,
    /// 42→48 µs Signal-Wait).
    ExplicitFlag,
    /// No recovery at all: preempted lock holders simply go back on the
    /// ready list while spinners burn their processors — demonstrates why
    /// §3.3 is necessary.
    NoRecovery,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Substrate choice.
    pub substrate: Substrate,
    /// Critical-section handling.
    pub critical: CriticalSectionMode,
    /// User-lock contention policy.
    pub lock_policy: SpinPolicy,
    /// Upper bound on processors this application will request.
    pub max_processors: u32,
    /// Schedule user threads by priority (set by `Op::ForkPrio`): the
    /// dispatcher picks the highest-priority runnable thread, and — on
    /// scheduler activations — readying a thread whose priority exceeds a
    /// running thread's asks the kernel to interrupt that processor
    /// (§3.1's priority preemption). Off by default: the paper's default
    /// FastThreads policy is plain per-processor LIFO.
    pub priority_scheduling: bool,
    /// Ready-queue discipline (§2.1: the application picks its own
    /// scheduling policy); defaults to the paper's per-processor LIFO
    /// lists with idle stealing.
    pub ready_policy: ReadyPolicyKind,
}

impl FtConfig {
    /// New FastThreads on scheduler activations with the paper's defaults.
    pub fn scheduler_activations(max_processors: u32) -> Self {
        FtConfig {
            substrate: Substrate::SchedulerActivations,
            critical: CriticalSectionMode::ZeroOverhead,
            lock_policy: SpinPolicy::default(),
            max_processors,
            priority_scheduling: false,
            ready_policy: ReadyPolicyKind::default(),
        }
    }

    /// Original FastThreads on `vps` kernel-thread virtual processors.
    pub fn kernel_threads(vps: u32) -> Self {
        FtConfig {
            substrate: Substrate::KernelThreads { vps },
            critical: CriticalSectionMode::ZeroOverhead,
            lock_policy: SpinPolicy::default(),
            max_processors: vps,
            priority_scheduling: false,
            ready_policy: ReadyPolicyKind::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let sa = FtConfig::scheduler_activations(6);
        assert_eq!(sa.substrate, Substrate::SchedulerActivations);
        assert_eq!(sa.max_processors, 6);
        assert_eq!(sa.ready_policy, ReadyPolicyKind::LocalLifo);
        let kt = FtConfig::kernel_threads(4);
        assert_eq!(kt.substrate, Substrate::KernelThreads { vps: 4 });
    }
}
