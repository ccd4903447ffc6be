//! Experiment harnesses: one function per paper result.
//!
//! These compose `sa-workload` bodies with [`crate::SystemBuilder`] runs
//! and reduce the measurements the way the paper does. [`crate::sweeps`]
//! fans them out into whole tables and figures, the `sa-experiments`
//! binary prints them, and integration tests assert on their shapes.

use crate::scenario::PolicyConfig;
use crate::{AppSpec, SystemBuilder, ThreadApi};
use sa_kernel::DaemonSpec;
use sa_machine::CostModel;
use sa_sim::{SimDuration, SimTime, Trace};
use sa_uthread::CriticalSectionMode;
use sa_workload::micro::{null_fork, signal_wait, SigWaitPath};
use sa_workload::nbody::{nbody_parallel, nbody_sequential, NBodyConfig};

/// Latencies of the two Table 1/4 thread operations for one system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadOpLatencies {
    /// Null Fork mean latency.
    pub null_fork: SimDuration,
    /// Signal-Wait mean latency.
    pub signal_wait: SimDuration,
}

/// Iterations used by the microbenchmarks (after a warmup prefix).
const MICRO_ITERS: usize = 300;
const MICRO_WARMUP: usize = 30;

/// Measures Null Fork and Signal-Wait for `api` on one processor
/// (Table 1 / Table 4 methodology).
pub fn thread_op_latencies(
    api: ThreadApi,
    cost: CostModel,
    critical: CriticalSectionMode,
) -> ThreadOpLatencies {
    let proc_call = cost.proc_call;
    let run = |main, samples: &sa_workload::Samples, per: u64| {
        let mut app = AppSpec::new("micro", api.clone(), main);
        app.critical = critical;
        let mut sys = SystemBuilder::new(1).cost(cost.clone()).app(app).build();
        let report = sys.run();
        assert!(
            report.all_done(),
            "microbenchmark did not finish: {:?}",
            report.outcome
        );
        samples.mean(MICRO_WARMUP, per)
    };
    let (nf_body, nf_samples) = null_fork(MICRO_ITERS, proc_call);
    let null_fork_lat = run(nf_body, &nf_samples, 1);
    let (sw_body, sw_samples) = signal_wait(MICRO_ITERS, SigWaitPath::AppLevel);
    let signal_wait_lat = run(sw_body, &sw_samples, 2);
    ThreadOpLatencies {
        null_fork: null_fork_lat,
        signal_wait: signal_wait_lat,
    }
}

/// §5.2: Signal-Wait forced through the kernel under scheduler
/// activations — "this approximates the overhead added by the scheduler
/// activation machinery of making and completing an I/O request or a page
/// fault."
pub fn upcall_signal_wait(cost: CostModel) -> SimDuration {
    let (body, samples) = signal_wait(80, SigWaitPath::ForcedKernel);
    let mut sys = SystemBuilder::new(1)
        .cost(cost)
        .app(AppSpec::new(
            "upcall-sigwait",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            body,
        ))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    samples.mean(8, 2)
}

/// The same §5.2 measurement for Topaz kernel threads (the paper's
/// comparison point: 441 µs vs the prototype's 2.4 ms).
pub fn topaz_signal_wait(cost: CostModel) -> SimDuration {
    let (body, samples) = signal_wait(200, SigWaitPath::AppLevel);
    let mut sys = SystemBuilder::new(1)
        .cost(cost)
        .app(AppSpec::new("topaz-sigwait", ThreadApi::TopazThreads, body))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "{:?}", report.outcome);
    samples.mean(20, 2)
}

/// Result of one N-body run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NBodyRun {
    /// Wall (virtual) time of the application.
    pub elapsed: SimDuration,
    /// Buffer-cache misses it suffered.
    pub cache_misses: u64,
}

/// Runs the N-body application once under `api` with the paper's daemon
/// set, returning elapsed time (Figure 1/2 and Table 5 building block).
///
/// `cpus` is the physical machine size (the paper's Firefly always has
/// six); the number of processors the *application* uses is carried by
/// `api` (the VP count or `max_processors`) — for Topaz kernel threads,
/// whose parallelism cannot be capped from user level, size the machine
/// itself instead.
///
/// `copies` > 1 runs that many identical applications simultaneously
/// (Table 5's multiprogramming) and returns the mean elapsed time.
pub fn nbody_run(
    api: ThreadApi,
    cpus: u16,
    nbody: NBodyConfig,
    cost: CostModel,
    copies: usize,
    seed: u64,
) -> NBodyRun {
    nbody_run_with(
        PolicyConfig::default(),
        api,
        cpus,
        nbody,
        cost,
        copies,
        seed,
    )
}

/// As [`nbody_run`], under an explicit [`PolicyConfig`] (kernel
/// allocation policy × ready-queue discipline) — the scenario registry's
/// entry point for policy comparisons.
pub fn nbody_run_with(
    policies: PolicyConfig,
    api: ThreadApi,
    cpus: u16,
    nbody: NBodyConfig,
    cost: CostModel,
    copies: usize,
    seed: u64,
) -> NBodyRun {
    let mut builder = SystemBuilder::new(cpus)
        .cost(cost)
        .seed(seed)
        .alloc_policy(policies.alloc)
        .daemons(DaemonSpec::topaz_default_set())
        .run_limit(SimTime::from_millis(3_600_000));
    let mut handles = Vec::new();
    for i in 0..copies {
        let mut cfg = nbody.clone();
        cfg.seed = nbody.seed + i as u64;
        let (body, handle) = nbody_parallel(cfg);
        let mut app = AppSpec::new(format!("nbody-{i}"), api.clone(), body);
        app.ready_policy = policies.ready;
        handles.push(handle);
        builder = builder.app(app);
    }
    let mut sys = builder.build();
    let report = sys.run();
    assert!(
        report.all_done(),
        "nbody under {api:?} did not finish: {:?}",
        report.outcome
    );
    let total: u128 = (0..copies)
        .map(|i| report.elapsed(i).as_nanos() as u128)
        .sum();
    NBodyRun {
        elapsed: SimDuration::from_nanos((total / copies as u128) as u64),
        cache_misses: handles.iter().map(|h| h.cache_misses()).sum(),
    }
}

/// Runs the sequential N-body baseline (no thread management at all) on
/// one processor — the denominator of every speedup in Figure 1/Table 5.
pub fn nbody_sequential_time(nbody: NBodyConfig, cost: CostModel, seed: u64) -> SimDuration {
    let (body, _handle) = nbody_sequential(nbody);
    let mut sys = SystemBuilder::new(1)
        .cost(cost)
        .seed(seed)
        .run_limit(SimTime::from_millis(3_600_000))
        .app(AppSpec::new("nbody-seq", ThreadApi::TopazThreads, body))
        .build();
    let report = sys.run();
    assert!(report.all_done(), "sequential nbody: {:?}", report.outcome);
    report.elapsed(0)
}

/// Host-side engine throughput of one simulated run: how many simulator
/// events the engine dispatched per second of *host* time. This is the
/// engine's own figure of merit (the paper's results are all in virtual
/// time and unaffected by it).
#[derive(Debug, Clone, Copy)]
pub struct EngineThroughput {
    /// Kernel events dispatched during the run.
    pub sim_events: u64,
    /// Host wall-clock seconds the run took.
    pub host_seconds: f64,
}

impl EngineThroughput {
    /// Events dispatched per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.sim_events as f64 / self.host_seconds
        } else {
            0.0
        }
    }
}

/// Times a Figure 1-sized N-body run on the host and reports engine
/// throughput (the `engine-bench` building block).
pub fn engine_throughput(
    api: ThreadApi,
    cpus: u16,
    nbody: NBodyConfig,
    cost: CostModel,
    seed: u64,
) -> EngineThroughput {
    engine_throughput_traced(api, cpus, nbody, cost, seed, Trace::disabled())
}

/// As [`engine_throughput`], with an explicit trace sink installed — the
/// `tracing_overhead` benchmark compares a disabled sink (the default)
/// against an unbounded recording one on the same workload.
pub fn engine_throughput_traced(
    api: ThreadApi,
    cpus: u16,
    nbody: NBodyConfig,
    cost: CostModel,
    seed: u64,
    trace: Trace,
) -> EngineThroughput {
    let (body, _handle) = nbody_parallel(nbody);
    let mut sys = SystemBuilder::new(cpus)
        .cost(cost)
        .seed(seed)
        .daemons(DaemonSpec::topaz_default_set())
        .run_limit(SimTime::from_millis(3_600_000))
        .trace(trace)
        .app(AppSpec::new("nbody-bench", api, body))
        .build();
    let start = std::time::Instant::now();
    let report = sys.run();
    let host_seconds = start.elapsed().as_secs_f64();
    assert!(report.all_done(), "engine bench run: {:?}", report.outcome);
    EngineThroughput {
        sim_events: sys.kernel().kernel_metrics().events.get(),
        host_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_orders_match_table1() {
        let cost = CostModel::firefly_prototype();
        let ft = thread_op_latencies(
            ThreadApi::OrigFastThreads { vps: 1 },
            cost.clone(),
            CriticalSectionMode::ZeroOverhead,
        );
        let kt = thread_op_latencies(
            ThreadApi::TopazThreads,
            cost.clone(),
            CriticalSectionMode::ZeroOverhead,
        );
        let ux = thread_op_latencies(
            ThreadApi::UltrixProcesses,
            cost,
            CriticalSectionMode::ZeroOverhead,
        );
        // Order-of-magnitude ladder (Table 1).
        assert!(ft.null_fork.as_micros() * 8 < kt.null_fork.as_micros());
        assert!(kt.null_fork.as_micros() * 8 < ux.null_fork.as_micros());
        assert!(ft.signal_wait.as_micros() * 5 < kt.signal_wait.as_micros());
        assert!(kt.signal_wait.as_micros() * 3 < ux.signal_wait.as_micros());
    }
}
