//! Experiment harnesses: one function per paper measurement.
//!
//! These compose `sa-workload` bodies with [`crate::SystemBuilder`] runs
//! and reduce the measurements the way the paper does. Every N-body
//! result is an [`NBodyCell`]; [`crate::scenario`] lays cells out into
//! whole figures and tables, the `sa-experiments` binary prints them,
//! and integration tests assert on their shapes.

use crate::scenario::PolicyConfig;
use crate::{AppSpec, SystemBuilder, ThreadApi};
use sa_harness::{run_ordered, Job, PanickedJob};
use sa_kernel::DaemonSpec;
use sa_machine::CostModel;
use sa_sim::{SimDuration, SimTime, Trace};
use sa_uthread::{CriticalSectionMode, SpinPolicy};
use sa_workload::micro::{null_fork, signal_wait, SigWaitPath};
use sa_workload::nbody::{nbody_parallel, nbody_sequential, NBodyConfig};
use std::num::NonZeroUsize;
use std::time::Instant;

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

/// One N-body run: the §5.3 Barnes-Hut application on one machine under
/// one thread system. Every Figure 1/2, Table 5 and ablation grid is a
/// list of these (see [`crate::scenario::fig1_cells`]), and every cell is
/// built from plain `Send` data, so a list fans across host threads.
#[derive(Debug, Clone)]
pub struct NBodyCell {
    /// Thread system. `None` is the sequential baseline every speedup
    /// divides by: the application with no thread management at all, as
    /// one kernel thread, with no kernel daemons.
    pub api: Option<ThreadApi>,
    /// Physical processors. The processors the application uses are
    /// carried by `api` (the VP count or `max_processors`); Topaz kernel
    /// threads cannot be capped from user level, so their cells size the
    /// machine instead.
    pub machine: u16,
    /// Identical applications run at once (Table 5's multiprogramming);
    /// copy `i` seeds its bodies with `nbody.seed + i`.
    pub copies: usize,
    /// The workload shape.
    pub nbody: NBodyConfig,
    /// The cost model.
    pub cost: CostModel,
    /// Kernel allocation policy × user-level ready-queue discipline.
    pub policies: PolicyConfig,
    /// Critical-section mode of the FastThreads variants.
    pub critical: CriticalSectionMode,
    /// User-lock contention policy of the FastThreads variants.
    pub lock_policy: SpinPolicy,
    /// System RNG seed.
    pub seed: u64,
    /// Virtual-time limit; a run that reaches it yields no result.
    pub run_limit: SimTime,
}

impl NBodyCell {
    /// One copy of the default workload under `api` on a
    /// `machine`-processor machine, with the prototype cost model, the
    /// paper's policies, seed 1 and one virtual hour to finish: the
    /// figure scenarios' cell.
    pub fn new(api: Option<ThreadApi>, machine: u16) -> Self {
        NBodyCell {
            api,
            machine,
            copies: 1,
            nbody: NBodyConfig::default(),
            cost: CostModel::firefly_prototype(),
            policies: PolicyConfig::default(),
            critical: CriticalSectionMode::ZeroOverhead,
            lock_policy: SpinPolicy::default(),
            seed: 1,
            run_limit: SimTime::from_millis(3_600_000),
        }
    }

    /// Runs the cell; `None` if its applications did not all finish
    /// within the run limit.
    pub fn run(&self) -> Option<NBodyRun> {
        let (api, daemons) = match &self.api {
            Some(api) => (api.clone(), DaemonSpec::topaz_default_set()),
            None => (ThreadApi::TopazThreads, Vec::new()),
        };
        let mut builder = SystemBuilder::new(self.machine)
            .cost(self.cost.clone())
            .seed(self.seed)
            .alloc_policy(self.policies.alloc)
            .daemons(daemons)
            .run_limit(self.run_limit);
        let mut handles = Vec::with_capacity(self.copies);
        for i in 0..self.copies {
            let cfg = NBodyConfig {
                seed: self.nbody.seed + i as u64,
                ..self.nbody.clone()
            };
            let (body, handle) = if self.api.is_some() {
                nbody_parallel(cfg)
            } else {
                nbody_sequential(cfg)
            };
            let mut app = AppSpec::new(format!("nbody-{i}"), api.clone(), body);
            app.critical = self.critical;
            app.lock_policy = self.lock_policy;
            app.ready_policy = self.policies.ready;
            handles.push(handle);
            builder = builder.app(app);
        }
        let mut sys = builder.build();
        let report = sys.run();
        if !report.all_done() {
            return None;
        }
        let total: u128 = (0..self.copies)
            .map(|i| report.elapsed(i).as_nanos() as u128)
            .sum();
        let metrics = || sys.apps().iter().map(|&app| sys.metrics(app));
        Some(NBodyRun {
            elapsed: SimDuration::from_nanos((total / self.copies as u128) as u64),
            cache_misses: handles.iter().map(|h| h.cache_misses()).sum(),
            acts_cached: metrics().map(|m| m.acts_cached.get()).sum(),
            acts_fresh: metrics().map(|m| m.acts_fresh.get()).sum(),
        })
    }
}

/// Result of one [`NBodyCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NBodyRun {
    /// Mean wall (virtual) time of the cell's applications.
    pub elapsed: SimDuration,
    /// Buffer-cache misses they suffered, summed.
    pub cache_misses: u64,
    /// Activations their spaces took from the kernel's recycle cache
    /// (§4.3), summed.
    pub acts_cached: u64,
    /// Activations their spaces had created fresh, summed.
    pub acts_fresh: u64,
}

impl NBodyRun {
    /// Speedup over the sequential baseline's run `seq`: its elapsed time
    /// over this run's.
    pub fn speedup_over(&self, seq: &NBodyRun) -> f64 {
        seq.elapsed.as_nanos() as f64 / self.elapsed.as_nanos() as f64
    }
}

/// Runs `cells` on up to `jobs` host threads and returns their results in
/// cell order. Every cell must finish: one that reaches its run limit
/// panics inside its job, which fails the whole list. Each cell builds its
/// own system inside its job, so the results are the same at any job
/// count.
pub fn run_cells(cells: &[NBodyCell], jobs: NonZeroUsize) -> Result<Vec<NBodyRun>, PanickedJob> {
    let tasks = cells
        .iter()
        .map(|cell| -> Job<'_, NBodyRun> {
            Box::new(move || {
                cell.run().unwrap_or_else(|| {
                    panic!(
                        "N-body cell under {:?} on {} cpus did not finish",
                        cell.api, cell.machine
                    )
                })
            })
        })
        .collect();
    run_ordered(jobs, tasks)
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
    let start = Instant::now();
    let report = sys.run();
    let host_seconds = start.elapsed().as_secs_f64();
    assert!(report.all_done(), "engine bench run: {:?}", report.outcome);
    EngineThroughput {
        sim_events: sys.kernel().kernel_metrics().events.get(),
        host_seconds,
    }
}

/// Aggregate host-side throughput of one whole-grid sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepThroughput {
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Grid cells (independent simulations) executed.
    pub cells: usize,
    /// Total simulator events dispatched across all cells.
    pub sim_events: u64,
    /// Host wall-clock seconds for the whole sweep.
    pub host_seconds: f64,
}

impl SweepThroughput {
    /// Aggregate events dispatched per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.host_seconds > 0.0 {
            self.sim_events as f64 / self.host_seconds
        } else {
            0.0
        }
    }
}

/// Times Figure 1's 18 thread-system cells (six-processor machine,
/// processor counts 1–6, three systems; the grid of
/// [`crate::scenario::fig1_cells`] without its baseline) on the host at
/// the given job count, reporting aggregate events/s and wall-clock.
/// Virtual-time results are unaffected by the job count; only the host
/// wall-clock changes.
pub fn fig1_grid_throughput(jobs: NonZeroUsize) -> Result<SweepThroughput, PanickedJob> {
    let tasks: Vec<Job<'_, u64>> = crate::scenario::fig1_cells(6, PolicyConfig::default())
        .into_iter()
        .filter_map(|cell| {
            let NBodyCell {
                api,
                machine,
                nbody,
                cost,
                seed,
                ..
            } = cell;
            let api = api?;
            Some(
                Box::new(move || engine_throughput(api, machine, nbody, cost, seed).sim_events)
                    as Job<'_, u64>,
            )
        })
        .collect();
    let cells = tasks.len();
    let start = Instant::now();
    let events = run_ordered(jobs, tasks)?;
    let host_seconds = start.elapsed().as_secs_f64();
    Ok(SweepThroughput {
        jobs: jobs.get(),
        cells,
        sim_events: events.iter().sum(),
        host_seconds,
    })
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
