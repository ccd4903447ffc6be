//! Host-parallel experiment sweeps: every paper artifact as a grid of
//! independent simulation jobs fanned across host cores.
//!
//! The single-run harnesses in [`crate::experiments`] are composed here
//! into whole figures and tables via [`sa_harness::run_ordered`]: each
//! grid cell is one closed-over job, results come back **ordered by job
//! index**, and all printing happens after collection — so a sweep's
//! output is byte-identical at any job count, and a panicking cell
//! surfaces as a clean [`PanickedJob`] instead of a half-printed table.
//!
//! Determinism is free: every cell builds its own `System` from plain
//! `Send` configuration (seed, cost model, workload parameters) inside
//! the job, the simulator itself is single-threaded, and no state is
//! shared between cells. Host parallelism therefore cannot perturb any
//! virtual-time result (asserted end-to-end by
//! `crates/core/tests/parallel_sweeps.rs`).

use crate::experiments::{
    engine_throughput, nbody_run_with, nbody_sequential_time, thread_op_latencies,
    topaz_signal_wait, upcall_signal_wait, NBodyRun, ThreadOpLatencies,
};
use crate::scenario::{systems, PolicyConfig};
use crate::ThreadApi;
use sa_harness::{run_ordered, Job, PanickedJob};
use sa_machine::CostModel;
use sa_sim::SimDuration;
use sa_uthread::CriticalSectionMode;
use sa_workload::nbody::NBodyConfig;
use std::num::NonZeroUsize;
use std::ops::RangeInclusive;
use std::time::Instant;

/// The Figure 1 grid: speedup of N-body vs. processors for the three
/// systems, plus the sequential baseline every speedup divides by.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Grid {
    /// Sequential (no thread management) elapsed time — the denominator.
    pub seq: SimDuration,
    /// One row per application processor count: `(cpus, [run per system])`
    /// in [`systems`] order.
    pub rows: Vec<(u16, Vec<NBodyRun>)>,
}

impl Fig1Grid {
    /// Speedups of row `i` (sequential time / cell time), in system order.
    pub fn speedups(&self, i: usize) -> Vec<f64> {
        self.rows[i]
            .1
            .iter()
            .map(|r| self.seq.as_nanos() as f64 / r.elapsed.as_nanos() as f64)
            .collect()
    }
}

/// Runs the Figure 1 grid — `app_cpus` × the three [`systems`], plus the
/// sequential baseline — as `1 + 3·|app_cpus|` independent jobs on up to
/// `jobs` host threads, every cell under the same [`PolicyConfig`].
///
/// `machine` is the physical machine size for the user-level systems
/// (the paper's Firefly always has six); Topaz kernel-thread parallelism
/// cannot be capped from user level, so its cells size the machine to the
/// row's processor count instead.
pub fn fig1_grid(
    base: &NBodyConfig,
    cost: &CostModel,
    machine: u16,
    app_cpus: RangeInclusive<u16>,
    policies: PolicyConfig,
    seed: u64,
    jobs: NonZeroUsize,
) -> Result<Fig1Grid, PanickedJob> {
    let mut tasks: Vec<Job<'_, NBodyRun>> = Vec::new();
    {
        let (cfg, cost) = (base.clone(), cost.clone());
        tasks.push(Box::new(move || NBodyRun {
            elapsed: nbody_sequential_time(cfg, cost, seed),
            cache_misses: 0,
        }));
    }
    let cpu_list: Vec<u16> = app_cpus.collect();
    for &cpus in &cpu_list {
        for (name, api) in systems(cpus as u32) {
            let machine_for = if name == "Topaz threads" {
                cpus
            } else {
                machine
            };
            let (cfg, cost) = (base.clone(), cost.clone());
            tasks.push(Box::new(move || {
                nbody_run_with(policies, api, machine_for, cfg, cost, 1, seed)
            }));
        }
    }
    let mut results = run_ordered(jobs, tasks)?.into_iter();
    let seq = results.next().expect("baseline job present").elapsed;
    let rows = cpu_list
        .into_iter()
        .map(|cpus| (cpus, results.by_ref().take(3).collect()))
        .collect();
    Ok(Fig1Grid { seq, rows })
}

/// The Figure 2 sweep: N-body runs vs. available memory for the three
/// systems (plus, optionally, the tuned-upcall scheduler-activation
/// column `sa-experiments ablations` prints).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Sweep {
    /// One row per memory fraction: `(fraction, [run per column])`.
    /// Columns are [`systems`] order, then the tuned column if
    /// requested.
    pub rows: Vec<(f64, Vec<NBodyRun>)>,
}

/// Runs the Figure 2 memory sweep as independent jobs on up to `jobs`
/// host threads: every fraction × system cell (and the tuned column when
/// `tuned_column` is set) is its own simulation.
#[allow(clippy::too_many_arguments)]
pub fn fig2_sweep(
    base: &NBodyConfig,
    cost: &CostModel,
    machine: u16,
    fracs: &[f64],
    tuned_column: bool,
    policies: PolicyConfig,
    seed: u64,
    jobs: NonZeroUsize,
) -> Result<Fig2Sweep, PanickedJob> {
    let mut tasks: Vec<Job<'_, NBodyRun>> = Vec::new();
    let columns = 3 + usize::from(tuned_column);
    for &frac in fracs {
        for (_name, api) in systems(machine as u32) {
            let cfg = NBodyConfig {
                memory_fraction: frac,
                ..base.clone()
            };
            let cost = cost.clone();
            tasks.push(Box::new(move || {
                nbody_run_with(policies, api, machine, cfg, cost, 1, seed)
            }));
        }
        if tuned_column {
            let cfg = NBodyConfig {
                memory_fraction: frac,
                ..base.clone()
            };
            tasks.push(Box::new(move || {
                nbody_run_with(
                    policies,
                    ThreadApi::SchedulerActivations {
                        max_processors: machine as u32,
                    },
                    machine,
                    cfg,
                    CostModel::tuned(),
                    1,
                    seed,
                )
            }));
        }
    }
    let mut results = run_ordered(jobs, tasks)?.into_iter();
    let rows = fracs
        .iter()
        .map(|&frac| (frac, results.by_ref().take(columns).collect()))
        .collect();
    Ok(Fig2Sweep { rows })
}

/// The Table 5 runs: the sequential baseline, the three multiprogrammed
/// (level 2) runs, and optionally the paper's uniprogrammed-on-three-
/// processors cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Runs {
    /// Sequential baseline elapsed time.
    pub seq: SimDuration,
    /// Multiprogramming-level-2 runs, in [`systems`] order.
    pub multi: Vec<NBodyRun>,
    /// New FastThreads uniprogrammed on three of six processors, when
    /// requested.
    pub uni3: Option<NBodyRun>,
}

/// Runs Table 5 (multiprogramming level 2 on a `machine`-processor
/// machine — the scenario descriptor's size, six for the paper's) as
/// independent jobs on up to `jobs` host threads.
pub fn table5_runs(
    base: &NBodyConfig,
    cost: &CostModel,
    machine: u16,
    policies: PolicyConfig,
    seed: u64,
    cross_check: bool,
    jobs: NonZeroUsize,
) -> Result<Table5Runs, PanickedJob> {
    let mut tasks: Vec<Job<'_, NBodyRun>> = Vec::new();
    {
        let (cfg, cost) = (base.clone(), cost.clone());
        tasks.push(Box::new(move || NBodyRun {
            elapsed: nbody_sequential_time(cfg, cost, seed),
            cache_misses: 0,
        }));
    }
    for (_name, api) in systems(machine as u32) {
        let (cfg, cost) = (base.clone(), cost.clone());
        tasks.push(Box::new(move || {
            nbody_run_with(policies, api, machine, cfg, cost, 2, seed)
        }));
    }
    if cross_check {
        let (cfg, cost) = (base.clone(), cost.clone());
        tasks.push(Box::new(move || {
            nbody_run_with(
                policies,
                ThreadApi::SchedulerActivations {
                    max_processors: (machine as u32) / 2,
                },
                machine,
                cfg,
                cost,
                1,
                seed,
            )
        }));
    }
    let mut results = run_ordered(jobs, tasks)?.into_iter();
    let seq = results.next().expect("baseline job present").elapsed;
    let multi = results.by_ref().take(3).collect();
    let uni3 = cross_check.then(|| results.next().expect("cross-check job present"));
    Ok(Table5Runs { seq, multi, uni3 })
}

/// Measures Null Fork / Signal-Wait for each `(api, critical-section
/// mode)` row on up to `jobs` host threads — the Table 1 / Table 4 rows.
pub fn latency_rows(
    rows: Vec<(ThreadApi, CriticalSectionMode)>,
    cost: &CostModel,
    jobs: NonZeroUsize,
) -> Result<Vec<ThreadOpLatencies>, PanickedJob> {
    let tasks: Vec<Job<'_, ThreadOpLatencies>> = rows
        .into_iter()
        .map(|(api, critical)| -> Job<'_, ThreadOpLatencies> {
            let cost = cost.clone();
            Box::new(move || thread_op_latencies(api, cost, critical))
        })
        .collect();
    run_ordered(jobs, tasks)
}

/// The three §5.2 upcall-performance measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpcallMeasurements {
    /// Kernel-forced Signal-Wait under scheduler activations, prototype
    /// cost model.
    pub proto: SimDuration,
    /// Topaz kernel-thread Signal-Wait (the comparison point).
    pub topaz: SimDuration,
    /// Kernel-forced Signal-Wait under the tuned cost model.
    pub tuned: SimDuration,
}

/// Runs the three §5.2 measurements as independent jobs.
pub fn upcall_measurements(jobs: NonZeroUsize) -> Result<UpcallMeasurements, PanickedJob> {
    let tasks: Vec<Job<'_, SimDuration>> = vec![
        Box::new(|| upcall_signal_wait(CostModel::firefly_prototype())),
        Box::new(|| topaz_signal_wait(CostModel::firefly_prototype())),
        Box::new(|| upcall_signal_wait(CostModel::tuned())),
    ];
    let r = run_ordered(jobs, tasks)?;
    Ok(UpcallMeasurements {
        proto: r[0],
        topaz: r[1],
        tuned: r[2],
    })
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

/// Times the Figure 1 grid (six-processor machine, processor counts 1–6,
/// three systems — 18 cells) on the host at the given job count,
/// reporting aggregate events/s and wall-clock. Virtual-time results are
/// unaffected by the job count; only the host wall-clock changes.
pub fn fig1_grid_throughput(
    base: &NBodyConfig,
    cost: &CostModel,
    seed: u64,
    jobs: NonZeroUsize,
) -> Result<SweepThroughput, PanickedJob> {
    let mut tasks: Vec<Job<'_, u64>> = Vec::new();
    for cpus in 1..=6u16 {
        for (name, api) in systems(cpus as u32) {
            let machine_for = if name == "Topaz threads" { cpus } else { 6 };
            let (cfg, cost) = (base.clone(), cost.clone());
            tasks.push(Box::new(move || {
                engine_throughput(api, machine_for, cfg, cost, seed).sim_events
            }));
        }
    }
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
