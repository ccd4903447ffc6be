//! The declarative scenario registry: every runnable experiment as data.
//!
//! A [`Scenario`] is a named workload shape plus the machine it runs on
//! (`cpus`); running one takes a [`PolicyConfig`] — the kernel's
//! processor-allocation policy crossed with the user-level ready-queue
//! discipline — so any *policy × workload × cpus* cell of the grid is one
//! CLI invocation:
//!
//! ```sh
//! sa-experiments run fig1 --alloc=affinity --ready=global-fifo
//! sa-experiments run --list
//! ```
//!
//! Every N-body experiment is a list of [`NBodyCell`]s plus a renderer:
//! [`fig1_cells`], [`fig2_cells`] and [`table5_cells`] own the grid
//! shapes, and the `fig1`, `fig2`, `table5`, `nbody` and `bufcache`
//! runners (and the binary's `ablations`) render the cells' results. The
//! profiler and the trace exporter read the processor count from the
//! scenario descriptor instead of hard-coding the six-processor Firefly,
//! and the figure subcommands (`fig1`, `fig2`, `table5`) are aliases for
//! `run <scenario>` under the default policies; CI diffs their stdout
//! against committed golden files.
//!
//! Rendering happens after every cell has been collected (the
//! [`sa_harness::run_ordered`] contract), so a scenario's output is
//! byte-identical at any `--jobs` count for any policy pair.

use crate::experiments::{run_cells, NBodyCell};
use crate::{AppSpec, SystemBuilder, ThreadApi};
use sa_harness::{run_ordered, Job, PanickedJob};
use sa_kernel::{AllocPolicyKind, DaemonSpec};
use sa_machine::CostModel;
use sa_sim::span::SpanBook;
use sa_uthread::ReadyPolicyKind;
use sa_workload::nbody::{nbody_parallel, NBodyConfig};
use sa_workload::openloop::shard_listener;
use sa_workload::server::{server, ServerConfig};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::rc::Rc;

/// The policy pair a scenario runs under: the kernel's processor
/// allocation (§4.1/§4.2) × the runtime's ready-queue discipline (§2.1).
/// The default pair is the paper's system (even space-sharing, local LIFO
/// with idle stealing) and reproduces the committed figures exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Kernel processor-allocation policy.
    pub alloc: AllocPolicyKind,
    /// User-level ready-queue discipline.
    pub ready: ReadyPolicyKind,
}

impl PolicyConfig {
    /// True for the paper's default pair.
    pub fn is_default(&self) -> bool {
        *self == PolicyConfig::default()
    }

    /// Every alloc × ready combination, in registry order (the test
    /// matrices iterate this).
    pub fn all() -> impl Iterator<Item = PolicyConfig> {
        AllocPolicyKind::ALL.into_iter().flat_map(|alloc| {
            ReadyPolicyKind::ALL
                .into_iter()
                .map(move |ready| PolicyConfig { alloc, ready })
        })
    }
}

impl std::fmt::Display for PolicyConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "alloc={} ready={}", self.alloc, self.ready)
    }
}

/// The `ThreadApi` for each of Figure 1/2's three systems at a given
/// processor count (the columns of every comparison).
pub fn systems(cpus: u32) -> [(&'static str, ThreadApi); 3] {
    [
        ("Topaz threads", ThreadApi::TopazThreads),
        ("orig FastThrds", ThreadApi::OrigFastThreads { vps: cpus }),
        (
            "new FastThrds",
            ThreadApi::SchedulerActivations {
                max_processors: cpus,
            },
        ),
    ]
}

/// Figure 2's available-memory fractions, in row order.
pub const FIG2_FRACTIONS: [f64; 7] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4];

/// Figure 1's cells: the sequential baseline first, then one row of the
/// three [`systems`] per processor count `1..=machine`. Topaz
/// kernel-thread parallelism cannot be capped from user level, so its
/// cells size the machine to the row; the user-level systems run on the
/// whole `machine`.
pub fn fig1_cells(machine: u16, policies: PolicyConfig) -> Vec<NBodyCell> {
    let mut cells = vec![NBodyCell::new(None, 1)];
    for cpus in 1..=machine {
        for (name, api) in systems(u32::from(cpus)) {
            let size = if name == "Topaz threads" {
                cpus
            } else {
                machine
            };
            cells.push(NBodyCell {
                policies,
                ..NBodyCell::new(Some(api), size)
            });
        }
    }
    cells
}

/// Figure 2's cells: one row of the three [`systems`] on `machine`
/// processors per available-memory fraction in `fracs`
/// ([`FIG2_FRACTIONS`] for the figure itself).
pub fn fig2_cells(machine: u16, fracs: &[f64], policies: PolicyConfig) -> Vec<NBodyCell> {
    let mut cells = Vec::new();
    for &frac in fracs {
        for (_name, api) in systems(u32::from(machine)) {
            let mut cell = NBodyCell::new(Some(api), machine);
            cell.nbody.memory_fraction = frac;
            cell.policies = policies;
            cells.push(cell);
        }
    }
    cells
}

/// Table 5's cells: the sequential baseline first, then two copies of
/// the application under each of the three [`systems`] on `machine`
/// processors (multiprogramming level 2).
pub fn table5_cells(machine: u16, policies: PolicyConfig) -> Vec<NBodyCell> {
    let mut cells = vec![NBodyCell::new(None, 1)];
    for (_name, api) in systems(u32::from(machine)) {
        cells.push(NBodyCell {
            copies: 2,
            policies,
            ..NBodyCell::new(Some(api), machine)
        });
    }
    cells
}

type Runner = fn(&Scenario, PolicyConfig, NonZeroUsize) -> Result<String, PanickedJob>;

/// The scaled-down workload shape the `trace` and `profile` subcommands
/// build for a scenario — small enough that an *unbounded* trace of
/// every segment stays a reasonable size, but the same code paths as the
/// full experiment. Part of the scenario descriptor so every registry
/// entry is traceable and profilable, not just the figure aliases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceWorkload {
    /// `copies` N-body applications (150 bodies, one step) at a buffer
    /// cache `memory_fraction`.
    NBody {
        /// Multiprogramming level.
        copies: usize,
        /// Available buffer-cache fraction (1.0 = everything resident).
        memory_fraction: f64,
    },
    /// The closed request/response server workload.
    Server,
    /// The open-loop SLO generator (the scenario's [`crate::slo`]
    /// profile with the request count scaled down to `requests`).
    OpenLoop {
        /// Scaled-down request count across all shards.
        requests: usize,
    },
}

/// One runnable experiment: a workload shape on a machine size.
pub struct Scenario {
    /// Registry key (`sa-experiments run <name>`).
    pub name: &'static str,
    /// One-line description (`run --list`).
    pub about: &'static str,
    /// Physical processors in the scenario's machine — the single source
    /// the figure runners, profiler, and trace exporter read instead of
    /// hard-coding the Firefly's six.
    pub cpus: u16,
    /// The scaled-down shape `trace`/`profile` run (see [`traced_apps`]).
    pub traced: TraceWorkload,
    runner: Runner,
}

impl Scenario {
    /// Runs every cell of the scenario under `policies` (fanned across up
    /// to `jobs` host threads) and returns the rendered report. Output is
    /// independent of `jobs`; under the default policies the figure
    /// scenarios reproduce the committed golden files byte-for-byte.
    pub fn run(&self, policies: PolicyConfig, jobs: NonZeroUsize) -> Result<String, PanickedJob> {
        (self.runner)(self, policies, jobs)
    }
}

/// The scaled-down open-loop request count `trace`/`profile` use for the
/// SLO scenarios (the full profiles run 120k requests; an unbounded
/// per-segment trace of that would be enormous).
const SLO_TRACE_REQUESTS: usize = 2_000;

/// The registry, in display order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "fig1",
        about: "N-body speedup vs processors, three systems",
        cpus: 6,
        traced: TraceWorkload::NBody {
            copies: 1,
            memory_fraction: 1.0,
        },
        runner: run_fig1,
    },
    Scenario {
        name: "fig2",
        about: "N-body time vs available memory, three systems",
        cpus: 6,
        traced: TraceWorkload::NBody {
            copies: 1,
            memory_fraction: 0.5,
        },
        runner: run_fig2,
    },
    Scenario {
        name: "table5",
        about: "multiprogramming level 2: two N-body copies",
        cpus: 6,
        traced: TraceWorkload::NBody {
            copies: 2,
            memory_fraction: 1.0,
        },
        runner: run_table5,
    },
    Scenario {
        name: "nbody",
        about: "one N-body row: elapsed/speedup/misses per system",
        cpus: 6,
        traced: TraceWorkload::NBody {
            copies: 1,
            memory_fraction: 1.0,
        },
        runner: run_nbody,
    },
    Scenario {
        name: "server",
        about: "request latency distribution per system",
        cpus: 4,
        traced: TraceWorkload::Server,
        runner: run_server,
    },
    Scenario {
        name: "bufcache",
        about: "buffer-cache misses vs memory per system",
        cpus: 6,
        traced: TraceWorkload::NBody {
            copies: 1,
            memory_fraction: 0.5,
        },
        runner: run_bufcache,
    },
    Scenario {
        name: "slo_poisson",
        about: "SLO report: open-loop Poisson arrivals ('slo' subcommand)",
        cpus: 8,
        traced: TraceWorkload::OpenLoop {
            requests: SLO_TRACE_REQUESTS,
        },
        runner: run_slo_scenario,
    },
    Scenario {
        name: "slo_bursty",
        about: "SLO report: clumped open-loop arrivals ('slo' subcommand)",
        cpus: 8,
        traced: TraceWorkload::OpenLoop {
            requests: SLO_TRACE_REQUESTS,
        },
        runner: run_slo_scenario,
    },
    Scenario {
        name: "slo_diurnal",
        about: "SLO report: diurnal rate-swing arrivals ('slo' subcommand)",
        cpus: 8,
        traced: TraceWorkload::OpenLoop {
            requests: SLO_TRACE_REQUESTS,
        },
        runner: run_slo_scenario,
    },
];

/// Looks up a scenario by registry key.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Builds the scaled-down application set the `trace` and `profile`
/// subcommands run for the workload shape `traced` under one thread
/// system: every application body, named, in shard order. `name` is the
/// registry key; it resolves [`TraceWorkload::OpenLoop`] against the SLO
/// profile registry and is otherwise unused (the profiler's diagnostic
/// cells vary the shape away from the registry entry's). Bodies hold
/// `Rc` state, so call this inside the job that will run the system,
/// never across threads.
pub fn traced_apps(name: &str, traced: TraceWorkload, api: &ThreadApi) -> Vec<AppSpec> {
    match traced {
        TraceWorkload::NBody {
            copies,
            memory_fraction,
        } => {
            let cfg = NBodyConfig {
                bodies: 150,
                steps: 1,
                memory_fraction,
                ..NBodyConfig::default()
            };
            (0..copies)
                .map(|i| {
                    let mut ncfg = cfg.clone();
                    ncfg.seed = cfg.seed + i as u64;
                    let (body, _handle) = nbody_parallel(ncfg);
                    AppSpec::new(format!("nbody-{i}"), api.clone(), body)
                })
                .collect()
        }
        TraceWorkload::Server => {
            let (body, _stats) = server(ServerConfig::default());
            vec![AppSpec::new("server", api.clone(), body)]
        }
        TraceWorkload::OpenLoop { requests } => {
            let profile = crate::slo::find(name)
                .expect("every open-loop scenario has a matching slo profile");
            let mut cfg = profile.cfg.clone();
            cfg.requests = requests;
            let book = Rc::new(RefCell::new(SpanBook::with_capacity(requests)));
            (0..cfg.shards)
                .map(|shard| {
                    AppSpec::new(
                        format!("slo{shard}"),
                        api.clone(),
                        shard_listener(&cfg, shard, Rc::clone(&book)),
                    )
                })
                .collect()
        }
    }
}

/// Runner for the `slo_*` registry entries: the full SLO report (the
/// `slo` subcommand's table rendering) under the requested policy pair.
fn run_slo_scenario(
    sc: &Scenario,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<String, PanickedJob> {
    let profile = crate::slo::find(sc.name).expect("slo scenario registered in both registries");
    let report = crate::slo::run_slo(&profile, policies, None, jobs)?;
    Ok(crate::slo::render_table(&report))
}

fn run_fig1(
    sc: &Scenario,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<String, PanickedJob> {
    let runs = run_cells(&fig1_cells(sc.cpus, policies), jobs)?;
    let (seq, rows) = runs.split_first().expect("the baseline comes first");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: speedup vs processors (100% memory; sequential {})",
        seq.elapsed
    );
    let _ = writeln!(
        out,
        "{:<6} {:>14} {:>15} {:>14}",
        "procs", "Topaz threads", "orig FastThrds", "new FastThrds"
    );
    for (cpus, row) in (1..).zip(rows.chunks(3)) {
        let _ = writeln!(
            out,
            "{cpus:<6} {:>14.2} {:>15.2} {:>14.2}",
            row[0].speedup_over(seq),
            row[1].speedup_over(seq),
            row[2].speedup_over(seq)
        );
    }
    Ok(out)
}

fn run_fig2(
    sc: &Scenario,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<String, PanickedJob> {
    let runs = run_cells(&fig2_cells(sc.cpus, &FIG2_FRACTIONS, policies), jobs)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: N-body execution time (s) vs % memory, {} CPUs",
        sc.cpus
    );
    let _ = writeln!(
        out,
        "{:<7} {:>14} {:>15} {:>14}",
        "memory", "Topaz threads", "orig FastThrds", "new FastThrds"
    );
    for (frac, row) in FIG2_FRACTIONS.iter().zip(runs.chunks(3)) {
        let _ = writeln!(
            out,
            "{:>5.0}%  {:>14.2} {:>15.2} {:>14.2}",
            frac * 100.0,
            row[0].elapsed.as_secs_f64(),
            row[1].elapsed.as_secs_f64(),
            row[2].elapsed.as_secs_f64()
        );
    }
    Ok(out)
}

fn run_table5(
    sc: &Scenario,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<String, PanickedJob> {
    let runs = run_cells(&table5_cells(sc.cpus, policies), jobs)?;
    let (seq, multi) = runs.split_first().expect("the baseline comes first");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5: multiprogramming level 2, {} CPUs (max speedup 3.0)",
        sc.cpus
    );
    let paper = [1.29, 1.26, 2.45];
    for (((name, _), r), paper) in systems(u32::from(sc.cpus))
        .into_iter()
        .zip(multi)
        .zip(paper)
    {
        let _ = writeln!(
            out,
            "  {name:<18} {:.2}  (paper {paper:.2})",
            r.speedup_over(seq)
        );
    }
    Ok(out)
}

/// The baseline and Figure 1's full-machine row, with elapsed times and
/// miss counts.
fn run_nbody(
    sc: &Scenario,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<String, PanickedJob> {
    let machine = sc.cpus;
    let mut cells = fig1_cells(machine, policies);
    cells.drain(1..cells.len() - 3);
    let runs = run_cells(&cells, jobs)?;
    let (seq, row) = runs.split_first().expect("the baseline comes first");
    let cfg = &cells[0].nbody;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "N-body: {} bodies, {} steps, {} CPUs (sequential {})",
        cfg.bodies, cfg.steps, machine, seq.elapsed
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>9} {:>13}",
        "system", "elapsed", "speedup", "cache misses"
    );
    for ((name, _), r) in systems(u32::from(machine)).into_iter().zip(row) {
        let _ = writeln!(
            out,
            "{name:<16} {:>10} {:>9.2} {:>13}",
            format!("{}", r.elapsed),
            r.speedup_over(seq),
            r.cache_misses
        );
    }
    Ok(out)
}

fn run_server(
    sc: &Scenario,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<String, PanickedJob> {
    let cost = CostModel::firefly_prototype();
    let scfg = ServerConfig::default();
    let machine = sc.cpus;
    // The server body holds `Rc` stats internally, so each cell builds
    // its own copy inside the job (only the `Send` config crosses
    // threads) and returns plain numbers.
    let tasks: Vec<Job<'_, (u64, String, String, String)>> = systems(machine as u32)
        .into_iter()
        .map(|(name, api)| -> Job<'_, (u64, String, String, String)> {
            let (scfg, cost) = (scfg.clone(), cost.clone());
            Box::new(move || {
                let (body, stats) = server(scfg);
                let mut app = AppSpec::new(name, api, body);
                app.ready_policy = policies.ready;
                let mut sys = SystemBuilder::new(machine)
                    .cost(cost)
                    .alloc_policy(policies.alloc)
                    .daemons(DaemonSpec::topaz_default_set())
                    .app(app)
                    .build();
                let report = sys.run();
                assert!(
                    report.all_done(),
                    "server under {name}: {:?}",
                    report.outcome
                );
                let h = stats.response_times();
                (
                    h.count(),
                    format!("{}", h.quantile(0.5)),
                    format!("{}", h.quantile(0.99)),
                    format!("{}", h.max()),
                )
            })
        })
        .collect();
    let results = run_ordered(jobs, tasks)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Server: {} requests, {:.0}% with {} of device I/O, {} CPUs",
        scfg.requests,
        scfg.io_probability * 100.0,
        scfg.io_time,
        machine
    );
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>10} {:>10} {:>10}",
        "system", "requests", "p50", "p99", "max"
    );
    for ((name, _), (count, p50, p99, max)) in systems(machine as u32).into_iter().zip(results) {
        let _ = writeln!(out, "{name:<16} {count:>9} {p50:>10} {p99:>10} {max:>10}");
    }
    Ok(out)
}

/// Figure 2's cells at three memory fractions, reporting miss counts.
fn run_bufcache(
    sc: &Scenario,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<String, PanickedJob> {
    let machine = sc.cpus;
    let fracs = [1.0, 0.75, 0.5];
    let runs = run_cells(&fig2_cells(machine, &fracs, policies), jobs)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Buffer cache: N-body misses vs available memory, {} CPUs",
        machine
    );
    let _ = writeln!(
        out,
        "{:<7} {:>14} {:>15} {:>14}",
        "memory", "Topaz threads", "orig FastThrds", "new FastThrds"
    );
    for (frac, row) in fracs.iter().zip(runs.chunks(3)) {
        let _ = writeln!(
            out,
            "{:>5.0}%  {:>14} {:>15} {:>14}",
            frac * 100.0,
            row[0].cache_misses,
            row[1].cache_misses,
            row[2].cache_misses
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_finds_every_scenario_and_rejects_unknowns() {
        for sc in SCENARIOS {
            assert_eq!(find(sc.name).map(|s| s.name), Some(sc.name));
            assert!(sc.cpus >= 1);
            assert!(!sc.about.is_empty());
        }
        assert!(find("fig9").is_none());
    }

    #[test]
    fn policy_combinations_cover_the_full_grid() {
        let all: Vec<_> = PolicyConfig::all().collect();
        assert_eq!(
            all.len(),
            AllocPolicyKind::ALL.len() * ReadyPolicyKind::ALL.len()
        );
        assert!(all[0].is_default());
        // No duplicates.
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// The `slo_*` registry entries are views of the SLO profile
    /// registry: both must agree on the machine size, and every
    /// open-loop traced workload must resolve to a profile.
    #[test]
    fn slo_scenarios_mirror_the_slo_profile_registry() {
        let mut open_loop = 0;
        for sc in SCENARIOS {
            if let TraceWorkload::OpenLoop { requests } = sc.traced {
                open_loop += 1;
                assert!(requests > 0);
                let p = crate::slo::find(sc.name)
                    .unwrap_or_else(|| panic!("{}: no slo profile", sc.name));
                assert_eq!(sc.cpus, p.cpus, "{}: machine size disagrees", sc.name);
            }
        }
        assert_eq!(open_loop, crate::slo::profiles().len());
    }

    /// Every scenario's traced workload builds a non-empty app set (the
    /// `trace`/`profile` generalization: no registry entry is left
    /// behind by the exporters).
    #[test]
    fn every_scenario_builds_traced_apps() {
        for sc in SCENARIOS {
            let apps = traced_apps(
                sc.name,
                sc.traced,
                &ThreadApi::SchedulerActivations {
                    max_processors: sc.cpus as u32,
                },
            );
            assert!(!apps.is_empty(), "{}: no traced apps", sc.name);
            for app in &apps {
                assert!(!app.name.is_empty());
            }
        }
    }

    #[test]
    fn policy_config_displays_both_axes() {
        let p = PolicyConfig::default();
        assert_eq!(p.to_string(), "alloc=even ready=local");
    }
}
