//! The three workloads as lists of cells, and the two ways a cell is
//! built: through `SystemBuilder` (untraced runs) or through
//! `Kernel::new` + `add_space` with every layer boundary wrapped (traced
//! runs). Both build the same machine from one `CellSpec`; the traced
//! run checks that they simulate the same thing.

use crate::folds::{self, AuditFold};
use crate::wrap::{ProbedAlloc, ProbedBody, ProbedReady, ProbedRuntime};
use sa_core::audit::{render_audit_table, AuditReport};
use sa_core::scenario::systems;
use sa_core::slo::{self, SloCell, SloReport};
use sa_core::{AppSpec, PolicyConfig, System, SystemBuilder, ThreadApi};
use sa_kernel::upcall::UserRuntime;
use sa_kernel::{
    AllocPolicyKind, AsId, DaemonSpec, Kernel, KernelConfig, KernelFlavor, SchedMode,
    SpaceKindSpec, SpaceSpec,
};
use sa_machine::CostModel;
use sa_sim::span::SpanBook;
use sa_sim::{SimDuration, SimTime};
use sa_uthread::{FastThreads, FtConfig};
use sa_workload::nbody::{nbody_parallel, nbody_sequential, NBodyConfig};
use sa_workload::openloop::shard_listener;
use sa_workload::synthetic::thread_churn;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

/// The seed that reproduces the committed outputs: the system seed the
/// figure scenarios pass, with every generator at its registry default.
pub const DEFAULT_SEED: u64 = 1;

/// Everything `SystemBuilder` is told about one cell.
pub struct CellSpec {
    pub cpus: u16,
    pub seed: u64,
    pub daemons: Vec<DaemonSpec>,
    pub run_limit: SimTime,
    pub windowed: Option<SimDuration>,
    pub audit: bool,
    pub apps: Vec<AppSpec>,
}

impl CellSpec {
    fn new(cpus: u16, seed: u64, apps: Vec<AppSpec>) -> Self {
        CellSpec {
            cpus,
            seed,
            daemons: Vec::new(),
            run_limit: SimTime::from_millis(3_600_000),
            windowed: None,
            audit: false,
            apps,
        }
    }

    /// Builds the cell the way every `sa_core` experiment does.
    pub fn build(self) -> System {
        let mut b = SystemBuilder::new(self.cpus)
            .cost(CostModel::firefly_prototype())
            .seed(self.seed)
            .daemons(self.daemons)
            .run_limit(self.run_limit)
            .decision_audit(self.audit);
        if let Some(w) = self.windowed {
            b = b.windowed_metrics(w);
        }
        for app in self.apps {
            b = b.app(app);
        }
        b.build()
    }

    /// Builds the same machine as [`CellSpec::build`] from the kernel's
    /// public parts, with the allocation policy, every user runtime, its
    /// ready policy and every thread body wrapped in probe spans.
    pub fn build_probed(self) -> (Kernel, Vec<AsId>) {
        let sa = self
            .apps
            .iter()
            .any(|a| matches!(a.api, ThreadApi::SchedulerActivations { .. }));
        let alloc = AllocPolicyKind::default();
        let cfg = KernelConfig {
            cpus: self.cpus,
            sched: if sa {
                SchedMode::SaAllocator
            } else {
                SchedMode::TopazNative
            },
            alloc_policy: alloc,
            daemons: self.daemons,
            seed: self.seed,
            run_limit: self.run_limit,
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(cfg, CostModel::firefly_prototype());
        k.set_alloc_policy(Box::new(ProbedAlloc(alloc.build())));
        if let Some(w) = self.windowed {
            k.enable_windowed_ledger(w);
        }
        if self.audit {
            k.enable_decision_log();
            k.enable_dwell_ledger();
        }
        let spaces = self
            .apps
            .into_iter()
            .map(|app| {
                let AppSpec {
                    name,
                    api,
                    main,
                    priority,
                    mem_pages,
                    start_at,
                    critical,
                    lock_policy,
                    priority_scheduling,
                    ready_policy,
                    ..
                } = app;
                let main = ProbedBody::boxed(main);
                let runtime = |mut cfg: FtConfig| -> Box<dyn UserRuntime> {
                    cfg.critical = critical;
                    cfg.lock_policy = lock_policy;
                    cfg.priority_scheduling = priority_scheduling;
                    cfg.ready_policy = ready_policy;
                    let mut rt = FastThreads::new(cfg);
                    rt.set_ready_policy(Box::new(ProbedReady(ready_policy.build())));
                    Box::new(ProbedRuntime(rt))
                };
                let kind = match api {
                    ThreadApi::TopazThreads => SpaceKindSpec::KernelDirect {
                        flavor: KernelFlavor::TopazThreads,
                        main,
                    },
                    ThreadApi::UltrixProcesses => SpaceKindSpec::KernelDirect {
                        flavor: KernelFlavor::UltrixProcesses,
                        main,
                    },
                    ThreadApi::OrigFastThreads { vps } => SpaceKindSpec::UserLevel {
                        runtime: runtime(FtConfig::kernel_threads(vps)),
                        main,
                    },
                    ThreadApi::SchedulerActivations { max_processors } => {
                        SpaceKindSpec::UserLevel {
                            runtime: runtime(FtConfig::scheduler_activations(max_processors)),
                            main,
                        }
                    }
                };
                k.add_space(SpaceSpec {
                    name,
                    priority,
                    kind,
                    mem_pages,
                    start_at,
                })
            })
            .collect();
        (k, spaces)
    }
}

/// The raw address-space ids of a built system's applications, in the
/// order added (`AppId` keeps its id private; its metrics are the same
/// object the kernel indexes by raw id).
pub fn app_spaces(sys: &System) -> Vec<AsId> {
    sys.apps()
        .iter()
        .enumerate()
        .map(|(j, &app)| {
            let m = sys.metrics(app);
            (j as u32..)
                .map(AsId)
                .find(|&id| std::ptr::eq(sys.kernel().space_metrics(id), m))
                .expect("every application is a kernel address space")
        })
        .collect()
}

/// A cell after its run.
pub struct Finished<'a> {
    pub kernel: &'a Kernel,
    pub spaces: &'a [AsId],
    pub end: SimTime,
}

/// What a cell's fold produces.
pub enum Out {
    /// Mean elapsed time of an N-body cell's applications.
    NBody(SimDuration),
    Slo(Box<SloCell>),
    Audit(Box<AuditFold>, SimTime),
    Text(String),
}

pub type Finish = Box<dyn FnOnce(&Finished) -> Out>;

/// One simulation: its constructors (run inside `make`, so they count as
/// set-up) and the fold applied to the finished kernel.
pub type Cell = Box<dyn FnOnce() -> (CellSpec, Finish)>;

/// What a group's output must be at the default seed.
pub enum Committed {
    /// Byte for byte, a committed golden file.
    Text(&'static str),
    /// The FNV-1a digest of the output recorded from the matching
    /// `sa-experiments` subcommand.
    Digest(u64),
}

/// One rendered output and the cells it is made from.
pub struct Group {
    pub name: &'static str,
    pub cells: Range<usize>,
    pub committed: Committed,
    pub render: Box<dyn FnOnce(Vec<Out>) -> String>,
}

pub struct Workload {
    pub cells: Vec<Cell>,
    pub groups: Vec<Group>,
}

/// Offset of `seed` from the default, which every generator seed is
/// shifted by (so the default seed reproduces the registry exactly).
fn shift(seed: u64) -> u64 {
    seed.wrapping_sub(DEFAULT_SEED)
}

pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "paper" => Some(paper(seed)),
        "slo" => Some(slo_workload(seed, None)),
        "churn" => Some(churn(seed, CHURN_THREADS)),
        _ => None,
    }
}

pub const WORKLOADS: [&str; 3] = ["paper", "slo", "churn"];

fn nbody_cfg(seed: u64) -> NBodyConfig {
    let base = NBodyConfig::default();
    NBodyConfig {
        seed: base.seed.wrapping_add(shift(seed)),
        ..base
    }
}

/// The sequential N-body baseline every speedup divides by.
fn nbody_seq_cell(cfg: NBodyConfig, seed: u64) -> Cell {
    Box::new(move || {
        let (body, _handle) = nbody_sequential(cfg);
        let app = AppSpec::new("nbody-seq", ThreadApi::TopazThreads, body);
        let finish: Finish = Box::new(|f| Out::NBody(nbody_elapsed(f)));
        (CellSpec::new(1, seed, vec![app]), finish)
    })
}

/// `copies` N-body applications under `api` on a `cpus`-processor
/// machine with the paper's daemons (`experiments::nbody_run_with`).
fn nbody_cell(api: ThreadApi, cpus: u16, cfg: NBodyConfig, copies: u64, seed: u64) -> Cell {
    Box::new(move || {
        let apps = (0..copies)
            .map(|i| {
                let (body, _handle) = nbody_parallel(NBodyConfig {
                    seed: cfg.seed.wrapping_add(i),
                    ..cfg.clone()
                });
                AppSpec::new(format!("nbody-{i}"), api.clone(), body)
            })
            .collect();
        let mut spec = CellSpec::new(cpus, seed, apps);
        spec.daemons = DaemonSpec::topaz_default_set();
        let finish: Finish = Box::new(|f| Out::NBody(nbody_elapsed(f)));
        (spec, finish)
    })
}

/// Mean elapsed time over the cell's applications.
fn nbody_elapsed(f: &Finished) -> SimDuration {
    folds::verified_ledger(f.kernel, f.end);
    let total: u128 = f
        .spaces
        .iter()
        .map(|&s| {
            let e = f.kernel.space_elapsed(s).expect("application finished");
            e.as_nanos() as u128
        })
        .sum();
    SimDuration::from_nanos((total / f.spaces.len() as u128) as u64)
}

fn nbody_outs(outs: Vec<Out>) -> Vec<SimDuration> {
    outs.into_iter()
        .map(|o| match o {
            Out::NBody(r) => r,
            _ => unreachable!("figure cells are N-body cells"),
        })
        .collect()
}

fn three(runs: &[SimDuration]) -> [SimDuration; 3] {
    [runs[0], runs[1], runs[2]]
}

/// `fig1`, `fig2` and `table5` under the default policy pair, cell for
/// cell as `sa_core::scenario` runs them.
fn paper(seed: u64) -> Workload {
    const MACHINE: u16 = 6;
    const FRACS: [f64; 7] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4];
    let cfg = nbody_cfg(seed);
    let mut cells = vec![nbody_seq_cell(cfg.clone(), seed)];
    for cpus in 1..=MACHINE {
        for (name, api) in systems(u32::from(cpus)) {
            // Topaz kernel-thread parallelism cannot be capped from user
            // level, so its cells size the machine to the row instead.
            let machine = if name == "Topaz threads" {
                cpus
            } else {
                MACHINE
            };
            cells.push(nbody_cell(api, machine, cfg.clone(), 1, seed));
        }
    }
    let fig1_end = cells.len();
    for frac in FRACS {
        for (_, api) in systems(u32::from(MACHINE)) {
            let c = NBodyConfig {
                memory_fraction: frac,
                ..cfg.clone()
            };
            cells.push(nbody_cell(api, MACHINE, c, 1, seed));
        }
    }
    let fig2_end = cells.len();
    cells.push(nbody_seq_cell(cfg.clone(), seed));
    for (_, api) in systems(u32::from(MACHINE)) {
        cells.push(nbody_cell(api, MACHINE, cfg.clone(), 2, seed));
    }
    let groups = vec![
        Group {
            name: "fig1",
            cells: 0..fig1_end,
            committed: Committed::Text(include_str!("../../tests/golden/fig1.stdout")),
            render: Box::new(|outs| {
                let runs = nbody_outs(outs);
                let rows: Vec<(u16, [SimDuration; 3])> = (1..=MACHINE)
                    .zip(runs[1..].chunks(3))
                    .map(|(cpus, row)| (cpus, three(row)))
                    .collect();
                folds::render_fig1(runs[0], &rows)
            }),
        },
        Group {
            name: "fig2",
            cells: fig1_end..fig2_end,
            committed: Committed::Text(include_str!("../../tests/golden/fig2.stdout")),
            render: Box::new(|outs| {
                let runs = nbody_outs(outs);
                let rows: Vec<(f64, [SimDuration; 3])> = FRACS
                    .into_iter()
                    .zip(runs.chunks(3))
                    .map(|(frac, row)| (frac, three(row)))
                    .collect();
                folds::render_fig2(MACHINE, &rows)
            }),
        },
        Group {
            name: "table5",
            cells: fig2_end..cells.len(),
            committed: Committed::Text(include_str!("../../tests/golden/table5.stdout")),
            render: Box::new(|outs| {
                let runs = nbody_outs(outs);
                folds::render_table5(MACHINE, runs[0], &three(&runs[1..]))
            }),
        },
    ];
    Workload { cells, groups }
}

/// The `slo_bursty` profile with its generator seed shifted by `seed`.
fn slo_profile(seed: u64, requests: Option<usize>) -> slo::SloProfile {
    let mut p = slo::find("slo_bursty").expect("slo_bursty is registered");
    p.cfg.seed = p.cfg.seed.wrapping_add(shift(seed));
    if let Some(n) = requests {
        p.cfg.requests = n;
    }
    p
}

/// One open-loop cell of `profile` under `api`: every shard listener
/// sharing one span book, the paper's daemons, the given sinks.
fn slo_cell_spec(
    profile: &slo::SloProfile,
    api: &ThreadApi,
    windowed: bool,
    audit: bool,
) -> (CellSpec, Rc<RefCell<SpanBook>>) {
    let cfg = &profile.cfg;
    let book = Rc::new(RefCell::new(SpanBook::with_capacity(cfg.requests)));
    let apps = (0..cfg.shards)
        .map(|shard| {
            let body = shard_listener(cfg, shard, Rc::clone(&book));
            AppSpec::new(format!("slo{shard}"), api.clone(), body)
        })
        .collect();
    let mut spec = CellSpec::new(profile.cpus, SLO_SYSTEM_SEED, apps);
    spec.daemons = DaemonSpec::topaz_default_set();
    spec.run_limit = SimTime::from_millis(600_000);
    spec.windowed = windowed.then_some(profile.window);
    spec.audit = audit;
    (spec, book)
}

/// `SystemBuilder`'s default seed, which the SLO pipeline keeps.
const SLO_SYSTEM_SEED: u64 = 0x5eed;

/// `slo slo_bursty` (three systems) then `audit slo_bursty`.
/// `requests` overrides the profile's request count (self-test only).
pub fn slo_workload(seed: u64, requests: Option<usize>) -> Workload {
    let profile = Rc::new(slo_profile(seed, requests));
    let mut cells: Vec<Cell> = Vec::new();
    for (system, api) in systems(u32::from(profile.cpus)) {
        let p = Rc::clone(&profile);
        cells.push(Box::new(move || {
            let (spec, book) = slo_cell_spec(&p, &api, true, true);
            let finish: Finish = Box::new(move |f| {
                let spans = book.borrow().spans().to_vec();
                let n = p.cfg.requests;
                let cell = folds::slo_cell(system, f.kernel, f.spaces, f.end, &spans, n);
                Out::Slo(Box::new(cell))
            });
            (spec, finish)
        }));
    }
    let p = Rc::clone(&profile);
    cells.push(Box::new(move || {
        let api = ThreadApi::SchedulerActivations {
            max_processors: u32::from(p.cpus),
        };
        let (spec, book) = slo_cell_spec(&p, &api, false, true);
        let finish: Finish = Box::new(move |f| {
            let spans = book.borrow().spans().to_vec();
            let fold =
                folds::audit_fold(f.kernel, f.spaces, f.end, &spans, p.cfg.requests, p.window);
            Out::Audit(Box::new(fold), f.end)
        });
        (spec, finish)
    }));
    let (p_slo, p_audit) = (Rc::clone(&profile), profile);
    let groups = vec![
        Group {
            name: "slo",
            cells: 0..3,
            // `sa-experiments slo slo_bursty`
            committed: Committed::Digest(0x07e5_fdb8_1343_d4d4),
            render: Box::new(move |outs| {
                let cells = outs
                    .into_iter()
                    .map(|o| match o {
                        Out::Slo(c) => *c,
                        _ => unreachable!("slo cells fold to SloCell"),
                    })
                    .collect();
                slo::render_table(&SloReport {
                    profile_name: p_slo.name,
                    cpus: p_slo.cpus,
                    window: p_slo.window,
                    cfg: p_slo.cfg.clone(),
                    policies: PolicyConfig::default(),
                    cells,
                })
            }),
        },
        Group {
            name: "audit",
            cells: 3..4,
            // `sa-experiments audit slo_bursty`
            committed: Committed::Digest(0xea70_478e_681e_9799),
            render: Box::new(move |outs| {
                let Some(Out::Audit(fold, makespan)) = outs.into_iter().next() else {
                    unreachable!("the audit cell folds to AuditFold")
                };
                let fold = *fold;
                render_audit_table(&AuditReport {
                    profile_name: p_audit.name,
                    cpus: p_audit.cpus,
                    window: p_audit.window,
                    policies: PolicyConfig::default(),
                    completed: p_audit.cfg.requests as u64,
                    makespan,
                    decisions: fold.decisions,
                    chains: fold.chains,
                    churn: fold.churn,
                    tail: fold.tail,
                    attribution: fold.attribution,
                })
            }),
        },
    ];
    Workload { cells, groups }
}

pub const CHURN_THREADS: usize = 1_000_000;
const CHURN_WINDOW: usize = 8_192;
const CHURN_CPUS: u16 = 4;

/// `threads` fork/join lifecycles through an 8192-live window on a
/// 4-processor scheduler-activation machine (the `churn` subcommand's
/// run). The seed shifts the system seed and adds up to 1023 ns to each
/// child's compute.
fn churn_cell_spec(seed: u64, threads: usize) -> CellSpec {
    let jitter = shift(seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 54;
    let work = SimDuration::from_nanos(2_000 + jitter);
    let body = thread_churn(threads, CHURN_WINDOW, work);
    let api = ThreadApi::SchedulerActivations {
        max_processors: u32::from(CHURN_CPUS),
    };
    let app = AppSpec::new("thread-churn", api, body);
    CellSpec::new(CHURN_CPUS, 7u64.wrapping_add(shift(seed)), vec![app])
}

fn churn(seed: u64, threads: usize) -> Workload {
    let cell: Cell = Box::new(move || {
        let spec = churn_cell_spec(seed, threads);
        let finish: Finish = Box::new(move |f| {
            folds::verified_ledger(f.kernel, f.end);
            let space = f.spaces[0];
            let slab = f
                .kernel
                .runtime_tcb_slab_stats(space)
                .expect("FastThreads reports slab stats");
            let elapsed = f.kernel.space_elapsed(space).expect("churn finished");
            Out::Text(format!(
                "thread churn: {threads} threads (window {CHURN_WINDOW}); {} events; \
                 makespan {}; elapsed {elapsed}\nslab: peak rows {}; hot {} B; total {} B\n",
                f.kernel.kernel_metrics().events.get(),
                f.end,
                slab.rows,
                slab.hot_bytes,
                slab.total_bytes
            ))
        });
        (spec, finish)
    });
    Workload {
        cells: vec![cell],
        groups: vec![Group {
            name: "churn",
            cells: 0..1,
            // The event count and slab figures `sa-experiments churn`
            // prints, in this benchmark's own format.
            committed: Committed::Digest(0x4b22_4b7c_97ce_20f8),
            render: Box::new(|outs| match outs.into_iter().next() {
                Some(Out::Text(t)) => t,
                _ => unreachable!("the churn cell folds to text"),
            }),
        }],
    }
}

/// The cell each workload's sink pairs run, with the windowed ledger and
/// decision audit set as asked. It is the workload cell the sinks would
/// cost the most on, shrunk to keep the pairs cheap.
pub fn sink_cell(workload: &str, seed: u64, windowed: bool, audit: bool) -> CellSpec {
    let mut spec = match workload {
        "paper" => {
            let api = ThreadApi::SchedulerActivations { max_processors: 6 };
            nbody_cell(api, 6, nbody_cfg(seed), 2, seed)().0
        }
        "slo" => {
            let p = slo_profile(seed, Some(30_000));
            let api = ThreadApi::SchedulerActivations {
                max_processors: u32::from(p.cpus),
            };
            slo_cell_spec(&p, &api, false, false).0
        }
        _ => churn_cell_spec(seed, 200_000),
    };
    spec.windowed = windowed.then_some(SimDuration::from_millis(50));
    spec.audit = audit;
    spec
}
