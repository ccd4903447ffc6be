//! The `sa-experiments profile` harness: where the time goes.
//!
//! For each cell of a profiled scenario this module runs a scaled-down
//! traced simulation and reports two complementary views of the same run:
//!
//! - the **capacity** view — the [`TimeLedger`]'s exact accounting of
//!   every CPU-nanosecond into exclusive states, whose per-CPU sums equal
//!   the makespan by construction (verified on every cell), plus the
//!   thread-time wait gauges overlaid on it; and
//! - the **critical path** view — the
//!   [`critical_path`](crate::critical_path) chain that explains the
//!   *elapsed* time: which segments, blocks and queue waits the finish
//!   instant was actually waiting on.
//!
//! Together they answer both "what did the machine do with its cycles"
//! and "why did the run take this long". All numbers are virtual-time
//! derived, so every rendering is byte-identical across hosts and job
//! counts — CI diffs two invocations to prove it.
//!
//! Any scenario in the [`crate::scenario`] registry is profilable; the
//! workload each cell runs is the scenario descriptor's scaled-down
//! [`TraceWorkload`] (150-body one-step N-body copies, the closed
//! server, or the open-loop SLO generator at a reduced request count),
//! so an unbounded trace of every segment stays a reasonable size.
//! Highlights:
//!
//! - `fig1` — the three Figure 1 systems on the six-processor Firefly
//!   at full memory;
//! - `fig2` — the same three systems at 50% memory, where the buffer
//!   cache starts missing and I/O enters the picture;
//! - `table5` — the three systems multiprogrammed (two copies, six
//!   CPUs), plus the diagnostic one-CPU I/O-bound column for all four
//!   thread models including Ultrix processes: the configuration where
//!   the ledger mechanically shows blocked I/O and kernel overhead
//!   eating the machine under kernel-level scheduling, and the critical
//!   path shows scheduler activations reclaiming that time as user work;
//! - `slo_poisson` / `slo_bursty` / `slo_diurnal` — the open-loop
//!   server scenarios behind the `slo` subcommand, traced at a reduced
//!   request count.

use crate::critical_path::{critical_path, CriticalPath};
use crate::reporting::{json_escape, Table};
use crate::scenario::{PolicyConfig, TraceWorkload};
use crate::{AppSpec, System, SystemBuilder, ThreadApi};
use sa_harness::{run_ordered, Job, PanickedJob};
use sa_kernel::DaemonSpec;
use sa_machine::CostModel;
use sa_sim::{CpuState, SimDuration, SimTime, TimeLedger, Trace, WaitKind};
use std::fmt::Write as _;
use std::num::NonZeroUsize;

/// One profiled run: a thread system under a workload configuration.
#[derive(Debug, Clone)]
struct CellSpec {
    label: String,
    /// Registry key, for resolving the open-loop workload shapes.
    scenario: String,
    api: ThreadApi,
    machine: u16,
    workload: TraceWorkload,
}

/// Results of one profiled cell.
#[derive(Debug, Clone)]
pub struct ProfileCell {
    /// Human-readable cell name ("new FastThrds / mp2 / 6 cpus").
    pub label: String,
    /// Physical processors in the cell's machine.
    pub cpus: u16,
    /// Virtual end-of-run instant the views explain.
    pub makespan: SimTime,
    /// Exact capacity accounting (verified: sums to `cpus × makespan`).
    pub ledger: TimeLedger,
    /// The longest dependency chain behind `makespan`.
    pub path: CriticalPath,
    /// User-level runtime ready-wait (thread·ns the kernel can't see),
    /// summed over the cell's applications.
    pub runtime_ready_wait_ns: u64,
}

/// A full profile: every cell of one scenario.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Scenario name (one of [`SCENARIOS`](crate::scenario::SCENARIOS)).
    pub scenario: String,
    /// Cells in definition order.
    pub cells: Vec<ProfileCell>,
}

fn cells_for(scenario: &str) -> Option<Vec<CellSpec>> {
    // The machine size and traced workload shape come from the scenario
    // descriptor (the registry is the single owner of "how many
    // processors does fig1 mean" — and now of "what does tracing the
    // server scenarios run"). Any registry entry is profilable.
    let sc = crate::scenario::find(scenario)?;
    let cpus = sc.cpus;
    // The original figure scenarios keep their historical cell labels
    // (CI and the docs reference them); newer entries are labeled by
    // registry key.
    let suffix = match scenario {
        "fig1" => format!("{cpus} cpus"),
        "fig2" => format!("50% memory / {cpus} cpus"),
        "table5" => format!("mp2 / {cpus} cpus"),
        _ => format!("{scenario} / {cpus} cpus"),
    };
    let mut cells: Vec<CellSpec> = crate::scenario::systems(cpus as u32)
        .into_iter()
        .map(|(name, api)| CellSpec {
            label: format!("{name} / {suffix}"),
            scenario: scenario.to_string(),
            api,
            machine: cpus,
            workload: sc.traced,
        })
        .collect();
    if scenario == "table5" {
        // The diagnostic column: one processor, half the memory — the
        // regime where what a thread system does while its threads
        // wait for the disk decides everything.
        let io_models: [(&str, ThreadApi); 4] = [
            ("Ultrix processes", ThreadApi::UltrixProcesses),
            ("Topaz threads", ThreadApi::TopazThreads),
            ("orig FastThrds", ThreadApi::OrigFastThreads { vps: 1 }),
            (
                "new FastThrds",
                ThreadApi::SchedulerActivations { max_processors: 1 },
            ),
        ];
        cells.extend(io_models.into_iter().map(|(name, api)| CellSpec {
            label: format!("{name} / io-bound / 1 cpu"),
            scenario: scenario.to_string(),
            api,
            machine: 1,
            workload: TraceWorkload::NBody {
                copies: 1,
                memory_fraction: 0.5,
            },
        }));
    }
    Some(cells)
}

/// Builds the system `trace` and `profile` run for one traced cell:
/// `apps` (from [`crate::scenario::traced_apps`]) on a `machine`-processor
/// machine with the paper's daemons, under `policies`, recording an
/// unbounded trace. Not yet run.
pub fn traced_system(machine: u16, policies: PolicyConfig, apps: Vec<AppSpec>) -> System {
    let mut builder = SystemBuilder::new(machine)
        .cost(CostModel::firefly_prototype())
        .seed(0x5eed)
        .alloc_policy(policies.alloc)
        .daemons(DaemonSpec::topaz_default_set())
        .run_limit(SimTime::from_millis(3_600_000))
        .trace(Trace::unbounded());
    for mut app in apps {
        app.ready_policy = policies.ready;
        builder = builder.app(app);
    }
    builder.build()
}

/// Runs one cell: traced simulation, ledger snapshot (conservation
/// verified), critical-path walk.
fn run_cell(spec: CellSpec, policies: PolicyConfig) -> ProfileCell {
    let apps = crate::scenario::traced_apps(&spec.scenario, spec.workload, &spec.api);
    let mut sys = traced_system(spec.machine, policies, apps);
    let report = sys.run();
    assert!(
        report.all_done(),
        "profile cell '{}' did not finish: {:?}",
        spec.label,
        report.outcome
    );
    let makespan = sys.kernel().now();
    let ledger = sys.time_ledger();
    if let Err(e) = ledger.verify(makespan) {
        panic!("profile cell '{}': ledger conservation: {e}", spec.label);
    }
    let path = critical_path(sys.kernel().trace().records(), makespan);
    let runtime_ready_wait_ns = sys
        .apps()
        .iter()
        .map(|&a| sys.runtime_ready_wait_ns(a))
        .sum();
    ProfileCell {
        label: spec.label,
        cpus: spec.machine,
        makespan,
        ledger,
        path,
        runtime_ready_wait_ns,
    }
}

/// Runs every cell of `scenario` under `policies` (fanned across up to
/// `jobs` host threads; output is independent of the job count) and
/// returns the assembled profile. The ledger conservation and
/// critical-path attribution checks run on every cell regardless of the
/// policy pair.
pub fn run_profile(
    scenario: &str,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<Profile, String> {
    let specs = cells_for(scenario).ok_or_else(|| {
        let names: Vec<&str> = crate::scenario::SCENARIOS.iter().map(|s| s.name).collect();
        format!(
            "unknown profile scenario '{scenario}' (expected {})",
            names.join("|")
        )
    })?;
    let tasks: Vec<Job<'_, ProfileCell>> = specs
        .into_iter()
        .map(|spec| -> Job<'_, ProfileCell> { Box::new(move || run_cell(spec, policies)) })
        .collect();
    let cells = run_ordered(jobs, tasks).map_err(|p: PanickedJob| p.to_string())?;
    Ok(Profile {
        scenario: scenario.to_string(),
        cells,
    })
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", part as f64 * 100.0 / whole as f64)
    }
}

fn dur(ns: u64) -> String {
    format!("{}", SimDuration::from_nanos(ns))
}

/// Renders the deterministic human-readable report: per cell, the
/// capacity table, the wait overlay, and the critical-path table.
pub fn render_table(p: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Profile: {} (where the time goes)", p.scenario);
    for cell in &p.cells {
        let capacity = cell.cpus as u64 * cell.makespan.as_nanos();
        let _ = writeln!(out, "\n== {} ==", cell.label);
        let _ = writeln!(
            out,
            "makespan {}; capacity {} across {} cpu(s)",
            dur(cell.makespan.as_nanos()),
            dur(capacity),
            cell.cpus
        );

        let _ = writeln!(out, "\nCapacity (ledger; sums exactly to capacity):");
        let mut t = Table::new(&["state", "time", "share"]);
        for state in CpuState::ALL {
            let ns = cell.ledger.total_ns(state);
            t.row(vec![state.name().to_string(), dur(ns), pct(ns, capacity)]);
        }
        out.push_str(&t.render());

        let _ = writeln!(out, "\nWaits (thread-time overlay, not part of capacity):");
        let mut t = Table::new(&["wait", "thread-time"]);
        for kind in [WaitKind::Ready, WaitKind::BlockedIo, WaitKind::BlockedSync] {
            let ns: u64 = (0..cell.ledger.num_spaces())
                .map(|s| cell.ledger.wait_ns(s, kind, cell.makespan))
                .sum();
            t.row(vec![kind.name().to_string(), dur(ns)]);
        }
        t.row(vec![
            "runtime_ready_wait".to_string(),
            dur(cell.runtime_ready_wait_ns),
        ]);
        out.push_str(&t.render());

        let _ = writeln!(out, "\nCritical path (explains the makespan):");
        let mut t = Table::new(&["category", "time", "share"]);
        for (cat, ns) in cell.path.ranked() {
            t.row(vec![
                cat.to_string(),
                dur(ns),
                pct(ns, cell.path.makespan_ns),
            ]);
        }
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "path: {} hops, {} attributed{}",
            cell.path.hops,
            dur(cell.path.attributed_ns()),
            if cell.path.truncated {
                " (TRUNCATED)"
            } else {
                ""
            }
        );
    }
    out
}

/// Sanitizes a label for use as a folded-stack frame (no `;`, no space).
fn frame(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Renders collapsed stacks (`a;b;c N` lines) for flamegraph/speedscope.
///
/// Two stack families per cell, under distinct roots so they never mix:
/// `capacity` frames are `cell;capacity;<space>;<state>` weighted in
/// CPU-nanoseconds (summing to `cpus × makespan`), and `critical_path`
/// frames are `cell;critical_path;<category>` weighted in chain
/// nanoseconds (summing to the makespan).
pub fn render_folded(p: &Profile) -> String {
    let mut out = String::new();
    for cell in &p.cells {
        let root = frame(&cell.label);
        for space in 0..cell.ledger.num_spaces() {
            for state in CpuState::ALL {
                let ns = cell.ledger.space_ns(space, state);
                if ns > 0 {
                    let _ = writeln!(out, "{root};capacity;as{space};{} {ns}", state.name());
                }
            }
        }
        for state in CpuState::ALL {
            let ns = cell.ledger.unattributed_ns(state);
            if ns > 0 {
                let _ = writeln!(out, "{root};capacity;kernel_global;{} {ns}", state.name());
            }
        }
        for (cat, ns) in cell.path.ranked() {
            let _ = writeln!(out, "{root};critical_path;{cat} {ns}");
        }
    }
    out
}

/// Renders the machine-readable JSON document (hand-rolled like the rest
/// of `reporting`; no external dependencies).
pub fn render_json(p: &Profile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", json_escape(&p.scenario));
    let _ = writeln!(out, "  \"cells\": [");
    for (ci, cell) in p.cells.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"label\": \"{}\",", json_escape(&cell.label));
        let _ = writeln!(out, "      \"cpus\": {},", cell.cpus);
        let _ = writeln!(out, "      \"makespan_ns\": {},", cell.makespan.as_nanos());
        let _ = writeln!(out, "      \"capacity\": {{");
        for (si, state) in CpuState::ALL.into_iter().enumerate() {
            let comma = if si + 1 < CpuState::ALL.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "        \"{}\": {}{comma}",
                state.name(),
                cell.ledger.total_ns(state)
            );
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"waits\": {{");
        for kind in [WaitKind::Ready, WaitKind::BlockedIo, WaitKind::BlockedSync] {
            let ns: u64 = (0..cell.ledger.num_spaces())
                .map(|s| cell.ledger.wait_ns(s, kind, cell.makespan))
                .sum();
            let _ = writeln!(out, "        \"{}\": {ns},", kind.name());
        }
        let _ = writeln!(
            out,
            "        \"runtime_ready_wait\": {}",
            cell.runtime_ready_wait_ns
        );
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"critical_path\": {{");
        let ranked = cell.path.ranked();
        for (ri, (cat, ns)) in ranked.iter().enumerate() {
            let comma = if ri + 1 < ranked.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{cat}\": {ns}{comma}");
        }
        let _ = writeln!(out, "      }},");
        let _ = writeln!(out, "      \"path_hops\": {},", cell.path.hops);
        let _ = writeln!(out, "      \"path_truncated\": {}", cell.path.truncated);
        let comma = if ci + 1 < p.cells.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_is_an_error() {
        let err = run_profile("fig9", PolicyConfig::default(), NonZeroUsize::MIN).unwrap_err();
        assert!(err.contains("fig9"), "{err}");
    }

    #[test]
    fn folded_frames_have_no_separators() {
        assert_eq!(frame("new FastThrds / mp2"), "new_FastThrds_/_mp2");
        assert_eq!(frame("a;b c"), "a_b_c");
    }

    #[test]
    fn fig1_profile_conserves_and_attributes() {
        let p = run_profile("fig1", PolicyConfig::default(), NonZeroUsize::MIN).expect("fig1 runs");
        assert_eq!(p.cells.len(), 3);
        for cell in &p.cells {
            // run_cell already verified the ledger; double-check the
            // critical path explains the whole makespan too.
            assert!(!cell.path.truncated, "{}", cell.label);
            assert_eq!(
                cell.path.attributed_ns(),
                cell.makespan.as_nanos(),
                "critical path of '{}' does not sum to the makespan",
                cell.label
            );
        }
        // Rendering smoke: all three formats mention every cell.
        let table = render_table(&p);
        let folded = render_folded(&p);
        let json = render_json(&p);
        for cell in &p.cells {
            assert!(table.contains(&cell.label));
            assert!(folded.contains(&frame(&cell.label)));
            assert!(json.contains(&json_escape(&cell.label)));
        }
        // Folded lines parse as "stack weight" pairs.
        for line in folded.lines() {
            let (stack, n) = line.rsplit_once(' ').expect("weighted line");
            assert!(!stack.is_empty());
            n.parse::<u64>().expect("integer weight");
        }
    }
}
