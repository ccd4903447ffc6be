//! The post-run folds of each workload, run against a finished kernel.
//!
//! `sa_core` runs its SLO and audit cells inside `run_slo`/`run_audit`,
//! where no boundary can be wrapped, so the benchmark builds those cells
//! itself and repeats the folds here over the public ledger, span and
//! decision-log APIs. The results feed `sa_core`'s own renderers
//! (`slo::render_table`, `audit::render_audit_table`); `--self-test`
//! checks that the text is byte-identical to what `run_slo`/`run_audit`
//! produce. The figure tables are rendered the way `sa_core::scenario`
//! renders them and are checked against `tests/golden`.

use sa_core::audit::{Attribution, ChainStats, ChurnStats, DecisionCounts, TailSpanAudit};
use sa_core::slo::{ReconcileReport, SloCell, TailReport, WindowRow};
use sa_kernel::{AllocDecisionKind, AsId, Kernel};
use sa_sim::span::{Span, SpanPhase};
use sa_sim::stats::Histogram;
use sa_sim::{CpuState, DwellLedger, SimDuration, SimTime, TimeLedger, WaitKind, WindowedLedger};
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

thread_local! {
    static FOLD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Runs one of the kernel's ledger folds, adding its host time to the
/// `sinks.fold_s` total.
fn fold<T>(f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    FOLD_NS.with(|c| c.set(c.get() + t0.elapsed().as_nanos() as u64));
    r
}

/// Host nanoseconds spent in ledger folds since the last call.
pub fn take_fold_ns() -> u64 {
    FOLD_NS.with(|c| c.replace(0))
}

/// The flat ledger, verified to partition `cpus × makespan` exactly (the
/// check every cell of every workload makes).
pub fn verified_ledger(k: &Kernel, makespan: SimTime) -> TimeLedger {
    let ledger = fold(|| k.time_ledger());
    ledger
        .verify(makespan)
        .unwrap_or_else(|e| panic!("flat ledger: {e}"));
    ledger
}

fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// The slowest 0.1% of spans by (response, id), slowest last.
fn tail_cut(spans: &[Span]) -> Vec<(u64, usize)> {
    let mut by_response: Vec<(u64, usize)> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.response().as_nanos(), i))
        .collect();
    by_response.sort_unstable();
    let count = (spans.len() / 1000).max(1).min(spans.len());
    by_response.split_off(by_response.len() - count)
}

/// One system cell of the SLO report (`slo::run_slo`'s per-cell fold).
pub fn slo_cell(
    system: &'static str,
    k: &Kernel,
    spaces: &[AsId],
    makespan: SimTime,
    spans: &[Span],
    requests: usize,
) -> SloCell {
    let ledger = verified_ledger(k, makespan);
    let windowed = fold(|| k.windowed_ledger()).expect("windowed metrics were enabled");
    windowed
        .verify(makespan)
        .unwrap_or_else(|e| panic!("{system}: windowed ledger: {e}"));
    fold(|| k.dwell_ledger())
        .expect("decision audit was enabled")
        .verify(makespan)
        .unwrap_or_else(|e| panic!("{system}: dwell ledger: {e}"));
    assert_eq!(spans.len(), requests, "{system}: request count");
    assert!(spans.iter().all(|s| s.done), "{system}: unfinished spans");

    let mut service = vec![0u64; spaces.len()];
    for s in spans {
        service[s.shard as usize] += s.service_ns;
    }
    let per_shard: Vec<(u64, u64)> = spaces
        .iter()
        .zip(&service)
        .map(|(sp, &from_spans)| {
            let from_ledger = ledger.space_ns(sp.index(), CpuState::User);
            assert_eq!(from_spans, from_ledger, "{system}: span service vs ledger");
            (from_spans, from_ledger)
        })
        .collect();
    let windowed_total_ns: u64 = (0..windowed.window_count())
        .map(|w| window_total(&windowed, w))
        .sum();
    let machine_total_ns = windowed.cpus() as u64 * makespan.as_nanos();
    assert_eq!(
        windowed_total_ns, machine_total_ns,
        "{system}: windowed total"
    );

    let mut hist = Histogram::log_linear();
    for s in spans {
        hist.record(s.response());
    }
    SloCell {
        system,
        makespan,
        completed: spans.len() as u64,
        windows: window_rows(spans, &windowed, makespan),
        hist,
        tail: tail_attribution(spans, &windowed),
        reconcile: ReconcileReport {
            per_shard,
            windowed_total_ns,
            machine_total_ns,
        },
    }
}

fn window_total(windowed: &WindowedLedger, w: usize) -> u64 {
    CpuState::ALL
        .iter()
        .map(|&st| windowed.state_ns(w, st))
        .sum()
}

fn window_rows(spans: &[Span], windowed: &WindowedLedger, makespan: SimTime) -> Vec<WindowRow> {
    let width_ns = windowed.width().as_nanos();
    let count = windowed.window_count();
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); count.max(1)];
    for s in spans {
        let w = (s.completed.as_nanos() / width_ns) as usize;
        per_window[w.min(count.saturating_sub(1))].push(s.response().as_nanos());
    }
    (0..count)
        .map(|w| {
            let responses = &mut per_window[w];
            responses.sort_unstable();
            let span_ns = if (w + 1) as u64 * width_ns <= makespan.as_nanos() {
                width_ns
            } else {
                makespan.as_nanos() - w as u64 * width_ns
            };
            let total_ns = window_total(windowed, w);
            let state_share = std::array::from_fn(|i| {
                windowed.state_ns(w, CpuState::ALL[i]) as f64 / total_ns.max(1) as f64
            });
            WindowRow {
                start: windowed.window_start(w),
                completions: responses.len() as u64,
                throughput: responses.len() as f64 * 1e9 / span_ns as f64,
                p50_us: quantile_us(responses, 0.50),
                p99_us: quantile_us(responses, 0.99),
                p999_us: quantile_us(responses, 0.999),
                ready_backlog: windowed.wait_area_ns(w, WaitKind::Ready) as f64 / span_ns as f64,
                io_backlog: windowed.wait_area_ns(w, WaitKind::BlockedIo) as f64 / span_ns as f64,
                state_share,
            }
        })
        .collect()
}

fn tail_attribution(spans: &[Span], windowed: &WindowedLedger) -> TailReport {
    let tail = tail_cut(spans);
    let mut phase_ns = [0u64; SpanPhase::COUNT];
    let mut dominant_counts = [0u64; SpanPhase::COUNT];
    let mut tail_state_ns = [0u64; CpuState::COUNT];
    let mut tail_span_ns = 0u64;
    let width_ns = windowed.width().as_nanos();
    let wcount = windowed.window_count();
    let mut seen = vec![false; wcount.max(1)];
    for &(_, i) in &tail {
        let s = &spans[i];
        let phases = s.phase_ns();
        let mut arg = 0;
        for (p, &ns) in phases.iter().enumerate() {
            phase_ns[p] += ns;
            if ns > phases[arg] {
                arg = p;
            }
        }
        dominant_counts[arg] += 1;
        let w = ((s.completed.as_nanos() / width_ns) as usize).min(wcount.saturating_sub(1));
        if wcount > 0 && !seen[w] {
            seen[w] = true;
            for (si, &st) in CpuState::ALL.iter().enumerate() {
                tail_state_ns[si] += windowed.state_ns(w, st);
            }
            tail_span_ns += window_total(windowed, w);
        }
    }
    let tail_state_share =
        std::array::from_fn(|si| tail_state_ns[si] as f64 / tail_span_ns.max(1) as f64);
    let dominant = SpanPhase::ALL[phase_ns
        .iter()
        .enumerate()
        .max_by_key(|&(i, &ns)| (ns, usize::MAX - i))
        .map(|(i, _)| i)
        .unwrap_or(0)];
    TailReport {
        count: tail.len(),
        threshold_us: tail.first().map_or(0.0, |&(ns, _)| ns as f64 / 1_000.0),
        worst_us: tail.last().map_or(0.0, |&(ns, _)| ns as f64 / 1_000.0),
        phase_ns,
        dominant_counts,
        dominant,
        tail_state_share,
    }
}

/// Episodes shorter than this count as flaps (`sa_core::audit`'s
/// threshold).
const FLAP_THRESHOLD: SimDuration = SimDuration::from_millis(1);

/// The audit cell's fold (`audit::run_audit` after its run), returning
/// everything but the report's identity fields, which the caller fills.
pub struct AuditFold {
    pub decisions: DecisionCounts,
    pub chains: ChainStats,
    pub churn: ChurnStats,
    pub tail: Vec<TailSpanAudit>,
    pub attribution: Attribution,
}

pub fn audit_fold(
    k: &Kernel,
    spaces: &[AsId],
    makespan: SimTime,
    spans: &[Span],
    requests: usize,
    window: SimDuration,
) -> AuditFold {
    verified_ledger(k, makespan);
    let dwell = fold(|| k.dwell_ledger()).expect("decision audit was enabled");
    dwell
        .verify(makespan)
        .unwrap_or_else(|e| panic!("audit: dwell ledger: {e}"));
    let log = k.decision_log().expect("decision audit was enabled");

    let mut decisions = DecisionCounts {
        total: log.decisions.len() as u64,
        ..DecisionCounts::default()
    };
    let n_spaces = spaces.iter().map(|a| a.index() + 1).max().unwrap_or(0);
    let mut grants: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n_spaces];
    let mut victims: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n_spaces];
    for d in &log.decisions {
        match &d.kind {
            AllocDecisionKind::Targets { .. } => decisions.targets += 1,
            AllocDecisionKind::Grant { space, .. } => {
                decisions.grants += 1;
                if let Some(v) = grants.get_mut(*space as usize) {
                    v.push((d.at, d.id));
                }
            }
            AllocDecisionKind::Victim { space, .. } => {
                decisions.victims += 1;
                if let Some(v) = victims.get_mut(*space as usize) {
                    v.push((d.at, d.id));
                }
            }
        }
    }

    let mut chains = ChainStats {
        opened: log.grants.len() as u64,
        ..ChainStats::default()
    };
    for g in &log.grants {
        if let Some(legs) = g.legs_ns() {
            chains.completed += 1;
            let total = g.startup_wait_ns().expect("completed chain");
            assert_eq!(legs.iter().sum::<u64>(), total, "audit: legs telescope");
            for (acc, ns) in chains.leg_ns.iter_mut().zip(legs) {
                *acc += ns;
            }
            chains.startup_ns += total;
        }
    }

    assert_eq!(spans.len(), requests, "audit: request count");
    let tail_set = tail_cut(spans);
    let mut attribution = Attribution {
        tail_count: tail_set.len() as u64,
        ..Attribution::default()
    };
    let mut tail = Vec::with_capacity(tail_set.len());
    for &(_, i) in &tail_set {
        let s = &spans[i];
        let space = spaces[s.shard as usize].index();
        let (g, v) = (&grants[space], &victims[space]);
        let in_window =
            count_in_window(g, s.forked, s.first_run) + count_in_window(v, s.forked, s.first_run);
        let attributed = latest_at_or_before(g, s.first_run);
        let chain = attributed.and_then(|d| log.grant(d)).copied();
        attribution.startup_total_ns += s.startup_wait_ns();
        if attributed.is_some() {
            attribution.attributed_spans += 1;
            attribution.startup_attributed_ns += s.startup_wait_ns();
        }
        tail.push(TailSpanAudit {
            span: i as u64,
            shard: s.shard,
            response_ns: s.response().as_nanos(),
            startup_wait_ns: s.startup_wait_ns(),
            decisions_in_window: in_window,
            attributed,
            chain,
        });
    }

    AuditFold {
        decisions,
        chains,
        churn: churn_stats(&dwell, window),
        tail,
        attribution,
    }
}

fn count_in_window(timeline: &[(SimTime, u64)], from: SimTime, to: SimTime) -> u64 {
    let lo = timeline.partition_point(|&(at, _)| at < from);
    let hi = timeline.partition_point(|&(at, _)| at <= to);
    (hi - lo) as u64
}

fn latest_at_or_before(timeline: &[(SimTime, u64)], t: SimTime) -> Option<u64> {
    let hi = timeline.partition_point(|&(at, _)| at <= t);
    hi.checked_sub(1).map(|i| timeline[i].1)
}

fn churn_stats(dwell: &DwellLedger, width: SimDuration) -> ChurnStats {
    let mut reallocations = 0u64;
    let mut assigned_episodes = 0u64;
    let mut dwell_ns = 0u64;
    for ep in dwell.episodes() {
        if ep.closed_by != 0 {
            reallocations += 1;
        }
        if ep.space.is_some() {
            assigned_episodes += 1;
            dwell_ns += ep.dwell().as_nanos();
        }
    }
    let windows = dwell.churn_windows(width);
    let peak = windows.iter().map(|w| w.reallocations).max().unwrap_or(0);
    ChurnStats {
        reallocations,
        assigned_episodes,
        mean_dwell_ns: dwell_ns / assigned_episodes.max(1),
        flaps: dwell.flap_counts(FLAP_THRESHOLD),
        windows,
        peak_window_reallocations: peak,
    }
}

const SYSTEMS: [&str; 3] = ["Topaz threads", "orig FastThrds", "new FastThrds"];

/// Figure 1 from its sequential baseline and 6 rows × 3 systems.
pub fn render_fig1(seq: SimDuration, rows: &[(u16, [SimDuration; 3])]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 1: speedup vs processors (100% memory; sequential {seq})"
    );
    let _ = writeln!(
        out,
        "{:<6} {:>14} {:>15} {:>14}",
        "procs", SYSTEMS[0], SYSTEMS[1], SYSTEMS[2]
    );
    let speedup = |r: &SimDuration| seq.as_nanos() as f64 / r.as_nanos() as f64;
    for (cpus, row) in rows {
        let _ = writeln!(
            out,
            "{cpus:<6} {:>14.2} {:>15.2} {:>14.2}",
            speedup(&row[0]),
            speedup(&row[1]),
            speedup(&row[2])
        );
    }
    out
}

/// Figure 2 from its memory-fraction rows on a `cpus`-processor machine.
pub fn render_fig2(cpus: u16, rows: &[(f64, [SimDuration; 3])]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: N-body execution time (s) vs % memory, {cpus} CPUs"
    );
    let _ = writeln!(
        out,
        "{:<7} {:>14} {:>15} {:>14}",
        "memory", SYSTEMS[0], SYSTEMS[1], SYSTEMS[2]
    );
    for (frac, row) in rows {
        let _ = writeln!(
            out,
            "{:>5.0}%  {:>14.2} {:>15.2} {:>14.2}",
            frac * 100.0,
            row[0].as_secs_f64(),
            row[1].as_secs_f64(),
            row[2].as_secs_f64()
        );
    }
    out
}

/// Table 5 from its sequential baseline and the three level-2 runs.
pub fn render_table5(cpus: u16, seq: SimDuration, multi: &[SimDuration; 3]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 5: multiprogramming level 2, {cpus} CPUs (max speedup 3.0)"
    );
    let paper = [1.29, 1.26, 2.45];
    for (i, r) in multi.iter().enumerate() {
        let s = seq.as_nanos() as f64 / r.as_nanos() as f64;
        let _ = writeln!(out, "  {:<18} {s:.2}  (paper {:.2})", SYSTEMS[i], paper[i]);
    }
    out
}
