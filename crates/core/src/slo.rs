//! The SLO observability report: windowed time series, p999-grade
//! response histograms, and tail-latency attribution over the open-loop
//! server scenario (`sa-experiments slo <profile>`).
//!
//! Each profile runs the [`sa_workload::openloop`] generator under the
//! three systems of the paper's comparison and reports, per system:
//!
//! 1. **Windowed time series** — completions, throughput, exact
//!    p50/p99/p999 response quantiles among the requests *completing* in
//!    each window, the time-mean runnable backlog, and the machine's
//!    ledger-state shares, all in fixed simulated-time windows from the
//!    [`WindowedLedger`].
//! 2. **Tail attribution** — the slowest 0.1% of request spans, their
//!    exact six-phase decomposition (phases sum to response time by
//!    construction; see `sa_sim::span`), the dominant cause per span and
//!    overall, joined against the windowed ledger's machine state during
//!    the windows those tail requests completed in.
//! 3. **Reconciliation** — the span accounting cross-checked against the
//!    [`TimeLedger`]: per shard, summed intrinsic
//!    service must equal the ledger's `running_user` time *exactly*
//!    (`Op::Compute` is the only producer of user-state CPU time), and
//!    every window's seven state columns must sum to `cpus × width`.
//!
//! All numbers derive from integer nanosecond accounting in a
//! deterministic simulation, so the full report is byte-identical across
//! runs and `--jobs` counts.

use crate::scenario::{systems, PolicyConfig};
use crate::trace_export::CounterSeries;
use crate::{AppSpec, SystemBuilder, ThreadApi};
use sa_harness::{run_ordered, Job, PanickedJob};
use sa_kernel::DaemonSpec;
use sa_sim::span::{Span, SpanBook, SpanPhase};
use sa_sim::stats::Histogram;
use sa_sim::{CpuState, SimDuration, SimTime, TimeLedger, WaitKind, WindowedLedger};
use sa_workload::openloop::{shard_listener, ArrivalProcess, OpenLoopConfig};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::rc::Rc;

/// One named SLO experiment: an open-loop workload shape on a machine,
/// with a metrics window width.
pub struct SloProfile {
    /// Registry key (`sa-experiments slo <name>`).
    pub name: &'static str,
    /// One-line description (`slo --list`).
    pub about: &'static str,
    /// Physical processors.
    pub cpus: u16,
    /// Metrics window width.
    pub window: SimDuration,
    /// The open-loop generator configuration.
    pub cfg: OpenLoopConfig,
}

/// Base generator shape shared by the default profiles: 4 shards at an
/// aggregate 100k req/s of ~60us-mean truncated-Pareto demand on 8 CPUs
/// (~75% compute load), 15% of requests doing ~800us of device I/O.
fn base_cfg(arrivals: ArrivalProcess) -> OpenLoopConfig {
    OpenLoopConfig {
        requests: 120_000,
        shards: 4,
        arrivals,
        mean_interarrival: SimDuration::from_micros(40),
        service_min: SimDuration::from_micros(20),
        service_alpha: 1.5,
        service_cap: SimDuration::from_millis(5),
        io_probability: 0.15,
        io_time: SimDuration::from_micros(800),
        seed: 0x510,
    }
}

/// The SLO profile registry, in display order.
pub fn profiles() -> Vec<SloProfile> {
    vec![
        SloProfile {
            name: "slo_poisson",
            about: "open-loop Poisson arrivals, heavy-tailed service",
            cpus: 8,
            window: SimDuration::from_millis(50),
            cfg: base_cfg(ArrivalProcess::Poisson),
        },
        SloProfile {
            name: "slo_bursty",
            about: "clumped arrivals (mean burst 8), heavy-tailed service",
            cpus: 8,
            window: SimDuration::from_millis(50),
            cfg: base_cfg(ArrivalProcess::Bursty { burst: 8 }),
        },
        SloProfile {
            name: "slo_diurnal",
            about: "triangle-wave rate swing (+/-80%, 200ms period)",
            cpus: 8,
            window: SimDuration::from_millis(50),
            cfg: base_cfg(ArrivalProcess::Diurnal {
                period: SimDuration::from_millis(200),
                depth: 0.8,
            }),
        },
    ]
}

/// Looks up a profile by registry key.
pub fn find(name: &str) -> Option<SloProfile> {
    profiles().into_iter().find(|p| p.name == name)
}

/// One row of the windowed time series.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Window start time.
    pub start: SimTime,
    /// Requests completing in this window.
    pub completions: u64,
    /// Completions per second of simulated time.
    pub throughput: f64,
    /// Exact response quantiles (us) among this window's completions.
    pub p50_us: f64,
    /// 99th percentile response (us).
    pub p99_us: f64,
    /// 99.9th percentile response (us).
    pub p999_us: f64,
    /// Time-mean runnable backlog (threads ready, kernel gauge).
    pub ready_backlog: f64,
    /// Time-mean blocked-on-I/O backlog (threads).
    pub io_backlog: f64,
    /// Share of machine time per ledger state (fractions of 1).
    pub state_share: [f64; CpuState::COUNT],
}

/// The tail-attribution section: the slowest 0.1% of completed spans.
#[derive(Debug, Clone)]
pub struct TailReport {
    /// Tail size (`max(1, completed/1000)`).
    pub count: usize,
    /// Response of the fastest tail span (the p999 cut, us).
    pub threshold_us: f64,
    /// Worst response (us).
    pub worst_us: f64,
    /// Summed phase time across tail spans, indexed by [`SpanPhase`].
    pub phase_ns: [u64; SpanPhase::COUNT],
    /// Per-phase count of tail spans whose largest phase it is.
    pub dominant_counts: [u64; SpanPhase::COUNT],
    /// The phase with the largest summed time — the named dominant cause.
    pub dominant: SpanPhase,
    /// Machine ledger-state shares over the windows in which the tail
    /// spans completed (the ledger join: a high idle share under a
    /// ready-wait-dominated tail means allocation latency, not load).
    pub tail_state_share: [f64; CpuState::COUNT],
}

/// Span-vs-ledger reconciliation, asserted exact in [`run_slo`].
#[derive(Debug, Clone)]
pub struct ReconcileReport {
    /// Per shard: (summed span service ns, ledger `running_user` ns).
    pub per_shard: Vec<(u64, u64)>,
    /// Sum of every windowed state column.
    pub windowed_total_ns: u64,
    /// `cpus × makespan` — what the windows must sum to.
    pub machine_total_ns: u64,
}

/// One system's cell of the SLO report.
#[derive(Debug, Clone)]
pub struct SloCell {
    /// System display name (the three columns of the comparison).
    pub system: &'static str,
    /// End of the run.
    pub makespan: SimTime,
    /// Completed requests.
    pub completed: u64,
    /// The windowed time series.
    pub windows: Vec<WindowRow>,
    /// End-to-end response histogram (high-resolution log-linear).
    pub hist: Histogram,
    /// The tail-attribution section.
    pub tail: TailReport,
    /// Span-vs-ledger reconciliation (deltas are zero by assertion).
    pub reconcile: ReconcileReport,
}

/// The full report: one cell per system.
pub struct SloReport {
    /// The profile that ran.
    pub profile_name: &'static str,
    /// Machine size.
    pub cpus: u16,
    /// Window width.
    pub window: SimDuration,
    /// The generator configuration that ran (after any request override).
    pub cfg: OpenLoopConfig,
    /// The policy pair.
    pub policies: PolicyConfig,
    /// Per-system cells, in [`systems`] order.
    pub cells: Vec<SloCell>,
}

/// Exact quantile of a sorted slice (nearest-rank on `(n-1)*q`).
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Runs one system cell: build the sharded open-loop system, run it,
/// verify both ledgers, reconcile spans against the flat ledger, and
/// fold everything into the windowed rows and tail section.
fn run_cell(
    system: &'static str,
    api: ThreadApi,
    policies: PolicyConfig,
    cpus: u16,
    window: SimDuration,
    cfg: &OpenLoopConfig,
) -> SloCell {
    let book = Rc::new(RefCell::new(SpanBook::with_capacity(cfg.requests)));
    let mut builder = SystemBuilder::new(cpus)
        .alloc_policy(policies.alloc)
        .daemons(DaemonSpec::topaz_default_set())
        .windowed_metrics(window)
        .dwell_ledger(true);
    for shard in 0..cfg.shards {
        let body = shard_listener(cfg, shard, Rc::clone(&book));
        let mut app = AppSpec::new(format!("slo{shard}"), api.clone(), body);
        app.ready_policy = policies.ready;
        builder = builder.app(app);
    }
    let mut sys = builder.build();
    let report = sys.run();
    assert!(
        report.all_done(),
        "slo under {system}: {:?}",
        report.outcome
    );
    let makespan = report.outcome.end;

    let ledger = sys.time_ledger();
    ledger
        .verify(makespan)
        .unwrap_or_else(|e| panic!("{system}: flat ledger: {e}"));
    let windowed = sys
        .windowed_ledger()
        .expect("windowed metrics were enabled");
    windowed
        .verify(makespan)
        .unwrap_or_else(|e| panic!("{system}: windowed ledger: {e}"));
    // Dwell conservation on every run: per-CPU assignment episodes must
    // partition the makespan exactly (see sa_sim::DwellLedger).
    sys.dwell_ledger()
        .expect("dwell ledger was enabled")
        .verify(makespan)
        .unwrap_or_else(|e| panic!("{system}: dwell ledger: {e}"));

    let space_idx: Vec<usize> = sys.apps().iter().map(|a| a.0.index()).collect();
    let book = book.borrow();
    let spans = book.spans();
    assert_eq!(spans.len(), cfg.requests, "{system}: request count");
    assert!(
        spans.iter().all(|s| s.done),
        "{system}: unfinished spans after a completed run"
    );

    let reconcile = reconcile_exact(system, spans, &ledger, &space_idx, &windowed, makespan);
    let windows = window_rows(spans, &windowed, makespan);
    let mut hist = Histogram::log_linear();
    for s in spans {
        hist.record(s.response());
    }
    let tail = tail_attribution(spans, &windowed);

    SloCell {
        system,
        makespan,
        completed: spans.len() as u64,
        windows,
        hist,
        tail,
        reconcile,
    }
}

/// Asserts the exact span-vs-ledger invariants and returns the numbers
/// for the report's reconciliation section.
fn reconcile_exact(
    system: &str,
    spans: &[Span],
    ledger: &TimeLedger,
    space_idx: &[usize],
    windowed: &WindowedLedger,
    makespan: SimTime,
) -> ReconcileReport {
    let mut per_shard = Vec::with_capacity(space_idx.len());
    let mut service_by_shard = vec![0u64; space_idx.len()];
    for s in spans {
        service_by_shard[s.shard as usize] += s.service_ns;
    }
    for (shard, &space) in space_idx.iter().enumerate() {
        let from_spans = service_by_shard[shard];
        let from_ledger = ledger.space_ns(space, CpuState::User);
        assert_eq!(
            from_spans, from_ledger,
            "{system}: shard {shard} span service vs ledger running_user"
        );
        per_shard.push((from_spans, from_ledger));
    }
    let windowed_total_ns: u64 = (0..windowed.window_count())
        .map(|w| {
            CpuState::ALL
                .iter()
                .map(|&st| windowed.state_ns(w, st))
                .sum::<u64>()
        })
        .sum();
    let machine_total_ns = windowed.cpus() as u64 * makespan.as_nanos();
    assert_eq!(
        windowed_total_ns, machine_total_ns,
        "{system}: windowed states vs cpus x makespan"
    );
    ReconcileReport {
        per_shard,
        windowed_total_ns,
        machine_total_ns,
    }
}

/// Folds completed spans and the windowed ledger into the time series.
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
            // The final window may be partial; rates use its real span.
            let span_ns = if (w + 1) as u64 * width_ns <= makespan.as_nanos() {
                width_ns
            } else {
                makespan.as_nanos() - w as u64 * width_ns
            };
            let total_ns: u64 = CpuState::ALL
                .iter()
                .map(|&st| windowed.state_ns(w, st))
                .sum();
            let mut state_share = [0.0; CpuState::COUNT];
            for (i, &st) in CpuState::ALL.iter().enumerate() {
                state_share[i] = windowed.state_ns(w, st) as f64 / total_ns.max(1) as f64;
            }
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

/// Selects the slowest 0.1% of spans (ties broken by id, so the set is
/// deterministic) and attributes their time.
fn tail_attribution(spans: &[Span], windowed: &WindowedLedger) -> TailReport {
    let mut by_response: Vec<(u64, usize)> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.response().as_nanos(), i))
        .collect();
    by_response.sort_unstable();
    let count = (spans.len() / 1000).max(1).min(spans.len());
    let tail = &by_response[by_response.len() - count..];

    let mut phase_ns = [0u64; SpanPhase::COUNT];
    let mut dominant_counts = [0u64; SpanPhase::COUNT];
    let mut tail_state_ns = [0u64; CpuState::COUNT];
    let mut tail_span_ns = 0u64;
    let width_ns = windowed.width().as_nanos();
    let wcount = windowed.window_count();
    let mut seen_windows = vec![false; wcount.max(1)];
    for &(_, i) in tail {
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
        if wcount > 0 && !seen_windows[w] {
            seen_windows[w] = true;
            for (si, &st) in CpuState::ALL.iter().enumerate() {
                tail_state_ns[si] += windowed.state_ns(w, st);
            }
            tail_span_ns += CpuState::ALL
                .iter()
                .map(|&st| windowed.state_ns(w, st))
                .sum::<u64>();
        }
    }
    let mut tail_state_share = [0.0; CpuState::COUNT];
    for (si, &ns) in tail_state_ns.iter().enumerate() {
        tail_state_share[si] = ns as f64 / tail_span_ns.max(1) as f64;
    }
    let dominant = SpanPhase::ALL[phase_ns
        .iter()
        .enumerate()
        .max_by_key(|&(i, &ns)| (ns, usize::MAX - i))
        .map(|(i, _)| i)
        .unwrap_or(0)];
    TailReport {
        count,
        threshold_us: tail.first().map_or(0.0, |&(ns, _)| ns as f64 / 1_000.0),
        worst_us: tail.last().map_or(0.0, |&(ns, _)| ns as f64 / 1_000.0),
        phase_ns,
        dominant_counts,
        dominant,
        tail_state_share,
    }
}

/// Runs `profile` under the three systems (fanned across up to `jobs`
/// host threads; output independent of `jobs`) and returns the
/// structured report. `requests` overrides the profile's request count
/// (smoke tests and quick runs).
pub fn run_slo(
    profile: &SloProfile,
    policies: PolicyConfig,
    requests: Option<usize>,
    jobs: NonZeroUsize,
) -> Result<SloReport, PanickedJob> {
    let mut cfg = profile.cfg.clone();
    if let Some(n) = requests {
        cfg.requests = n;
    }
    let window = profile.window;
    let cpus = profile.cpus;
    let tasks: Vec<Job<'_, SloCell>> = systems(cpus as u32)
        .into_iter()
        .map(|(name, api)| -> Job<'_, SloCell> {
            let cfg = cfg.clone();
            Box::new(move || run_cell(name, api, policies, cpus, window, &cfg))
        })
        .collect();
    let cells = run_ordered(jobs, tasks)?;
    Ok(SloReport {
        profile_name: profile.name,
        cpus,
        window,
        cfg,
        policies,
        cells,
    })
}

/// Result of one host-side SLO bench run (see [`bench_run`]).
pub struct SloBenchRun {
    /// Completed requests.
    pub requests: u64,
    /// Simulated events processed.
    pub sim_events: u64,
    /// Host wall-clock seconds.
    pub host_seconds: f64,
}

/// Host-side benchmark harness: runs the scheduler-activation cell of
/// `profile` with the request count overridden and the windowed ledger
/// on or off. The virtual-time results are identical either way — only
/// host cost differs, which is exactly what the `slo_windowed_overhead`
/// bench line tracks.
pub fn bench_run(profile: &SloProfile, requests: usize, windowed: bool) -> SloBenchRun {
    bench_run_with(profile, requests, windowed, false)
}

/// As [`bench_run`], with decision-provenance recording on or off as
/// well — the pairing behind the `audit_overhead` bench line (decision
/// *ids* advance in both shapes; only record-keeping differs).
pub fn bench_run_with(
    profile: &SloProfile,
    requests: usize,
    windowed: bool,
    audit: bool,
) -> SloBenchRun {
    let mut cfg = profile.cfg.clone();
    cfg.requests = requests;
    let api = ThreadApi::SchedulerActivations {
        max_processors: profile.cpus as u32,
    };
    let book = Rc::new(RefCell::new(SpanBook::with_capacity(cfg.requests)));
    let mut builder = SystemBuilder::new(profile.cpus)
        .daemons(DaemonSpec::topaz_default_set())
        .decision_audit(audit);
    if windowed {
        builder = builder.windowed_metrics(profile.window);
    }
    for shard in 0..cfg.shards {
        let body = shard_listener(&cfg, shard, Rc::clone(&book));
        builder = builder.app(AppSpec::new(format!("slo{shard}"), api.clone(), body));
    }
    let mut sys = builder.build();
    let start = std::time::Instant::now();
    let report = sys.run();
    let host_seconds = start.elapsed().as_secs_f64();
    assert!(report.all_done(), "slo bench: {:?}", report.outcome);
    SloBenchRun {
        requests: cfg.requests as u64,
        sim_events: sys.kernel().kernel_metrics().events.get(),
        host_seconds,
    }
}

fn header(report: &SloReport) -> String {
    let mut out = String::new();
    let arrivals = match report.cfg.arrivals {
        ArrivalProcess::Poisson => "poisson".to_string(),
        ArrivalProcess::Bursty { burst } => format!("bursty(burst {burst})"),
        ArrivalProcess::Diurnal { period, depth } => {
            format!("diurnal(period {period}, depth {depth})")
        }
    };
    let _ = writeln!(
        out,
        "SLO report: {} — {} requests over {} shards, {} arrivals, {} CPUs, {} windows",
        report.profile_name,
        report.cfg.requests,
        report.cfg.shards,
        arrivals,
        report.cpus,
        report.window
    );
    let _ = writeln!(
        out,
        "  per-shard mean interarrival {}, Pareto(min {}, alpha {}, cap {}), {:.0}% I/O @ mean {}",
        report.cfg.mean_interarrival,
        report.cfg.service_min,
        report.cfg.service_alpha,
        report.cfg.service_cap,
        report.cfg.io_probability * 100.0,
        report.cfg.io_time
    );
    if !report.policies.is_default() {
        let _ = writeln!(out, "  policies: {}", report.policies);
    }
    out
}

/// Renders the full human-readable report.
pub fn render_table(report: &SloReport) -> String {
    let mut out = header(report);
    for cell in &report.cells {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "== {} — {} completed in {} ==",
            cell.system, cell.completed, cell.makespan
        );
        let _ = writeln!(out, "response {}", cell.hist.summary_tail());
        let mut t = crate::reporting::Table::new(&[
            "window", "done", "req/s", "p50us", "p99us", "p999us", "ready", "user%", "kern%",
            "idle%",
        ]);
        for w in &cell.windows {
            let user = w.state_share[CpuState::User as usize] * 100.0;
            let kern = (w.state_share[CpuState::Kernel as usize]
                + w.state_share[CpuState::Overhead as usize]
                + w.state_share[CpuState::Upcall as usize])
                * 100.0;
            let idle = (w.state_share[CpuState::Idle as usize]
                + w.state_share[CpuState::IdleSpin as usize])
                * 100.0;
            t.row(vec![
                format!("{}", w.start),
                format!("{}", w.completions),
                format!("{:.0}", w.throughput),
                format!("{:.1}", w.p50_us),
                format!("{:.1}", w.p99_us),
                format!("{:.1}", w.p999_us),
                format!("{:.2}", w.ready_backlog),
                format!("{user:.1}"),
                format!("{kern:.1}"),
                format!("{idle:.1}"),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&render_tail(&cell.tail));
        out.push_str(&render_reconcile(&cell.reconcile));
    }
    out
}

fn render_tail(tail: &TailReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Tail attribution: slowest {} spans (p999 cut {:.1}us, worst {:.1}us)",
        tail.count, tail.threshold_us, tail.worst_us
    );
    let total: u64 = tail.phase_ns.iter().sum();
    let mut t = crate::reporting::Table::new(&["phase", "total", "share", "dominant-in"]);
    for p in SpanPhase::ALL {
        let ns = tail.phase_ns[p.index()];
        t.row(vec![
            p.name().to_string(),
            format!("{}", SimDuration::from_nanos(ns)),
            format!("{:.1}%", ns as f64 * 100.0 / total.max(1) as f64),
            format!("{}", tail.dominant_counts[p.index()]),
        ]);
    }
    out.push_str(&t.render());
    let dom_ns = tail.phase_ns[tail.dominant.index()];
    let _ = writeln!(
        out,
        "dominant cause: {} ({} {:.1}% of tail time)",
        tail.dominant.cause(),
        tail.dominant.name(),
        dom_ns as f64 * 100.0 / total.max(1) as f64
    );
    let shares: Vec<String> = CpuState::ALL
        .iter()
        .enumerate()
        .filter(|&(i, _)| tail.tail_state_share[i] >= 0.0005)
        .map(|(i, &st)| format!("{} {:.1}%", st.name(), tail.tail_state_share[i] * 100.0))
        .collect();
    let _ = writeln!(
        out,
        "machine state in tail-completion windows: {}",
        shares.join(", ")
    );
    out
}

fn render_reconcile(r: &ReconcileReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Reconciliation (exact, asserted):");
    for (shard, &(spans, ledger)) in r.per_shard.iter().enumerate() {
        let _ = writeln!(
            out,
            "  shard {shard}: span service {spans} ns == ledger running_user {ledger} ns \
             (delta {})",
            spans as i64 - ledger as i64
        );
    }
    let _ = writeln!(
        out,
        "  windowed states {} ns == cpus x makespan {} ns (delta {})",
        r.windowed_total_ns,
        r.machine_total_ns,
        r.windowed_total_ns as i64 - r.machine_total_ns as i64
    );
    out
}

/// Renders the windowed time series as CSV (one row per system ×
/// window, every ledger state and wait gauge as its own column).
pub fn render_csv(report: &SloReport) -> String {
    let mut out = String::from(
        "system,window_ms,completions,throughput,p50_us,p99_us,p999_us,ready_backlog,io_backlog",
    );
    for st in CpuState::ALL {
        let _ = write!(out, ",{}", st.name());
    }
    out.push('\n');
    for cell in &report.cells {
        for w in &cell.windows {
            let _ = write!(
                out,
                "{},{:.1},{},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4}",
                cell.system,
                w.start.as_nanos() as f64 / 1e6,
                w.completions,
                w.throughput,
                w.p50_us,
                w.p99_us,
                w.p999_us,
                w.ready_backlog,
                w.io_backlog
            );
            for share in w.state_share {
                let _ = write!(out, ",{share:.6}");
            }
            out.push('\n');
        }
    }
    out
}

/// Builds Perfetto counter tracks from the report's windowed series
/// (render with [`crate::trace_export::perfetto_counters_json`]).
pub fn counter_series(report: &SloReport) -> Vec<CounterSeries> {
    let mut series = Vec::new();
    for cell in &report.cells {
        let mut push = |metric: &str, f: &dyn Fn(&WindowRow) -> f64| {
            series.push(CounterSeries {
                name: format!("{}: {metric}", cell.system),
                points: cell.windows.iter().map(|w| (w.start, f(w))).collect(),
            });
        };
        push("throughput (req/s)", &|w| w.throughput);
        push("p99 response (us)", &|w| w.p99_us);
        push("p999 response (us)", &|w| w.p999_us);
        push("ready backlog (threads)", &|w| w.ready_backlog);
        push("user share", &|w| w.state_share[CpuState::User as usize]);
        push("idle share", &|w| w.state_share[CpuState::Idle as usize]);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_finds_every_profile() {
        for p in profiles() {
            assert!(find(p.name).is_some());
            assert!(
                p.cfg.requests >= 100_000,
                "{}: default must be SLO-grade",
                p.name
            );
            assert!(!p.about.is_empty());
        }
        assert!(find("slo_nope").is_none());
    }

    #[test]
    fn quantiles_pick_exact_ranks() {
        let v: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
        assert!((quantile_us(&v, 0.0) - 1.0).abs() < 1e-9);
        assert!((quantile_us(&v, 1.0) - 1000.0).abs() < 1e-9);
        // idx = round(999 * 0.5) = round(499.5) = 500 (half away from zero).
        assert!((quantile_us(&v, 0.5) - 501.0).abs() < 1e-9);
        assert_eq!(quantile_us(&[], 0.5), 0.0);
    }

    #[test]
    fn small_run_reconciles_and_renders_every_format() {
        let mut p = find("slo_poisson").unwrap();
        p.window = SimDuration::from_millis(10);
        let report = run_slo(
            &p,
            PolicyConfig::default(),
            Some(600),
            NonZeroUsize::new(2).unwrap(),
        )
        .expect("no panics");
        assert_eq!(report.cells.len(), 3);
        for cell in &report.cells {
            assert_eq!(cell.completed, 600);
            assert!(!cell.windows.is_empty());
            let sum: u64 = cell.windows.iter().map(|w| w.completions).sum();
            assert_eq!(sum, 600, "{}: every span lands in a window", cell.system);
            assert_eq!(cell.tail.count, 1);
            for &(a, b) in &cell.reconcile.per_shard {
                assert_eq!(a, b);
            }
        }
        let table = render_table(&report);
        assert!(table.contains("Tail attribution"));
        assert!(table.contains("dominant cause:"));
        assert!(table.contains("delta 0"));
        let csv = render_csv(&report);
        assert_eq!(
            csv.lines().count(),
            1 + report.cells.iter().map(|c| c.windows.len()).sum::<usize>()
        );
        assert!(csv.starts_with("system,window_ms,"));
        let series = counter_series(&report);
        assert_eq!(series.len(), 18);
        let json = crate::trace_export::perfetto_counters_json(&series);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn same_seed_report_is_byte_identical_across_jobs() {
        let mut p = find("slo_bursty").unwrap();
        p.window = SimDuration::from_millis(10);
        let run = |jobs| {
            let r = run_slo(
                &p,
                PolicyConfig::default(),
                Some(400),
                NonZeroUsize::new(jobs).unwrap(),
            )
            .unwrap();
            (render_table(&r), render_csv(&r))
        };
        assert_eq!(run(1), run(4));
    }
}
