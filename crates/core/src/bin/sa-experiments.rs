//! Command-line experiment runner: regenerate any of the paper's tables
//! and figures without going through `cargo bench`.
//!
//! ```sh
//! cargo run --release -p sa-core --bin sa-experiments -- table1
//! cargo run --release -p sa-core --bin sa-experiments -- fig2
//! cargo run --release -p sa-core --bin sa-experiments -- all --jobs 4
//! ```
//!
//! Sweeps fan their independent simulation cells across host cores
//! (`--jobs N`, or the `SA_JOBS` environment variable; default = host
//! parallelism). Results are collected in job-index order and printed
//! only after the sweep completes, so stdout is byte-identical at any
//! job count — `--jobs 1` restores fully serial execution. A panicking
//! cell exits nonzero with a clean message instead of a half-printed
//! table.

use sa_core::audit::{audit_counter_series, render_audit_csv, render_audit_table, run_audit};
use sa_core::experiments::EngineThroughput;
use sa_core::profile::{render_folded, render_json, render_table, run_profile_with};
use sa_core::reporting::{write_bench_json_with_host, BenchLine, HostInfo, Table};
use sa_core::scenario::{self, PolicyConfig};
use sa_core::slo;
use sa_core::sweeps::{fig1_grid_throughput, latency_rows, upcall_measurements};
use sa_core::trace_export::{perfetto_counters_json, perfetto_json, text_log};
use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_harness::{jobs_from_env, parse_jobs, PanickedJob};
use sa_kernel::{AllocPolicyKind, DaemonSpec};
use sa_machine::CostModel;
use sa_sim::{EventQueue, SimDuration, SimTime, Trace, UpcallKind};
use sa_uthread::{CriticalSectionMode, ReadyPolicyKind};
use sa_workload::nbody::NBodyConfig;
use std::num::NonZeroUsize;
use std::time::Instant;

/// The subcommands, with the one-line descriptions `--list` prints.
const SUBCOMMANDS: &[(&str, &str)] = &[
    ("table1", "Table 1: thread operation latencies"),
    ("table4", "Table 4: latencies incl. scheduler activations"),
    ("upcall", "5.2: upcall performance"),
    ("fig1", "Figure 1: N-body speedup vs. processors"),
    ("fig2", "Figure 2: N-body time vs. available memory"),
    ("table5", "Table 5: multiprogramming level 2"),
    (
        "run",
        "run <scenario> [--alloc=P] [--ready=P]; 'run --list' lists scenarios",
    ),
    (
        "engine-bench",
        "host-side engine throughput (writes BENCH_engine.json)",
    ),
    (
        "churn",
        "churn: 10^6-thread lifecycle smoke; fails if hot TCB bytes/thread > 256",
    ),
    (
        "trace",
        "trace <scenario> [--alloc=P] [--ready=P] [--out F] [--format perfetto|log|histograms]",
    ),
    (
        "profile",
        "profile <scenario> [--alloc=P] [--ready=P] [--out F] [--format table|folded|json]",
    ),
    (
        "slo",
        "slo <profile> [--requests N] [--spaces N] [--out F] [--format table|csv|perfetto]",
    ),
    (
        "audit",
        "audit <profile> [--alloc=P] [--ready=P] [--requests N] [--spaces N] [--out F] \
         [--format table|csv|perfetto]",
    ),
    ("all", "every table and figure above"),
];

fn table1(jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    let cost = CostModel::firefly_prototype();
    let rows = [
        ("FastThreads", ThreadApi::OrigFastThreads { vps: 1 }, 34, 37),
        ("Topaz threads", ThreadApi::TopazThreads, 948, 441),
        ("Ultrix processes", ThreadApi::UltrixProcesses, 11300, 1840),
    ];
    let specs = rows
        .iter()
        .map(|(_, api, _, _)| (api.clone(), CriticalSectionMode::ZeroOverhead))
        .collect();
    let measured = latency_rows(specs, &cost, jobs)?;
    println!("Table 1: Thread Operation Latencies (usec.)");
    println!(
        "{:<20} {:>10} {:>8} {:>12} {:>8}",
        "Operation", "Null Fork", "paper", "Signal-Wait", "paper"
    );
    for ((name, _api, nf, sw), r) in rows.iter().zip(&measured) {
        println!(
            "{name:<20} {:>10.1} {nf:>8} {:>12.1} {sw:>8}",
            r.null_fork.as_micros_f64(),
            r.signal_wait.as_micros_f64()
        );
    }
    Ok(())
}

fn table4(jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    let cost = CostModel::firefly_prototype();
    let rows = [
        (
            "FastThreads on Topaz threads",
            ThreadApi::OrigFastThreads { vps: 1 },
            CriticalSectionMode::ZeroOverhead,
            34,
            37,
        ),
        (
            "FastThreads on Sched Activations",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            CriticalSectionMode::ZeroOverhead,
            37,
            42,
        ),
        (
            "  without zero-overhead CS",
            ThreadApi::SchedulerActivations { max_processors: 1 },
            CriticalSectionMode::ExplicitFlag,
            49,
            48,
        ),
        (
            "Topaz threads",
            ThreadApi::TopazThreads,
            CriticalSectionMode::ZeroOverhead,
            948,
            441,
        ),
        (
            "Ultrix processes",
            ThreadApi::UltrixProcesses,
            CriticalSectionMode::ZeroOverhead,
            11300,
            1840,
        ),
    ];
    let specs = rows
        .iter()
        .map(|(_, api, critical, _, _)| (api.clone(), *critical))
        .collect();
    let measured = latency_rows(specs, &cost, jobs)?;
    println!("Table 4: Thread Operation Latencies incl. scheduler activations (usec.)");
    for ((name, _api, _critical, nf, sw), r) in rows.iter().zip(&measured) {
        println!(
            "{name:<36} {:>8.1} (paper {nf:>5})   {:>8.1} (paper {sw:>4})",
            r.null_fork.as_micros_f64(),
            r.signal_wait.as_micros_f64()
        );
    }
    Ok(())
}

fn upcall(jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    let m = upcall_measurements(jobs)?;
    println!("5.2 upcall performance:");
    println!(
        "  kernel-forced signal-wait (prototype): {:.0} usec (paper ~2400)",
        m.proto.as_micros_f64()
    );
    println!(
        "  Topaz signal-wait:                     {:.0} usec (paper 441)",
        m.topaz.as_micros_f64()
    );
    println!(
        "  ratio: {:.1}x (paper ~5x)",
        m.proto.as_micros_f64() / m.topaz.as_micros_f64()
    );
    println!(
        "  kernel-forced signal-wait (tuned):     {:.0} usec",
        m.tuned.as_micros_f64()
    );
    Ok(())
}

/// Runs a registry scenario under a policy pair and prints the report.
/// Non-default policies are announced on a header line so default output
/// stays byte-identical to the pre-registry subcommands.
fn run_scenario(name: &str, policies: PolicyConfig, jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    let Some(sc) = scenario::find(name) else {
        let names: Vec<&str> = scenario::SCENARIOS.iter().map(|s| s.name).collect();
        eprintln!(
            "sa-experiments: unknown scenario '{name}' (expected {})",
            names.join("|")
        );
        std::process::exit(2);
    };
    if !policies.is_default() {
        println!("policies: {policies}");
    }
    print!("{}", sc.run(policies, jobs)?);
    Ok(())
}

fn list_scenarios() {
    for sc in scenario::SCENARIOS {
        println!("{:<10} {:>2} cpus  {}", sc.name, sc.cpus, sc.about);
    }
    println!(
        "\n--alloc: {}",
        AllocPolicyKind::ALL.map(|k| k.name()).join(", ")
    );
    println!(
        "--ready: {}",
        ReadyPolicyKind::ALL.map(|k| k.name()).join(", ")
    );
}

fn fig1(jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    run_scenario("fig1", PolicyConfig::default(), jobs)
}

fn fig2(jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    run_scenario("fig2", PolicyConfig::default(), jobs)
}

fn table5(jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    run_scenario("table5", PolicyConfig::default(), jobs)
}

/// Standing far-out timers kept pending through the whole queue mix. The
/// kernel's queue always carries a backlog of per-CPU quantum timers,
/// daemon wakeups, and I/O timeouts that rarely fire; the near-term
/// churn happens on top of it, so a near-empty queue would flatter the
/// measurement.
const QUEUE_MIX_STANDING: u64 = 4096;

/// Push/pop/cancel microloop against the event queue, run over a
/// standing backlog of `QUEUE_MIX_STANDING` pending timers.
fn queue_microloop(ops: u64) -> f64 {
    let mut q = EventQueue::new();
    // The backlog: timers 4 ms apart starting at 20 virtual seconds, far
    // past every timestamp the mix itself pops.
    for i in 0..QUEUE_MIX_STANDING {
        q.schedule(SimTime::from_nanos(20_000_000_000 + i * 4_000_000), !i);
    }
    let start = Instant::now();
    let mut sum = 0u64;
    let mut tokens = Vec::with_capacity(64);
    for round in 0..ops / 64 {
        tokens.clear();
        // Each round's window sits above the previous round's times so the
        // pops never leave `now` ahead of a later schedule.
        let base = (round + 1) * 200_000;
        for i in 0..64u64 {
            let t = round * 64 + i;
            tokens.push(q.schedule(SimTime::from_nanos(base + t * 7919 % 100_000), t));
        }
        // Cancel a quarter eagerly, pop the rest.
        for tok in tokens.iter().step_by(4) {
            q.cancel(*tok);
        }
        for _ in 0..48 {
            if let Some((_, v)) = q.pop() {
                sum += v;
            }
        }
    }
    std::hint::black_box(sum);
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Runs a deterministic measurement `n` times and keeps the fastest run.
/// The single-shot system measurements here last ~0.1 host seconds, which
/// on the one-core reference box swings by tens of percent with
/// first-touch page faults and frequency ramp; minimum time over a few
/// repeats is the standard low-noise estimator when every run performs
/// identical work.
fn best_of(n: usize, mut run: impl FnMut() -> EngineThroughput) -> EngineThroughput {
    let mut best = run();
    for _ in 1..n {
        let r = run();
        if r.host_seconds < best.host_seconds {
            best = r;
        }
    }
    best
}

/// Result of a thread-churn run: lifecycle throughput plus the resident
/// slab footprint read back from the runtime after completion.
struct ChurnResult {
    host_seconds: f64,
    sim_events: u64,
    slab: sa_kernel::upcall::TcbSlabStats,
}

/// Churns `total` short-lived user threads through one scheduler-
/// activation application with at most `window` alive at once (see
/// `sa_workload::synthetic::thread_churn`): every thread is forked,
/// dispatched, requeued once (yield), exited, and its TCB recycled.
/// Peak slab residency is bounded by the window, so `total` can be 10⁶
/// while memory stays flat — the property the `bytes_per_thread` line
/// gates.
fn thread_churn_run(total: usize, window: usize) -> ChurnResult {
    let body = sa_workload::synthetic::thread_churn(total, window, SimDuration::from_micros(2));
    let mut sys = SystemBuilder::new(4)
        .cost(CostModel::firefly_prototype())
        .seed(7)
        .run_limit(SimTime::from_millis(3_600_000))
        .app(AppSpec::new(
            "thread-churn",
            ThreadApi::SchedulerActivations { max_processors: 4 },
            body,
        ))
        .build();
    let start = Instant::now();
    let report = sys.run();
    let host_seconds = start.elapsed().as_secs_f64();
    assert!(report.all_done(), "thread churn: {:?}", report.outcome);
    let app = sys.apps()[0];
    let slab = sys
        .tcb_slab_stats(app)
        .expect("FastThreads app reports slab stats");
    ChurnResult {
        host_seconds,
        sim_events: sys.kernel().kernel_metrics().events.get(),
        slab,
    }
}

/// Hot TCB bytes per live thread the churn smoke tolerates: well above
/// the ~60 B the paged hot slab costs today, far below any per-thread
/// boxed layout (a single `Box` per TCB already blows this on page
/// granularity alone). The `thread_churn_1m` acceptance bound.
const CHURN_HOT_BYTES_PER_THREAD_LIMIT: f64 = 256.0;

/// The `churn` subcommand: run the 10⁶-thread lifecycle stress and
/// enforce the memory-layout acceptance bound. CI wraps this in
/// `timeout` for the time bound; the RSS line lets it bound peak memory
/// without an external `time -v`.
fn churn_cmd() -> Result<(), PanickedJob> {
    const TOTAL: usize = 1_000_000;
    const WINDOW: usize = 8_192;
    let r = thread_churn_run(TOTAL, WINDOW);
    let per_thread = r.slab.hot_bytes as f64 / r.slab.rows as f64;
    println!(
        "thread churn: {TOTAL} threads (window {WINDOW}) in {:.3}s ({:.0} threads/s; {} events)",
        r.host_seconds,
        TOTAL as f64 / r.host_seconds,
        r.sim_events
    );
    println!(
        "slab: peak rows {}; hot {} B ({per_thread:.0} B/thread); total {} B",
        r.slab.rows, r.slab.hot_bytes, r.slab.total_bytes
    );
    if let Some(kb) = peak_rss_kb() {
        println!("peak rss: {kb} kB");
    }
    if per_thread > CHURN_HOT_BYTES_PER_THREAD_LIMIT {
        eprintln!(
            "churn: hot TCB footprint {per_thread:.0} B/thread exceeds the \
             {CHURN_HOT_BYTES_PER_THREAD_LIMIT:.0} B bound — per-thread state \
             has regressed toward boxed layouts"
        );
        std::process::exit(1);
    }
    Ok(())
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Engine throughput harness: a Figure 1-sized N-body system run plus
/// the queue microloop and the host-parallel grid sweep, reported
/// in host events (or ops) per second and written to `BENCH_engine.json`
/// for tracking across commits.
fn engine_bench(jobs: NonZeroUsize) -> Result<(), PanickedJob> {
    let cost = CostModel::firefly_prototype();
    let cfg = NBodyConfig::default();
    println!("Engine throughput (host-side; virtual-time results unaffected)");

    let mut lines: Vec<BenchLine> = Vec::new();

    // Whole-system run: the paper's Figure 1 workload at 6 processors
    // under scheduler activations — the end-to-end number. These
    // measurements stay serial on an otherwise-idle host (best of three
    // repeats, see `best_of`) so the numbers track engine changes, not
    // co-scheduled sweep noise or warm-up artifacts.
    let r = best_of(3, || {
        sa_core::experiments::engine_throughput(
            ThreadApi::SchedulerActivations { max_processors: 6 },
            6,
            cfg.clone(),
            cost.clone(),
            1,
        )
    });
    lines.push(BenchLine::new(
        "system_nbody_fig1_sa",
        r.events_per_sec(),
        format!("{} events in {:.3}s", r.sim_events, r.host_seconds),
    ));

    // Dispatch-heavy run: one processor, forcing the upcall/ready-queue
    // machinery through many more scheduling decisions per unit work.
    let r1 = best_of(3, || {
        sa_core::experiments::engine_throughput(
            ThreadApi::SchedulerActivations { max_processors: 1 },
            1,
            NBodyConfig {
                bodies: cfg.bodies / 2,
                ..cfg.clone()
            },
            cost.clone(),
            1,
        )
    });
    lines.push(BenchLine::new(
        "system_nbody_dispatch_1cpu",
        r1.events_per_sec(),
        format!("{} events in {:.3}s", r1.sim_events, r1.host_seconds),
    ));

    // Tracing overhead: the same dispatch-heavy run with the disabled
    // tracer (the default everywhere) vs an unbounded recording one. The
    // disabled number is the regression guard — `Trace::event` takes a
    // closure precisely so a disabled sink never formats anything.
    let small = NBodyConfig {
        bodies: cfg.bodies / 2,
        ..cfg.clone()
    };
    let td = best_of(3, || {
        sa_core::experiments::engine_throughput_traced(
            ThreadApi::SchedulerActivations { max_processors: 6 },
            6,
            small.clone(),
            cost.clone(),
            1,
            Trace::disabled(),
        )
    });
    let tu = best_of(3, || {
        sa_core::experiments::engine_throughput_traced(
            ThreadApi::SchedulerActivations { max_processors: 6 },
            6,
            small.clone(),
            cost.clone(),
            1,
            Trace::unbounded(),
        )
    });
    lines.push(BenchLine::new(
        "tracing_overhead",
        td.events_per_sec(),
        format!(
            "disabled {:.0}/s vs unbounded {:.0}/s ({:.2}x slower recording)",
            td.events_per_sec(),
            tu.events_per_sec(),
            td.events_per_sec() / tu.events_per_sec()
        ),
    ));

    // Queue microloop on the cancel-heavy push/cancel/pop mix, best of
    // three repeats.
    const QOPS: u64 = 2_000_000;
    let queue = (0..3).map(|_| queue_microloop(QOPS)).fold(0f64, f64::max);
    lines.push(BenchLine::new(
        "queue_mix_wheel",
        queue,
        format!("{QOPS} scheduled"),
    ));

    // Thread-lifecycle churn: 10⁶ short-lived threads through one
    // scheduler-activation app with an 8192-thread live window. The
    // throughput line tracks the full TCB lifecycle (fork, dispatch,
    // yield requeue, exit, recycle); the `bytes_per_thread` line is the
    // resident hot-slab footprint per peak-live thread — flat paged-slab
    // storage, not proportional to the million threads spawned. Names
    // starting with `bytes_` are lower-is-better in `sa-bench-check`.
    const CHURN_TOTAL: usize = 1_000_000;
    const CHURN_WINDOW: usize = 8_192;
    let churn = thread_churn_run(CHURN_TOTAL, CHURN_WINDOW);
    lines.push(BenchLine::new(
        "thread_churn_1m",
        CHURN_TOTAL as f64 / churn.host_seconds,
        format!(
            "{CHURN_TOTAL} threads (window {CHURN_WINDOW}) in {:.3}s; {} events; peak rows {}",
            churn.host_seconds, churn.sim_events, churn.slab.rows
        ),
    ));
    lines.push(BenchLine::new(
        "bytes_per_thread",
        churn.slab.hot_bytes as f64 / churn.slab.rows as f64,
        format!(
            "hot slab {} B / {} peak-live rows (total slab {} B); lower is better",
            churn.slab.hot_bytes, churn.slab.rows, churn.slab.total_bytes
        ),
    ));

    // Open-loop SLO server: the `slo` subcommand's scheduler-activation
    // cell at a reduced request count — request throughput of the
    // sharded open-loop machinery with the production windowed ledger
    // enabled. The companion line measures the windowed ledger itself:
    // the identical run with metrics off, interleaved best-of-3 against
    // the metrics-on run so host drift cannot skew the pairing. Its
    // detail carries the on/off host-time overhead ratio, asserted
    // <= 1.10 in CI: per-window accounting must stay under 10% of the
    // whole run's cost.
    const SLO_REQUESTS: usize = 20_000;
    let slo_profile = slo::profiles()
        .into_iter()
        .next()
        .expect("slo profiles exist");
    let mut slo_on: Option<slo::SloBenchRun> = None;
    let mut slo_off: Option<slo::SloBenchRun> = None;
    for _ in 0..3 {
        let on = slo::bench_run(&slo_profile, SLO_REQUESTS, true);
        if slo_on
            .as_ref()
            .is_none_or(|b| on.host_seconds < b.host_seconds)
        {
            slo_on = Some(on);
        }
        let off = slo::bench_run(&slo_profile, SLO_REQUESTS, false);
        if slo_off
            .as_ref()
            .is_none_or(|b| off.host_seconds < b.host_seconds)
        {
            slo_off = Some(off);
        }
    }
    let (slo_on, slo_off) = (
        slo_on.expect("three rounds ran"),
        slo_off.expect("three rounds ran"),
    );
    let (on_rps, off_rps) = (
        slo_on.requests as f64 / slo_on.host_seconds,
        slo_off.requests as f64 / slo_off.host_seconds,
    );
    lines.push(BenchLine::new(
        "server_slo_throughput",
        on_rps,
        format!(
            "{} requests ({}) in {:.3}s; {} events; windowed ledger on",
            slo_on.requests, slo_profile.name, slo_on.host_seconds, slo_on.sim_events
        ),
    ));
    lines.push(BenchLine::new(
        "slo_windowed_overhead",
        off_rps,
        format!(
            "metrics-off {off_rps:.0} req/s vs on {on_rps:.0} req/s \
             (overhead ratio {:.3}x; interleaved best-of-3)",
            slo_on.host_seconds / slo_off.host_seconds
        ),
    ));

    // Decision-provenance overhead: the same cell with the allocator's
    // decision log + dwell ledger on vs off (both without the windowed
    // ledger, so the pairing isolates provenance record-keeping).
    // Decision ids advance in both shapes — only record-keeping differs —
    // and CI asserts the detail's overhead ratio stays <= 1.10.
    let mut audit_on: Option<slo::SloBenchRun> = None;
    let mut audit_off: Option<slo::SloBenchRun> = None;
    for _ in 0..3 {
        let on = slo::bench_run_with(&slo_profile, SLO_REQUESTS, false, true);
        if audit_on
            .as_ref()
            .is_none_or(|b| on.host_seconds < b.host_seconds)
        {
            audit_on = Some(on);
        }
        let off = slo::bench_run_with(&slo_profile, SLO_REQUESTS, false, false);
        if audit_off
            .as_ref()
            .is_none_or(|b| off.host_seconds < b.host_seconds)
        {
            audit_off = Some(off);
        }
    }
    let (audit_on, audit_off) = (
        audit_on.expect("three rounds ran"),
        audit_off.expect("three rounds ran"),
    );
    let audit_off_rps = audit_off.requests as f64 / audit_off.host_seconds;
    lines.push(BenchLine::new(
        "audit_overhead",
        audit_off_rps,
        format!(
            "audit-off {audit_off_rps:.0} req/s vs on {:.0} req/s \
             (overhead ratio {:.3}x; interleaved best-of-3)",
            audit_on.requests as f64 / audit_on.host_seconds,
            audit_on.host_seconds / audit_off.host_seconds
        ),
    ));

    // Host-parallel sweep: the whole Figure 1 grid (18 independent cells)
    // at one worker vs. `jobs` workers — the scaling number this harness
    // tracks over time. Virtual-time results are identical at any job
    // count; only host wall-clock changes.
    let serial = fig1_grid_throughput(&cfg, &cost, 1, NonZeroUsize::MIN)?;
    let parallel = fig1_grid_throughput(&cfg, &cost, 1, jobs)?;
    lines.push(BenchLine::new(
        "sweep_fig1_grid",
        parallel.events_per_sec(),
        format!(
            "{} cells; jobs=1 {:.3}s; jobs={} {:.3}s; speedup {:.2}x",
            parallel.cells,
            serial.host_seconds,
            parallel.jobs,
            parallel.host_seconds,
            serial.host_seconds / parallel.host_seconds
        ),
    ));

    for l in &lines {
        println!(
            "  {:<28} {:>14.0} /sec   ({})",
            l.name, l.ops_per_sec, l.detail
        );
    }

    // Record host context so absolute numbers and the sweep's speedup
    // line are interpretable across machines: on the 1-core reference
    // container, "speedup 0.94x" is the expected ceiling, not a
    // regression.
    let host = HostInfo::detect(
        "containerized reference box; sweep speedup is bounded by available cores",
    );
    println!("  host cores: {} ({})", host.cores, host.note);

    let path = "BENCH_engine.json";
    match write_bench_json_with_host(path, &lines, &host) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    Ok(())
}

/// Runs a traced scenario and exports the result.
///
/// Any registry scenario is traceable: the system runs the scenario's
/// scaled-down [`scenario::traced_apps`] workload (150-body one-step
/// N-body copies, the closed server, or the open-loop SLO generator at
/// a reduced request count) under scheduler activations, so an
/// *unbounded* trace of every segment stays a reasonable size.
fn trace_cmd(
    scenario: &str,
    format: &str,
    out: Option<&str>,
    policies: PolicyConfig,
) -> Result<(), PanickedJob> {
    let Some(sc) = scenario::find(scenario) else {
        let names: Vec<&str> = scenario::SCENARIOS.iter().map(|s| s.name).collect();
        eprintln!(
            "sa-experiments: unknown trace scenario '{scenario}' (expected {})",
            names.join("|")
        );
        std::process::exit(2);
    };
    // Machine size and workload shape from the scenario descriptor, not
    // local constants.
    let cpus = sc.cpus;
    let mut builder = SystemBuilder::new(cpus)
        .cost(CostModel::firefly_prototype())
        .seed(0x5eed)
        .alloc_policy(policies.alloc)
        .daemons(DaemonSpec::topaz_default_set())
        .trace(Trace::unbounded());
    let mut app_names = Vec::new();
    for mut app in scenario::traced_apps(
        sc,
        &ThreadApi::SchedulerActivations {
            max_processors: cpus as u32,
        },
    ) {
        app.ready_policy = policies.ready;
        app_names.push(app.name.clone());
        builder = builder.app(app);
    }
    let mut sys = builder.build();
    let report = sys.run();
    assert!(report.all_done(), "trace scenario: {:?}", report.outcome);
    let output = match format {
        "perfetto" => perfetto_json(sys.kernel().trace(), cpus),
        "log" => text_log(sys.kernel().trace()),
        "histograms" => {
            let mut t = Table::new(&["app", "metric", "value"])
                .align_left(1)
                .align_left(2);
            for (i, &app) in sys.apps().to_vec().iter().enumerate() {
                let m = sys.metrics(app);
                let name = app_names[i].clone();
                for kind in UpcallKind::ALL {
                    t.row(vec![
                        name.clone(),
                        format!("upcalls[{kind}]"),
                        m.upcalls(kind).to_string(),
                    ]);
                }
                t.row(vec![
                    name.clone(),
                    "upcall_delivery".to_string(),
                    m.upcall_delivery.summary(),
                ]);
                t.row(vec![
                    name.clone(),
                    "block_unblock".to_string(),
                    m.block_unblock.summary(),
                ]);
                t.row(vec![name, "runtime".to_string(), sys.runtime_stats(app)]);
            }
            t.render()
        }
        other => {
            eprintln!(
                "sa-experiments: unknown trace format '{other}' (expected perfetto|log|histograms)"
            );
            std::process::exit(2);
        }
    };
    let records = sys.kernel().trace().records().count();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &output) {
                eprintln!("sa-experiments: could not write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path} ({format}, {records} trace records)");
        }
        None => print!("{output}"),
    }
    Ok(())
}

/// Runs the where-the-time-goes profiler and exports the result.
fn profile_cmd(
    scenario: &str,
    format: &str,
    out: Option<&str>,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<(), PanickedJob> {
    let profile = match run_profile_with(scenario, policies, jobs) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("sa-experiments: {msg}");
            std::process::exit(2);
        }
    };
    let output = match format {
        "table" => render_table(&profile),
        "folded" => render_folded(&profile),
        "json" => render_json(&profile),
        other => {
            eprintln!(
                "sa-experiments: unknown profile format '{other}' (expected table|folded|json)"
            );
            std::process::exit(2);
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &output) {
                eprintln!("sa-experiments: could not write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path} ({format}, {} cells)", profile.cells.len());
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn list_slo_profiles() {
    for p in slo::profiles() {
        println!(
            "{:<12} {:>2} cpus  {} windows  {}",
            p.name, p.cpus, p.window, p.about
        );
    }
}

/// The `slo` subcommand: run an SLO profile under the three systems and
/// export the windowed series, tail attribution, and reconciliation.
fn slo_cmd(
    profile: &str,
    format: &str,
    out: Option<&str>,
    requests: Option<usize>,
    spaces: Option<u32>,
    policies: PolicyConfig,
    jobs: NonZeroUsize,
) -> Result<(), PanickedJob> {
    let Some(mut p) = slo::find(profile) else {
        let names: Vec<&str> = slo::profiles().iter().map(|p| p.name).collect();
        eprintln!(
            "sa-experiments: unknown SLO profile '{profile}' (expected {})",
            names.join("|")
        );
        std::process::exit(2);
    };
    if let Some(n) = spaces {
        p.cfg.fan_spaces(n);
    }
    let report = slo::run_slo(&p, policies, requests, jobs)?;
    let output = match format {
        "table" => slo::render_table(&report),
        "csv" => slo::render_csv(&report),
        "perfetto" => perfetto_counters_json(&slo::counter_series(&report)),
        other => {
            eprintln!("sa-experiments: unknown slo format '{other}' (expected table|csv|perfetto)");
            std::process::exit(2);
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &output) {
                eprintln!("sa-experiments: could not write {path}: {e}");
                std::process::exit(1);
            }
            let windows: usize = report.cells.iter().map(|c| c.windows.len()).sum();
            println!(
                "wrote {path} ({format}, {} systems, {windows} windows)",
                report.cells.len()
            );
            // The report itself is deterministic and lands in the file;
            // the host-side footprint line lets CI bound peak RSS
            // without an external `time -v`.
            if let Some(kb) = peak_rss_kb() {
                println!("peak rss: {kb} kB");
            }
        }
        None => print!("{output}"),
    }
    Ok(())
}

/// The `audit` subcommand: run the scheduler-activation cell of an SLO
/// profile with decision provenance on and export the decision/dwell/
/// tail join (see `sa_core::audit`).
fn audit_cmd(
    profile: &str,
    format: &str,
    out: Option<&str>,
    requests: Option<usize>,
    spaces: Option<u32>,
    policies: PolicyConfig,
) -> Result<(), PanickedJob> {
    let Some(mut p) = slo::find(profile) else {
        let names: Vec<&str> = slo::profiles().iter().map(|p| p.name).collect();
        eprintln!(
            "sa-experiments: unknown SLO profile '{profile}' (expected {})",
            names.join("|")
        );
        std::process::exit(2);
    };
    if let Some(n) = spaces {
        p.cfg.fan_spaces(n);
    }
    let report = run_audit(&p, policies, requests);
    let output = match format {
        "table" => render_audit_table(&report),
        "csv" => render_audit_csv(&report),
        "perfetto" => perfetto_counters_json(&audit_counter_series(&report)),
        other => {
            eprintln!(
                "sa-experiments: unknown audit format '{other}' (expected table|csv|perfetto)"
            );
            std::process::exit(2);
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &output) {
                eprintln!("sa-experiments: could not write {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "wrote {path} ({format}, {} decisions, {} tail spans)",
                report.decisions.total,
                report.tail.len()
            );
            if let Some(kb) = peak_rss_kb() {
                println!("peak rss: {kb} kB");
            }
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn usage() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: sa-experiments [--jobs N] [--list] [{}]\n\
         \u{20}      sa-experiments run <scenario> [--alloc=POLICY] [--ready=POLICY]\n\
         \u{20}      sa-experiments run --list\n\
         \u{20}      sa-experiments trace <scenario> [--alloc=P] [--ready=P] [--out FILE] \
         [--format perfetto|log|histograms]\n\
         \u{20}      sa-experiments profile <scenario> [--alloc=P] [--ready=P] [--out FILE] \
         [--format table|folded|json]\n\
         \u{20}      sa-experiments slo <profile> [--requests N] [--spaces N] [--out FILE] \
         [--format table|csv|perfetto]\n\
         \u{20}      sa-experiments audit <profile> [--alloc=P] [--ready=P] [--requests N] \
         [--spaces N] [--out FILE] [--format table|csv|perfetto]\n\
         \u{20}      sa-experiments slo --list\n\
         \n\
         --jobs N     run sweep cells on N host threads (default: host cores,\n\
         \u{20}             or the SA_JOBS environment variable); --jobs 1 is fully serial\n\
         --alloc P    kernel processor-allocation policy ({})\n\
         --ready P    user-level ready-queue discipline ({})\n\
         --requests N override the SLO profile's request count (quick runs)\n\
         --spaces N   fan the SLO generator across N address spaces (aggregate\n\
         \u{20}             arrival rate preserved; exercises the processor allocator)\n\
         --list       list subcommands (or, after 'run'/'slo', scenarios) and exit",
        names.join("|"),
        AllocPolicyKind::ALL.map(|k| k.name()).join("|"),
        ReadyPolicyKind::ALL.map(|k| k.name()).join("|"),
    )
}

/// Parsed command line: worker count, one subcommand, and the `trace`
/// subcommand's scenario/output options.
struct Options {
    jobs: NonZeroUsize,
    cmd: String,
    /// Second positional argument (the `trace`/`profile`/`run` scenario).
    arg: Option<String>,
    out: Option<String>,
    format: Option<String>,
    /// Request-count override for the `slo` subcommand.
    requests: Option<usize>,
    /// Address-space fan-out override for the `slo` and `audit`
    /// subcommands.
    spaces: Option<u32>,
    /// Policy pair for the `run` and `slo` subcommands.
    policies: PolicyConfig,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut jobs: Option<NonZeroUsize> = None;
    let mut cmd: Option<String> = None;
    let mut arg2: Option<String> = None;
    let mut out: Option<String> = None;
    let mut format: Option<String> = None;
    let mut requests: Option<usize> = None;
    let mut spaces: Option<u32> = None;
    let mut alloc: Option<AllocPolicyKind> = None;
    let mut ready: Option<ReadyPolicyKind> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--list" {
            if cmd.as_deref() == Some("run") {
                list_scenarios();
            } else if cmd.as_deref() == Some("slo") {
                list_slo_profiles();
            } else {
                for (name, blurb) in SUBCOMMANDS {
                    println!("{name:<14} {blurb}");
                }
            }
            return Ok(None);
        } else if arg == "--requests" {
            let value = args
                .next()
                .ok_or_else(|| "--requests requires a count (e.g. --requests 20000)".to_string())?;
            requests = Some(parse_requests(&value)?);
        } else if let Some(value) = arg.strip_prefix("--requests=") {
            requests = Some(parse_requests(value)?);
        } else if arg == "--spaces" {
            let value = args
                .next()
                .ok_or_else(|| "--spaces requires a count (e.g. --spaces 200)".to_string())?;
            spaces = Some(parse_spaces(&value)?);
        } else if let Some(value) = arg.strip_prefix("--spaces=") {
            spaces = Some(parse_spaces(value)?);
        } else if arg == "--alloc" {
            let value = args
                .next()
                .ok_or_else(|| "--alloc requires a value (e.g. --alloc affinity)".to_string())?;
            alloc = Some(value.parse().map_err(|e| format!("--alloc: {e}"))?);
        } else if let Some(value) = arg.strip_prefix("--alloc=") {
            alloc = Some(value.parse().map_err(|e| format!("--alloc: {e}"))?);
        } else if arg == "--ready" {
            let value = args
                .next()
                .ok_or_else(|| "--ready requires a value (e.g. --ready global-fifo)".to_string())?;
            ready = Some(value.parse().map_err(|e| format!("--ready: {e}"))?);
        } else if let Some(value) = arg.strip_prefix("--ready=") {
            ready = Some(value.parse().map_err(|e| format!("--ready: {e}"))?);
        } else if arg == "--jobs" {
            let value = args
                .next()
                .ok_or_else(|| "--jobs requires a value (e.g. --jobs 4)".to_string())?;
            jobs = Some(parse_jobs(&value).map_err(|e| format!("--jobs: {e}"))?);
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            jobs = Some(parse_jobs(value).map_err(|e| format!("--jobs: {e}"))?);
        } else if arg == "--out" {
            out = Some(
                args.next()
                    .ok_or_else(|| "--out requires a path (e.g. --out trace.json)".to_string())?,
            );
        } else if let Some(value) = arg.strip_prefix("--out=") {
            out = Some(value.to_string());
        } else if arg == "--format" {
            format = Some(args.next().ok_or_else(|| {
                "--format requires a value (perfetto|log|histograms)".to_string()
            })?);
        } else if let Some(value) = arg.strip_prefix("--format=") {
            format = Some(value.to_string());
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag '{arg}'"));
        } else if cmd.is_none() {
            cmd = Some(arg);
        } else if arg2.is_none()
            && matches!(
                cmd.as_deref(),
                Some("trace") | Some("profile") | Some("run") | Some("slo") | Some("audit")
            )
        {
            arg2 = Some(arg);
        } else {
            return Err(format!("unexpected extra argument '{arg}'"));
        }
    }
    if (out.is_some() || format.is_some())
        && !matches!(
            cmd.as_deref(),
            Some("trace") | Some("profile") | Some("slo") | Some("audit")
        )
    {
        return Err(
            "--out/--format only apply to the 'trace', 'profile', 'slo', and 'audit' subcommands"
                .to_string(),
        );
    }
    if (alloc.is_some() || ready.is_some())
        && !matches!(
            cmd.as_deref(),
            Some("run") | Some("slo") | Some("trace") | Some("profile") | Some("audit")
        )
    {
        return Err(
            "--alloc/--ready only apply to the 'run', 'slo', 'trace', 'profile', and \
             'audit' subcommands"
                .to_string(),
        );
    }
    if requests.is_some() && !matches!(cmd.as_deref(), Some("slo") | Some("audit")) {
        return Err("--requests only applies to the 'slo' and 'audit' subcommands".to_string());
    }
    if spaces.is_some() && !matches!(cmd.as_deref(), Some("slo") | Some("audit")) {
        return Err("--spaces only applies to the 'slo' and 'audit' subcommands".to_string());
    }
    if cmd.as_deref() == Some("run") && arg2.is_none() {
        return Err("run requires a scenario name ('run --list' lists them)".to_string());
    }
    // The flag wins over the environment; the environment over the host.
    let jobs = match jobs {
        Some(j) => j,
        None => jobs_from_env()?,
    };
    Ok(Some(Options {
        jobs,
        cmd: cmd.unwrap_or_else(|| "all".to_string()),
        arg: arg2,
        out,
        format,
        requests,
        spaces,
        policies: PolicyConfig {
            alloc: alloc.unwrap_or_default(),
            ready: ready.unwrap_or_default(),
        },
    }))
}

fn parse_requests(v: &str) -> Result<usize, String> {
    let n: usize = v
        .parse()
        .map_err(|_| format!("--requests: '{v}' is not a count"))?;
    if n == 0 {
        return Err("--requests: must be at least 1".to_string());
    }
    Ok(n)
}

fn parse_spaces(v: &str) -> Result<u32, String> {
    let n: u32 = v
        .parse()
        .map_err(|_| format!("--spaces: '{v}' is not a count"))?;
    if n == 0 {
        return Err("--spaces: must be at least 1".to_string());
    }
    Ok(n)
}

fn run(opts: &Options) -> Result<(), PanickedJob> {
    let jobs = opts.jobs;
    match opts.cmd.as_str() {
        "table1" => table1(jobs),
        "table4" => table4(jobs),
        "upcall" => upcall(jobs),
        "fig1" => fig1(jobs),
        "fig2" => fig2(jobs),
        "table5" => table5(jobs),
        "engine-bench" => engine_bench(jobs),
        "churn" => churn_cmd(),
        "run" => run_scenario(
            opts.arg.as_deref().expect("checked during parsing"),
            opts.policies,
            jobs,
        ),
        "trace" => trace_cmd(
            opts.arg.as_deref().unwrap_or("fig1"),
            opts.format.as_deref().unwrap_or("perfetto"),
            opts.out.as_deref(),
            opts.policies,
        ),
        "profile" => profile_cmd(
            opts.arg.as_deref().unwrap_or("fig1"),
            opts.format.as_deref().unwrap_or("table"),
            opts.out.as_deref(),
            opts.policies,
            jobs,
        ),
        "slo" => slo_cmd(
            opts.arg.as_deref().unwrap_or("slo_poisson"),
            opts.format.as_deref().unwrap_or("table"),
            opts.out.as_deref(),
            opts.requests,
            opts.spaces,
            opts.policies,
            jobs,
        ),
        "audit" => audit_cmd(
            opts.arg.as_deref().unwrap_or("slo_poisson"),
            opts.format.as_deref().unwrap_or("table"),
            opts.out.as_deref(),
            opts.requests,
            opts.spaces,
            opts.policies,
        ),
        "all" => {
            table1(jobs)?;
            println!();
            table4(jobs)?;
            println!();
            upcall(jobs)?;
            println!();
            fig1(jobs)?;
            println!();
            fig2(jobs)?;
            println!();
            table5(jobs)
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    }
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => return, // --list
        Err(msg) => {
            eprintln!("sa-experiments: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(panicked) = run(&opts) {
        eprintln!("sa-experiments: {panicked}");
        std::process::exit(1);
    }
}
