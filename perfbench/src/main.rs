//! Host-cost benchmark of the simulator.
//!
//! ```text
//! perfbench --workload <paper|slo|churn> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! A run repeats one workload ("passes"), one cell at a time on this
//! thread, for `--seconds` of host time and reports quartiles over the
//! passes. Every pass checks its output: at the default seed against the
//! committed goldens and recorded digests, at any other seed against the
//! run's first pass. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes and prints the
//! per-layer metrics. The last stdout line is one JSON object.

mod alloc_count;
mod cells;
mod folds;
mod hostref;
mod probe;
mod queue;
mod wrap;

use cells::{Cell, Committed, Finished, Out, Workload, DEFAULT_SEED, WORKLOADS};
use probe::{Layer, LayerStat, ProbeCost, LAYERS};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` (linear between order statistics).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// What one cell's simulation must reproduce in every pass, traced or
/// not: per-application elapsed nanoseconds and the event count.
type Sim = (Vec<u64>, u64);

/// One pass over a workload.
#[derive(Default)]
struct Pass {
    wall_ns: u64,
    setup_ns: u64,
    run_ns: u64,
    /// The same three host times scaled to the reference speed (see
    /// `hostref`); equal to them when the pass was not metered.
    scaled: Times,
    events: u64,
    allocs: u64,
    cells: usize,
    failed: usize,
    digests: BTreeMap<&'static str, u64>,
    sims: Vec<Option<Sim>>,
    // Traced passes only.
    layers: [LayerStat; LAYERS],
    layer_allocs: [u64; LAYERS],
    picks: u64,
    steals: u64,
    fold_ns: u64,
    upcalls: u64,
    reallocations: u64,
    slab_hot_bytes: u64,
    slab_rows: u64,
}

/// Wall, set-up and run nanoseconds.
#[derive(Default, Clone, Copy)]
struct Times {
    wall: f64,
    setup: f64,
    run: f64,
}

struct CellRun {
    out: Out,
    setup_ns: u64,
    run_ns: u64,
    sim: Sim,
    upcalls: u64,
    reallocations: u64,
    slab_hot_bytes: u64,
    slab_rows: u64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A cell's machine, built through `SystemBuilder` or with every layer
/// boundary wrapped.
enum Built {
    Plain(sa_core::System),
    Probed(sa_kernel::Kernel, Vec<sa_kernel::AsId>),
}

/// Runs one cell: constructors and build (set-up), the run, the fold.
/// Panics, timeouts and deadlocks all unwind out of here.
fn run_cell(cell: Cell, traced: bool) -> CellRun {
    let t0 = Instant::now();
    let (spec, finish) = cell();
    let mut built = if traced {
        let (k, spaces) = spec.build_probed();
        Built::Probed(k, spaces)
    } else {
        Built::Plain(spec.build())
    };
    let t1 = Instant::now();
    let outcome = match &mut built {
        Built::Probed(k, _) => probe::span(Layer::Kernel, || k.run()),
        Built::Plain(sys) => sys.run().outcome,
    };
    let run_ns = ns(t1.elapsed());
    let (kernel, spaces) = match &built {
        Built::Probed(k, spaces) => (k, spaces.clone()),
        Built::Plain(sys) => (sys.kernel(), cells::app_spaces(sys)),
    };
    assert!(
        !outcome.timed_out && !outcome.deadlocked,
        "cell did not finish: {outcome:?}"
    );
    let elapsed: Vec<u64> = spaces
        .iter()
        .map(|&s| {
            let e = kernel.space_elapsed(s).expect("every application finished");
            e.as_nanos()
        })
        .collect();
    let finished = Finished {
        kernel,
        spaces: &spaces,
        end: outcome.end,
    };
    let out = if traced {
        probe::span(Layer::Report, || finish(&finished))
    } else {
        finish(&finished)
    };
    let m = kernel.kernel_metrics();
    let upcalls = spaces
        .iter()
        .map(|&s| {
            let sm = kernel.space_metrics(s);
            sa_sim::UpcallKind::ALL
                .iter()
                .map(|&k| sm.upcalls(k))
                .sum::<u64>()
        })
        .sum();
    let slabs: Vec<_> = spaces
        .iter()
        .filter_map(|&s| kernel.runtime_tcb_slab_stats(s))
        .collect();
    CellRun {
        out,
        setup_ns: ns(t1.duration_since(t0)),
        run_ns,
        sim: (elapsed, m.events.get()),
        upcalls,
        reallocations: m.reallocations.get(),
        slab_hot_bytes: slabs.iter().map(|st| st.hot_bytes as u64).sum(),
        slab_rows: slabs.iter().map(|st| st.rows as u64).sum(),
    }
}

/// Runs every cell of `wl`, renders and checks each output: against the
/// committed outputs when `committed` is set, else against `reference`'s
/// digests (if any). With a `meter`, the host-speed reference is sampled
/// before the first cell and after each one, outside the pass's times,
/// and each cell's times are scaled by the samples either side of it.
fn run_pass(
    wl: Workload,
    committed: bool,
    traced: bool,
    reference: Option<&Pass>,
    mut meter: Option<&mut hostref::Meter>,
) -> Pass {
    let mut p = Pass::default();
    probe::reset();
    folds::take_fold_ns();
    let mut sample = || meter.as_mut().map_or(hostref::NOMINAL_NS, |m| m.sample());
    let allocs0 = alloc_count::snapshot();
    let mut before = sample();
    let mut mark = Instant::now();
    let mut outs: Vec<Option<Out>> = Vec::new();
    for cell in wl.cells {
        p.cells += 1;
        let r = catch_unwind(AssertUnwindSafe(|| run_cell(cell, traced)));
        let cell_wall = mark.elapsed().as_nanos() as f64;
        let after = sample();
        mark = Instant::now();
        let speed = 2.0 * hostref::NOMINAL_NS / (before + after);
        before = after;
        p.wall_ns += cell_wall as u64;
        p.scaled.wall += cell_wall * speed;
        match r {
            Ok(r) => {
                p.setup_ns += r.setup_ns;
                p.run_ns += r.run_ns;
                p.scaled.setup += r.setup_ns as f64 * speed;
                p.scaled.run += r.run_ns as f64 * speed;
                p.events += r.sim.1;
                p.upcalls += r.upcalls;
                p.reallocations += r.reallocations;
                p.slab_hot_bytes += r.slab_hot_bytes;
                p.slab_rows += r.slab_rows;
                p.sims.push(Some(r.sim));
                outs.push(Some(r.out));
            }
            Err(_) => {
                probe::reset();
                p.failed += 1;
                p.sims.push(None);
                outs.push(None);
            }
        }
    }
    let mut outs = outs.into_iter();
    for g in wl.groups {
        let group_outs: Option<Vec<Out>> = outs.by_ref().take(g.cells.len()).collect();
        let text = group_outs.and_then(|o| {
            let render = || catch_unwind(AssertUnwindSafe(|| (g.render)(o))).ok();
            if traced {
                probe::span(Layer::Report, render)
            } else {
                render()
            }
        });
        let ok = match &text {
            None => false,
            Some(t) => {
                let d = fnv1a(t.as_bytes());
                p.digests.insert(g.name, d);
                if committed {
                    match g.committed {
                        Committed::Text(want) => t == want,
                        Committed::Digest(want) => d == want,
                    }
                } else {
                    reference.is_none_or(|r| r.digests.get(g.name) == Some(&d))
                }
            }
        };
        if !ok {
            let digest = p.digests.get(g.name).copied().unwrap_or_default();
            eprintln!(
                "perfbench: output '{}' does not match (digest {digest:#018x})",
                g.name
            );
            // Cells that already failed are counted once.
            p.failed += g.cells.clone().filter(|&i| p.sims[i].is_some()).count();
        }
    }
    let tail = mark.elapsed().as_nanos() as f64;
    p.wall_ns += tail as u64;
    p.scaled.wall += tail * hostref::NOMINAL_NS / before;
    let allocs1 = alloc_count::snapshot();
    p.layer_allocs = std::array::from_fn(|i| allocs1[i] - allocs0[i]);
    p.allocs = p.layer_allocs.iter().sum();
    if traced {
        (p.layers, p.picks, p.steals) = probe::take();
    }
    p.fold_ns = folds::take_fold_ns();
    p
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(a) = args.next() {
        if a == "--self-test" {
            return Ok(None);
        }
        let v = args.next().ok_or(format!("{a} needs a value"))?;
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?,
            "--seconds" => {
                seconds = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds must be 1..=600, got {seconds}"));
                }
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                }
            }
            _ => return Err(format!("unknown argument '{a}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn workload(a: &Args) -> Workload {
    cells::workload(&a.workload, a.seed).expect("workload name was validated")
}

/// At the default seed the outputs must equal the committed ones.
fn committed(a: &Args) -> bool {
    a.seed == DEFAULT_SEED
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return self_test(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A panicking cell is reported as a failed cell; one message line is
    // enough.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: cell panicked: {info}")
    }));
    let budget = Duration::from_secs(args.seconds);
    let (attempted, failed, metrics) = if args.trace {
        traced_run(&args, budget)
    } else {
        untraced_run(&args, budget)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    ExitCode::SUCCESS
}

/// Runs passes until the budget is spent, sampling the host-speed
/// reference through each. The first pass warms the
/// allocator and caches: it is checked but not timed, and at least two
/// timed passes follow so every run checks that its outputs repeat.
/// Also returns the peak resident set after the first pass: what one
/// run of the workload in a fresh process needs.
fn timed_passes(a: &Args, budget: Duration) -> (Vec<Pass>, f64) {
    let start = Instant::now();
    let mut meter = hostref::Meter::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_mb = 0.0;
    while passes.len() < 3 || start.elapsed() < budget {
        let p = run_pass(
            workload(a),
            committed(a),
            false,
            passes.first(),
            Some(&mut meter),
        );
        if passes.is_empty() {
            peak_mb = peak_rss_mb();
        }
        passes.push(p);
    }
    (passes, peak_mb)
}

/// Host noise on a shared machine only ever adds time, so each timing
/// is the lower quartile over the timed passes (a rate: the upper), of
/// host time scaled to the reference speed (see `hostref`).
fn untraced_run(a: &Args, budget: Duration) -> (usize, usize, Metrics) {
    let (passes, peak_mb) = timed_passes(a, budget);
    let attempted = passes.iter().map(|p| p.cells).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let timed = &passes[1..];
    let over =
        |q: f64, f: &dyn Fn(&Pass) -> f64| quantile(&timed.iter().map(f).collect::<Vec<_>>(), q);
    // Counts come from the last pass: the first also pays one-time lazy
    // initialisation, every later pass repeats exactly.
    let last = passes.last().expect("at least three passes");
    let mut m = Metrics(Vec::new());
    m.add("wall_s", over(0.25, &|p| p.scaled.wall) / 1e9, "s");
    m.add(
        "events_per_s",
        over(0.75, &|p| ratio(p.events as f64, p.scaled.run / 1e9)),
        "events/s",
    );
    m.add("setup_s", over(0.25, &|p| p.scaled.setup) / 1e9, "s");
    m.add("peak_rss_mb", peak_mb, "MiB");
    m.add(
        "allocs_per_event",
        ratio(last.allocs as f64, last.events as f64),
        "count",
    );
    println!(
        "{} seed {}: {} passes ({} timed), {} cells ({} failed), {} events/pass",
        a.workload,
        a.seed,
        passes.len(),
        timed.len(),
        attempted,
        failed,
        last.events
    );
    println!(
        "unscaled: wall_s {:.6} events_per_s {:.0} setup_s {:.9}; host speed {:.4} of reference",
        over(0.25, &|p| p.wall_ns as f64) / 1e9,
        over(0.75, &|p| ratio(p.events as f64, p.run_ns as f64 / 1e9)),
        over(0.25, &|p| p.setup_ns as f64) / 1e9,
        over(0.5, &|p| p.scaled.wall / p.wall_ns as f64)
    );
    for (n, v, u) in &m.0 {
        println!("  {n:<18} {v:>16.6} {u}");
    }
    (attempted, failed, m)
}

const SINK_PAIRS: usize = 4;

/// Interleaved pairs of the workload's sink cell with one sink off and
/// on, order alternating; returns the median on/off run-time ratio.
fn sink_ratio(a: &Args, windowed: bool, pairs: usize) -> f64 {
    let time = |on: bool| {
        let spec = cells::sink_cell(&a.workload, a.seed, windowed && on, !windowed && on);
        let mut sys = spec.build();
        let t0 = Instant::now();
        let r = sys.run();
        let t = t0.elapsed().as_secs_f64();
        assert!(r.all_done(), "sink cell did not finish");
        t
    };
    let ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (off, on) = if i % 2 == 0 {
                let off = time(false);
                (off, time(true))
            } else {
                let on = time(true);
                (time(false), on)
            };
            on / off
        })
        .collect();
    median(&ratios)
}

fn traced_run(a: &Args, budget: Duration) -> (usize, usize, Metrics) {
    let start = Instant::now();
    let cost: ProbeCost = probe::calibrate();
    // The first pass warms up and is the reference every later pass,
    // traced or not, must reproduce.
    let warm = run_pass(workload(a), committed(a), false, None, None);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    while traced.is_empty() || start.elapsed() < budget {
        traced.push(run_pass(workload(a), committed(a), true, Some(&warm), None));
        plain.push(run_pass(
            workload(a),
            committed(a),
            false,
            Some(&warm),
            None,
        ));
    }
    let all = || std::iter::once(&warm).chain(&plain).chain(&traced);
    let attempted: usize = all().map(|p| p.cells).sum();
    let mut failed: usize = all().map(|p| p.failed).sum();
    // Wrapping must not change what is simulated.
    let reference = &warm.sims;
    for p in plain.iter().chain(&traced) {
        let diverged = p
            .sims
            .iter()
            .zip(reference)
            .filter(|(s, r)| s.is_some() && s != r)
            .count();
        if diverged > 0 {
            eprintln!("perfbench: {diverged} cells simulated differently across passes");
        }
        failed += diverged;
    }
    let queue_ns = queue::ns_per_op(a.seed);
    let mut sink = |windowed| {
        catch_unwind(AssertUnwindSafe(|| sink_ratio(a, windowed, SINK_PAIRS))).unwrap_or_else(
            |_| {
                failed += 1;
                0.0
            },
        )
    };
    let windowed_ratio = sink(true);
    let audit_ratio = sink(false);

    // Layer times are pooled over the traced passes, so the shares of
    // the pooled total sum to 1 exactly; counts are per pass and exact.
    let n = traced.len() as f64;
    let sum = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
    let pooled: [LayerStat; LAYERS] = std::array::from_fn(|i| LayerStat {
        spans: traced.iter().map(|p| p.layers[i].spans).sum(),
        self_ns: traced.iter().map(|p| p.layers[i].self_ns).sum(),
        children: traced.iter().map(|p| p.layers[i].children).sum(),
    });
    let net = |l: Layer| probe::net_ns(&pooled[l as usize], cost);
    const SHARED: [Layer; 6] = [
        Layer::Kernel,
        Layer::Policy,
        Layer::Uthread,
        Layer::Ready,
        Layer::Workload,
        Layer::Report,
    ];
    let total: f64 = SHARED.iter().map(|&l| net(l)).sum();
    let share = |l: Layer| net(l) / total;
    let per_call = |l: Layer| ratio(net(l), pooled[l as usize].spans as f64);
    let last = traced.last().expect("at least one traced pass");
    let spans = |l: Layer| last.layers[l as usize].spans as f64;
    let allocs_per = |l: Layer, n: f64| ratio(last.layer_allocs[l as usize] as f64, n);
    let events = last.events as f64;

    let mut m = Metrics(Vec::new());
    m.add("sim.queue.ns_per_op", queue_ns, "ns/op");
    m.add("kernel.share", share(Layer::Kernel), "fraction");
    m.add(
        "kernel.ns_per_event",
        ratio(net(Layer::Kernel), sum(&|p| p.events as f64)),
        "ns/event",
    );
    m.add(
        "kernel.allocs_per_event",
        allocs_per(Layer::Kernel, events),
        "count",
    );
    m.add("kernel.events", events, "count");
    m.add("kernel.upcalls", last.upcalls as f64, "count");
    m.add("kernel.reallocations", last.reallocations as f64, "count");
    m.add("kernel.policy.calls", spans(Layer::Policy), "count");
    m.add(
        "kernel.policy.ns_per_call",
        per_call(Layer::Policy),
        "ns/call",
    );
    m.add(
        "kernel.policy.allocs_per_call",
        allocs_per(Layer::Policy, spans(Layer::Policy)),
        "count",
    );
    m.add("kernel.policy.share", share(Layer::Policy), "fraction");
    m.add("uthread.calls", spans(Layer::Uthread), "count");
    m.add("uthread.ns_per_call", per_call(Layer::Uthread), "ns/call");
    m.add(
        "uthread.allocs_per_call",
        allocs_per(Layer::Uthread, spans(Layer::Uthread)),
        "count",
    );
    m.add("uthread.share", share(Layer::Uthread), "fraction");
    m.add(
        "uthread.hot_bytes_per_thread",
        ratio(last.slab_hot_bytes as f64, last.slab_rows as f64),
        "B/thread",
    );
    m.add("uthread.ready.ops", spans(Layer::Ready), "count");
    m.add(
        "uthread.ready.steal_ratio",
        ratio(last.steals as f64, last.picks as f64),
        "steals/pick",
    );
    m.add("uthread.ready.share", share(Layer::Ready), "fraction");
    m.add("workload.steps", spans(Layer::Workload), "count");
    m.add("workload.ns_per_step", per_call(Layer::Workload), "ns/step");
    m.add(
        "workload.allocs_per_step",
        allocs_per(Layer::Workload, spans(Layer::Workload)),
        "count",
    );
    m.add("workload.share", share(Layer::Workload), "fraction");
    m.add("sinks.windowed_ratio", windowed_ratio, "ratio");
    m.add("sinks.audit_ratio", audit_ratio, "ratio");
    m.add("sinks.fold_s", sum(&|p| p.fold_ns as f64) / n / 1e9, "s");
    m.add("core.report.host_s", net(Layer::Report) / n / 1e9, "s");
    m.add("core.report.share", share(Layer::Report), "fraction");
    m.add("bench.probe_ns", cost.total_ns, "ns");
    // One plain pass runs after each traced pass, so the sums compare
    // equal numbers of passes.
    let plain_run: f64 = plain.iter().map(|p| p.run_ns as f64).sum();
    m.add(
        "bench.trace_overhead",
        sum(&|p| p.run_ns as f64) / plain_run,
        "ratio",
    );

    let shares: Vec<(Layer, f64)> = SHARED.iter().map(|&l| (l, share(l))).collect();
    let share_sum: f64 = shares.iter().map(|s| s.1).sum();
    println!(
        "{} seed {} traced: {} untraced + {} traced passes, probe {:.1} ns/span \
         ({:.1} ns inside), shares sum to {share_sum:.9}",
        a.workload,
        a.seed,
        plain.len() + 1,
        traced.len(),
        cost.total_ns,
        cost.inner_ns
    );
    if (share_sum - 1.0).abs() > 1e-9 || shares.iter().any(|s| s.1 < 0.0) {
        eprintln!("perfbench: layer shares do not partition the traced time");
        failed += 1;
    }
    let largest = shares
        .iter()
        .filter(|s| s.0 != Layer::Kernel)
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .expect("several layers");
    println!(
        "largest layer other than kernel: {} at {:.4} of traced time",
        largest.0.name(),
        largest.1
    );
    for (n, v, u) in &m.0 {
        println!("  {n:<30} {v:>16.6} {u}");
    }
    (attempted, failed, m)
}

/// Checks that the benchmark's cells and folds reproduce `sa_core`'s own
/// SLO and audit reports byte for byte, at a reduced request count.
fn self_test() -> ExitCode {
    const REQUESTS: usize = 3_000;
    let one = std::num::NonZeroUsize::MIN;
    let mut profile = sa_core::slo::find("slo_bursty").expect("slo_bursty is registered");
    profile.cfg.requests = REQUESTS;
    let policies = sa_core::PolicyConfig::default();
    let slo = sa_core::slo::run_slo(&profile, policies, None, one).expect("slo runs");
    let audit = sa_core::audit::run_audit(&profile, policies, None);
    let want = [
        ("slo", sa_core::slo::render_table(&slo)),
        ("audit", sa_core::audit::render_audit_table(&audit)),
    ];
    let mut ok = true;
    for traced in [false, true] {
        let wl = cells::slo_workload(DEFAULT_SEED, Some(REQUESTS));
        let p = run_pass(wl, false, traced, None, None);
        for (name, text) in &want {
            let same = p.digests.get(name) == Some(&fnv1a(text.as_bytes()));
            println!("self-test: {name} (traced {traced}) matches sa_core: {same}");
            ok &= same && p.failed == 0;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
