//! Bench regression gate: diff two `BENCH_engine.json` files.
//!
//! ```sh
//! sa-bench-check BASELINE.json CURRENT.json [--threshold 0.3]
//! ```
//!
//! Prints one row per baseline benchmark with the throughput ratio and a
//! verdict, then exits nonzero if any benchmark regressed past the noise
//! threshold or disappeared. Moves past the threshold in the *good*
//! direction are reported as `improved` (still exit 0) with a reminder
//! to refresh the committed baseline. Benchmarks named `bytes_*` report
//! footprints, where lower is better and the directions mirror.
//! Benchmarks new in the current file are ignored (a new benchmark
//! cannot regress). The host-parallel scaling line (`sweep_fig1_grid`)
//! is skipped entirely when the current file's recorded `host.cores` is
//! 1: on a single-core machine that speedup is bounded by the host, so
//! its ratio carries no signal.
//!
//! `--update-baseline` accepts the current numbers: after printing the
//! usual comparison table, the current file is copied over the baseline
//! path in place (this is how the committed `BENCH_engine.json` is
//! refreshed after an intentional perf change or a new benchmark line)
//! and the gate exits 0 regardless of verdicts.
//!
//! The default threshold (0.3: a benchmark may lose up to 30% before the
//! gate trips) is sized for host-side throughput numbers measured on
//! shared CI runners, where co-tenancy jitter is large; same-machine
//! reruns of this event-loop workload stay well inside it. Tighten with
//! `--threshold` when comparing runs from one quiet machine; see
//! `EXPERIMENTS.md` ("Bench regression gate") for the rationale.

use sa_core::reporting::{
    compare_benches, host_dependent, parse_bench_json, parse_host_cores, BenchVerdict, Table,
};

/// Default relative noise threshold (see module docs).
const DEFAULT_THRESHOLD: f64 = 0.3;

fn usage() -> String {
    "usage: sa-bench-check <baseline.json> <current.json> [--threshold F] [--update-baseline]\n\
     \n\
     Exits 0 when every baseline benchmark is within F of its baseline\n\
     throughput (default 0.3 = may lose up to 30%), 1 on a regression or\n\
     a missing benchmark, 2 on bad arguments or unreadable input.\n\
     --update-baseline copies the current file over the baseline path\n\
     after the comparison (accepting the new numbers; always exits 0)."
        .to_string()
}

struct Options {
    baseline: String,
    current: String,
    threshold: f64,
    update_baseline: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut update_baseline = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--update-baseline" {
            update_baseline = true;
        } else if arg == "--threshold" {
            let v = args
                .next()
                .ok_or_else(|| "--threshold requires a value (e.g. 0.3)".to_string())?;
            threshold = parse_threshold(&v)?;
        } else if let Some(v) = arg.strip_prefix("--threshold=") {
            threshold = parse_threshold(v)?;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag '{arg}'"));
        } else {
            positional.push(arg);
        }
    }
    if positional.len() != 2 {
        return Err(format!(
            "expected exactly two files (baseline, current), got {}",
            positional.len()
        ));
    }
    let current = positional.pop().expect("two positionals");
    let baseline = positional.pop().expect("two positionals");
    Ok(Options {
        baseline,
        current,
        threshold,
        update_baseline,
    })
}

/// Copies `current` over `baseline` in place (the `--update-baseline`
/// action). A plain byte copy: the refreshed baseline is exactly the
/// file the next gate run will compare against.
fn update_baseline_file(baseline: &str, current: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(current).map_err(|e| format!("could not read {current}: {e}"))?;
    std::fs::write(baseline, &text).map_err(|e| format!("could not write {baseline}: {e}"))
}

fn parse_threshold(v: &str) -> Result<f64, String> {
    let t: f64 = v
        .parse()
        .map_err(|_| format!("--threshold: '{v}' is not a number"))?;
    if !(0.0..1.0).contains(&t) {
        return Err(format!("--threshold: {t} must be in [0, 1)"));
    }
    Ok(t)
}

fn load(path: &str) -> Result<Vec<sa_core::reporting::BenchLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    parse_bench_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("sa-bench-check: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let (baseline, current) = match (load(&opts.baseline), load(&opts.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("sa-bench-check: {e}");
            std::process::exit(2);
        }
    };
    // On a 1-core host the sweep speedup line is bounded at ~1x by the
    // machine, not the code: its ratio against a multi-core
    // baseline carry no signal, so skip the assertion (both directions)
    // rather than fail or silently "improve". The host object comes
    // from the *current* file — the run whose machine we know.
    let one_core_host = std::fs::read_to_string(&opts.current)
        .ok()
        .and_then(|text| parse_host_cores(&text))
        == Some(1);

    let deltas = compare_benches(&baseline, &current, opts.threshold);
    let mut t = Table::new(&["benchmark", "baseline/s", "current/s", "ratio", "verdict"]);
    let mut failed = false;
    let mut improved = 0usize;
    let mut skipped = 0usize;
    for d in &deltas {
        let skip = one_core_host && host_dependent(&d.name) && d.verdict != BenchVerdict::Missing;
        let verdict = if skip {
            skipped += 1;
            "skipped (1-core host)"
        } else {
            match d.verdict {
                BenchVerdict::Ok => "ok",
                BenchVerdict::Improved => {
                    improved += 1;
                    "improved"
                }
                BenchVerdict::Regressed => {
                    failed = true;
                    "REGRESSED"
                }
                BenchVerdict::Missing => {
                    failed = true;
                    "MISSING"
                }
            }
        };
        t.row(vec![
            d.name.clone(),
            format!("{:.0}", d.baseline),
            format!("{:.0}", d.current),
            format!("{:.2}", d.ratio),
            verdict.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "threshold: a benchmark may move up to {:.0}% against its good direction \
         before the gate trips (bytes_* lines: lower is better)",
        opts.threshold * 100.0
    );
    if skipped > 0 {
        println!(
            "sa-bench-check: {skipped} host-parallel scaling line(s) skipped — \
             current file records a 1-core host, where speedups are machine-bounded"
        );
    }
    if opts.update_baseline {
        if let Err(e) = update_baseline_file(&opts.baseline, &opts.current) {
            eprintln!("sa-bench-check: {e}");
            std::process::exit(2);
        }
        println!(
            "sa-bench-check: baseline {} updated in place from {}",
            opts.baseline, opts.current
        );
        return;
    }
    if failed {
        eprintln!(
            "sa-bench-check: regression detected ({} vs {})",
            opts.current, opts.baseline
        );
        std::process::exit(1);
    }
    if improved > 0 {
        // Improvements pass the gate, but say so out loud: a benchmark
        // holding past the noise band is the cue to refresh the committed
        // baseline so the gate tracks the better number.
        println!(
            "sa-bench-check: {improved} improved past the threshold — \
             consider refreshing the committed baseline"
        );
    }
    println!(
        "sa-bench-check: ok ({} benchmarks, {improved} improved)",
        deltas.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags_and_positionals() {
        let o = parse(&["base.json", "cur.json"]).unwrap();
        assert_eq!(o.baseline, "base.json");
        assert_eq!(o.current, "cur.json");
        assert_eq!(o.threshold, DEFAULT_THRESHOLD);
        assert!(!o.update_baseline);

        let o = parse(&[
            "--update-baseline",
            "base.json",
            "--threshold=0.1",
            "cur.json",
        ])
        .unwrap();
        assert!(o.update_baseline);
        assert_eq!(o.threshold, 0.1);

        assert!(parse(&["only-one.json"]).is_err());
        assert!(parse(&["a", "b", "--threshold", "1.5"]).is_err());
        assert!(parse(&["a", "b", "--unknown"]).is_err());
    }

    #[test]
    fn update_baseline_copies_current_in_place() {
        let dir = std::env::temp_dir().join(format!("sa-bench-check-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let current = dir.join("current.json");
        // Real writer output, so the refreshed baseline round-trips
        // through the same parser the gate uses.
        let old = sa_core::reporting::bench_lines_json(&[sa_core::reporting::BenchLine::new(
            "sweep", 100.0, "old",
        )]);
        let new = sa_core::reporting::bench_lines_json(&[
            sa_core::reporting::BenchLine::new("sweep", 150.0, "new"),
            sa_core::reporting::BenchLine::new("audit_overhead", 42.0, "new line"),
        ]);
        std::fs::write(&baseline, &old).unwrap();
        std::fs::write(&current, &new).unwrap();

        update_baseline_file(baseline.to_str().unwrap(), current.to_str().unwrap()).unwrap();
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), new);
        let parsed = parse_bench_json(&new).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].name, "audit_overhead");

        // Missing current file reports an error and leaves the baseline.
        let err = update_baseline_file(baseline.to_str().unwrap(), "/nonexistent/x.json");
        assert!(err.is_err());
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), new);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
