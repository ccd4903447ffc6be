//! Machine-readable benchmark reporting (no serde in the tree — see
//! `DESIGN.md` §6 — so emission is hand-rolled here, *with* escaping).
//!
//! `sa-experiments engine-bench` emits flat `{name, ops_per_sec,
//! detail}` records and `sa-bench-check` reads them back; this module
//! owns the JSON encoding so free-form `detail`/`name` strings can never
//! produce invalid JSON (the previous writer interpolated them raw, so a
//! quote or backslash in a detail line would have corrupted
//! `BENCH_engine.json`).

use std::fmt::Write as _;

/// One benchmark measurement: a name plus operations (or events) per
/// host second, with a free-form detail line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLine {
    /// Stable benchmark identifier (tracked across commits).
    pub name: String,
    /// Operations (or simulator events) per host second.
    pub ops_per_sec: f64,
    /// Human-readable context for the number.
    pub detail: String,
}

impl BenchLine {
    /// Builds a line.
    pub fn new(name: impl Into<String>, ops_per_sec: f64, detail: impl Into<String>) -> Self {
        BenchLine {
            name: name.into(),
            ops_per_sec,
            detail: detail.into(),
        }
    }
}

/// Escapes `s` for inclusion inside a JSON string literal: quotes,
/// backslashes, and control characters per RFC 8259 §7.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Host context recorded alongside benchmark lines so absolute
/// throughput and sweep-speedup numbers are interpretable across
/// machines (a "speedup 0.94x" sweep line on a 1-core box is expected,
/// not a regression).
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// Logical cores available to this process (container-aware: what
    /// `std::thread::available_parallelism` reports, which respects
    /// cgroup CPU limits).
    pub cores: usize,
    /// Free-form environment note (e.g. the container/reference-box
    /// caveat for sweep speedups).
    pub note: String,
}

impl HostInfo {
    /// Detects the available core count and attaches `note`.
    pub fn detect(note: impl Into<String>) -> Self {
        HostInfo {
            cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            note: note.into(),
        }
    }
}

/// Renders bench lines as the flat `BENCH_engine.json` document.
pub fn bench_lines_json(lines: &[BenchLine]) -> String {
    bench_lines_json_with_host(lines, None)
}

/// As [`bench_lines_json`], with an optional `host` object ahead of the
/// benchmark list. The host line deliberately does not start with `{`,
/// so [`parse_bench_json`] (line-oriented) skips it and older readers
/// keep working.
pub fn bench_lines_json_with_host(lines: &[BenchLine], host: Option<&HostInfo>) -> String {
    let mut json = String::from("{\n");
    if let Some(h) = host {
        let _ = writeln!(
            json,
            "  \"host\": {{\"cores\": {}, \"note\": \"{}\"}},",
            h.cores,
            json_escape(&h.note)
        );
    }
    json.push_str("  \"benchmarks\": [\n");
    for (i, l) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ops_per_sec\": {:.1}, \"detail\": \"{}\"}}{comma}",
            json_escape(&l.name),
            l.ops_per_sec,
            json_escape(&l.detail)
        );
    }
    json.push_str("  ]\n}\n");
    json
}

/// Writes bench lines plus host context to `path` as JSON.
pub fn write_bench_json_with_host(
    path: &str,
    lines: &[BenchLine],
    host: &HostInfo,
) -> std::io::Result<()> {
    std::fs::write(path, bench_lines_json_with_host(lines, Some(host)))
}

/// A deterministic fixed-width text table: first column left-aligned,
/// the rest right-aligned, widths fitted to content.
///
/// The one table renderer for every subcommand (`trace --format
/// histograms`, `profile`) so their outputs stay visually consistent and
/// byte-stable for determinism diffs.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    left: Vec<usize>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            left: Vec::new(),
        }
    }

    /// Left-aligns column `i` as well (the first column always is).
    /// Useful for trailing free-text columns, whose width would otherwise
    /// pad every other row far to the right.
    pub fn align_left(mut self, i: usize) -> Self {
        self.left.push(i);
        self
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with a dashed rule under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, &w) in width.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 || self.left.contains(&i) {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let rule: usize = width.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Parses the flat document written by [`bench_lines_json`] (one
/// `{"name": ..., "ops_per_sec": ..., "detail": ...}` object per line).
/// Not a general JSON parser — it reads exactly what this module writes,
/// which is the only producer of `BENCH_engine.json`.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchLine>, String> {
    let mut lines = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let name = extract_string_field(line, "name")
            .ok_or_else(|| format!("line {}: missing \"name\" string", no + 1))?;
        let ops = extract_number_field(line, "ops_per_sec")
            .ok_or_else(|| format!("line {}: missing \"ops_per_sec\" number", no + 1))?;
        let detail = extract_string_field(line, "detail").unwrap_or_default();
        lines.push(BenchLine::new(name, ops, detail));
    }
    if lines.is_empty() {
        return Err("no benchmark entries found".into());
    }
    Ok(lines)
}

/// Finds `"key": "<value>"` in `line` and unescapes the value.
fn extract_string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Finds `"key": <number>` in `line`.
fn extract_number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the recorded host core count from a `BENCH_engine.json`
/// document (the `"host": {"cores": N, ...}` object
/// [`bench_lines_json_with_host`] writes). `None` for documents without
/// host context — older files, or the bare [`bench_lines_json`] form.
pub fn parse_host_cores(text: &str) -> Option<usize> {
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"host\""))?;
    extract_number_field(line, "cores").map(|n| n as usize)
}

/// Whether a benchmark line reports host-parallel scaling (the sweep
/// speedup) rather than single-thread engine throughput. On a 1-core
/// host that number is bounded at ~1x by the machine, not the code, so
/// `sa-bench-check` skips its ratio assertion when the current file
/// records `host.cores == 1`.
pub fn host_dependent(name: &str) -> bool {
    name == "sweep_fig1_grid"
}

/// Verdict for one benchmark when comparing a candidate run against a
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchVerdict {
    /// Within the noise threshold.
    Ok,
    /// Better than the baseline by more than the noise threshold
    /// (faster, or a smaller footprint for lower-is-better lines).
    Improved,
    /// Worse than the baseline by more than the noise threshold.
    Regressed,
    /// Present in the baseline but missing from the candidate.
    Missing,
}

/// Whether a benchmark line measures a footprint rather than a rate.
/// By convention, names starting with `bytes_` (e.g. `bytes_per_thread`)
/// report resident bytes in `ops_per_sec`, so *smaller* is better and
/// the regression direction inverts.
pub fn lower_is_better(name: &str) -> bool {
    name.starts_with("bytes_")
}

/// One row of a baseline/candidate comparison.
#[derive(Debug, Clone)]
pub struct BenchDelta {
    /// Benchmark name.
    pub name: String,
    /// Baseline ops/s.
    pub baseline: f64,
    /// Candidate ops/s (0.0 when missing).
    pub current: f64,
    /// `current / baseline` (0.0 when missing).
    pub ratio: f64,
    /// The verdict under the threshold used.
    pub verdict: BenchVerdict,
}

/// Compares `current` against `baseline` with a relative noise
/// `threshold` (e.g. 0.3 = a benchmark may move up to 30% against its
/// good direction before it counts as a regression — same-machine
/// reruns of this event-loop workload jitter well under that; see
/// `EXPERIMENTS.md`). Moves past the threshold in the *good* direction
/// are reported as [`BenchVerdict::Improved`], the cue to refresh the
/// committed baseline so the gate tracks the better number. Throughput
/// lines want a high ratio; [`lower_is_better`] names want a low one.
/// Benchmarks only in `current` are ignored: new benchmarks cannot
/// regress. Returns one delta per baseline entry, in baseline order.
pub fn compare_benches(
    baseline: &[BenchLine],
    current: &[BenchLine],
    threshold: f64,
) -> Vec<BenchDelta> {
    baseline
        .iter()
        .map(|b| {
            let cur = current.iter().find(|c| c.name == b.name);
            match cur {
                None => BenchDelta {
                    name: b.name.clone(),
                    baseline: b.ops_per_sec,
                    current: 0.0,
                    ratio: 0.0,
                    verdict: BenchVerdict::Missing,
                },
                Some(c) => {
                    let ratio = if b.ops_per_sec > 0.0 {
                        c.ops_per_sec / b.ops_per_sec
                    } else {
                        1.0
                    };
                    // A footprint line regresses by growing; a rate line
                    // by shrinking. Same threshold, mirrored directions.
                    let (bad, good) = if lower_is_better(&b.name) {
                        (ratio > 1.0 + threshold, ratio < 1.0 - threshold)
                    } else {
                        (ratio < 1.0 - threshold, ratio > 1.0 + threshold)
                    };
                    let verdict = if bad {
                        BenchVerdict::Regressed
                    } else if good {
                        BenchVerdict::Improved
                    } else {
                        BenchVerdict::Ok
                    };
                    BenchDelta {
                        name: b.name.clone(),
                        baseline: b.ops_per_sec,
                        current: c.ops_per_sec,
                        ratio,
                        verdict,
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn bench_json_round_trips_through_parser() {
        let lines = vec![
            BenchLine::new("queue_mix", 123456.7, r#"detail "quoted" \ slash"#),
            BenchLine::new("dispatch", 0.5, "tab\there"),
        ];
        let parsed = parse_bench_json(&bench_lines_json(&lines)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "queue_mix");
        assert!((parsed[0].ops_per_sec - 123456.7).abs() < 0.1);
        assert_eq!(parsed[0].detail, r#"detail "quoted" \ slash"#);
        assert_eq!(parsed[1].detail, "tab\there");
    }

    #[test]
    fn host_info_survives_the_line_oriented_parser() {
        // The host object must be invisible to parse_bench_json (older
        // readers and sa-bench-check see only benchmark lines) while
        // still being present in the document.
        let lines = vec![BenchLine::new("queue_mix", 42.0, "detail")];
        let host = HostInfo {
            cores: 3,
            note: "1-core reference \"box\"".into(),
        };
        let json = bench_lines_json_with_host(&lines, Some(&host));
        assert!(json.contains("\"host\": {\"cores\": 3"));
        assert!(json.contains(r#"reference \"box\""#));
        let parsed = parse_bench_json(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "queue_mix");
    }

    #[test]
    fn host_info_detect_reports_at_least_one_core() {
        let h = HostInfo::detect("n");
        assert!(h.cores >= 1);
        assert_eq!(h.note, "n");
    }

    #[test]
    fn host_cores_parse_from_the_host_object() {
        let lines = vec![BenchLine::new("queue_mix", 42.0, "d")];
        let host = HostInfo {
            cores: 7,
            note: "box".into(),
        };
        let json = bench_lines_json_with_host(&lines, Some(&host));
        assert_eq!(parse_host_cores(&json), Some(7));
        assert_eq!(parse_host_cores(&bench_lines_json(&lines)), None);
    }

    #[test]
    fn host_dependent_names_are_the_scaling_lines() {
        assert!(host_dependent("sweep_fig1_grid"));
        assert!(!host_dependent("queue_mix"));
        assert!(!host_dependent("system_nbody_fig1_sa"));
    }

    #[test]
    fn parse_rejects_empty_documents() {
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("").is_err());
    }

    #[test]
    fn compare_flags_regressions_missing_and_ok() {
        let base = vec![
            BenchLine::new("fast", 100.0, ""),
            BenchLine::new("gone", 50.0, ""),
            BenchLine::new("slow", 100.0, ""),
        ];
        let cur = vec![
            BenchLine::new("fast", 95.0, ""),
            BenchLine::new("slow", 60.0, ""),
            BenchLine::new("brand_new", 1.0, ""),
        ];
        let deltas = compare_benches(&base, &cur, 0.3);
        assert_eq!(deltas.len(), 3);
        assert_eq!(deltas[0].verdict, BenchVerdict::Ok);
        assert_eq!(deltas[1].verdict, BenchVerdict::Missing);
        assert_eq!(deltas[2].verdict, BenchVerdict::Regressed);
        assert!((deltas[2].ratio - 0.6).abs() < 1e-9);
    }

    #[test]
    fn compare_reports_improvements_past_threshold() {
        let base = vec![
            BenchLine::new("jumped", 100.0, ""),
            BenchLine::new("steady", 100.0, ""),
        ];
        let cur = vec![
            BenchLine::new("jumped", 150.0, ""),
            BenchLine::new("steady", 129.9, ""),
        ];
        let deltas = compare_benches(&base, &cur, 0.3);
        assert_eq!(deltas[0].verdict, BenchVerdict::Improved);
        assert!((deltas[0].ratio - 1.5).abs() < 1e-9);
        // Exactly at baseline × (1 + threshold) is still Ok, not Improved.
        assert_eq!(deltas[1].verdict, BenchVerdict::Ok);
    }

    #[test]
    fn bytes_lines_regress_in_the_opposite_direction() {
        assert!(lower_is_better("bytes_per_thread"));
        assert!(!lower_is_better("thread_churn_1m"));
        let base = vec![BenchLine::new("bytes_per_thread", 100.0, "")];
        // Growing footprint past the threshold: regression.
        let grew = compare_benches(&base, &[BenchLine::new("bytes_per_thread", 140.0, "")], 0.3);
        assert_eq!(grew[0].verdict, BenchVerdict::Regressed);
        // Shrinking footprint past the threshold: improvement.
        let shrank = compare_benches(&base, &[BenchLine::new("bytes_per_thread", 60.0, "")], 0.3);
        assert_eq!(shrank[0].verdict, BenchVerdict::Improved);
        // Inside the band either way: Ok.
        let steady = compare_benches(&base, &[BenchLine::new("bytes_per_thread", 120.0, "")], 0.3);
        assert_eq!(steady[0].verdict, BenchVerdict::Ok);
    }

    #[test]
    fn compare_boundary_is_strict() {
        // Exactly at baseline × (1 − threshold) is still OK; below it is not.
        let base = vec![BenchLine::new("b", 100.0, "")];
        let at = compare_benches(&base, &[BenchLine::new("b", 70.0, "")], 0.3);
        assert_eq!(at[0].verdict, BenchVerdict::Ok);
        let below = compare_benches(&base, &[BenchLine::new("b", 69.9, "")], 0.3);
        assert_eq!(below[0].verdict, BenchVerdict::Regressed);
    }

    #[test]
    fn table_renders_aligned_and_stable() {
        let mut t = Table::new(&["state", "ns", "share"]);
        t.row(vec!["running_user".into(), "123".into(), "40.0%".into()]);
        t.row(vec!["idle".into(), "7".into(), "2.2%".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("state"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric columns right-aligned: "123" and "7" end at same offset.
        let c1 = lines[2].rfind("123").unwrap() + 3;
        let c2 = lines[3].rfind('7').unwrap() + 1;
        assert_eq!(c1, c2);
        // No trailing whitespace anywhere (byte-stable diffs).
        assert!(r.lines().all(|l| l.trim_end() == l));
    }

    #[test]
    fn bench_json_is_well_formed_with_hostile_details() {
        let lines = [
            BenchLine::new("a", 1.0, r#"said "hi" \ done"#),
            BenchLine::new("b", 2.5, "18 cells; 2.00x"),
        ];
        let json = bench_lines_json(&lines);
        assert!(json.contains(r#"\"hi\" \\ done"#));
        // Flat schema: every emitted line object must parse by eye —
        // check balanced braces/brackets and no raw quote runs.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.ends_with("  ]\n}\n"));
    }
}
