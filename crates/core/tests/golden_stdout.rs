//! Golden-stdout coverage for the CLI policy flags.
//!
//! Two invariants pin the default `--alloc`/`--ready` pair:
//!
//! 1. The scenario runner under the implicit defaults reproduces the
//!    committed `tests/golden/*.stdout` files byte for byte (the same
//!    diff CI performs in release mode), and so do the paper tables
//!    without a scenario (`table1`, `table4`, `upcall`), the `table5`
//!    profile, the `table5` trace histograms, and short `slo_bursty`
//!    runs of the `slo` report and the decision `audit` (table and CSV).
//! 2. Passing the default pair *explicitly* (`--alloc=even
//!    --ready=local`) is byte-identical to passing nothing at all, for
//!    `run`, `trace`, and `profile` alike — the flags select policies,
//!    they must not perturb anything else. A non-default ready policy
//!    must change the output, proving the flags are actually wired
//!    through rather than parsed and dropped.
//!
//! The `--list` texts and the usage text printed on a bad flag are pinned
//! by golden files too. `--list` after a subcommand lists what its
//! argument names: scenarios after `run`/`trace`/`profile`, SLO profiles
//! after `slo`/`audit`. The usage text lists every policy the flags
//! accept, and `--spaces` reaches exactly the subcommands that take it.

use sa_kernel::AllocPolicyKind;
use sa_uthread::ReadyPolicyKind;
use std::process::Command;

/// Explicit spellings of `PolicyConfig::default()` on the CLI.
const DEFAULT_PAIR: [&str; 2] = ["--alloc=even", "--ready=local"];

fn sa_experiments(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_sa-experiments"))
        .args(args)
        // Parallel sweeps are byte-identical to serial ones (CI proves
        // it); use a few jobs so the debug-mode golden runs stay quick.
        .env("SA_JOBS", "4")
        .output()
        .expect("spawn sa-experiments");
    assert!(
        out.status.success(),
        "sa-experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn golden(name: &str) -> Vec<u8> {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn run_defaults_reproduce_committed_goldens() {
    for (args, name) in [
        (&["run", "fig1"][..], "fig1.stdout"),
        (&["run", "fig2"], "fig2.stdout"),
        (&["run", "table5"], "table5.stdout"),
        (&["run", "nbody"], "run-nbody.stdout"),
        (&["run", "server"], "run-server.stdout"),
        (&["run", "bufcache"], "run-bufcache.stdout"),
        (&["profile", "table5"], "profile-table5.stdout"),
        (
            &["trace", "table5", "--format", "histograms"],
            "trace-table5-histograms.stdout",
        ),
        (
            &["audit", "slo_bursty", "--requests", "10000"],
            "audit-slo_bursty.stdout",
        ),
        (
            &[
                "audit",
                "slo_bursty",
                "--requests",
                "10000",
                "--format",
                "csv",
            ],
            "audit-slo_bursty.csv",
        ),
        (
            &["slo", "slo_bursty", "--requests", "3000"],
            "slo-slo_bursty.stdout",
        ),
        (&["table1"], "table1.stdout"),
        (&["table4"], "table4.stdout"),
        (&["upcall"], "upcall.stdout"),
        (&["--list"], "list.stdout"),
        (&["run", "--list"], "run-list.stdout"),
        (&["trace", "--list"], "run-list.stdout"),
        (&["profile", "--list"], "run-list.stdout"),
        (&["slo", "--list"], "slo-list.stdout"),
        (&["audit", "--list"], "slo-list.stdout"),
    ] {
        let stdout = sa_experiments(args);
        assert!(
            stdout == golden(name),
            "`sa-experiments {}` diverged from tests/golden/{name}:\n{}",
            args.join(" "),
            String::from_utf8_lossy(&stdout)
        );
    }
}

#[test]
fn trace_explicit_default_pair_is_byte_identical() {
    for format in ["log", "histograms"] {
        let implicit = sa_experiments(&["trace", "table5", "--format", format]);
        let explicit = {
            let mut args = vec!["trace", "table5", "--format", format];
            args.extend(DEFAULT_PAIR);
            sa_experiments(&args)
        };
        assert_eq!(
            implicit, explicit,
            "trace {format}: explicit default pair changed the output"
        );
    }
    let fifo = sa_experiments(&["trace", "table5", "--format", "log", "--ready=global-fifo"]);
    let implicit = sa_experiments(&["trace", "table5", "--format", "log"]);
    assert_ne!(
        implicit, fifo,
        "trace: --ready=global-fifo produced the default-policy trace (flag not wired)"
    );
}

#[test]
fn profile_explicit_default_pair_is_byte_identical() {
    for format in ["table", "folded"] {
        let implicit = sa_experiments(&["profile", "table5", "--format", format]);
        let explicit = {
            let mut args = vec!["profile", "table5", "--format", format];
            args.extend(DEFAULT_PAIR);
            sa_experiments(&args)
        };
        assert_eq!(
            implicit, explicit,
            "profile {format}: explicit default pair changed the output"
        );
    }
    let fifo = sa_experiments(&["profile", "table5", "--ready=global-fifo"]);
    let implicit = sa_experiments(&["profile", "table5", "--format", "table"]);
    assert_ne!(
        implicit, fifo,
        "profile: --ready=global-fifo produced the default-policy profile (flag not wired)"
    );
}

#[test]
fn unknown_flag_usage_lists_every_policy() {
    let out = Command::new(env!("CARGO_BIN_EXE_sa-experiments"))
        .arg("--no-such-flag")
        .output()
        .expect("spawn sa-experiments");
    assert_eq!(out.status.code(), Some(2), "bad flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, String::from_utf8_lossy(&golden("usage.stderr")));
    for (flag, names) in [
        ("--alloc", AllocPolicyKind::ALL.map(|k| k.name()).to_vec()),
        ("--ready", ReadyPolicyKind::ALL.map(|k| k.name()).to_vec()),
    ] {
        let line = stderr
            .lines()
            .find(|l| l.starts_with(flag))
            .unwrap_or_else(|| panic!("usage has no {flag} line:\n{stderr}"));
        for name in names {
            assert!(line.contains(name), "{line:?} omits {name}");
        }
    }
}

#[test]
fn spaces_flag_fans_audit_and_is_rejected_by_trace() {
    let audit = |extra: &[&str]| {
        let mut args = vec![
            "audit",
            "slo_poisson",
            "--requests",
            "300",
            "--format",
            "csv",
        ];
        args.extend(extra);
        sa_experiments(&args)
    };
    assert_ne!(
        audit(&[]),
        audit(&["--spaces", "16"]),
        "audit: --spaces 16 produced the 4-space audit (flag not wired)"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_sa-experiments"))
        .args(["trace", "fig1", "--spaces", "16"])
        .output()
        .expect("spawn sa-experiments");
    assert_eq!(out.status.code(), Some(2), "trace must reject --spaces");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--spaces only applies to the 'slo' and 'audit' subcommands"),
        "{stderr}"
    );
}
