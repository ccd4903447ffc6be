//! Golden-stdout coverage for the CLI policy flags.
//!
//! Two invariants pin the default `--alloc`/`--ready` pair:
//!
//! 1. The scenario runner under the implicit defaults reproduces the
//!    committed `tests/golden/*.stdout` files byte for byte (the same
//!    diff CI performs in release mode).
//! 2. Passing the default pair *explicitly* (`--alloc=even
//!    --ready=local`) is byte-identical to passing nothing at all, for
//!    `run`, `trace`, and `profile` alike — the flags select policies,
//!    they must not perturb anything else. A non-default ready policy
//!    must change the output, proving the flags are actually wired
//!    through rather than parsed and dropped.
//!
//! The usage text printed on a bad flag lists every policy the flags
//! accept.

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

#[test]
fn run_defaults_reproduce_committed_goldens() {
    for name in ["fig1", "fig2", "table5"] {
        let golden_path = format!(
            "{}/../../tests/golden/{name}.stdout",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden =
            std::fs::read(&golden_path).unwrap_or_else(|e| panic!("read {golden_path}: {e}"));
        let stdout = sa_experiments(&["run", name]);
        assert!(
            stdout == golden,
            "`run {name}` diverged from tests/golden/{name}.stdout:\n{}",
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
    assert!(stderr.contains("unknown flag '--no-such-flag'"), "{stderr}");
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
