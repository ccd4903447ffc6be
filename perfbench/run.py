#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The release build goes to
$CARGO_TARGET_DIR (default: .bench_build in the repository root). The
benchmark's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.

--self-test checks that the benchmark's own cells and folds reproduce
sa_core's SLO and audit reports byte for byte, then runs every workload
twice in each mode and checks that allocs_per_event and every count
metric is identical across the two runs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Units of metrics that count work exactly and must repeat run to run.
EXACT_UNITS = {"count", "B/thread", "steals/pick"}


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs the benchmark; returns its stdout, exiting on any failure."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(args)} exited with {done.returncode}")
    return done.stdout


def self_test(binary):
    run(binary, ["--self-test"])
    ok = True
    for workload in ("paper", "slo", "churn"):
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            runs = [json.loads(run(binary, args).splitlines()[-1]) for _ in range(2)]
            for name, m in runs[0]["metrics"].items():
                if m["unit"] in EXACT_UNITS:
                    other = runs[1]["metrics"][name]["value"]
                    same = m["value"] == other
                    ok &= same
                    print(f"{workload} trace {trace} {name}: {m['value']} vs {other}"
                          f" {'ok' if same else 'DIFFERS'}")
            ok &= all(r["correct"] for r in runs)
    print("self-test:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main():
    binary = build()
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    try:
        out = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    return out.returncode


if __name__ == "__main__":
    sys.exit(main())
