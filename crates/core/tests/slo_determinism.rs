//! The SLO observability layer's end-to-end guarantees:
//!
//! - the full report (windowed series, tail attribution, counter JSON)
//!   is byte-identical at any host job count;
//! - every profile's span accounting reconciles *exactly* against the
//!   flat [`TimeLedger`](sa_sim::TimeLedger) and the windowed ledger
//!   conserves `cpus × makespan` (both asserted inside `run_slo`, and
//!   re-checked here from the report numbers);
//! - the `trace`/`profile` generalization reaches the server scenarios:
//!   any registry entry builds a traced app set and profiles cleanly.

use sa_core::profile::{render_table as render_profile, run_profile};
use sa_core::scenario::PolicyConfig;
use sa_core::slo::{counter_series, find, render_csv, render_table, run_slo};
use sa_core::trace_export::perfetto_counters_json;
use sa_sim::SimDuration;
use std::num::NonZeroUsize;

fn jobs(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// Every rendering of the report — the human table, the CSV series, and
/// the Perfetto counter JSON — must be byte-identical when the three
/// system cells are fanned across four host threads instead of one.
#[test]
fn slo_report_is_byte_identical_across_job_counts() {
    let mut p = find("slo_poisson").expect("registered profile");
    p.window = SimDuration::from_millis(5);
    let render = |j: usize| {
        let r = run_slo(&p, PolicyConfig::default(), Some(2_000), jobs(j)).expect("no panics");
        (
            render_table(&r),
            render_csv(&r),
            perfetto_counters_json(&counter_series(&r)),
        )
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(serial.0, parallel.0, "table rendering differs");
    assert_eq!(serial.1, parallel.1, "csv rendering differs");
    assert_eq!(serial.2, parallel.2, "counter JSON differs");
}

/// Every registered profile, under every system: span service sums to
/// the ledger's user time exactly per shard, the windowed states sum to
/// `cpus × makespan` exactly, and every request lands in exactly one
/// window. (`run_slo` asserts the equalities internally; this re-checks
/// them from the numbers the report carries, so a report that silently
/// stopped asserting would still fail here.)
#[test]
fn every_profile_reconciles_spans_against_both_ledgers() {
    for profile in sa_core::slo::profiles() {
        let mut p = profile;
        p.window = SimDuration::from_millis(10);
        let requests = 800;
        let r = run_slo(&p, PolicyConfig::default(), Some(requests), jobs(2))
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        assert_eq!(r.cells.len(), 3, "{}: three systems", p.name);
        for cell in &r.cells {
            let ctx = format!("{} under {}", p.name, cell.system);
            assert_eq!(cell.completed, requests as u64, "{ctx}: completions");
            for &(span_ns, ledger_ns) in &cell.reconcile.per_shard {
                assert_eq!(span_ns, ledger_ns, "{ctx}: span vs ledger user time");
            }
            assert!(
                !cell.reconcile.per_shard.is_empty(),
                "{ctx}: no shards reconciled"
            );
            assert_eq!(
                cell.reconcile.windowed_total_ns, cell.reconcile.machine_total_ns,
                "{ctx}: windowed conservation"
            );
            let windowed: u64 = cell.windows.iter().map(|w| w.completions).sum();
            assert_eq!(windowed, cell.completed, "{ctx}: every span in a window");
            assert_eq!(
                cell.tail.count,
                (requests / 1000).max(1),
                "{ctx}: tail size"
            );
            let tail_total: u64 = cell.tail.phase_ns.iter().sum();
            assert!(tail_total > 0, "{ctx}: tail phases attributed");
        }
    }
}

/// The profiler accepts any registry scenario since the `TraceWorkload`
/// generalization — including the closed server workload, which is
/// neither N-body-shaped nor figure-numbered.
#[test]
fn profiler_accepts_server_scenario() {
    let p = run_profile("server", jobs(2)).expect("server profiles cleanly");
    assert_eq!(p.cells.len(), 3, "three systems");
    for cell in &p.cells {
        assert!(
            cell.label.contains("server"),
            "label '{}' names the scenario",
            cell.label
        );
        // run_cell verified ledger conservation; the critical path must
        // also explain the whole makespan.
        assert_eq!(
            cell.path.attributed_ns(),
            cell.makespan.as_nanos(),
            "critical path of '{}' does not sum to the makespan",
            cell.label
        );
    }
    let table = render_profile(&p);
    assert!(table.contains("Capacity (ledger"));
}
