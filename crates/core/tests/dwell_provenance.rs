//! Dwell / provenance invariants over the whole policy grid.
//!
//! For every `AllocPolicy` × `ReadyPolicy` pair (all 12) and every SLO
//! scenario, a decision-audited scheduler-activation cell must satisfy:
//!
//! - **Dwell partition**: the dwell ledger's per-CPU episodes tile
//!   `[0, makespan]` exactly — contiguous, gap-free, overlap-free — on
//!   every CPU (checked both by `DwellLedger::verify` and by an
//!   independent fold here).
//! - **Decision density**: decision ids are dense from 1 (`id == index
//!   + 1`) and decision times are monotone nondecreasing.
//! - **Stamp validity**, checked where the stamp is made: in debug
//!   builds, which is how this suite runs, the kernel asserts at every
//!   decision-carrying upcall delivery that the stamped id names a
//!   recorded decision of the matching kind (grant → `AddProcessor`,
//!   victim → `Preempted`), about the receiving space, made no later
//!   than the delivery. Per-space delivery times are monotone because
//!   the clock is, so the log keeps no delivery stream to re-check.
//! - **Chain telescoping**: every completed grant chain's legs sum to
//!   its startup wait exactly.
//! - **Targets recorded**: at least one `Targets` decision is in the log.
//!   (What a `targets()` recomputation may choose is checked per policy
//!   by `sa-kernel`'s `policy_invariants.rs`.)
//!
//! A proptest then varies the request count on the default pair: the
//! invariants are properties of the accounting discipline, not of any
//! particular workload length.
//!
//! Last, snapshot isolation: a `dwell_ledger()` snapshot shares its full
//! episode pages with the running ledger, so snapshots taken while a
//! cell runs in `Kernel::run_until` slices must each still verify, and
//! equal a fresh run stopped at the same instant, after the run they
//! came from has gone on appending. At each stop the two time snapshots,
//! `time_ledger()` and `windowed_ledger()`, must close the same open
//! intervals: both verify there, and they agree on every state's total.

use proptest::prelude::*;
use sa_core::audit::chains_sum_exactly;
use sa_core::scenario::PolicyConfig;
use sa_core::slo::{self, SloProfile};
use sa_core::{AppSpec, System, SystemBuilder, ThreadApi};
use sa_kernel::{AllocDecisionKind, DaemonSpec, Kernel, KernelConfig, SpaceKindSpec, SpaceSpec};
use sa_machine::CostModel;
use sa_sim::span::SpanBook;
use sa_sim::{CpuState, DwellLedger, SimTime};
use sa_uthread::{FastThreads, FtConfig};
use sa_workload::openloop::shard_listener;
use std::cell::RefCell;
use std::rc::Rc;

/// Runs one decision-audited scheduler-activation cell of `profile`.
fn run_cell(profile: &SloProfile, policies: PolicyConfig, requests: usize) -> (System, SimTime) {
    let mut cfg = profile.cfg.clone();
    cfg.requests = requests;
    let api = ThreadApi::SchedulerActivations {
        max_processors: profile.cpus as u32,
    };
    let book = Rc::new(RefCell::new(SpanBook::with_capacity(cfg.requests)));
    let mut builder = SystemBuilder::new(profile.cpus)
        .alloc_policy(policies.alloc)
        .daemons(DaemonSpec::topaz_default_set())
        .decision_audit(true);
    for shard in 0..cfg.shards {
        let body = shard_listener(&cfg, shard, Rc::clone(&book));
        let mut app = AppSpec::new(format!("slo{shard}"), api.clone(), body);
        app.ready_policy = policies.ready;
        builder = builder.app(app);
    }
    let mut sys = builder.build();
    let report = sys.run();
    assert!(
        report.all_done(),
        "{policies}: cell did not finish: {:?}",
        report.outcome
    );
    let makespan = report.outcome.end;
    (sys, makespan)
}

/// Asserts every provenance/dwell invariant on a finished cell.
fn check_invariants(sys: &System, makespan: SimTime, ctx: &str) {
    // Dwell partition, first by the ledger's own verifier...
    let dwell = sys.dwell_ledger().expect("decision audit was enabled");
    dwell
        .verify(makespan)
        .unwrap_or_else(|e| panic!("{ctx}: dwell ledger: {e}"));
    // ...then independently: per CPU, episodes must chain start-to-end
    // from 0 to the makespan with no gap or overlap.
    for cpu in 0..dwell.num_cpus() {
        let mut cursor = SimTime::ZERO;
        let mut episodes = 0usize;
        for ep in dwell.episodes().iter().filter(|e| e.cpu as usize == cpu) {
            assert_eq!(
                ep.start, cursor,
                "{ctx}: cpu{cpu} episode starts at {:?}, expected {cursor:?}",
                ep.start
            );
            assert!(
                ep.end >= ep.start,
                "{ctx}: cpu{cpu} episode ends before it starts"
            );
            cursor = ep.end;
            episodes += 1;
        }
        assert!(episodes > 0, "{ctx}: cpu{cpu} has no dwell episodes");
        assert_eq!(
            cursor, makespan,
            "{ctx}: cpu{cpu} episodes do not reach the makespan"
        );
    }

    let log = sys.decision_log().expect("decision audit was enabled");

    // Decision ids dense from 1, each found again by its id, times
    // monotone.
    let mut prev_at = SimTime::ZERO;
    for (i, d) in log.decisions.iter().enumerate() {
        assert_eq!(
            d.id,
            i as u64 + 1,
            "{ctx}: decision ids must be dense from 1"
        );
        assert_eq!(log.decisions.get(d.id), Some(d), "{ctx}: lookup by id");
        assert!(
            d.at >= prev_at,
            "{ctx}: decision {} decided at {:?}, before predecessor at {prev_at:?}",
            d.id,
            d.at
        );
        prev_at = d.at;
    }

    assert!(
        log.decisions
            .iter()
            .any(|d| d.kind == AllocDecisionKind::Targets),
        "{ctx}: no Targets decision recorded"
    );

    // Every grant chain that completed must telescope exactly.
    assert!(
        chains_sum_exactly(log.grants.iter().copied()),
        "{ctx}: a completed grant chain's legs do not sum to its startup wait"
    );
}

/// The exhaustive grid: all 12 policy pairs × all SLO scenarios.
#[test]
fn policy_grid_preserves_dwell_and_provenance_invariants() {
    for profile in slo::profiles() {
        for policies in PolicyConfig::all() {
            let (sys, makespan) = run_cell(&profile, policies, 300);
            let ctx = format!("{} {policies}", profile.name);
            check_invariants(&sys, makespan, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The invariants hold at any workload length, not just the grid's.
    #[test]
    fn invariants_hold_at_any_request_count(requests in 50usize..500) {
        let profile = slo::find("slo_poisson").expect("registry profile");
        let (sys, makespan) = run_cell(&profile, PolicyConfig::default(), requests);
        let ctx = format!("slo_poisson defaults requests={requests}");
        check_invariants(&sys, makespan, &ctx);
    }
}

/// A decision-audited scheduler-activation kernel over `profile`'s
/// shards, built but not yet run.
fn audited_kernel(profile: &SloProfile, requests: usize) -> Kernel {
    let mut cfg = profile.cfg.clone();
    cfg.requests = requests;
    let mut k = Kernel::new(
        KernelConfig {
            cpus: profile.cpus,
            daemons: DaemonSpec::topaz_default_set(),
            ..KernelConfig::default()
        },
        CostModel::firefly_prototype(),
    );
    k.enable_decision_log();
    k.enable_dwell_ledger();
    k.enable_windowed_ledger(profile.window);
    let book = Rc::new(RefCell::new(SpanBook::with_capacity(cfg.requests)));
    for shard in 0..cfg.shards {
        k.add_space(SpaceSpec {
            name: format!("slo{shard}"),
            priority: 1,
            kind: SpaceKindSpec::UserLevel {
                runtime: Box::new(FastThreads::new(FtConfig::scheduler_activations(
                    profile.cpus as u32,
                ))),
                main: shard_listener(&cfg, shard, Rc::clone(&book)),
            },
            mem_pages: None,
            start_at: SimTime::ZERO,
        });
    }
    k
}

fn same_episodes(a: &DwellLedger, b: &DwellLedger) -> bool {
    a.num_cpus() == b.num_cpus() && a.episodes().iter().eq(b.episodes().iter())
}

/// The flat and windowed time snapshots of `k`, stopped at `stop`, each
/// verify there, and the flat ledger's machine total of every state
/// equals the windowed ledger's total over all windows.
fn check_time_snapshots(k: &Kernel, stop: SimTime) {
    let flat = k.time_ledger();
    flat.verify(stop)
        .unwrap_or_else(|e| panic!("time ledger at {stop}: {e}"));
    let windowed = k.windowed_ledger().expect("windowed ledger enabled");
    windowed
        .verify(stop)
        .unwrap_or_else(|e| panic!("windowed ledger at {stop}: {e}"));
    for state in CpuState::ALL {
        let over_windows: u64 = (0..windowed.window_count())
            .map(|w| windowed.state_ns(w, state))
            .sum();
        assert_eq!(
            flat.total_ns(state),
            over_windows,
            "{} at {stop}: flat vs windowed",
            state.name()
        );
    }
}

#[test]
fn dwell_snapshots_stay_isolated_from_the_running_ledger() {
    let profile = slo::find("slo_bursty").expect("registry profile");
    let requests = 8_000;
    let mut whole = audited_kernel(&profile, requests);
    let out = whole.run();
    assert!(!out.timed_out && !out.deadlocked, "{out:?}");
    let whole_dwell = whole.dwell_ledger().expect("dwell ledger enabled");
    // Enough episodes that snapshots share several full 4 096-row pages.
    assert!(
        whole_dwell.episodes().len() > 3 * 4096,
        "{} episodes",
        whole_dwell.episodes().len()
    );

    let mut sliced = audited_kernel(&profile, requests);
    let mut snaps: Vec<(SimTime, SimTime, DwellLedger)> = Vec::new();
    for i in 1..8 {
        let limit = SimTime::from_nanos(out.end.as_nanos() / 8 * i);
        let o = sliced.run_until(limit);
        assert!(o.timed_out && !o.deadlocked, "slice to {limit}: {o:?}");
        let snap = sliced.dwell_ledger().expect("dwell ledger enabled");
        check_time_snapshots(&sliced, sliced.now());
        // Rows of full pages the previous snapshot held are the same rows
        // here: snapshots share full pages rather than copy them.
        if let Some((_, _, prev)) = snaps.last() {
            let full = prev.episodes().len() / 4096 * 4096;
            for r in (0..full).step_by(512) {
                assert_eq!(
                    prev.episodes().row_address(r),
                    snap.episodes().row_address(r),
                    "episode {r} copied, not shared"
                );
            }
        }
        snaps.push((limit, sliced.now(), snap));
    }
    let o = sliced.run();
    assert_eq!((o.end, o.timed_out, o.deadlocked), (out.end, false, false));
    let sliced_dwell = sliced.dwell_ledger().expect("dwell ledger enabled");
    assert!(same_episodes(&sliced_dwell, &whole_dwell), "final snapshot");
    check_time_snapshots(&sliced, out.end);
    sliced_dwell
        .verify(out.end)
        .unwrap_or_else(|e| panic!("final snapshot: {e}"));

    for (limit, stop, snap) in &snaps {
        snap.verify(*stop)
            .unwrap_or_else(|e| panic!("snapshot at {stop}: {e}"));
        let mut fresh = audited_kernel(&profile, requests);
        fresh.run_until(*limit);
        assert_eq!(fresh.now(), *stop, "fresh run to {limit}");
        let fresh_dwell = fresh.dwell_ledger().expect("dwell ledger enabled");
        assert!(
            same_episodes(snap, &fresh_dwell),
            "snapshot at {stop} differs from a fresh run stopped there"
        );
    }
}
