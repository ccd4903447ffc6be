//! The allocator-decision audit: `sa-experiments audit <profile>`.
//!
//! PR 8's SLO layer showed *that* the tail is dominated by startup wait;
//! this report shows *which allocator decisions* put it there. One
//! scheduler-activation cell of an SLO profile runs with decision
//! provenance on ([`SystemBuilder::decision_audit`]), and the report
//! joins three exact data sets:
//!
//! 1. **Decisions** — the kernel's typed
//!    [`AllocDecision`](sa_kernel::AllocDecision) records at its three
//!    §4.1 choke points (`targets()` recomputation, `pick_cpu()` grant,
//!    preemption-victim choice), dense monotonic ids.
//! 2. **Dwell** — the [`DwellLedger`](sa_sim::DwellLedger)'s per-CPU
//!    assignment episodes, verified to partition `cpus × makespan`
//!    exactly, rolled into the windowed churn series and flap counts.
//! 3. **Tail spans** — the slowest 0.1% of request spans, each joined
//!    with the reallocation decisions that touched its shard's space in
//!    its `[forked, first_run]` startup window, and attributed to the
//!    grant decision whose [`GrantChain`] delivered the processor it
//!    first ran on. Chain legs (decision → preempt done → upcall →
//!    first dispatch) telescope, so they sum to the chain's startup wait
//!    *exactly* — asserted on every completed chain.
//!
//! Everything derives from integer-nanosecond accounting in the
//! deterministic simulation, so all three formats are byte-identical
//! across runs and `--jobs` counts.

use crate::scenario::PolicyConfig;
use crate::slo::SloProfile;
use crate::trace_export::CounterSeries;
use crate::{AppSpec, SystemBuilder, ThreadApi};
use sa_kernel::{AllocDecisionKind, DaemonSpec, GrantChain};
use sa_sim::span::SpanBook;
use sa_sim::{ChurnWindow, SimDuration, SimTime};
use sa_workload::openloop::shard_listener;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Episodes shorter than this count as flaps (processors yanked back
/// before the space could amortize the grant).
const FLAP_THRESHOLD: SimDuration = SimDuration::from_millis(1);

/// Decision counts by choke point.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionCounts {
    /// All recorded decisions.
    pub total: u64,
    /// `targets()` recomputations.
    pub targets: u64,
    /// `pick_cpu()` grants.
    pub grants: u64,
    /// Preemption-victim choices.
    pub victims: u64,
}

/// Grant-chain rollup over every chain the run opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainStats {
    /// Chains opened (scheduler-activation grants).
    pub opened: u64,
    /// Chains that reached a first user dispatch.
    pub completed: u64,
    /// Summed leg times over completed chains: decision → preempt done,
    /// preempt done → `add_processor` upcall, upcall → first dispatch.
    pub leg_ns: [u64; 3],
    /// Summed decision-to-first-dispatch time over completed chains
    /// (equals `leg_ns` summed — asserted exactly per chain).
    pub startup_ns: u64,
}

/// Churn rollup from the dwell ledger.
#[derive(Debug, Clone)]
pub struct ChurnStats {
    /// Assignment changes driven by an allocator decision.
    pub reallocations: u64,
    /// Assigned (non-idle) episodes over the whole run.
    pub assigned_episodes: u64,
    /// Mean dwell of assigned episodes (ns).
    pub mean_dwell_ns: u64,
    /// Per-space flap counts (episodes shorter than 1 ms).
    pub flaps: Vec<u64>,
    /// The windowed churn series (width = the profile's metrics window).
    pub windows: Vec<ChurnWindow>,
    /// Most reallocations in any one window.
    pub peak_window_reallocations: u64,
}

/// One tail span joined against the decision log.
#[derive(Debug, Clone, Copy)]
pub struct TailSpanAudit {
    /// Span id (request index).
    pub span: u64,
    /// The shard (address space) that served it.
    pub shard: u32,
    /// End-to-end response (ns).
    pub response_ns: u64,
    /// The span's fork → first-run startup wait (ns).
    pub startup_wait_ns: u64,
    /// Reallocation decisions (grants + victims) touching the shard's
    /// space inside `[forked, first_run]`.
    pub decisions_in_window: u64,
    /// The grant decision attributed as the one that delivered the
    /// processor the span first ran on: the latest grant to the shard's
    /// space at or before `first_run`. `None` only if the space was
    /// never granted a processor before the span ran (does not happen in
    /// a completed run; kept honest rather than defaulted).
    pub attributed: Option<u64>,
    /// The attributed decision's causal chain, when one was opened.
    pub chain: Option<GrantChain>,
}

/// Attribution totals over the tail set (the acceptance number).
#[derive(Debug, Clone, Copy, Default)]
pub struct Attribution {
    /// Tail spans examined (slowest 0.1%).
    pub tail_count: u64,
    /// Tail spans attributed to a grant decision id.
    pub attributed_spans: u64,
    /// Summed startup wait over the tail (ns).
    pub startup_total_ns: u64,
    /// Summed startup wait over the *attributed* tail spans (ns).
    pub startup_attributed_ns: u64,
}

impl Attribution {
    /// Fraction of tail startup wait attributed to decision ids.
    pub fn share(&self) -> f64 {
        self.startup_attributed_ns as f64 / self.startup_total_ns.max(1) as f64
    }
}

/// The full audit report.
pub struct AuditReport {
    /// The SLO profile that ran.
    pub profile_name: &'static str,
    /// Machine size.
    pub cpus: u16,
    /// Churn window width (the profile's metrics window).
    pub window: SimDuration,
    /// The policy pair.
    pub policies: PolicyConfig,
    /// Requests completed.
    pub completed: u64,
    /// End of the run.
    pub makespan: SimTime,
    /// Decision counts by choke point.
    pub decisions: DecisionCounts,
    /// Grant-chain rollup.
    pub chains: ChainStats,
    /// Churn rollup from the dwell ledger.
    pub churn: ChurnStats,
    /// The slowest 0.1% spans, slowest last, joined to decisions.
    pub tail: Vec<TailSpanAudit>,
    /// Attribution totals (the ≥95% acceptance number).
    pub attribution: Attribution,
}

/// Runs the scheduler-activation cell of `profile` with decision
/// provenance on and joins the three data sets. `requests` overrides the
/// profile's request count (smoke tests and quick runs).
pub fn run_audit(
    profile: &SloProfile,
    policies: PolicyConfig,
    requests: Option<usize>,
) -> AuditReport {
    let mut cfg = profile.cfg.clone();
    if let Some(n) = requests {
        cfg.requests = n;
    }
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
    assert!(report.all_done(), "audit cell: {:?}", report.outcome);
    let makespan = report.outcome.end;

    // Exact-conservation checks first: the flat time ledger and the
    // dwell ledger must both partition cpus × makespan.
    sys.time_ledger()
        .verify(makespan)
        .unwrap_or_else(|e| panic!("audit: flat ledger: {e}"));
    let dwell = sys.dwell_ledger().expect("decision audit was enabled");
    dwell
        .verify(makespan)
        .unwrap_or_else(|e| panic!("audit: dwell ledger: {e}"));
    let log = sys.decision_log().expect("decision audit was enabled");

    let mut decisions = DecisionCounts {
        total: log.decisions.len() as u64,
        ..DecisionCounts::default()
    };
    // Per-space (at, decision id) grant/victim timelines for the tail
    // join. Decision ids and times are both monotone, so these are
    // sorted by construction and the joins below are binary searches.
    let n_spaces = sys
        .apps()
        .iter()
        .map(|a| a.0.index() + 1)
        .max()
        .unwrap_or(0);
    let mut grants_by_space: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n_spaces];
    let mut victims_by_space: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n_spaces];
    for d in &log.decisions {
        match &d.kind {
            AllocDecisionKind::Targets { .. } => decisions.targets += 1,
            AllocDecisionKind::Grant { space, .. } => {
                decisions.grants += 1;
                if let Some(v) = grants_by_space.get_mut(*space as usize) {
                    v.push((d.at, d.id));
                }
            }
            AllocDecisionKind::Victim { space, .. } => {
                decisions.victims += 1;
                if let Some(v) = victims_by_space.get_mut(*space as usize) {
                    v.push((d.at, d.id));
                }
            }
        }
    }

    let mut chains = ChainStats {
        opened: log.grants.len() as u64,
        ..ChainStats::default()
    };
    for g in &log.grants {
        if let Some(legs) = g.legs_ns() {
            chains.completed += 1;
            let total = g.startup_wait_ns().expect("completed chain");
            assert_eq!(
                legs.iter().sum::<u64>(),
                total,
                "audit: chain {} legs must telescope exactly",
                g.decision
            );
            for (acc, ns) in chains.leg_ns.iter_mut().zip(legs) {
                *acc += ns;
            }
            chains.startup_ns += total;
        }
    }

    let churn = churn_stats(&dwell, profile.window);

    // The tail join: slowest 0.1% by (response, id) — the same
    // deterministic cut as the SLO report's tail attribution.
    let space_idx: Vec<usize> = sys.apps().iter().map(|a| a.0.index()).collect();
    let book = book.borrow();
    let spans = book.spans();
    assert_eq!(spans.len(), cfg.requests, "audit: request count");
    let mut by_response: Vec<(u64, usize)> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.response().as_nanos(), i))
        .collect();
    by_response.sort_unstable();
    let count = (spans.len() / 1000).max(1).min(spans.len());
    let mut tail = Vec::with_capacity(count);
    let mut attribution = Attribution {
        tail_count: count as u64,
        ..Attribution::default()
    };
    for &(_, i) in &by_response[by_response.len() - count..] {
        let s = &spans[i];
        let space = space_idx[s.shard as usize];
        let grants = &grants_by_space[space];
        let victims = &victims_by_space[space];
        let in_window = count_in_window(grants, s.forked, s.first_run)
            + count_in_window(victims, s.forked, s.first_run);
        // The grant that delivered the span's processor: the latest
        // grant to its space at or before its first instruction.
        let attributed = latest_at_or_before(grants, s.first_run);
        let chain = attributed.and_then(|d| log.grant(d)).copied();
        attribution.startup_total_ns += s.startup_wait_ns();
        if attributed.is_some() {
            attribution.attributed_spans += 1;
            attribution.startup_attributed_ns += s.startup_wait_ns();
        }
        tail.push(TailSpanAudit {
            span: i as u64,
            shard: s.shard,
            response_ns: s.response().as_nanos(),
            startup_wait_ns: s.startup_wait_ns(),
            decisions_in_window: in_window,
            attributed,
            chain,
        });
    }

    AuditReport {
        profile_name: profile.name,
        cpus: profile.cpus,
        window: profile.window,
        policies,
        completed: spans.len() as u64,
        makespan,
        decisions,
        chains,
        churn,
        tail,
        attribution,
    }
}

/// Decisions in `timeline` with `from <= at <= to` (timeline sorted by
/// time).
fn count_in_window(timeline: &[(SimTime, u64)], from: SimTime, to: SimTime) -> u64 {
    let lo = timeline.partition_point(|&(at, _)| at < from);
    let hi = timeline.partition_point(|&(at, _)| at <= to);
    (hi - lo) as u64
}

/// The id of the last decision in `timeline` at or before `t`.
fn latest_at_or_before(timeline: &[(SimTime, u64)], t: SimTime) -> Option<u64> {
    let hi = timeline.partition_point(|&(at, _)| at <= t);
    hi.checked_sub(1).map(|i| timeline[i].1)
}

fn churn_stats(dwell: &sa_sim::DwellLedger, width: SimDuration) -> ChurnStats {
    let mut reallocations = 0u64;
    let mut assigned_episodes = 0u64;
    let mut dwell_ns = 0u64;
    for ep in dwell.episodes() {
        if ep.closed_by != 0 {
            reallocations += 1;
        }
        if ep.space.is_some() {
            assigned_episodes += 1;
            dwell_ns += ep.dwell().as_nanos();
        }
    }
    let windows = dwell.churn_windows(width);
    let peak = windows.iter().map(|w| w.reallocations).max().unwrap_or(0);
    ChurnStats {
        reallocations,
        assigned_episodes,
        mean_dwell_ns: dwell_ns / assigned_episodes.max(1),
        flaps: dwell.flap_counts(FLAP_THRESHOLD),
        windows,
        peak_window_reallocations: peak,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders the human-readable audit report. The `churn:` line is
/// machine-greppable (CI asserts its presence and shape).
pub fn render_audit_table(r: &AuditReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Decision audit: {} — {} requests on {} CPUs, makespan {}",
        r.profile_name, r.completed, r.cpus, r.makespan
    );
    if !r.policies.is_default() {
        let _ = writeln!(out, "  policies: {}", r.policies);
    }
    let _ = writeln!(
        out,
        "decisions: {} total ({} targets, {} grants, {} victims); ids dense 1..={}",
        r.decisions.total,
        r.decisions.targets,
        r.decisions.grants,
        r.decisions.victims,
        r.decisions.total
    );
    let _ = writeln!(
        out,
        "dwell conservation: {} episodes partition {} cpus x {} exactly (verified)",
        r.churn.assigned_episodes, r.cpus, r.makespan
    );
    let flaps: u64 = r.churn.flaps.iter().sum();
    let _ = writeln!(
        out,
        "churn: {} reallocations, {} assigned episodes, mean dwell {}, \
         flaps(<{}) {}, peak {}/window",
        r.churn.reallocations,
        r.churn.assigned_episodes,
        SimDuration::from_nanos(r.churn.mean_dwell_ns),
        FLAP_THRESHOLD,
        flaps,
        r.churn.peak_window_reallocations
    );

    let _ = writeln!(out, "\nGrant-latency decomposition (completed chains):");
    let mut t = crate::reporting::Table::new(&["leg", "total", "mean_us", "share"]);
    let legs = ["decision->preempt", "preempt->upcall", "upcall->dispatch"];
    for (name, &ns) in legs.iter().zip(&r.chains.leg_ns) {
        t.row(vec![
            name.to_string(),
            format!("{}", SimDuration::from_nanos(ns)),
            format!("{:.2}", us(ns) / r.chains.completed.max(1) as f64),
            format!(
                "{:.1}%",
                ns as f64 * 100.0 / r.chains.startup_ns.max(1) as f64
            ),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "chains: {} opened, {} completed; legs sum exactly to startup {} (asserted)",
        r.chains.opened,
        r.chains.completed,
        SimDuration::from_nanos(r.chains.startup_ns)
    );

    let _ = writeln!(out, "\nChurn windows ({} wide):", r.window);
    let mut t = crate::reporting::Table::new(&["window", "reallocs", "episodes", "mean_dwell_us"]);
    for w in &r.churn.windows {
        t.row(vec![
            format!("{}", SimTime::from_nanos(w.window * r.window.as_nanos())),
            format!("{}", w.reallocations),
            format!("{}", w.episodes_ended),
            format!("{:.1}", us(w.dwell_ns / w.episodes_ended.max(1))),
        ]);
    }
    out.push_str(&t.render());

    let _ = writeln!(
        out,
        "\nTail join: slowest {} spans vs reallocation decisions",
        r.tail.len()
    );
    let mut t = crate::reporting::Table::new(&[
        "span",
        "shard",
        "resp_us",
        "startup_us",
        "dec_in_win",
        "grant",
        "d->p_us",
        "p->u_us",
        "u->d_us",
    ]);
    for s in &r.tail {
        let legs = s.chain.and_then(|c| c.legs_ns());
        let leg = |i: usize| legs.map_or("-".to_string(), |l| format!("{:.2}", us(l[i])));
        t.row(vec![
            format!("{}", s.span),
            format!("{}", s.shard),
            format!("{:.1}", us(s.response_ns)),
            format!("{:.1}", us(s.startup_wait_ns)),
            format!("{}", s.decisions_in_window),
            s.attributed.map_or("-".to_string(), |d| format!("d{d}")),
            leg(0),
            leg(1),
            leg(2),
        ]);
    }
    out.push_str(&t.render());
    let a = &r.attribution;
    let _ = writeln!(
        out,
        "tail attribution: {}/{} spans, {:.1}% of tail startup_wait ({} of {}) \
         attributed to grant decision ids",
        a.attributed_spans,
        a.tail_count,
        a.share() * 100.0,
        SimDuration::from_nanos(a.startup_attributed_ns),
        SimDuration::from_nanos(a.startup_total_ns)
    );
    out
}

/// Renders the tail join as CSV (one row per tail span).
pub fn render_audit_csv(r: &AuditReport) -> String {
    let mut out = String::from(
        "span,shard,response_us,startup_wait_us,decisions_in_window,attributed_decision,\
         leg_decide_preempt_ns,leg_preempt_upcall_ns,leg_upcall_dispatch_ns,chain_startup_ns\n",
    );
    for s in &r.tail {
        let _ = write!(
            out,
            "{},{},{:.3},{:.3},{},{}",
            s.span,
            s.shard,
            us(s.response_ns),
            us(s.startup_wait_ns),
            s.decisions_in_window,
            s.attributed.map_or(String::from(""), |d| d.to_string()),
        );
        match s.chain.and_then(|c| c.legs_ns()) {
            Some(l) => {
                let _ = writeln!(out, ",{},{},{},{}", l[0], l[1], l[2], l.iter().sum::<u64>());
            }
            None => out.push_str(",,,,\n"),
        }
    }
    out
}

/// Builds Perfetto counter tracks from the churn windows (render with
/// [`crate::trace_export::perfetto_counters_json`]).
pub fn audit_counter_series(r: &AuditReport) -> Vec<CounterSeries> {
    let start = |w: &ChurnWindow| SimTime::from_nanos(w.window * r.window.as_nanos());
    vec![
        CounterSeries {
            name: "audit: reallocations/window".into(),
            points: r
                .churn
                .windows
                .iter()
                .map(|w| (start(w), w.reallocations as f64))
                .collect(),
        },
        CounterSeries {
            name: "audit: episodes ended/window".into(),
            points: r
                .churn
                .windows
                .iter()
                .map(|w| (start(w), w.episodes_ended as f64))
                .collect(),
        },
        CounterSeries {
            name: "audit: mean dwell (us)".into(),
            points: r
                .churn
                .windows
                .iter()
                .map(|w| (start(w), us(w.dwell_ns / w.episodes_ended.max(1))))
                .collect(),
        },
    ]
}

/// Quick check used by the property test: every completed chain's legs
/// sum exactly to its startup wait (also asserted in [`run_audit`]).
pub fn chains_sum_exactly(chains: impl IntoIterator<Item = GrantChain>) -> bool {
    chains.into_iter().all(|g| match g.legs_ns() {
        Some(l) => Some(l.iter().sum::<u64>()) == g.startup_wait_ns(),
        None => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo;

    fn small_report() -> AuditReport {
        let mut p = slo::find("slo_poisson").unwrap();
        p.window = SimDuration::from_millis(10);
        run_audit(&p, PolicyConfig::default(), Some(600))
    }

    #[test]
    fn audit_attributes_the_tail_and_chains_telescope() {
        let r = small_report();
        assert_eq!(r.completed, 600);
        assert_eq!(r.tail.len(), 1);
        assert!(r.decisions.total > 0);
        assert!(r.decisions.grants > 0, "grants must be recorded");
        assert!(
            r.attribution.share() >= 0.95,
            "attribution share {:.3} below the 95% acceptance bound",
            r.attribution.share()
        );
        assert!(r.chains.completed > 0);
        assert_eq!(
            r.chains.leg_ns.iter().sum::<u64>(),
            r.chains.startup_ns,
            "summed legs must telescope to summed startup"
        );
    }

    #[test]
    fn audit_renders_every_format() {
        let r = small_report();
        let table = render_audit_table(&r);
        assert!(table.contains("churn: "));
        assert!(table.contains("dwell conservation:"));
        assert!(table.contains("tail attribution:"));
        let csv = render_audit_csv(&r);
        assert_eq!(csv.lines().count(), 1 + r.tail.len());
        assert!(csv.starts_with("span,shard,"));
        let json = crate::trace_export::perfetto_counters_json(&audit_counter_series(&r));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn audit_is_deterministic_across_runs() {
        let a = render_audit_table(&small_report());
        let b = render_audit_table(&small_report());
        assert_eq!(a, b);
    }

    #[test]
    fn window_join_helpers_binary_search_correctly() {
        let t = |us: u64| SimTime::from_micros(us);
        let tl = vec![(t(10), 1u64), (t(20), 2), (t(20), 3), (t(40), 4)];
        assert_eq!(count_in_window(&tl, t(10), t(20)), 3);
        assert_eq!(count_in_window(&tl, t(21), t(39)), 0);
        assert_eq!(latest_at_or_before(&tl, t(25)), Some(3));
        assert_eq!(latest_at_or_before(&tl, t(5)), None);
        assert_eq!(latest_at_or_before(&tl, t(40)), Some(4));
    }
}
