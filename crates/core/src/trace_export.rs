//! Trace exporters: Chrome trace-event (Perfetto-loadable) JSON timelines
//! and a plain-text event log.
//!
//! The Perfetto document follows the Chrome trace-event JSON format
//! (`{"traceEvents": [...]}`): one *track* (a pid 1 "thread") per
//! simulated CPU carrying execution segments as `"X"` duration slices and
//! upcalls as `"i"` instants, plus one track (under pid 2) per address
//! space carrying its lifecycle, hint, and spin events. Hand-rolled like
//! the rest of the JSON in this crate (no serde in the tree — `DESIGN.md`
//! §6), escaping through [`crate::reporting::json_escape`].

use crate::reporting::json_escape;
use sa_sim::{SimTime, Trace, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Synthetic pid grouping the per-CPU tracks.
const PID_CPUS: u32 = 1;
/// Synthetic pid grouping the per-address-space tracks.
const PID_SPACES: u32 = 2;
/// Synthetic pid grouping the windowed-metrics counter tracks.
const PID_COUNTERS: u32 = 3;

/// Virtual time as the trace-event `ts` field (microseconds, fractional).
fn ts_us(at: SimTime) -> f64 {
    at.as_nanos() as f64 / 1_000.0
}

fn push_meta(out: &mut String, pid: u32, tid: Option<u32>, name: &str) {
    match tid {
        None => {
            let _ = writeln!(
                out,
                r#"    {{"name": "process_name", "ph": "M", "pid": {pid}, "tid": 0, "args": {{"name": "{}"}}}},"#,
                json_escape(name)
            );
        }
        Some(tid) => {
            let _ = writeln!(
                out,
                r#"    {{"name": "thread_name", "ph": "M", "pid": {pid}, "tid": {tid}, "args": {{"name": "{}"}}}},"#,
                json_escape(name)
            );
        }
    }
}

/// An `"i"` (instant) trace event, thread-scoped.
fn push_instant(out: &mut String, pid: u32, tid: u32, ts: f64, name: &str, args: &str) {
    let _ = writeln!(
        out,
        r#"    {{"name": "{}", "ph": "i", "s": "t", "pid": {pid}, "tid": {tid}, "ts": {ts:.3}{args}}},"#,
        json_escape(name)
    );
}

/// Renders the trace as a Chrome trace-event / Perfetto JSON timeline.
///
/// `cpus` sizes the per-CPU track set so empty processors still appear
/// (a six-processor run where two CPUs never ran shows six tracks).
pub fn perfetto_json(trace: &Trace, cpus: u16) -> String {
    // Space names surface from SpaceStart events; spaces that appear only
    // in other events still get a track.
    let mut spaces: BTreeMap<u32, String> = BTreeMap::new();
    let note_space = |spaces: &mut BTreeMap<u32, String>, id: u32| {
        spaces.entry(id).or_insert_with(|| format!("as{id}"));
    };
    for r in trace.records() {
        match &r.event {
            TraceEvent::SpaceStart { space, name } => {
                spaces.insert(*space, format!("as{space} {name}"));
            }
            TraceEvent::SpaceDone { space }
            | TraceEvent::Unblock { space, .. }
            | TraceEvent::DesiredProcessors { space, .. }
            | TraceEvent::ProcessorIdle { space, .. }
            | TraceEvent::SpinStart { space, .. }
            | TraceEvent::SpinStop { space, .. }
            | TraceEvent::Upcall { space, .. }
            | TraceEvent::TrapEnter { space, .. }
            | TraceEvent::TrapExit { space, .. }
            | TraceEvent::Block { space, .. }
            | TraceEvent::KtBlock { space, .. }
            | TraceEvent::KtWake { space, .. }
            | TraceEvent::ActStop { space, .. }
            | TraceEvent::Grant { space, .. }
            | TraceEvent::DebugStop { space, .. }
            | TraceEvent::DebugResume { space, .. }
            | TraceEvent::SpanBind { space, .. } => note_space(&mut spaces, *space),
            TraceEvent::Dispatch { space, .. } | TraceEvent::SegRun { space, .. } => {
                if let Some(space) = space {
                    note_space(&mut spaces, *space);
                }
            }
            _ => {}
        }
    }

    let mut out = String::from("{\n  \"traceEvents\": [\n");
    push_meta(&mut out, PID_CPUS, None, "cpus");
    for cpu in 0..cpus as u32 {
        push_meta(&mut out, PID_CPUS, Some(cpu), &format!("cpu{cpu}"));
    }
    push_meta(&mut out, PID_SPACES, None, "address spaces");
    for (id, name) in &spaces {
        push_meta(&mut out, PID_SPACES, Some(*id), name);
    }

    for r in trace.records() {
        let ts = ts_us(r.at);
        match &r.event {
            TraceEvent::SegRun {
                cpu,
                space,
                kind,
                dur,
            } => {
                // Emitted at completion: the slice starts `dur` earlier.
                let dur_us = dur.as_nanos() as f64 / 1_000.0;
                let start = ts - dur_us;
                let args = match space {
                    Some(s) => format!(r#", "args": {{"space": {s}}}"#),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    r#"    {{"name": "{}", "ph": "X", "pid": {PID_CPUS}, "tid": {cpu}, "ts": {start:.3}, "dur": {dur_us:.3}{args}}},"#,
                    json_escape(kind)
                );
            }
            TraceEvent::Upcall {
                kind,
                space,
                cpu,
                act,
                vp,
            } => {
                let vp_arg = vp.map(|v| format!(r#", "vp": {v}"#)).unwrap_or_default();
                let args = format!(r#", "args": {{"space": {space}, "act": {act}{vp_arg}}}"#);
                push_instant(
                    &mut out,
                    PID_CPUS,
                    *cpu,
                    ts,
                    &format!("upcall:{kind}"),
                    &args,
                );
            }
            TraceEvent::TrapEnter { cpu, call, .. } => {
                push_instant(&mut out, PID_CPUS, *cpu, ts, &format!("trap:{call}"), "");
            }
            TraceEvent::TrapExit { cpu, .. } => {
                push_instant(&mut out, PID_CPUS, *cpu, ts, "trap_exit", "");
            }
            TraceEvent::Block { cpu, act, .. } => {
                let args = format!(r#", "args": {{"act": {act}}}"#);
                push_instant(&mut out, PID_CPUS, *cpu, ts, "block", &args);
            }
            TraceEvent::KtBlock { cpu, kt, why, .. } => {
                let args = format!(r#", "args": {{"kt": {kt}, "why": "{why}"}}"#);
                push_instant(&mut out, PID_CPUS, *cpu, ts, "kt_block", &args);
            }
            TraceEvent::KtWake { space, kt } => {
                let args = format!(r#", "args": {{"kt": {kt}}}"#);
                push_instant(&mut out, PID_SPACES, *space, ts, "kt_wake", &args);
            }
            TraceEvent::ActStop {
                cpu, act, decision, ..
            } => {
                let args = format!(r#", "args": {{"act": {act}, "decision": {decision}}}"#);
                push_instant(&mut out, PID_CPUS, *cpu, ts, "act_stop", &args);
            }
            TraceEvent::KtPreempt { cpu, kt } => {
                let args = format!(r#", "args": {{"kt": {kt}}}"#);
                push_instant(&mut out, PID_CPUS, *cpu, ts, "kt_preempt", &args);
            }
            TraceEvent::Grant {
                cpu,
                space,
                decision,
            } => {
                let args = format!(r#", "args": {{"space": {space}, "decision": {decision}}}"#);
                push_instant(&mut out, PID_CPUS, *cpu, ts, "grant", &args);
            }
            TraceEvent::Dispatch { cpu, unit, .. } => {
                push_instant(
                    &mut out,
                    PID_CPUS,
                    *cpu,
                    ts,
                    &format!("dispatch:{unit}"),
                    "",
                );
            }
            TraceEvent::DebugStop { cpu, .. } => {
                push_instant(&mut out, PID_CPUS, *cpu, ts, "debug_stop", "");
            }
            TraceEvent::DebugResume { cpu, .. } => {
                push_instant(&mut out, PID_CPUS, *cpu, ts, "debug_resume", "");
            }
            TraceEvent::SpaceStart { space, .. } => {
                push_instant(&mut out, PID_SPACES, *space, ts, "start", "");
            }
            TraceEvent::SpaceDone { space } => {
                push_instant(&mut out, PID_SPACES, *space, ts, "done", "");
            }
            TraceEvent::Unblock { space, act } => {
                let args = format!(r#", "args": {{"act": {act}}}"#);
                push_instant(&mut out, PID_SPACES, *space, ts, "unblock", &args);
            }
            TraceEvent::DesiredProcessors { space, total } => {
                let args = format!(r#", "args": {{"total": {total}}}"#);
                push_instant(&mut out, PID_SPACES, *space, ts, "hint:desired", &args);
            }
            TraceEvent::ProcessorIdle { space, act } => {
                let args = format!(r#", "args": {{"act": {act}}}"#);
                push_instant(&mut out, PID_SPACES, *space, ts, "hint:idle", &args);
            }
            TraceEvent::SpinStart { space, vp } => {
                let args = format!(r#", "args": {{"vp": {vp}}}"#);
                push_instant(&mut out, PID_SPACES, *space, ts, "spin_start", &args);
            }
            TraceEvent::SpinStop { space, vp } => {
                let args = format!(r#", "args": {{"vp": {vp}}}"#);
                push_instant(&mut out, PID_SPACES, *space, ts, "spin_stop", &args);
            }
            TraceEvent::DaemonWake { daemon } => {
                let args = format!(r#", "args": {{"daemon": {daemon}}}"#);
                push_instant(&mut out, PID_SPACES, 0, ts, "daemon_wake", &args);
            }
            TraceEvent::SpanBind { req, space, thread } => {
                let args = format!(r#", "args": {{"req": {req}, "thread": {thread}}}"#);
                push_instant(&mut out, PID_SPACES, *space, ts, "span_bind", &args);
            }
        }
    }
    // Trailing-comma cleanup: the loop writes "},\n" after every event.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// A named time series destined for a Perfetto counter track: one sampled
/// value per simulated-time point (typically one per metrics window).
pub struct CounterSeries {
    /// Track name as shown in the Perfetto UI (e.g. `"p99 response (us)"`).
    pub name: String,
    /// `(sample time, value)` points, in nondecreasing time order.
    pub points: Vec<(SimTime, f64)>,
}

/// Renders counter series as a Chrome trace-event / Perfetto JSON document
/// of `"C"` (counter) events, one track per series under a dedicated pid.
/// Counter values render with enough precision for ns-derived rates while
/// staying locale-free and deterministic.
pub fn perfetto_counters_json(series: &[CounterSeries]) -> String {
    let mut out = String::from("{\n  \"traceEvents\": [\n");
    push_meta(&mut out, PID_COUNTERS, None, "slo windows");
    for s in series {
        for (at, value) in &s.points {
            let _ = writeln!(
                out,
                r#"    {{"name": "{}", "ph": "C", "pid": {PID_COUNTERS}, "tid": 0, "ts": {:.3}, "args": {{"value": {:.6}}}}},"#,
                json_escape(&s.name),
                ts_us(*at),
                value
            );
        }
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// Renders the trace as a plain-text event log, one line per record in
/// `[time] tag: detail` form, so logs diff cleanly across identical-seed
/// runs.
pub fn text_log(trace: &Trace) -> String {
    let mut out = String::new();
    for r in trace.records() {
        let _ = writeln!(out, "[{}] {}: {}", r.at, r.tag(), r.event);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_sim::{SimDuration, UpcallKind};

    fn sample_trace() -> Trace {
        let mut t = Trace::unbounded();
        t.event(SimTime::from_micros(1), || TraceEvent::SpaceStart {
            space: 1,
            name: "app \"quoted\"".into(),
        });
        t.event(SimTime::from_micros(2), || TraceEvent::SegRun {
            cpu: 0,
            space: Some(1),
            kind: "user",
            dur: SimDuration::from_micros(1),
        });
        t.event(SimTime::from_micros(3), || TraceEvent::Upcall {
            kind: UpcallKind::Preempted,
            space: 1,
            cpu: 1,
            act: 4,
            vp: Some(2),
        });
        t.event(SimTime::from_micros(4), || TraceEvent::SpaceDone {
            space: 1,
        });
        t
    }

    #[test]
    fn perfetto_has_tracks_slices_and_instants() {
        let json = perfetto_json(&sample_trace(), 2);
        assert!(json.starts_with("{\n  \"traceEvents\": [\n"));
        assert!(json.contains(r#""name": "cpu0""#));
        assert!(json.contains(r#""name": "cpu1""#));
        assert!(json.contains(r#"as1 app \"quoted\""#), "{json}");
        assert!(json.contains(r#""ph": "X""#));
        assert!(json.contains(r#""name": "upcall:preempted""#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn perfetto_slice_start_precedes_completion() {
        let json = perfetto_json(&sample_trace(), 1);
        let slice = json
            .lines()
            .find(|l| l.contains(r#""ph": "X""#))
            .expect("a duration slice");
        assert!(slice.contains(r#""ts": 1.000"#), "{slice}");
        assert!(slice.contains(r#""dur": 1.000"#), "{slice}");
    }

    #[test]
    fn text_log_round_trips_tags_and_display() {
        let log = text_log(&sample_trace());
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("[1.000us] kernel.space_start: as1"));
        assert!(lines[2].contains("kernel.upcall: preempted -> act4 on cpu1 for as1 (vp2)"));
    }

    #[test]
    fn counter_json_emits_counter_events_per_point() {
        let series = vec![
            CounterSeries {
                name: "throughput (req/s)".into(),
                points: vec![
                    (SimTime::from_micros(0), 1000.0),
                    (SimTime::from_micros(50_000), 1250.5),
                ],
            },
            CounterSeries {
                name: "p99 response (us)".into(),
                points: vec![(SimTime::from_micros(0), 42.0)],
            },
        ];
        let json = perfetto_counters_json(&series);
        assert_eq!(json.matches(r#""ph": "C""#).count(), 3);
        assert!(json.contains(r#""name": "throughput (req/s)""#));
        assert!(json.contains(r#""ts": 50000.000"#), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_counter_json_is_well_formed() {
        let json = perfetto_counters_json(&[]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("slo windows"));
    }

    #[test]
    fn empty_trace_exports_are_well_formed() {
        let t = Trace::unbounded();
        let json = perfetto_json(&t, 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(text_log(&t).is_empty());
    }
}
