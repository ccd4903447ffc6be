//! Structured execution tracing.
//!
//! The kernel and thread runtimes emit typed [`TraceEvent`]s at
//! interesting points (upcalls, traps, preemptions, blocks, allocator
//! decisions, dispatches, spins). Tracing is off by default; tests and
//! the `upcall_trace` example turn it on to assert on the *sequence* of
//! events, which is how we unit-test Table 2's upcall protocol, and the
//! exporters in `sa_core` turn the same stream into a Perfetto timeline
//! or a plain-text log.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// The four kernel-to-runtime upcall kinds of the paper's Table 2.
///
/// Indexed (`kind as usize`) so per-kind counters can be stored as a
/// fixed array — adding a kind here forces every such array to grow,
/// which is the point: a new upcall kind cannot silently go uncounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpcallKind {
    /// "Add this processor" — a new processor was granted to the space.
    AddProcessor = 0,
    /// "Processor has been preempted" — an activation was stopped.
    Preempted = 1,
    /// "Activation has blocked" — an activation blocked in the kernel.
    Blocked = 2,
    /// "Activation has unblocked" — a blocked activation can continue.
    Unblocked = 3,
}

impl UpcallKind {
    /// Number of upcall kinds; the length of per-kind counter arrays.
    pub const COUNT: usize = 4;

    /// Every kind, in index order.
    pub const ALL: [UpcallKind; UpcallKind::COUNT] = [
        UpcallKind::AddProcessor,
        UpcallKind::Preempted,
        UpcallKind::Blocked,
        UpcallKind::Unblocked,
    ];

    /// Stable index for counter arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The paper's name for the upcall.
    pub fn name(self) -> &'static str {
        match self {
            UpcallKind::AddProcessor => "add_processor",
            UpcallKind::Preempted => "preempted",
            UpcallKind::Blocked => "blocked",
            UpcallKind::Unblocked => "unblocked",
        }
    }
}

impl fmt::Display for UpcallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed traced occurrence.
///
/// Ids are raw integers (`sa_sim` sits below the kernel's newtyped id
/// layer): `space` is an address-space id, `cpu` a physical processor
/// index, `act` an activation id, `vp` a virtual processor number, `kt`
/// a kernel-thread id.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // id fields follow the naming convention above
pub enum TraceEvent {
    /// An address space was admitted and its first activation queued.
    SpaceStart { space: u32, name: String },
    /// An address space ran to completion.
    SpaceDone { space: u32 },
    /// One upcall event delivered to a space's runtime on a processor.
    Upcall {
        kind: UpcallKind,
        space: u32,
        cpu: u32,
        act: u32,
        /// The virtual processor the event concerns, when it has one.
        vp: Option<u32>,
    },
    /// An activation trapped into the kernel (syscall entry).
    TrapEnter {
        space: u32,
        cpu: u32,
        act: u32,
        call: &'static str,
    },
    /// A trapped activation resumed at user level (syscall exit).
    TrapExit { space: u32, cpu: u32, act: u32 },
    /// An activation blocked in the kernel (I/O, page fault, channel).
    Block { space: u32, cpu: u32, act: u32 },
    /// A blocked activation's kernel operation completed.
    Unblock { space: u32, act: u32 },
    /// A kernel thread blocked in the kernel; `why` names the
    /// [`BlockKind`](../sa_kernel) ("io", "chan", "app_lock", ...).
    KtBlock {
        space: u32,
        cpu: u32,
        kt: u32,
        why: &'static str,
    },
    /// A blocked kernel thread was woken (made runnable again).
    KtWake { space: u32, kt: u32 },
    /// An activation was stopped so its processor could be reallocated.
    ActStop {
        space: u32,
        cpu: u32,
        act: u32,
        /// Whether user context was captured mid-segment.
        saved: bool,
        /// Allocator victim-decision id behind the stop.
        decision: u64,
    },
    /// A kernel thread was preempted off a processor at quantum expiry.
    KtPreempt { cpu: u32, kt: u32 },
    /// The allocator granted a processor to a space.
    Grant {
        cpu: u32,
        space: u32,
        /// Allocator grant-decision id behind the assignment.
        decision: u64,
    },
    /// Downcall hint: the space declared how many processors it wants.
    DesiredProcessors { space: u32, total: u32 },
    /// Downcall hint: an activation declared its processor idle.
    ProcessorIdle { space: u32, act: u32 },
    /// A kernel daemon woke for its periodic duty cycle.
    DaemonWake { daemon: u32 },
    /// A schedulable unit was placed on a processor.
    Dispatch {
        cpu: u32,
        space: Option<u32>,
        unit: &'static str,
    },
    /// A completed execution segment: `dur` of `kind` work ending now.
    ///
    /// Emitted at segment *completion* so preempted remainders never
    /// appear; the Perfetto exporter derives the slice start as
    /// `at - dur`.
    SegRun {
        cpu: u32,
        space: Option<u32>,
        kind: &'static str,
        dur: SimDuration,
    },
    /// A virtual processor began spinning (lock wait or idle loop).
    SpinStart { space: u32, vp: u32 },
    /// A spinning virtual processor stopped (acquired, kicked, yielded).
    SpinStop { space: u32, vp: u32 },
    /// Debugger stopped an activation (it stays a reported processor).
    DebugStop { space: u32, cpu: u32, act: u32 },
    /// Debugger resumed a stopped activation.
    DebugResume { space: u32, cpu: u32, act: u32 },
    /// A request span was bound to the thread forked to serve it, so
    /// per-request ids join against every later thread-keyed event
    /// (dispatches, blocks, segments) of that thread.
    SpanBind {
        /// Stable request id from the workload's span book.
        req: u64,
        space: u32,
        /// Kernel-thread or user-thread id, per the space's substrate.
        thread: u32,
    },
}

impl TraceEvent {
    /// Dot-separated category, e.g. `"kernel.upcall"`.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::SpaceStart { .. } => "kernel.space_start",
            TraceEvent::SpaceDone { .. } => "kernel.space_done",
            TraceEvent::Upcall { .. } => "kernel.upcall",
            TraceEvent::TrapEnter { .. } => "kernel.trap",
            TraceEvent::TrapExit { .. } => "kernel.trap_exit",
            TraceEvent::Block { .. } => "kernel.block",
            TraceEvent::Unblock { .. } => "kernel.unblock",
            TraceEvent::KtBlock { .. } => "kernel.kt_block",
            TraceEvent::KtWake { .. } => "kernel.kt_wake",
            TraceEvent::ActStop { .. } => "kernel.act_stop",
            TraceEvent::KtPreempt { .. } => "kernel.kt_preempt",
            TraceEvent::Grant { .. } => "kernel.grant",
            TraceEvent::DesiredProcessors { .. } | TraceEvent::ProcessorIdle { .. } => {
                "kernel.hint"
            }
            TraceEvent::DaemonWake { .. } => "kernel.daemon_wake",
            TraceEvent::Dispatch { .. } => "kernel.dispatch",
            TraceEvent::SegRun { .. } => "kernel.seg",
            TraceEvent::SpinStart { .. } => "uthread.spin_start",
            TraceEvent::SpinStop { .. } => "uthread.spin_stop",
            TraceEvent::DebugStop { .. } => "kernel.debug_stop",
            TraceEvent::DebugResume { .. } => "kernel.debug_resume",
            TraceEvent::SpanBind { .. } => "span.bind",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::SpaceStart { space, name } => write!(f, "as{space} ({name})"),
            TraceEvent::SpaceDone { space } => write!(f, "as{space}"),
            TraceEvent::Upcall {
                kind,
                space,
                cpu,
                act,
                vp,
            } => {
                write!(f, "{kind} -> act{act} on cpu{cpu} for as{space}")?;
                if let Some(vp) = vp {
                    write!(f, " (vp{vp})")?;
                }
                Ok(())
            }
            TraceEvent::TrapEnter {
                space,
                cpu,
                act,
                call,
            } => write!(f, "act{act} on cpu{cpu} for as{space}: {call}"),
            TraceEvent::TrapExit { space, cpu, act } => {
                write!(f, "act{act} on cpu{cpu} for as{space}")
            }
            TraceEvent::Block { space, cpu, act } => {
                write!(f, "act{act} on cpu{cpu} for as{space}")
            }
            TraceEvent::Unblock { space, act } => write!(f, "act{act} for as{space}"),
            TraceEvent::KtBlock {
                space,
                cpu,
                kt,
                why,
            } => write!(f, "kt{kt} on cpu{cpu} for as{space}: {why}"),
            TraceEvent::KtWake { space, kt } => write!(f, "kt{kt} for as{space}"),
            TraceEvent::ActStop {
                space,
                cpu,
                act,
                saved,
                decision,
            } => write!(
                f,
                "act{act} off cpu{cpu} for as{space} saved={saved} d{decision}"
            ),
            TraceEvent::KtPreempt { cpu, kt } => write!(f, "kt{kt} off cpu{cpu}"),
            TraceEvent::Grant {
                cpu,
                space,
                decision,
            } => write!(f, "cpu{cpu} -> as{space} d{decision}"),
            TraceEvent::DesiredProcessors { space, total } => {
                write!(f, "as{space} desires {total}")
            }
            TraceEvent::ProcessorIdle { space, act } => {
                write!(f, "act{act} idle for as{space}")
            }
            TraceEvent::DaemonWake { daemon } => write!(f, "daemon{daemon}"),
            TraceEvent::Dispatch { cpu, space, unit } => {
                write!(f, "{unit} on cpu{cpu}")?;
                if let Some(space) = space {
                    write!(f, " for as{space}")?;
                }
                Ok(())
            }
            TraceEvent::SegRun {
                cpu,
                space,
                kind,
                dur,
            } => {
                write!(f, "{dur} {kind} on cpu{cpu}")?;
                if let Some(space) = space {
                    write!(f, " for as{space}")?;
                }
                Ok(())
            }
            TraceEvent::SpinStart { space, vp } => write!(f, "vp{vp} for as{space}"),
            TraceEvent::SpinStop { space, vp } => write!(f, "vp{vp} for as{space}"),
            TraceEvent::DebugStop { space, cpu, act } => {
                write!(f, "act{act} off cpu{cpu} for as{space} (logical processor)")
            }
            TraceEvent::DebugResume { space, cpu, act } => {
                write!(f, "act{act} on cpu{cpu} for as{space}")
            }
            TraceEvent::SpanBind { req, space, thread } => {
                write!(f, "req{req} -> t{thread} for as{space}")
            }
        }
    }
}

/// One timestamped traced occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at which the event occurred.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Dot-separated category of the event (see [`TraceEvent::tag`]).
    pub fn tag(&self) -> &'static str {
        self.event.tag()
    }
}

/// How the trace buffer retains (or discards) records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Tracing is off: nothing is formatted, recorded, or counted.
    Disabled,
    /// Ring of the given capacity; eviction counts as a drop. A zero
    /// capacity records nothing but *counts* every emission dropped —
    /// distinct from [`Mode::Disabled`], which counts nothing.
    Ring(usize),
    /// Every record is retained for the lifetime of the run.
    Unbounded,
}

/// An in-memory trace buffer, optionally ring-bounded.
///
/// The zero-cost-when-disabled emission handle: [`Trace::event`] takes
/// a closure, so a [`Trace::disabled`] trace never constructs the
/// event (no formatting, no allocation — measured by the
/// `tracing_overhead` entry in `BENCH_engine.json`).
///
/// [`Trace::bounded`] keeps only the most recent records (a ring
/// buffer — long multi-copy sweeps like Table 5 under tracing cannot
/// grow without bound), while [`Trace::unbounded`] retains everything
/// (byte-identical record streams for determinism comparisons, at the
/// cost of memory proportional to run length).
#[derive(Debug)]
pub struct Trace {
    mode: Mode,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Trace {
    /// A trace that records nothing (the default for experiments).
    /// Unlike an enabled zero-capacity ring, a disabled trace does not
    /// count drops: nothing was asked for, so nothing is "lost".
    pub fn disabled() -> Self {
        Trace {
            mode: Mode::Disabled,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A trace that keeps the most recent `capacity` records, evicting
    /// the oldest (and counting it in [`Trace::dropped`]) once full.
    pub fn bounded(capacity: usize) -> Self {
        Trace {
            mode: Mode::Ring(capacity),
            records: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// A trace that retains every record for the lifetime of the run.
    /// Memory grows with run length — prefer [`Trace::bounded`] for
    /// long or multi-copy sweeps.
    pub fn unbounded() -> Self {
        Trace {
            mode: Mode::Unbounded,
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// True if records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.mode != Mode::Disabled
    }

    /// Emits a typed event if tracing is enabled.
    ///
    /// `make` is a closure so disabled traces pay no construction cost.
    pub fn event(&mut self, at: SimTime, make: impl FnOnce() -> TraceEvent) {
        if self.mode == Mode::Disabled {
            return;
        }
        let rec = TraceRecord { at, event: make() };
        match self.mode {
            Mode::Disabled => unreachable!("checked above"),
            Mode::Ring(0) => {
                self.dropped += 1;
                return;
            }
            Mode::Ring(capacity) => {
                if self.records.len() == capacity {
                    self.records.pop_front();
                    self.dropped += 1;
                }
            }
            Mode::Unbounded => {}
        }
        self.records.push_back(rec);
    }

    /// All retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Number of records evicted because the buffer was full. A
    /// disabled trace always reports zero: drops count records the
    /// buffer *wanted* but could not keep.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn wake(daemon: u32) -> TraceEvent {
        TraceEvent::DaemonWake { daemon }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        tr.event(t(1), || wake(0));
        assert_eq!(tr.records().count(), 0);
    }

    #[test]
    fn disabled_trace_skips_formatting() {
        let mut tr = Trace::disabled();
        tr.event(t(1), || panic!("constructed while disabled"));
        assert_eq!(tr.records().count(), 0);
    }

    #[test]
    fn disabled_trace_counts_no_drops() {
        let mut tr = Trace::disabled();
        for i in 0..100 {
            tr.event(t(i), || wake(0));
        }
        assert_eq!(tr.dropped(), 0, "disabled is off, not a zero-size ring");
    }

    #[test]
    fn bounded_trace_keeps_recent() {
        let mut tr = Trace::bounded(2);
        for d in 1..=3 {
            tr.event(t(d as u64), || wake(d));
        }
        let kept: Vec<_> = tr.records().map(|r| r.event.clone()).collect();
        assert_eq!(kept, vec![wake(2), wake(3)]);
        assert_eq!(tr.dropped(), 1);
    }

    #[test]
    fn unbounded_trace_retains_everything() {
        let mut tr = Trace::unbounded();
        for i in 0..10_000u64 {
            tr.event(t(i), || wake(0));
        }
        assert_eq!(tr.records().count(), 10_000);
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn bounded_zero_drops_every_record() {
        let mut tr = Trace::bounded(0);
        tr.event(t(1), || wake(1));
        tr.event(t(2), || wake(2));
        assert_eq!(tr.records().count(), 0);
        assert_eq!(tr.dropped(), 2);
    }

    #[test]
    fn upcall_kind_indices_cover_the_array() {
        for (i, kind) in UpcallKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
        assert_eq!(UpcallKind::ALL.len(), UpcallKind::COUNT);
    }

    #[test]
    fn display_renders_ids_with_prefixes() {
        let ev = TraceEvent::Upcall {
            kind: UpcallKind::Preempted,
            space: 2,
            cpu: 1,
            act: 9,
            vp: Some(3),
        };
        assert_eq!(format!("{ev}"), "preempted -> act9 on cpu1 for as2 (vp3)");
        let seg = TraceEvent::SegRun {
            cpu: 0,
            space: None,
            kind: "kernel",
            dur: SimDuration::from_micros(5),
        };
        assert_eq!(format!("{seg}"), "5.000us kernel on cpu0");
    }
}
