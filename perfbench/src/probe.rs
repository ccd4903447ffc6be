//! Host-time spans around the layer boundaries the kernel calls through.
//!
//! A span records its start, and on close charges its *self* time (its
//! duration minus the child spans it contained) to its layer. Spans nest
//! through a per-thread stack; the simulator is single-threaded, so one
//! stack sees every boundary. Each open span also tells the counting
//! allocator which layer to charge.
//!
//! Every span costs host time of its own. [`calibrate`] measures that
//! cost in two parts — the share a span's own clock reads see (`inner`)
//! and the rest, which its parent sees (`total - inner`) — so [`net_ns`]
//! can remove it from every layer.

use crate::alloc_count;
use std::cell::RefCell;
use std::time::Instant;

/// The layers a traced run attributes host time and allocations to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// No span open (untraced runs, set-up).
    Outside = 0,
    /// `Kernel::run` minus every wrapped callback (`sa_kernel`).
    Kernel,
    /// `AllocPolicy` calls (`sa_kernel::policy`).
    Policy,
    /// `UserRuntime::{deliver_upcall, poll}` net of their callbacks
    /// (`sa_uthread::runtime`).
    Uthread,
    /// `ReadyPolicy` calls (`sa_uthread::ready`).
    Ready,
    /// `ThreadBody::step` (`sa_workload`).
    Workload,
    /// Post-run folds and report rendering (`sa_core::{slo,audit}` and
    /// the figure tables).
    Report,
    /// The benchmark's own bookkeeping inside a traced run.
    Bench,
}

pub const LAYERS: usize = 8;

impl Layer {
    /// The layer's metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Outside => "outside",
            Layer::Kernel => "kernel",
            Layer::Policy => "kernel.policy",
            Layer::Uthread => "uthread",
            Layer::Ready => "uthread.ready",
            Layer::Workload => "workload",
            Layer::Report => "core.report",
            Layer::Bench => "bench",
        }
    }
}

/// Raw per-layer span totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Spans closed.
    pub spans: u64,
    /// Summed self time (duration minus contained child spans), probe
    /// cost included.
    pub self_ns: u64,
    /// Child spans these spans contained.
    pub children: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    children: u64,
}

struct State {
    stack: Vec<Frame>,
    stats: [LayerStat; LAYERS],
    picks: u64,
    steals: u64,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        stack: Vec::with_capacity(64),
        stats: [LayerStat::default(); LAYERS],
        picks: 0,
        steals: 0,
    });
}

#[inline]
fn enter(layer: Layer) {
    STATE.with(|s| {
        s.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
        })
    });
    alloc_count::set_layer(layer);
}

#[inline]
fn exit() {
    let end = Instant::now();
    STATE.with(|s| {
        let s = &mut *s.borrow_mut();
        let f = s.stack.pop().expect("span closed without being opened");
        let elapsed = end.duration_since(f.start).as_nanos() as u64;
        let st = &mut s.stats[f.layer as usize];
        st.spans += 1;
        st.self_ns += elapsed.saturating_sub(f.child_ns);
        st.children += f.children;
        let parent = match s.stack.last_mut() {
            Some(p) => {
                p.child_ns += elapsed;
                p.children += 1;
                p.layer
            }
            None => Layer::Outside,
        };
        alloc_count::set_layer(parent);
    });
}

/// Runs `f` inside a span of `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let r = f();
    exit();
    r
}

/// Counts one ready-queue pick, and whether it was stolen from another
/// processor's list.
pub fn note_pick(stolen: bool) {
    STATE.with(|s| {
        let s = &mut *s.borrow_mut();
        s.picks += 1;
        s.steals += u64::from(stolen);
    });
}

/// Clears all totals (and any spans a panicking cell left open).
pub fn reset() {
    STATE.with(|s| {
        let s = &mut *s.borrow_mut();
        s.stack.clear();
        s.stats = [LayerStat::default(); LAYERS];
        s.picks = 0;
        s.steals = 0;
    });
    alloc_count::set_layer(Layer::Outside);
}

/// Totals since the last [`reset`]: per-layer stats, ready picks, steals.
pub fn take() -> ([LayerStat; LAYERS], u64, u64) {
    let out = STATE.with(|s| {
        let s = s.borrow();
        (s.stats, s.picks, s.steals)
    });
    reset();
    out
}

/// Probe cost per span, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCost {
    /// Host time one span adds to the run, all told.
    pub total_ns: f64,
    /// The part of `total_ns` that lands inside the span's own
    /// measurement; the rest lands in its parent's.
    pub inner_ns: f64,
}

/// Measures [`ProbeCost`] with empty spans nested in a parent span,
/// taking the median of several rounds.
pub fn calibrate() -> ProbeCost {
    const SPANS: u64 = 200_000;
    let mut totals = Vec::new();
    let mut inners = Vec::new();
    for _ in 0..7 {
        reset();
        enter(Layer::Kernel);
        let t0 = Instant::now();
        for _ in 0..SPANS {
            enter(Layer::Bench);
            exit();
        }
        let wall = t0.elapsed().as_nanos() as f64;
        exit();
        let (stats, _, _) = take();
        totals.push(wall / SPANS as f64);
        inners.push(stats[Layer::Bench as usize].self_ns as f64 / SPANS as f64);
    }
    ProbeCost {
        total_ns: crate::median(&totals),
        inner_ns: crate::median(&inners),
    }
}

/// A layer's self time with the probe's own cost removed: each of its
/// spans loses the part its clock reads saw, and each child span it
/// contained loses the part the parent saw. Summed over all layers this
/// is the root spans' duration minus the full cost of every child span.
pub fn net_ns(stat: &LayerStat, cost: ProbeCost) -> f64 {
    stat.self_ns as f64
        - stat.spans as f64 * cost.inner_ns
        - stat.children as f64 * (cost.total_ns - cost.inner_ns)
}
