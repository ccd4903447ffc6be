#![warn(missing_docs)]
//! # sa-sim: deterministic discrete-event simulation engine
//!
//! The foundation of the scheduler-activations reproduction: a virtual
//! clock ([`SimTime`]/[`SimDuration`]), a totally ordered cancellable
//! event queue ([`EventQueue`], a hierarchical timing wheel), a seeded
//! random source ([`SimRng`]), measurement primitives ([`stats`]), and an
//! execution trace ([`Trace`]).
//!
//! Everything above this crate (machine, kernel, thread packages,
//! workloads) is *plain single-threaded Rust* driven by one event loop, so
//! an entire multiprocessor run is reproducible bit-for-bit from its seed.

pub mod dwell;
pub mod event;
pub mod ledger;
pub mod paged;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;
pub mod window;

pub use dwell::{ChurnWindow, DwellEpisode, DwellLedger};
pub use event::{EventQueue, EventToken, PopNext};
pub use ledger::{CpuState, TimeLedger, WaitKind};
pub use paged::{PagedVec, SharedPage};
pub use rng::SimRng;
pub use span::{Span, SpanBook, SpanPhase};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceRecord, UpcallKind};
pub use window::WindowedLedger;
