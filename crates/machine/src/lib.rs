#![warn(missing_docs)]
//! # sa-machine: the simulated multiprocessor
//!
//! Models the hardware substrate the reproduction runs on — the stand-in
//! for the paper's 6-CPU CVAX DEC SRC Firefly:
//!
//! - [`cost::CostModel`] — calibrated per-primitive virtual-time costs
//!   (procedure call ≈ 7 µs, kernel trap ≈ 19 µs, and everything built on
//!   them);
//! - [`program`] — the deterministic thread-program abstraction that all
//!   four thread systems execute;
//! - [`ids`] — shared newtype identifiers.
//!
//! The machine has no scheduling policy and no device model of its own:
//! CPUs are dispatched by `sa-kernel`, and a disk operation is a fixed
//! in-kernel block there (the paper's §5.3 simplification).

pub mod cost;
pub mod ids;
pub mod program;

pub use cost::CostModel;
pub use ids::{BlockId, ChanId, CpuId, CvId, LockId, PageId, ThreadRef};
pub use program::{ComputeBody, FnBody, Op, OpResult, ScriptBody, StepEnv, ThreadBody};
