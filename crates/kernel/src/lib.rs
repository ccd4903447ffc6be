#![warn(missing_docs)]
//! # sa-kernel: a simulated Topaz-like multiprocessor kernel
//!
//! The operating-system half of the scheduler-activations reproduction.
//! It provides, side by side:
//!
//! - **Kernel threads** with a native oblivious scheduler (priority +
//!   round-robin time slicing) — the paper's Topaz baseline;
//! - **Ultrix-style processes** — the heavyweight baseline of Table 1;
//! - **Scheduler activations** — Table 2 upcalls, Table 3 downcall hints,
//!   activation recycling, delayed last-processor notifications, and the
//!   upcall-page-fault rule (§3.1, §4.3);
//! - an explicit **processor allocator** that space-shares CPUs among
//!   address spaces with priorities (§4.1), under which kernel-thread
//!   spaces and scheduler-activation spaces coexist;
//! - kernel **daemon threads** (§5.3), blocking **I/O**, and **page
//!   faults** against a per-space LRU resident set.
//!
//! User-level thread packages plug in through [`upcall::UserRuntime`]; the
//! kernel has no knowledge of user-level thread data structures.

pub mod activation;
pub mod alloc;
pub mod config;
pub mod daemon;
pub mod debug;
pub mod dispatch;
pub mod exec;
pub mod ids;
pub mod interp;
pub mod io;
pub mod kernel;
pub mod kthread;
pub mod locks;
pub mod metrics;
mod observe;
pub mod policy;
pub mod provenance;
pub mod sa;
pub mod sched;
pub mod space;
pub mod upcall;
pub mod vp;

pub use config::{DaemonSpec, KernelConfig, KernelFlavor, SchedMode, SpaceKindSpec, SpaceSpec};
pub use ids::{ActId, AsId, KtId, VpId};
pub use interp::NO_LOCK;
pub use kernel::Kernel;
pub use metrics::{KernelMetrics, RunOutcome, SpaceMetrics};
pub use policy::{
    Affinity, AllocPolicy, AllocPolicyKind, AllocView, Hysteresis, SpaceDemand, SpaceShareEven,
    StrictPriority, DEFAULT_MIN_DWELL,
};
pub use provenance::{AllocDecision, AllocDecisionKind, GrantChain, ProvenanceLog};
pub use sa::RUNTIME_PAGE;
pub use upcall::{
    PollReason, RtEnv, SavedContext, Syscall, SyscallOutcome, UpcallEvent, UserRuntime, VpAction,
    VpSeg, WorkKind,
};
