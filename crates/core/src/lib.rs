#![warn(missing_docs)]
//! # sa-core: the public facade of the scheduler-activations reproduction
//!
//! Composes the simulated machine (`sa-machine`), the kernel
//! (`sa-kernel`), and the user-level thread package (`sa-uthread`) behind
//! a single builder API:
//!
//! ```
//! use sa_core::{AppSpec, SystemBuilder, ThreadApi};
//! use sa_machine::ComputeBody;
//! use sa_sim::SimDuration;
//!
//! let mut sys = SystemBuilder::new(6)
//!     .app(AppSpec::new(
//!         "hello",
//!         ThreadApi::SchedulerActivations { max_processors: 6 },
//!         Box::new(ComputeBody::new(SimDuration::from_millis(1))),
//!     ))
//!     .build();
//! let report = sys.run();
//! assert!(report.all_done());
//! ```

pub mod audit;
pub mod critical_path;
pub mod experiments;
pub mod profile;
pub mod reporting;
pub mod scenario;
pub mod slo;
pub mod system;
pub mod trace_export;

pub use scenario::PolicyConfig;
pub use system::{AppId, AppSpec, RunReport, System, SystemBuilder, ThreadApi};

// Re-export the composing crates so downstream users need one dependency.
pub use sa_harness;
pub use sa_kernel;
pub use sa_machine;
pub use sa_sim;
pub use sa_uthread;
