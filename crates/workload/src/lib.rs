#![warn(missing_docs)]
//! # sa-workload: applications and benchmark workloads
//!
//! Thread-program bodies (see `sa_machine::program`) implementing the
//! paper's workloads:
//!
//! - [`micro`] — the Table 1/4 microbenchmarks (Null Fork, Signal-Wait)
//!   and the §5.2 kernel-forced Signal-Wait;
//! - [`bufcache`] — the application-managed buffer cache of §5.3
//!   (LRU, 50 ms kernel block per miss);
//! - [`nbody`] — the Barnes-Hut N-body application of §5.3 (a real
//!   O(N log N) force calculation whose per-body interaction counts drive
//!   the simulated compute time);
//! - [`server`] — a latency-sensitive request server (thread-per-request
//!   with blocking I/O mid-request);
//! - [`openloop`] — the SLO-grade open-loop load generator
//!   (Poisson/bursty/diurnal arrivals, Pareto service times, per-request
//!   span tracking across many shards);
//! - [`synthetic`] — thread churn and lock ladders for the ablations,
//!   the churn smoke and the property tests.

pub mod bufcache;
pub mod micro;
pub mod nbody;
pub mod openloop;
pub mod server;
pub mod synthetic;

pub use bufcache::{BufCache, MISS_PENALTY};
pub use micro::{null_fork, signal_wait, Samples, SigWaitPath};
pub use openloop::{shard_listener, ArrivalProcess, OpenLoopConfig};
