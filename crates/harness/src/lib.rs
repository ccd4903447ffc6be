#![warn(missing_docs)]
//! Deterministic host-parallel sweep execution.
//!
//! Every paper artifact is a *sweep* of many independent simulations —
//! Figure 1 is a processors × systems grid, Figure 2 a memory sweep,
//! Table 5 more of the same. Each cell is a self-contained run that is
//! bit-for-bit reproducible from its seed (the simulator itself is
//! single-threaded; see `DESIGN.md`), so cells can execute on different
//! host threads without any effect on virtual-time results. This crate
//! provides the fan-out: a from-scratch, std-only thread pool
//! (`std::thread::scope` + a locked work queue — no crossbeam/rayon, per
//! `DESIGN.md` §6) whose results are collected **ordered by job index**,
//! so a sweep's output is byte-identical to the serial run regardless of
//! completion order.
//!
//! Guarantees:
//!
//! - [`run_ordered`]`(jobs, tasks)` returns `tasks` results in input
//!   order, for any worker count and any completion interleaving.
//! - `jobs = 1` runs every task serially on the calling thread — exactly
//!   the pre-harness behaviour.
//! - A panicking job is reported as [`PanickedJob`] (the lowest panicking
//!   index) instead of tearing down the process mid-table; the remaining
//!   jobs still run to completion.
//!
//! Worker counts come from `--jobs N` / the `SA_JOBS` environment
//! variable ([`jobs_from_env`]), defaulting to the host's
//! [`std::thread::available_parallelism`].

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

/// A boxed sweep job: runs once on some host worker thread and yields a
/// `T`. Jobs must be `Send` (they move to a worker); simulation state
/// that is *created inside* the job (e.g. the `Rc`-sharing workload
/// bodies) never crosses a thread boundary and needs no such bound.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A job panicked while running under the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanickedJob {
    /// Index of the panicking job in the submitted order (the lowest
    /// index when several panic).
    pub index: usize,
    /// The panic payload, if it was a string (the common `panic!` /
    /// `assert!` case).
    pub message: String,
}

impl fmt::Display for PanickedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sweep job #{} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for PanickedJob {}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn host_jobs() -> NonZeroUsize {
    thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Parses a `--jobs` / `SA_JOBS` value: a positive decimal integer.
pub fn parse_jobs(s: &str) -> Result<NonZeroUsize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err("job count must be at least 1, got 0".to_string()),
        Ok(n) => Ok(NonZeroUsize::new(n).expect("nonzero checked above")),
        Err(_) => Err(format!(
            "invalid job count '{s}' (expected a positive integer)"
        )),
    }
}

/// The job count from the `SA_JOBS` environment variable, defaulting to
/// [`host_jobs`] when unset. A set-but-invalid value is an error, not a
/// silent fallback.
pub fn jobs_from_env() -> Result<NonZeroUsize, String> {
    match std::env::var("SA_JOBS") {
        Ok(v) => parse_jobs(&v).map_err(|e| format!("SA_JOBS: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(host_jobs()),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("SA_JOBS: value is not valid UTF-8".to_string())
        }
    }
}

/// Runs `tasks` across up to `jobs` host worker threads and returns their
/// results **in input order**, regardless of completion order.
///
/// With `jobs = 1` (or a single task) everything runs serially on the
/// calling thread — no threads are spawned, restoring the exact
/// pre-harness execution. Workers pull jobs from a shared queue in index
/// order, so earlier jobs start no later than later ones; results land in
/// per-index slots and are only assembled after every job has finished.
///
/// # Errors
///
/// If any job panics, returns the lowest panicking index (deterministic:
/// independent of which worker hit it first). All jobs are still driven
/// to completion before the error is returned, so no half-finished work
/// is left running on detached threads.
pub fn run_ordered<'env, T: Send>(
    jobs: NonZeroUsize,
    tasks: Vec<Job<'env, T>>,
) -> Result<Vec<T>, PanickedJob> {
    let total = tasks.len();
    let workers = jobs.get().min(total);
    if workers <= 1 {
        let mut out = Vec::with_capacity(total);
        for (index, task) in tasks.into_iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(task)) {
                Ok(v) => out.push(v),
                Err(p) => {
                    return Err(PanickedJob {
                        index,
                        message: panic_message(p),
                    })
                }
            }
        }
        return Ok(out);
    }

    let queue: Mutex<VecDeque<(usize, Job<'env, T>)>> =
        Mutex::new(tasks.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // Take the lock only to pop; the job itself runs unlocked.
                let next = queue.lock().expect("queue lock poisoned").pop_front();
                let Some((index, task)) = next else { break };
                let result = catch_unwind(AssertUnwindSafe(task)).map_err(panic_message);
                *slots[index].lock().expect("slot lock poisoned") = Some(result);
            });
        }
    });

    let mut out = Vec::with_capacity(total);
    for (index, slot) in slots.into_iter().enumerate() {
        match slot
            .into_inner()
            .expect("slot lock poisoned")
            .expect("every job was drained from the queue")
        {
            Ok(v) => out.push(v),
            Err(message) => return Err(PanickedJob { index, message }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn jobs(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn results_come_back_in_job_index_order_under_adversarial_durations() {
        // Later-indexed jobs finish first (index 0 sleeps longest); the
        // collected order must still be the submission order.
        let n = 8;
        let tasks: Vec<Job<'_, usize>> = (0..n)
            .map(|i| -> Job<'_, usize> {
                Box::new(move || {
                    thread::sleep(Duration::from_millis(((n - i) * 3) as u64));
                    i
                })
            })
            .collect();
        let out = run_ordered(jobs(4), tasks).unwrap();
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let make = || -> Vec<Job<'_, u64>> {
            (0..20u64)
                .map(|i| -> Job<'_, u64> { Box::new(move || i * i + 7) })
                .collect()
        };
        let serial = run_ordered(jobs(1), make()).unwrap();
        let parallel = run_ordered(jobs(4), make()).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn jobs_one_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let tasks: Vec<Job<'_, thread::ThreadId>> = (0..3)
            .map(|_| -> Job<'_, thread::ThreadId> { Box::new(|| thread::current().id()) })
            .collect();
        for id in run_ordered(jobs(1), tasks).unwrap() {
            assert_eq!(id, caller);
        }
    }

    #[test]
    fn lowest_panicking_index_is_reported() {
        for workers in [1, 4] {
            let tasks: Vec<Job<'_, u32>> = vec![
                Box::new(|| 0),
                Box::new(|| panic!("boom-one")),
                Box::new(|| 2),
                Box::new(|| panic!("boom-three")),
            ];
            let err = run_ordered(jobs(workers), tasks).unwrap_err();
            assert_eq!(err.index, 1, "workers={workers}");
            assert_eq!(err.message, "boom-one", "workers={workers}");
        }
    }

    #[test]
    fn all_jobs_run_even_when_one_panics() {
        let ran = AtomicUsize::new(0);
        let ran_ref = &ran;
        let tasks: Vec<Job<'_, ()>> = (0..6)
            .map(|i| -> Job<'_, ()> {
                Box::new(move || {
                    ran_ref.fetch_add(1, Ordering::SeqCst);
                    if i == 2 {
                        panic!("mid-sweep");
                    }
                })
            })
            .collect();
        let err = run_ordered(jobs(3), tasks).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("4").unwrap().get(), 4);
        assert_eq!(parse_jobs(" 2 ").unwrap().get(), 2);
        assert!(parse_jobs("0").unwrap_err().contains("at least 1"));
        assert!(parse_jobs("four").unwrap_err().contains("four"));
        assert!(parse_jobs("-1").unwrap_err().contains("-1"));
        assert!(parse_jobs("").unwrap_err().contains("positive integer"));
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out = run_ordered(jobs(4), Vec::<Job<'_, u8>>::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let tasks: Vec<Job<'_, u8>> = vec![Box::new(|| 1), Box::new(|| 2)];
        assert_eq!(run_ordered(jobs(16), tasks).unwrap(), vec![1, 2]);
    }
}
