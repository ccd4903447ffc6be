//! The paper's §5.3 application: a Barnes-Hut N-body simulation with an
//! application-managed buffer cache, run under the three systems of
//! Figures 1 and 2.
//!
//! ```sh
//! cargo run --release --example nbody [memory_percent]
//! ```
//!
//! With `memory_percent < 100`, buffer-cache misses block in the kernel
//! for 50 ms and the integration differences between the systems dominate
//! (Figure 2); at 100 the differences are pure thread-management overhead
//! (Figure 1's 6-processor points).

use sa_harness::host_jobs;
use scheduler_activations::experiments::{run_cells, NBodyCell};
use scheduler_activations::scenario::{fig2_cells, systems};
use scheduler_activations::PolicyConfig;

fn main() {
    let percent: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100.0);
    let frac = percent / 100.0;
    // The sequential baseline at the same memory, then Figure 2's row of
    // the three systems at this fraction.
    let mut cells = vec![NBodyCell::new(None, 1)];
    cells[0].nbody.memory_fraction = frac;
    cells.extend(fig2_cells(6, &[frac], PolicyConfig::default()));
    let cfg = &cells[0].nbody;
    println!(
        "Barnes-Hut: {} bodies, {} steps, theta {}, {}% memory, 6 CPUs\n",
        cfg.bodies, cfg.steps, cfg.theta, percent
    );
    let runs = run_cells(&cells, host_jobs()).expect("every cell finishes");
    let (seq, row) = runs.split_first().expect("the baseline comes first");
    println!(
        "{:<20} {:>10}   (baseline, 1 CPU, no threads)",
        "sequential",
        format!("{}", seq.elapsed)
    );
    for ((name, _), r) in systems(6).into_iter().zip(row) {
        let speedup = r.speedup_over(seq);
        println!(
            "{:<20} {:>10}   speedup {speedup:>5.2}   cache misses {}",
            name,
            format!("{}", r.elapsed),
            r.cache_misses
        );
    }
}
