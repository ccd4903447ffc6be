//! Table 5's experiment: two copies of the N-body application competing
//! for six processors. Under the native kernel the copies time-slice
//! obliviously; under the modified kernel the processor allocator
//! space-shares, and scheduler activations keep the user-level schedulers
//! informed.
//!
//! ```sh
//! cargo run --release --example multiprogramming
//! ```

use sa_harness::host_jobs;
use scheduler_activations::experiments::run_cells;
use scheduler_activations::scenario::{systems, table5_cells};
use scheduler_activations::PolicyConfig;

fn main() {
    let runs = run_cells(&table5_cells(6, PolicyConfig::default()), host_jobs())
        .expect("every cell finishes");
    let (seq, row) = runs.split_first().expect("the baseline comes first");
    println!(
        "two N-body copies at once on 6 CPUs (sequential baseline {})",
        seq.elapsed
    );
    println!("a speedup of 3.0 is the best either copy could possibly get\n");
    for ((name, _), r) in systems(6).into_iter().zip(row) {
        let speedup = r.speedup_over(seq);
        println!("{name:<20} mean speedup {speedup:.2}");
    }
    println!(
        "\nThe paper's Table 5: Topaz 1.29, orig FastThreads 1.26, new\n\
         FastThreads 2.45 — only the scheduler-activation system divides\n\
         the machine without destroying either copy's scheduling."
    );
}
