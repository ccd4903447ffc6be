//! The host-speed reference: a fixed loop, independent of the simulator,
//! timed between the cells of every pass.
//!
//! The machines this runs on share cores with other tenants, and their
//! speed drifts by tens of percent over seconds to minutes, far more than
//! the changes the benchmark must resolve. Each cell's host times are
//! scaled by `NOMINAL_NS` over the loop's mean time just before and just
//! after the cell, so a metric reads as host time at the reference
//! speed. The loop does what the simulator's hot path does — dependent
//! loads from a table larger than L1, data-dependent branches, integer
//! arithmetic — so both slow down together. It never changes with the
//! program, so a change to the simulator moves the scaled times exactly
//! as much as the raw ones.

use std::hint::black_box;
use std::time::Instant;

const TABLE_WORDS: usize = 1 << 18;
const STEPS: u32 = 1 << 18;
/// The loop's time at the reference speed (about its time between cells
/// on a quiet 2-vCPU x86-64 container): scaled times are in seconds at
/// that speed.
pub const NOMINAL_NS: f64 = 4_000_000.0;

/// The reference loop and its table, allocated once so that sampling
/// inside a pass allocates nothing.
pub struct Meter {
    table: Vec<u32>,
}

impl Meter {
    pub fn new() -> Self {
        Meter {
            table: (0..TABLE_WORDS as u32).collect(),
        }
    }

    /// Times the loop once, in nanoseconds.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        let mask = self.table.len() - 1;
        let mut x = 0x9e37_79b9u32;
        let mut acc = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let j = (x as usize ^ acc as usize) & mask;
            let v = self.table[j];
            if v & 1 == 0 {
                acc = acc.wrapping_add(u64::from(v));
            } else {
                acc ^= u64::from(v) << 3;
            }
            self.table[j] = v.wrapping_mul(0x9e37_79b1).wrapping_add(i);
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64
    }
}
