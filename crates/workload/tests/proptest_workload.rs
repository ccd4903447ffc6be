//! Property tests of the workload substrate: the buffer cache against a
//! reference LRU, and Barnes-Hut against direct summation.

use proptest::prelude::*;
use sa_machine::BlockId;
use sa_workload::nbody::{BarnesHut, ForceResult};
use sa_workload::BufCache;

/// A straightforward reference LRU.
struct RefLru {
    capacity: usize,
    blocks: Vec<u32>, // most recent at the back
}

impl RefLru {
    fn access(&mut self, b: u32) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(pos) = self.blocks.iter().position(|&x| x == b) {
            self.blocks.remove(pos);
            self.blocks.push(b);
            true
        } else {
            if self.blocks.len() >= self.capacity {
                self.blocks.remove(0);
            }
            self.blocks.push(b);
            false
        }
    }
}

proptest! {
    /// The buffer cache behaves exactly like a reference LRU.
    #[test]
    fn bufcache_matches_reference_lru(
        capacity in 0usize..32,
        accesses in prop::collection::vec(0u32..64, 1..500),
    ) {
        let mut cache = BufCache::new(capacity);
        let mut reference = RefLru { capacity, blocks: Vec::new() };
        for &b in &accesses {
            let got = cache.access(BlockId(b));
            let want = reference.access(b);
            prop_assert_eq!(got, want, "diverged at block {}", b);
        }
        prop_assert_eq!(cache.len(), reference.blocks.len());
    }

    /// Hit + miss counts always equal total accesses; miss ratio in [0,1].
    #[test]
    fn bufcache_accounting(
        capacity in 0usize..16,
        accesses in prop::collection::vec(0u32..32, 0..200),
    ) {
        let mut cache = BufCache::new(capacity);
        for &b in &accesses {
            cache.access(BlockId(b));
        }
        prop_assert_eq!(cache.hits() + cache.misses(), accesses.len() as u64);
        let r = cache.miss_ratio();
        prop_assert!((0.0..=1.0).contains(&r));
    }

    /// Barnes-Hut with θ → 0 equals direct summation (up to the softening
    /// the tree also uses), for random body sets. At a random θ,
    /// `force_into` with one result and stack reused across every body
    /// returns exactly what `force_on` does.
    #[test]
    fn barnes_hut_theta_zero_is_direct_sum(
        n in 4usize..40,
        seed in 0u64..1000,
        theta_pct in 0u32..150,
    ) {
        let approx = BarnesHut::new_disk(n, f64::from(theta_pct) / 100.0, seed);
        let mut out = ForceResult { fx: 0.0, fy: 0.0, interactions: 0, visited: Vec::new() };
        let mut stack = Vec::new();
        for i in 0..n {
            approx.force_into(i, &mut out, &mut stack);
            let want = approx.force_on(i);
            prop_assert_eq!(out.fx.to_bits(), want.fx.to_bits(), "fx of body {}", i);
            prop_assert_eq!(out.fy.to_bits(), want.fy.to_bits(), "fy of body {}", i);
            prop_assert_eq!(out.interactions, want.interactions, "body {}", i);
            prop_assert_eq!(&out.visited, &want.visited, "body {}", i);
        }

        let bh = BarnesHut::new_disk(n, 1e-12, seed);
        for i in 0..n {
            let f = bh.force_on(i);
            // Direct sum with the same softening.
            let b = bh.bodies[i];
            let (mut fx, mut fy) = (0.0f64, 0.0f64);
            for (j, o) in bh.bodies.iter().enumerate() {
                if j == i {
                    continue;
                }
                let dx = o.x - b.x;
                let dy = o.y - b.y;
                let d2 = dx * dx + dy * dy + 1e-4;
                let d = d2.sqrt();
                let g = o.m * b.m / (d2 * d);
                fx += g * dx;
                fy += g * dy;
            }
            prop_assert!((f.fx - fx).abs() <= 1e-9 + 1e-6 * fx.abs(),
                "fx {} vs direct {}", f.fx, fx);
            prop_assert!((f.fy - fy).abs() <= 1e-9 + 1e-6 * fy.abs(),
                "fy {} vs direct {}", f.fy, fy);
            prop_assert_eq!(f.interactions as usize, n - 1);
        }
    }

    /// Coarser θ never increases the interaction count, and the
    /// approximation error stays bounded relative to direct summation
    /// (θ = 0.5, a typical production opening angle).
    #[test]
    fn barnes_hut_approximation_is_monotone(seed in 0u64..200) {
        let n = 80;
        let exact = BarnesHut::new_disk(n, 1e-12, seed);
        let coarse = BarnesHut::new_disk(n, 0.5, seed);
        let mut exact_total = 0u64;
        let mut coarse_total = 0u64;
        let mut err2 = 0.0f64;
        let mut mag2 = 0.0f64;
        for i in 0..n {
            let fe = exact.force_on(i);
            let fc = coarse.force_on(i);
            exact_total += fe.interactions as u64;
            coarse_total += fc.interactions as u64;
            // Aggregate error: per-body relative error is meaningless when
            // a body's net force nearly cancels.
            err2 += (fe.fx - fc.fx).powi(2) + (fe.fy - fc.fy).powi(2);
            mag2 += fe.fx.powi(2) + fe.fy.powi(2);
        }
        prop_assert!(
            err2.sqrt() < 0.25 * mag2.sqrt().max(1e-12),
            "aggregate error {} of {}",
            err2.sqrt(),
            mag2.sqrt()
        );
        prop_assert!(coarse_total < exact_total);
    }

    /// Tree invariants: every body is counted exactly once, total mass is
    /// preserved at the root.
    #[test]
    fn barnes_hut_rebuild_is_stable(n in 2usize..60, seed in 0u64..500) {
        let mut bh = BarnesHut::new_disk(n, 0.7, seed);
        for _ in 0..3 {
            let forces: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    let f = bh.force_on(i);
                    (f.fx, f.fy)
                })
                .collect();
            bh.advance(&forces, 0.01);
            bh.build();
            for b in &bh.bodies {
                prop_assert!(b.x.is_finite() && b.y.is_finite());
                prop_assert!(b.vx.is_finite() && b.vy.is_finite());
            }
            prop_assert!(bh.node_count() >= n);
        }
    }
}
