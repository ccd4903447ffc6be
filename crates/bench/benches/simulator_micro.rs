//! Criterion microbenchmarks of the simulator's own hot paths: the event
//! queue, the buffer cache, the Barnes-Hut force traversal, and a whole
//! small system run. These measure *host* performance of the simulation
//! engine (events per second), not virtual-time results.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sa_core::{AppSpec, SystemBuilder, ThreadApi};
use sa_machine::{BlockId, ComputeBody, CostModel};
use sa_sim::{EventQueue, SimDuration, SimTime};
use sa_workload::nbody::BarnesHut;
use sa_workload::BufCache;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_nanos(i * 7919 % 100_000 + 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

/// The kernel's actual workload shape: pushes interleaved with eager
/// cancels (timeouts that don't fire) and pops.
fn bench_event_queue_cancel_mix(c: &mut Criterion) {
    c.bench_function("event_queue_push_cancel_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut sum = 0u64;
            for round in 0..16u64 {
                let base = (round + 1) * 200_000;
                let toks: Vec<_> = (0..64)
                    .map(|i| {
                        let t = round * 64 + i;
                        q.schedule(SimTime::from_nanos(base + t * 7919 % 100_000), t)
                    })
                    .collect();
                for tok in toks.iter().step_by(4) {
                    q.cancel(*tok);
                }
                for _ in 0..48 {
                    if let Some((_, v)) = q.pop() {
                        sum += v;
                    }
                }
            }
            black_box(sum)
        })
    });
}

fn bench_bufcache(c: &mut Criterion) {
    c.bench_function("bufcache_access_1k", |b| {
        b.iter_batched(
            || BufCache::new(64),
            |mut cache| {
                for i in 0..1000u32 {
                    black_box(cache.access(BlockId(i * 31 % 128)));
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_barnes_hut(c: &mut Criterion) {
    let bh = BarnesHut::new_disk(500, 0.7, 1);
    c.bench_function("barnes_hut_force_500", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..500 {
                let f = bh.force_on(i);
                acc += f.fx + f.fy;
            }
            black_box(acc)
        })
    });
}

fn bench_system_run(c: &mut Criterion) {
    c.bench_function("system_run_sa_compute", |b| {
        b.iter(|| {
            let mut sys = SystemBuilder::new(2)
                .cost(CostModel::firefly_prototype())
                .app(AppSpec::new(
                    "bench",
                    ThreadApi::SchedulerActivations { max_processors: 2 },
                    Box::new(ComputeBody::new(SimDuration::from_millis(1))),
                ))
                .build();
            black_box(sys.run().all_done())
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_cancel_mix,
    bench_bufcache,
    bench_barnes_hut,
    bench_system_run
);
criterion_main!(benches);
