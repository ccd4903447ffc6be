//! Open-loop request load generator for the SLO scenarios.
//!
//! Unlike the toy [`server`](crate::server) workload (closed pre-drawn
//! arrival list, means-only stats), this generator models a production
//! ingest path: requests arrive on their own schedule regardless of
//! whether the system keeps up (*open loop* — the defining property for
//! tail-latency measurement: queueing delay compounds instead of being
//! absorbed by the generator), service demands are heavy-tailed
//! (truncated Pareto), and arrivals come from one of three processes —
//! Poisson, bursty (geometrically sized arrival clumps), or diurnal
//! (triangle-wave rate modulation). Load is sharded across many
//! address spaces, each with its own listener thread and derived RNG
//! stream, so a million requests spread over dozens of spaces exercise
//! the kernel's processor allocator the way the paper's motivating
//! workload would.
//!
//! Every request is tracked as a [`Span`](sa_sim::span::Span) in a
//! shared [`SpanBook`]: the listener opens the span at its *scheduled*
//! arrival, and the handler decomposes every step-to-step gap into
//! intrinsic demand plus excess, so the span's six phases sum exactly
//! to the response time (see `sa_sim::span`). Handlers expose the
//! request id via [`ThreadBody::span_id`], which the runtimes bind into
//! the trace at fork time.

use sa_machine::{Op, StepEnv, ThreadBody};
use sa_sim::span::SpanBook;
use sa_sim::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The arrival process of one shard's listener.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Independent exponential gaps (memoryless).
    Poisson,
    /// Clumped arrivals: bursts of ~`burst` requests with tight
    /// intra-burst gaps (mean/5), separated by long gaps sized so the
    /// long-run rate still matches `mean_interarrival`.
    Bursty {
        /// Mean burst size (requests per clump).
        burst: u32,
    },
    /// Rate modulated by a triangle wave with the given period: the
    /// instantaneous rate swings between `(1-depth)` and `(1+depth)`
    /// times the base rate. Piecewise-linear (no trig) so draws are
    /// exactly reproducible.
    Diurnal {
        /// Modulation period.
        period: SimDuration,
        /// Modulation depth in `[0, 1)`.
        depth: f64,
    },
}

/// Configuration of the open-loop generator (whole run, all shards).
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Total requests across all shards.
    pub requests: usize,
    /// Number of workload shards (each one address space + listener).
    pub shards: u32,
    /// Arrival process of each shard's listener.
    pub arrivals: ArrivalProcess,
    /// Mean inter-arrival gap *per shard* (aggregate rate is
    /// `shards / mean_interarrival`).
    pub mean_interarrival: SimDuration,
    /// Pareto scale: minimum service demand.
    pub service_min: SimDuration,
    /// Pareto shape (smaller = heavier tail; 1 < alpha <= 2 typical).
    pub service_alpha: f64,
    /// Truncation cap on service demand.
    pub service_cap: SimDuration,
    /// Probability a request performs device I/O between its compute
    /// phases.
    pub io_probability: f64,
    /// Mean device time of request I/O (exponentially distributed).
    pub io_time: SimDuration,
    /// Base seed; each shard derives an independent stream.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// Requests assigned to `shard` (remainder spread over low shards).
    pub fn shard_requests(&self, shard: u32) -> usize {
        let per = self.requests / self.shards as usize;
        let extra = self.requests % self.shards as usize;
        per + usize::from((shard as usize) < extra)
    }

    /// Re-fans the workload across `spaces` address spaces while
    /// preserving the aggregate arrival rate: the per-shard mean
    /// inter-arrival gap scales with the shard count, so `shards /
    /// mean_interarrival` is unchanged. Without the rescale, fanning a
    /// profile tuned for a handful of spaces across hundreds would
    /// multiply offered load by the same factor and the open-loop
    /// backlog would grow without bound.
    pub fn fan_spaces(&mut self, spaces: u32) {
        assert!(spaces >= 1, "at least one address space");
        let scaled =
            self.mean_interarrival.as_nanos() * u64::from(spaces) / u64::from(self.shards.max(1));
        self.mean_interarrival = SimDuration::from_nanos(scaled.max(1));
        self.shards = spaces;
    }
}

/// Derived RNG stream for one shard (split-mix style spread so shard
/// streams are decorrelated).
fn shard_rng(seed: u64, shard: u32) -> SimRng {
    SimRng::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1)))
}

/// Per-listener arrival-process state (burst countdown).
#[derive(Debug, Clone, Copy)]
struct ArrivalState {
    burst_left: u32,
}

/// Draws the next inter-arrival gap in nanoseconds, given the scheduled
/// time of the previous arrival (the diurnal wave is a function of
/// scheduled time, not wall time, so the process is open-loop).
fn next_gap_ns(
    cfg: &OpenLoopConfig,
    state: &mut ArrivalState,
    rng: &mut SimRng,
    prev_at: SimTime,
) -> u64 {
    let mean = cfg.mean_interarrival.as_nanos() as f64;
    let gap = match cfg.arrivals {
        ArrivalProcess::Poisson => rng.exp(mean),
        ArrivalProcess::Bursty { burst } => {
            if state.burst_left > 0 {
                state.burst_left -= 1;
                rng.exp(mean / 5.0)
            } else {
                // New clump: geometric-ish size 1..=2*burst-1 (mean ~burst),
                // inter-clump gap sized so the long-run rate stays 1/mean.
                let k = rng.range_inclusive(1, 2 * burst.max(1) as u64 - 1);
                state.burst_left = k.saturating_sub(1) as u32;
                let inter_mean = (k as f64) * mean - (k.saturating_sub(1) as f64) * mean / 5.0;
                rng.exp(inter_mean.max(mean))
            }
        }
        ArrivalProcess::Diurnal { period, depth } => {
            let p = period.as_nanos().max(1);
            let phase = (prev_at.as_nanos() % p) as f64 / p as f64;
            // Triangle wave: -1 at phase 0, +1 at phase 0.5, -1 at 1.
            let tri = if phase < 0.5 {
                4.0 * phase - 1.0
            } else {
                3.0 - 4.0 * phase
            };
            let factor = (1.0 + depth * tri).max(0.05);
            rng.exp(mean / factor)
        }
    };
    (gap as u64).max(1)
}

/// Draws a truncated-Pareto service demand in nanoseconds.
fn draw_service_ns(cfg: &OpenLoopConfig, rng: &mut SimRng) -> u64 {
    let u = rng.unit();
    let min = cfg.service_min.as_nanos() as f64;
    let draw = min * (1.0 - u).powf(-1.0 / cfg.service_alpha);
    (draw as u64).clamp(
        cfg.service_min.as_nanos().max(2),
        cfg.service_cap.as_nanos(),
    )
}

/// The request handler: pre-compute, optional I/O, post-compute, with
/// every step-to-step gap folded into the span's phase accounting.
struct Handler {
    book: Rc<RefCell<SpanBook>>,
    id: u64,
    pre_ns: u64,
    post_ns: u64,
    /// Zero means the request does no I/O.
    io_ns: u64,
    stage: u8,
    prev: SimTime,
}

impl ThreadBody for Handler {
    fn step(&mut self, env: &StepEnv) -> Op {
        match self.stage {
            0 => {
                self.book.borrow_mut().first_run(self.id, env.now);
                self.prev = env.now;
                self.stage = 1;
                Op::Compute(SimDuration::from_nanos(self.pre_ns))
            }
            1 => {
                let measured = env.now.since(self.prev).as_nanos();
                self.book
                    .borrow_mut()
                    .run_done(self.id, self.pre_ns, measured);
                self.prev = env.now;
                if self.io_ns > 0 {
                    self.stage = 2;
                    Op::Io(SimDuration::from_nanos(self.io_ns))
                } else {
                    self.stage = 3;
                    Op::Compute(SimDuration::from_nanos(self.post_ns))
                }
            }
            2 => {
                let measured = env.now.since(self.prev).as_nanos();
                self.book
                    .borrow_mut()
                    .io_done(self.id, self.io_ns, measured);
                self.prev = env.now;
                self.stage = 3;
                Op::Compute(SimDuration::from_nanos(self.post_ns))
            }
            _ => {
                let measured = env.now.since(self.prev).as_nanos();
                let mut book = self.book.borrow_mut();
                book.run_done(self.id, self.post_ns, measured);
                book.complete(self.id, env.now);
                Op::Exit
            }
        }
    }

    fn name(&self) -> &'static str {
        "slo-handler"
    }

    fn span_id(&self) -> Option<u64> {
        Some(self.id)
    }
}

/// One shard's accept loop: sleeps until the next scheduled arrival,
/// then forks a handler per request (catching up one fork per step when
/// behind — an overloaded accept loop shows up as span `accept_wait`).
struct Listener {
    cfg: OpenLoopConfig,
    book: Rc<RefCell<SpanBook>>,
    rng: SimRng,
    state: ArrivalState,
    shard: u32,
    remaining: usize,
    next_at: SimTime,
    sleeping: bool,
}

impl ThreadBody for Listener {
    fn step(&mut self, env: &StepEnv) -> Op {
        if self.remaining == 0 {
            return Op::Exit;
        }
        if env.now < self.next_at && !self.sleeping {
            self.sleeping = true;
            return Op::Io(self.next_at.since(env.now));
        }
        self.sleeping = false;
        // Serve the request scheduled at `next_at` (possibly in the past
        // if the listener fell behind).
        let arrival = self.next_at;
        let service_ns = draw_service_ns(&self.cfg, &mut self.rng);
        let pre_ns = (service_ns / 2).max(1);
        let post_ns = (service_ns - pre_ns).max(1);
        let service_ns = pre_ns + post_ns; // exact after clamping
        let io_ns = if self.cfg.chance_io(&mut self.rng) {
            (self.cfg.io_time_draw(&mut self.rng)).max(1_000)
        } else {
            0
        };
        let id = {
            let mut book = self.book.borrow_mut();
            let id = book.begin(arrival, self.shard, service_ns);
            book.forked(id, env.now);
            id
        };
        self.remaining -= 1;
        let gap = next_gap_ns(&self.cfg, &mut self.state, &mut self.rng, self.next_at);
        self.next_at += SimDuration::from_nanos(gap);
        Op::Fork(Box::new(Handler {
            book: Rc::clone(&self.book),
            id,
            pre_ns,
            post_ns,
            io_ns,
            stage: 0,
            prev: env.now,
        }))
    }

    fn name(&self) -> &'static str {
        "slo-listener"
    }
}

impl OpenLoopConfig {
    fn chance_io(&self, rng: &mut SimRng) -> bool {
        self.io_probability > 0.0 && rng.chance(self.io_probability)
    }

    fn io_time_draw(&self, rng: &mut SimRng) -> u64 {
        rng.exp(self.io_time.as_nanos() as f64) as u64
    }
}

/// Builds the listener body for `shard`, recording every request into
/// the shared `book`. The first arrival is one gap after time zero.
pub fn shard_listener(
    cfg: &OpenLoopConfig,
    shard: u32,
    book: Rc<RefCell<SpanBook>>,
) -> Box<dyn ThreadBody> {
    let mut rng = shard_rng(cfg.seed, shard);
    let mut state = ArrivalState { burst_left: 0 };
    let first_gap = next_gap_ns(cfg, &mut state, &mut rng, SimTime::ZERO);
    Box::new(Listener {
        cfg: cfg.clone(),
        book,
        rng,
        state,
        shard,
        remaining: cfg.shard_requests(shard),
        next_at: SimTime::ZERO + SimDuration::from_nanos(first_gap),
        sleeping: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_machine::{OpResult, ThreadRef};

    fn cfg(arrivals: ArrivalProcess) -> OpenLoopConfig {
        OpenLoopConfig {
            requests: 10,
            shards: 2,
            arrivals,
            mean_interarrival: SimDuration::from_micros(40),
            service_min: SimDuration::from_micros(20),
            service_alpha: 1.5,
            service_cap: SimDuration::from_millis(5),
            io_probability: 0.2,
            io_time: SimDuration::from_micros(800),
            seed: 42,
        }
    }

    fn env(at: SimTime, last: OpResult) -> StepEnv {
        StepEnv {
            now: at,
            self_ref: ThreadRef(0),
            last,
        }
    }

    #[test]
    fn shard_requests_cover_total() {
        let c = OpenLoopConfig {
            requests: 11,
            shards: 4,
            ..cfg(ArrivalProcess::Poisson)
        };
        let total: usize = (0..4).map(|s| c.shard_requests(s)).sum();
        assert_eq!(total, 11);
        assert_eq!(c.shard_requests(0), 3);
        assert_eq!(c.shard_requests(3), 2);
    }

    #[test]
    fn fan_spaces_preserves_aggregate_rate() {
        let mut c = cfg(ArrivalProcess::Poisson);
        let rate = c.shards as f64 / c.mean_interarrival.as_nanos() as f64;
        c.fan_spaces(50);
        assert_eq!(c.shards, 50);
        let fanned = c.shards as f64 / c.mean_interarrival.as_nanos() as f64;
        assert!((fanned / rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn service_draws_respect_truncation() {
        let c = cfg(ArrivalProcess::Poisson);
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let s = draw_service_ns(&c, &mut rng);
            assert!(s >= c.service_min.as_nanos());
            assert!(s <= c.service_cap.as_nanos());
        }
    }

    #[test]
    fn listener_sleeps_then_forks_and_handler_completes_span() {
        let c = cfg(ArrivalProcess::Poisson);
        let book = Rc::new(RefCell::new(SpanBook::new()));
        let mut listener = shard_listener(&c, 0, Rc::clone(&book));
        // First step at t=0: the first arrival is strictly later, so the
        // listener sleeps.
        let op = listener.step(&env(SimTime::ZERO, OpResult::Start));
        let wake = match op {
            Op::Io(d) => SimTime::ZERO + d,
            other => panic!("expected sleep, got {other:?}"),
        };
        // Woken at the scheduled arrival: forks a handler.
        let op = listener.step(&env(wake, OpResult::Done));
        assert!(matches!(op, Op::Fork(_)), "{op:?}");
        let mut handler = match op {
            Op::Fork(h) => h,
            _ => unreachable!(),
        };
        assert_eq!(handler.span_id(), Some(0));
        assert_eq!(book.borrow().len(), 1);
        // Drive the handler with idealized timing (no excess).
        let t0 = wake + SimDuration::from_micros(3);
        let op = handler.step(&env(t0, OpResult::Start));
        let pre = match op {
            Op::Compute(d) => d,
            other => panic!("expected compute, got {other:?}"),
        };
        let mut at = t0 + pre;
        let mut op = handler.step(&env(at, OpResult::Done));
        if let Op::Io(d) = op {
            at += d;
            op = handler.step(&env(at, OpResult::Done));
        }
        let post = match op {
            Op::Compute(d) => d,
            other => panic!("expected post compute, got {other:?}"),
        };
        at += post;
        let op = handler.step(&env(at, OpResult::Done));
        assert!(matches!(op, Op::Exit));
        let b = book.borrow();
        let span = b.spans()[0];
        assert!(span.done);
        assert!(span.partition_exact());
        assert_eq!(span.run_excess_ns, 0, "idealized timing has no excess");
        assert_eq!(span.service_ns, (pre + post).as_nanos());
    }

    #[test]
    fn same_seed_same_schedule() {
        for arrivals in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Bursty { burst: 8 },
            ArrivalProcess::Diurnal {
                period: SimDuration::from_millis(200),
                depth: 0.8,
            },
        ] {
            let c = cfg(arrivals);
            let mut a = shard_rng(c.seed, 1);
            let mut b = shard_rng(c.seed, 1);
            let mut sa = ArrivalState { burst_left: 0 };
            let mut sb = ArrivalState { burst_left: 0 };
            let mut at = SimTime::ZERO;
            for _ in 0..1000 {
                let ga = next_gap_ns(&c, &mut sa, &mut a, at);
                let gb = next_gap_ns(&c, &mut sb, &mut b, at);
                assert_eq!(ga, gb);
                assert!(ga >= 1);
                at += SimDuration::from_nanos(ga);
            }
        }
    }

    #[test]
    fn bursty_long_run_rate_matches_mean() {
        let c = cfg(ArrivalProcess::Bursty { burst: 8 });
        let mut rng = shard_rng(c.seed, 0);
        let mut state = ArrivalState { burst_left: 0 };
        let n = 200_000u64;
        let mut total = 0u64;
        let mut at = SimTime::ZERO;
        for _ in 0..n {
            let g = next_gap_ns(&c, &mut state, &mut rng, at);
            total += g;
            at += SimDuration::from_nanos(g);
        }
        let mean = total as f64 / n as f64;
        let want = c.mean_interarrival.as_nanos() as f64;
        assert!(
            (mean / want - 1.0).abs() < 0.1,
            "bursty long-run mean {mean} vs {want}"
        );
    }
}
