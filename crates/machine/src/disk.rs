//! The disk device.
//!
//! The paper simplifies I/O to a fixed 50 ms in-kernel block per buffer-cache
//! miss, noting that "our measurements were qualitatively similar when we
//! took contention for the disk into account" (§5.3). We support both: the
//! default [`DiskModel::FixedLatency`] reproduces the paper's setup; the
//! [`DiskModel::Queued`] single-server model adds FIFO contention (a
//! system test checks that it serializes overlapping requests).

use sa_sim::{SimDuration, SimTime};

/// How disk request completion times are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskModel {
    /// Every request completes `latency` after it is issued, regardless of
    /// other outstanding requests (infinite parallelism).
    FixedLatency,
    /// A single FIFO server: each request occupies the device for its full
    /// service time, so concurrent requests queue.
    Queued,
}

/// Configuration of the disk device.
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Per-request latency (fixed model) or service time (queued model).
    pub latency: SimDuration,
    /// Completion-time model.
    pub model: DiskModel,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            // The paper's buffer-cache miss penalty (§5.3).
            latency: SimDuration::from_millis(50),
            model: DiskModel::FixedLatency,
        }
    }
}

/// The disk device: computes completion times for issued requests.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    /// Time at which the (queued-model) server becomes free.
    free_at: SimTime,
    requests_issued: u64,
    busy_ns: u64,
}

impl Disk {
    /// Creates a disk with the given configuration.
    pub fn new(config: DiskConfig) -> Self {
        Disk {
            config,
            free_at: SimTime::ZERO,
            requests_issued: 0,
            busy_ns: 0,
        }
    }

    /// Issues a request (with an explicit service time override) at `now`
    /// and returns its completion time.
    pub fn issue_with_latency(&mut self, now: SimTime, latency: SimDuration) -> SimTime {
        self.requests_issued += 1;
        match self.config.model {
            DiskModel::FixedLatency => {
                self.busy_ns += latency.as_nanos();
                now + latency
            }
            DiskModel::Queued => {
                let start = if self.free_at > now {
                    self.free_at
                } else {
                    now
                };
                let done = start + latency;
                self.free_at = done;
                self.busy_ns += latency.as_nanos();
                done
            }
        }
    }

    /// Issues a request with the configured default latency.
    pub fn issue(&mut self, now: SimTime) -> SimTime {
        self.issue_with_latency(now, self.config.latency)
    }

    /// Default per-request latency.
    pub fn default_latency(&self) -> SimDuration {
        self.config.latency
    }

    /// Total requests issued so far.
    pub fn requests_issued(&self) -> u64 {
        self.requests_issued
    }

    /// Total device busy time (service time summed over requests).
    pub fn busy_time(&self) -> SimDuration {
        SimDuration::from_nanos(self.busy_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn fixed_latency_is_independent() {
        let mut d = Disk::new(DiskConfig {
            latency: ms(50),
            model: DiskModel::FixedLatency,
        });
        let t0 = SimTime::from_millis(0);
        assert_eq!(d.issue(t0), SimTime::from_millis(50));
        assert_eq!(d.issue(t0), SimTime::from_millis(50));
        assert_eq!(d.requests_issued(), 2);
    }

    #[test]
    fn queued_requests_serialize() {
        let mut d = Disk::new(DiskConfig {
            latency: ms(50),
            model: DiskModel::Queued,
        });
        let t0 = SimTime::from_millis(0);
        assert_eq!(d.issue(t0), SimTime::from_millis(50));
        assert_eq!(d.issue(t0), SimTime::from_millis(100));
        // A request after the queue drains starts immediately.
        assert_eq!(
            d.issue(SimTime::from_millis(200)),
            SimTime::from_millis(250)
        );
    }

    #[test]
    fn override_latency() {
        let mut d = Disk::new(DiskConfig::default());
        let done = d.issue_with_latency(SimTime::ZERO, ms(5));
        assert_eq!(done, SimTime::from_millis(5));
    }

    #[test]
    fn busy_time_accumulates() {
        let mut d = Disk::new(DiskConfig::default());
        d.issue(SimTime::ZERO);
        d.issue(SimTime::ZERO);
        assert_eq!(d.busy_time(), ms(100));
    }

    #[test]
    fn default_is_paper_setup() {
        let c = DiskConfig::default();
        assert_eq!(c.latency, ms(50));
        assert_eq!(c.model, DiskModel::FixedLatency);
    }
}
