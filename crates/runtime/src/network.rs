//! An optional synthetic network model.
//!
//! By default the runtime delivers messages instantly (threads sharing
//! memory). For cluster-shaped experiments, a [`NetworkModel`] delays the
//! *visibility* of each inter-rank message by `latency + bytes/bandwidth`,
//! while preserving MPI's non-overtaking guarantee: per (sender, receiver)
//! pair, delivery times are monotone, so a small message can never pass an
//! earlier large one on the same channel.
//!
//! This turns the benchmarks' message counts into wall-clock effects —
//! e.g. the schedule-reuse and message-aggregation advantages of the M×N
//! schedules become latency-bound, as they are on real interconnects.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Per-message cost model: `delay = latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Fixed per-message latency.
    pub latency: Duration,
    /// Link bandwidth in bytes/second (`f64::INFINITY` = unlimited).
    pub bytes_per_sec: f64,
}

impl NetworkModel {
    /// A latency-only model (infinite bandwidth).
    pub fn latency_only(latency: Duration) -> Self {
        NetworkModel { latency, bytes_per_sec: f64::INFINITY }
    }

    /// The transfer delay for one message of `bytes`.
    pub fn delay(&self, bytes: usize) -> Duration {
        let transfer = if self.bytes_per_sec.is_finite() && self.bytes_per_sec > 0.0 {
            Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
        } else {
            Duration::ZERO
        };
        self.latency + transfer
    }
}

/// Tracks per-channel (sender → receiver) delivery horizons so delivery
/// times stay monotone per channel (non-overtaking).
pub(crate) struct ChannelClock {
    model: NetworkModel,
    /// `horizons[src * n + dst]` = earliest next delivery instant.
    horizons: Vec<Mutex<Option<Instant>>>,
    n: usize,
}

impl ChannelClock {
    /// Creates clocks for an `n`-rank world.
    pub(crate) fn new(model: NetworkModel, n: usize) -> Self {
        ChannelClock { model, horizons: (0..n * n).map(|_| Mutex::new(None)).collect(), n }
    }

    /// Computes (and records) the delivery instant for a message of
    /// `bytes` from `src` to `dst`, sent now. Self-messages are immediate.
    pub(crate) fn delivery_time(&self, src: usize, dst: usize, bytes: usize) -> Instant {
        let now = Instant::now();
        if src == dst {
            return now;
        }
        let mut horizon = self.horizons[src * self.n + dst].lock();
        let candidate = now + self.model.delay(bytes);
        let at = match *horizon {
            Some(h) if h > candidate => h,
            _ => candidate,
        };
        *horizon = Some(at);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_combines_latency_and_bandwidth() {
        let m = NetworkModel { latency: Duration::from_micros(10), bytes_per_sec: 1e6 };
        // 1000 bytes at 1 MB/s = 1 ms + 10 µs.
        assert_eq!(m.delay(1000), Duration::from_micros(1010));
        let lat = NetworkModel::latency_only(Duration::from_micros(5));
        assert_eq!(lat.delay(1 << 20), Duration::from_micros(5));
    }

    #[test]
    fn channel_delivery_is_monotone() {
        let c = ChannelClock::new(
            NetworkModel { latency: Duration::from_micros(1), bytes_per_sec: 1e3 },
            2,
        );
        // A large message followed by a tiny one: the tiny one must not
        // overtake.
        let t1 = c.delivery_time(0, 1, 10_000); // 10 s of transfer
        let t2 = c.delivery_time(0, 1, 1);
        assert!(t2 >= t1, "non-overtaking per channel");
        // The reverse channel is independent.
        let t3 = c.delivery_time(1, 0, 1);
        assert!(t3 < t1);
    }

    #[test]
    fn self_messages_are_immediate() {
        let c = ChannelClock::new(NetworkModel::latency_only(Duration::from_secs(1)), 2);
        let t = c.delivery_time(1, 1, 1 << 30);
        assert!(t <= Instant::now());
    }
}

#[cfg(test)]
mod integration_tests {
    use super::*;
    use crate::world::{RunOpts, World};

    #[test]
    fn latency_delays_visibility() {
        let opts = RunOpts {
            network: Some(NetworkModel::latency_only(Duration::from_millis(30))),
            ..RunOpts::default()
        };
        World::run_opts(2, opts, |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 0, 7u8).unwrap();
                // Tell rank 1 the send happened (also delayed 30ms, so
                // use it only as a lower-bound marker).
            } else {
                let start = Instant::now();
                let v: u8 = c.recv(0, 0).unwrap();
                assert_eq!(v, 7);
                assert!(
                    start.elapsed() >= Duration::from_millis(25),
                    "message visible too early: {:?}",
                    start.elapsed()
                );
            }
        });
    }

    #[test]
    fn try_recv_respects_inflight_messages() {
        let opts = RunOpts {
            network: Some(NetworkModel::latency_only(Duration::from_millis(40))),
            ..RunOpts::default()
        };
        World::run_opts(2, opts, |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 1, 1u8).unwrap();
            } else {
                // The message is in flight for ~40ms: early polls miss.
                let start = Instant::now();
                let mut polls = 0;
                let v = loop {
                    if let Some((v, _)) = c.try_recv::<u8>(0, 1).unwrap() {
                        break v;
                    }
                    polls += 1;
                    std::thread::yield_now();
                    if start.elapsed() > Duration::from_secs(5) {
                        panic!("message never became visible");
                    }
                };
                assert_eq!(v, 1);
                assert!(polls > 0, "at least one poll saw the in-flight message hidden");
                assert!(start.elapsed() >= Duration::from_millis(35));
            }
        });
    }

    #[test]
    fn bandwidth_term_scales_with_size() {
        // 1 MB at 10 MB/s = 100 ms; small message ≈ latency only.
        let model = NetworkModel { latency: Duration::from_millis(1), bytes_per_sec: 10e6 };
        let opts = RunOpts { network: Some(model), ..RunOpts::default() };
        World::run_opts(2, opts, |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 0, vec![0u8; 1_000_000]).unwrap();
                c.send(1, 1, 0u8).unwrap();
            } else {
                let start = Instant::now();
                // FIFO per channel: the small message cannot overtake.
                let _: Vec<u8> = c.recv(0, 0).unwrap();
                let big = start.elapsed();
                let _: u8 = c.recv(0, 1).unwrap();
                assert!(big >= Duration::from_millis(90), "bandwidth delay applied: {big:?}");
            }
        });
    }

    #[test]
    fn collectives_work_under_network_model() {
        let model = NetworkModel::latency_only(Duration::from_micros(200));
        let opts = RunOpts { network: Some(model), ..RunOpts::default() };
        let sums = World::run_opts(4, opts, |p| {
            let c = p.world();
            c.allreduce(c.rank() as u64, |a, b| *a += b).unwrap()
        })
        .results;
        assert_eq!(sums, vec![6, 6, 6, 6]);
    }
}
