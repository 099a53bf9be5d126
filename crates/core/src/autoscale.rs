//! Autoscaler policy: when should a live coupling grow or shrink?
//!
//! The driver half of ROADMAP item 3's elastic loop. The policy is a pure
//! state machine — it never talks to the runtime — so it is unit-testable
//! without a world and reusable from examples, benches, and the CI
//! drivers alike. The caller samples load (queue depth from
//! [`mxn_runtime::WorldStats`] mailbox gauges, in-flight messages, or any
//! proxy it trusts), feeds each sample to [`Autoscaler::observe`], and
//! acts on the returned [`ScaleDecision`] by running a membership
//! reconfiguration. Only after the reconfiguration *commits* does the
//! caller report back via [`Autoscaler::record_scaled`] — an aborted grow
//! rolls back at the membership layer and the policy simply keeps its old
//! size, so policy state can never run ahead of the real world.

/// Tuning knobs for the scaling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalerConfig {
    /// Queue depth (bytes) at or above which the coupling is overloaded.
    pub high_queue_bytes: u64,
    /// Queue depth (bytes) at or below which the coupling is underloaded.
    /// Must be below `high_queue_bytes`; the gap is the hysteresis band.
    pub low_queue_bytes: u64,
    /// Ranks added (or retired) per scaling step.
    pub step: usize,
    /// Observations to ignore after a scale operation, letting the new
    /// membership drain the backlog before being judged.
    pub cooldown: u64,
    /// Smallest membership the policy will shrink to.
    pub min_ranks: usize,
    /// Largest membership the policy will grow to.
    pub max_ranks: usize,
    /// Consecutive out-of-band samples required before acting — a single
    /// bursty sample never triggers a reconfiguration.
    pub sustain: u32,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            high_queue_bytes: 64 * 1024,
            low_queue_bytes: 4 * 1024,
            step: 1,
            cooldown: 2,
            min_ranks: 1,
            max_ranks: 64,
            sustain: 2,
        }
    }
}

/// One load observation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadSample {
    /// Bytes sitting in mailboxes / staging queues.
    pub queue_bytes: u64,
    /// Messages issued but not yet completed.
    pub inflight_msgs: u64,
}

/// What the policy wants done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Stay at the current size.
    Hold,
    /// Admit `add` more ranks.
    Grow {
        /// Ranks to add (already clamped to `max_ranks`).
        add: usize,
    },
    /// Retire `remove` ranks.
    Shrink {
        /// Ranks to retire (already clamped to `min_ranks`).
        remove: usize,
    },
}

/// The scaling state machine. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    current: usize,
    high_streak: u32,
    low_streak: u32,
    cooldown_left: u64,
}

impl Autoscaler {
    /// Builds a policy for a coupling currently running on `current`
    /// ranks.
    ///
    /// # Panics
    /// On a malformed config (inverted thresholds or bounds, zero step or
    /// sustain).
    pub fn new(cfg: AutoscalerConfig, current: usize) -> Autoscaler {
        assert!(cfg.low_queue_bytes < cfg.high_queue_bytes, "hysteresis band is inverted");
        assert!(cfg.min_ranks >= 1 && cfg.min_ranks <= cfg.max_ranks, "rank bounds are inverted");
        assert!(cfg.step >= 1, "step must be ≥ 1");
        assert!(cfg.sustain >= 1, "sustain must be ≥ 1");
        assert!(
            (cfg.min_ranks..=cfg.max_ranks).contains(&current),
            "current size {current} outside [{}, {}]",
            cfg.min_ranks,
            cfg.max_ranks
        );
        Autoscaler { cfg, current, high_streak: 0, low_streak: 0, cooldown_left: 0 }
    }

    /// The membership size the policy believes is live.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Feeds one load sample; returns what to do. The decision is purely
    /// advisory — the policy's own size only changes via
    /// [`Autoscaler::record_scaled`].
    pub(crate) fn observe(&mut self, sample: &LoadSample) -> ScaleDecision {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.high_streak = 0;
            self.low_streak = 0;
            return ScaleDecision::Hold;
        }
        let load = sample.queue_bytes;
        if load >= self.cfg.high_queue_bytes {
            self.high_streak += 1;
            self.low_streak = 0;
            let headroom = self.cfg.max_ranks - self.current;
            if self.high_streak >= self.cfg.sustain && headroom > 0 {
                return ScaleDecision::Grow { add: self.cfg.step.min(headroom) };
            }
        } else if load <= self.cfg.low_queue_bytes && sample.inflight_msgs == 0 {
            self.low_streak += 1;
            self.high_streak = 0;
            let slack = self.current - self.cfg.min_ranks;
            if self.low_streak >= self.cfg.sustain && slack > 0 {
                return ScaleDecision::Shrink { remove: self.cfg.step.min(slack) };
            }
        } else {
            self.high_streak = 0;
            self.low_streak = 0;
        }
        ScaleDecision::Hold
    }

    /// Feeds one *measured* mailbox-depth gauge — the sample
    /// `InterComm::sample_mailbox_gauge` produces — instead of a
    /// caller-invented [`LoadSample`]. The peak since the last sample
    /// is the queue-pressure signal (a backlog that built and drained
    /// between samples still counts).
    ///
    /// Queued envelopes count as shrink-vetoing in-flight work only when
    /// their resident bytes exceed the low-water band: a persistent
    /// connection parks a handful of tiny ready/ack control envelopes in
    /// the mailbox at *every* sampling point, and a hard `depth == 0`
    /// veto would let that chatter pin the membership at its grown size
    /// forever. Byte-insignificant residue never blocks a shrink the
    /// byte thresholds allow.
    pub fn observe_stats(&mut self, gauge: &mxn_runtime::MailboxGauge) -> ScaleDecision {
        let inflight =
            if gauge.live_bytes > self.cfg.low_queue_bytes { gauge.depth_msgs } else { 0 };
        self.observe(&LoadSample {
            queue_bytes: gauge.peak_bytes.max(gauge.live_bytes),
            inflight_msgs: inflight,
        })
    }

    /// Reports that a reconfiguration committed and the coupling now runs
    /// on `new_size` ranks. Resets streaks and arms the cooldown.
    pub fn record_scaled(&mut self, new_size: usize) {
        assert!(
            (self.cfg.min_ranks..=self.cfg.max_ranks).contains(&new_size),
            "scaled size {new_size} outside the configured bounds"
        );
        self.current = new_size;
        self.high_streak = 0;
        self.low_streak = 0;
        self.cooldown_left = self.cfg.cooldown;
    }

    /// Reports that an attempted reconfiguration aborted (rolled back).
    /// The size is unchanged; streaks reset and the cooldown arms so the
    /// policy does not immediately hammer a membership that just refused
    /// to commit.
    pub fn record_aborted(&mut self) {
        self.high_streak = 0;
        self.low_streak = 0;
        self.cooldown_left = self.cfg.cooldown;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscalerConfig {
        AutoscalerConfig {
            high_queue_bytes: 1000,
            low_queue_bytes: 100,
            step: 2,
            cooldown: 3,
            min_ranks: 2,
            max_ranks: 8,
            sustain: 2,
        }
    }

    fn busy() -> LoadSample {
        LoadSample { queue_bytes: 5000, inflight_msgs: 9 }
    }

    fn idle() -> LoadSample {
        LoadSample { queue_bytes: 0, inflight_msgs: 0 }
    }

    fn mid() -> LoadSample {
        LoadSample { queue_bytes: 500, inflight_msgs: 1 }
    }

    #[test]
    fn sustained_pressure_grows_one_burst_does_not() {
        let mut a = Autoscaler::new(cfg(), 4);
        assert_eq!(a.observe(&busy()), ScaleDecision::Hold, "first high sample only streaks");
        assert_eq!(a.observe(&mid()), ScaleDecision::Hold, "band sample resets the streak");
        assert_eq!(a.observe(&busy()), ScaleDecision::Hold);
        assert_eq!(a.observe(&busy()), ScaleDecision::Grow { add: 2 }, "sustained pressure");
        assert_eq!(a.current(), 4, "observe never mutates the size");
    }

    #[test]
    fn cooldown_swallows_samples_after_a_scale() {
        let mut a = Autoscaler::new(cfg(), 4);
        a.observe(&busy());
        assert_eq!(a.observe(&busy()), ScaleDecision::Grow { add: 2 });
        a.record_scaled(6);
        assert_eq!(a.current(), 6);
        for _ in 0..3 {
            assert_eq!(a.observe(&busy()), ScaleDecision::Hold, "cooldown holds");
        }
        // Post-cooldown the streak must be rebuilt from scratch.
        assert_eq!(a.observe(&busy()), ScaleDecision::Hold);
        assert_eq!(a.observe(&busy()), ScaleDecision::Grow { add: 2 });
    }

    #[test]
    fn growth_clamps_at_max_ranks() {
        let mut a = Autoscaler::new(cfg(), 7);
        a.observe(&busy());
        assert_eq!(a.observe(&busy()), ScaleDecision::Grow { add: 1 }, "only 1 rank of headroom");
        a.record_scaled(8);
        for _ in 0..3 {
            a.observe(&busy());
        }
        a.observe(&busy());
        assert_eq!(a.observe(&busy()), ScaleDecision::Hold, "at max: sustained load holds");
    }

    #[test]
    fn idle_shrinks_and_clamps_at_min_ranks() {
        let mut a = Autoscaler::new(cfg(), 3);
        assert_eq!(a.observe(&idle()), ScaleDecision::Hold);
        assert_eq!(a.observe(&idle()), ScaleDecision::Shrink { remove: 1 }, "clamped to min");
        a.record_scaled(2);
        for _ in 0..3 {
            a.observe(&idle());
        }
        a.observe(&idle());
        assert_eq!(a.observe(&idle()), ScaleDecision::Hold, "at min: idleness holds");
    }

    #[test]
    fn inflight_messages_veto_a_shrink() {
        let mut a = Autoscaler::new(cfg(), 4);
        let draining = LoadSample { queue_bytes: 0, inflight_msgs: 3 };
        for _ in 0..5 {
            assert_eq!(a.observe(&draining), ScaleDecision::Hold, "in-flight work blocks shrink");
        }
    }

    #[test]
    fn aborted_scale_keeps_size_and_arms_cooldown() {
        let mut a = Autoscaler::new(cfg(), 4);
        a.observe(&busy());
        assert_eq!(a.observe(&busy()), ScaleDecision::Grow { add: 2 });
        a.record_aborted();
        assert_eq!(a.current(), 4, "rollback leaves the size untouched");
        for _ in 0..3 {
            assert_eq!(a.observe(&busy()), ScaleDecision::Hold);
        }
        a.observe(&busy());
        assert_eq!(a.observe(&busy()), ScaleDecision::Grow { add: 2 }, "retry after cooldown");
    }

    #[test]
    fn observe_stats_maps_measured_gauges_onto_the_policy() {
        use mxn_runtime::MailboxGauge;
        let mut a = Autoscaler::new(cfg(), 4);
        // A backlog that built and drained between samples still registers:
        // peak carries the pressure even with live == 0.
        let burst = MailboxGauge { live_bytes: 0, peak_bytes: 5000, depth_msgs: 0 };
        assert_eq!(a.observe_stats(&burst), ScaleDecision::Hold);
        assert_eq!(a.observe_stats(&burst), ScaleDecision::Grow { add: 2 });
        a.record_scaled(6);
        for _ in 0..3 {
            a.observe_stats(&burst);
        }
        // A byte-significant draining backlog holds the membership.
        let draining = MailboxGauge { live_bytes: 600, peak_bytes: 600, depth_msgs: 2 };
        for _ in 0..5 {
            assert_eq!(a.observe_stats(&draining), ScaleDecision::Hold);
        }
        // Parked protocol chatter — a few queued envelopes whose bytes sit
        // under the low-water band — must NOT veto the shrink: a persistent
        // connection leaves such residue at every sampling point.
        let chatter = MailboxGauge { live_bytes: 32, peak_bytes: 32, depth_msgs: 4 };
        a.observe_stats(&chatter);
        assert_eq!(a.observe_stats(&chatter), ScaleDecision::Shrink { remove: 2 });
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn inverted_band_is_rejected() {
        let bad = AutoscalerConfig { high_queue_bytes: 10, low_queue_bytes: 10, ..cfg() };
        let _ = Autoscaler::new(bad, 4);
    }
}
