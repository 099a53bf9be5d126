//! Seeded fault injection at the frame layer.
//!
//! The in-proc fault plane (`mxn_runtime::fault`) judges each *envelope*
//! on its way into a mailbox. Over a socket the natural injection point is
//! the encoded *frame*: a dropped frame models a lost packet, a flipped
//! bit models line noise the CRCs must catch, a delay models congestion.
//! The decision function is the same stateless seeded-hash design as the
//! in-proc plane (reusing its [`splitmix64`]/[`unit`](fn@unit) mixers), so
//! the same seed replays the same byte-level damage. Nothing reads the
//! environment: a node injects faults only when its
//! [`WireConfig::faults`](crate::WireConfig::faults) says so, and the
//! seeded link explorer (`tests/link_explorer.rs`) draws a `WireFaults`
//! per schedule. The `MXN_FAULT_SEED` × `MXN_FAULT_KIND` matrix drives
//! only the in-proc plane.
//!
//! Decisions are keyed on a per-link *send-attempt* counter rather than
//! the frame's sequence number: a frame retransmitted by session resume
//! gets a fresh draw, so a lossy link cannot deterministically swallow
//! the same message forever.

use std::time::Duration;

use mxn_runtime::{splitmix64, unit};

/// What the fault plane decided for one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireVerdict {
    /// Write the frame unchanged.
    Deliver,
    /// Pretend the frame was lost in flight.
    Drop,
    /// Flip this bit (0-based, over the whole encoded frame) before
    /// writing; the receiver's CRC must catch it.
    FlipBit(usize),
    /// Sleep this long before writing.
    Delay(Duration),
}

/// Frame-layer fault policy; probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFaults {
    /// Seed for every draw; same seed ⇒ same damage.
    pub seed: u64,
    /// Probability an outgoing data frame is dropped.
    pub drop: f64,
    /// Probability one bit of an outgoing data frame is flipped.
    pub corrupt: f64,
    /// Fixed extra delay before each write (models latency).
    pub delay: Duration,
}

impl WireFaults {
    /// No faults.
    pub fn none() -> Self {
        WireFaults { seed: 0, drop: 0.0, corrupt: 0.0, delay: Duration::ZERO }
    }

    /// Whether any fault can ever fire.
    pub(crate) fn is_reliable(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0 && self.delay.is_zero()
    }

    /// Judges one outgoing frame of `frame_len` bytes on link `src → dst`,
    /// `attempt` being the link's monotone send-attempt counter.
    pub fn judge(&self, src: u32, dst: u32, attempt: u64, frame_len: usize) -> WireVerdict {
        if self.is_reliable() || frame_len == 0 {
            return WireVerdict::Deliver;
        }
        let key = (u64::from(src) << 40) ^ (u64::from(dst) << 20) ^ attempt.wrapping_mul(0x9e37);
        let fate = unit(splitmix64(self.seed ^ key));
        if fate < self.drop {
            return WireVerdict::Drop;
        }
        if fate < self.drop + self.corrupt {
            let bit_draw = splitmix64(self.seed ^ key ^ 0x6a09_e667_f3bc_c909);
            return WireVerdict::FlipBit((bit_draw as usize) % (frame_len * 8));
        }
        if !self.delay.is_zero() {
            return WireVerdict::Delay(self.delay);
        }
        WireVerdict::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_never_faults() {
        let f = WireFaults::none();
        for a in 0..200 {
            assert_eq!(f.judge(0, 1, a, 64), WireVerdict::Deliver);
        }
    }

    #[test]
    fn same_seed_same_verdicts() {
        let f = WireFaults { seed: 42, drop: 0.3, corrupt: 0.3, delay: Duration::ZERO };
        let g = f;
        for a in 0..500 {
            assert_eq!(f.judge(1, 2, a, 128), g.judge(1, 2, a, 128));
        }
    }

    #[test]
    fn different_attempts_redraw() {
        // The redelivery guarantee: a frame dropped on attempt k must have
        // an independent fate on attempt k+1, so some retry gets through.
        let f = WireFaults { seed: 7, drop: 0.5, ..WireFaults::none() };
        let fates: Vec<_> = (0..64).map(|a| f.judge(0, 1, a, 64)).collect();
        assert!(fates.contains(&WireVerdict::Deliver));
        assert!(fates.contains(&WireVerdict::Drop));
    }

    #[test]
    fn flipped_bit_is_in_range() {
        let f = WireFaults { seed: 3, corrupt: 1.0, ..WireFaults::none() };
        for a in 0..100 {
            match f.judge(0, 1, a, 50) {
                WireVerdict::FlipBit(bit) => assert!(bit < 400),
                other => panic!("corrupt=1.0 must always flip, got {other:?}"),
            }
        }
    }

    #[test]
    fn env_matrix_shapes() {
        let drop = WireFaults { seed: 9, drop: 0.25, ..WireFaults::none() };
        assert!(!drop.is_reliable());
        let none = WireFaults::none();
        assert!(none.is_reliable());
    }
}
