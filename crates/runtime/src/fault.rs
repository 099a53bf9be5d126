//! Deterministic fault plane: message-level fault injection and rank death.
//!
//! Production coupling middleware cannot assume every participant stays
//! alive and every message arrives. This module makes those assumptions
//! *removable*: a [`FaultPlane`] is configured per-world with a seed and
//! per-channel [`ChannelPolicy`]s (drop, duplicate, delay, bounded reorder,
//! corruption) plus scheduled [`RankDeath`]s at a given operation count.
//!
//! Determinism is the design center. Fault decisions are *stateless hash
//! draws* keyed on `(seed, src, dst, per-channel sequence number)` — never
//! on wall-clock time or a shared mutable RNG — so the decision for the
//! k-th message on a channel is the same no matter how OS threads
//! interleave. Two runs with the same seed therefore produce byte-identical
//! [`FaultTrace`]s, which is what makes failures *replayable*: a bug found
//! under seed 42 can be re-run under seed 42 forever.
//!
//! Rank death is modelled by a [`Liveness`] registry shared by all ranks:
//! a dead rank's sends stop reaching the network and its own operations
//! fail with [`RuntimeError::PeerDead`](crate::RuntimeError::PeerDead), while peers blocked on it are
//! woken and get `PeerDead` instead of hanging (see `Mailbox`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

/// Per-channel fault probabilities and delay bounds.
///
/// Probabilities are in `[0, 1]`; a message can be dropped, duplicated or
/// corrupted (mutually exclusive, tested in that order), and independently
/// delayed by `delay + U[0, jitter]`. A nonzero `jitter` yields *bounded
/// reorder*: messages may overtake each other by at most `jitter` of
/// visibility time, never unboundedly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPolicy {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability a message's envelope checksum is damaged (detectable
    /// corruption / truncation).
    pub corrupt: f64,
    /// Fixed extra visibility delay applied to every message.
    pub delay: Duration,
    /// Upper bound of a uniformly-drawn extra delay; the source of bounded
    /// reordering.
    pub jitter: Duration,
}

impl ChannelPolicy {
    /// The no-fault policy.
    pub fn reliable() -> Self {
        ChannelPolicy {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
        }
    }

    /// A uniformly lossy policy: every message dropped with probability `p`.
    pub fn lossy(p: f64) -> Self {
        ChannelPolicy { drop: p, ..Self::reliable() }
    }

    /// Whether this policy can ever inject a fault.
    pub(crate) fn is_reliable(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.delay.is_zero()
            && self.jitter.is_zero()
    }
}

impl Default for ChannelPolicy {
    fn default() -> Self {
        Self::reliable()
    }
}

/// A scheduled rank death: the rank dies when its own operation counter
/// (sends + receives initiated) reaches `at_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDeath {
    /// Global (world) rank to kill.
    pub rank: usize,
    /// Operation count at which the rank dies (0 = before its first op).
    pub at_op: u64,
}

/// World-level fault-plane configuration.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Seed for all fault decisions; same seed ⇒ byte-identical trace.
    pub seed: u64,
    /// Policy applied to every channel without an override.
    pub default_policy: ChannelPolicy,
    /// Per-channel `(src, dst)` policy overrides (global ranks).
    pub channel_policies: HashMap<(usize, usize), ChannelPolicy>,
    /// Scheduled rank deaths.
    pub deaths: Vec<RankDeath>,
}

impl FaultConfig {
    /// A fault plane that injects nothing — useful as a base to tweak.
    pub fn reliable(seed: u64) -> Self {
        FaultConfig { seed, ..Default::default() }
    }

    /// Sets the default policy (builder style).
    pub fn with_default_policy(mut self, policy: ChannelPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Overrides the policy of one directed channel (builder style).
    pub fn with_channel(mut self, src: usize, dst: usize, policy: ChannelPolicy) -> Self {
        self.channel_policies.insert((src, dst), policy);
        self
    }

    /// Schedules a rank death (builder style).
    pub fn with_death(mut self, rank: usize, at_op: u64) -> Self {
        self.deaths.push(RankDeath { rank, at_op });
        self
    }
}

/// What the fault plane did to one message (or rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Message silently discarded.
    Dropped,
    /// Message delivered twice.
    Duplicated,
    /// Envelope checksum damaged (receiver will detect `Corrupt`).
    Corrupted,
    /// Message visibility delayed by this many microseconds.
    Delayed(u64),
    /// The rank died at this operation count.
    Death(u64),
}

/// One entry of a fault trace. Ordering is by `(src, dst, seq, kind)` so a
/// sorted trace is canonical regardless of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultEvent {
    /// Sending global rank (for deaths: the dead rank).
    pub src: usize,
    /// Receiving global rank (for deaths: the dead rank).
    pub dst: usize,
    /// Per-channel message sequence number (for deaths: the op count).
    pub seq: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// The canonical (sorted) record of every fault injected in one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultTrace {
    events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// The events, sorted canonically.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no fault was injected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A 64-bit digest of the canonical trace — equal digests for equal
    /// traces, cheap to assert on in determinism tests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for e in &self.events {
            for word in [e.src as u64, e.dst as u64, e.seq, fault_kind_code(e.kind)] {
                h ^= word;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

fn fault_kind_code(k: FaultKind) -> u64 {
    match k {
        FaultKind::Dropped => 1,
        FaultKind::Duplicated => 2,
        FaultKind::Corrupted => 3,
        FaultKind::Delayed(us) => 4 | (us << 3),
        FaultKind::Death(op) => 5 | (op << 3),
    }
}

/// What [`FaultPlane::judge`] decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver unchanged.
    Deliver,
    /// Discard the message.
    Drop,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver with a damaged checksum.
    Corrupt,
}

/// SplitMix64: the standard small deterministic mixer. Public so other
/// layers that need seeded, replayable draws (e.g. `CallPolicy` retry
/// jitter) share the fault plane's RNG instead of growing their own.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a u64 draw to `[0, 1)`.
pub fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 / (1u64 << 53) as f64
}

/// Liveness registry: which global ranks are still alive.
///
/// Shared by every rank of a world; consulted by blocked receives so that a
/// wait on a dead peer fails with [`RuntimeError::PeerDead`](crate::RuntimeError::PeerDead) instead of
/// hanging forever.
pub struct Liveness {
    dead: Vec<AtomicBool>,
}

impl Liveness {
    /// All ranks alive.
    pub fn new(n: usize) -> Self {
        Liveness { dead: (0..n).map(|_| AtomicBool::new(false)).collect() }
    }

    /// Marks `rank` dead. Idempotent; returns whether this call killed it.
    pub fn kill(&self, rank: usize) -> bool {
        !self.dead[rank].swap(true, Ordering::AcqRel)
    }

    /// Clears a death verdict: `rank` is alive again. Returns whether the
    /// rank had been dead.
    ///
    /// This exists for two provisional-death cases at the wire layer: a
    /// *quarantined* zombie peer that resumes before the survivor
    /// agreement commits its eviction, and a join attempt that aborted and
    /// is retried under the same rank number by a fresh process. Once a
    /// membership agreement has consumed the death (shrink, survivor
    /// context, `agree_survivors`), the verdict is final and reviving the
    /// rank is a caller bug — the agreement layers never call this.
    pub fn revive(&self, rank: usize) -> bool {
        self.dead[rank].swap(false, Ordering::AcqRel)
    }

    /// Whether `rank` has died.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::Acquire)
    }
}

/// The per-world fault injector. All decisions are deterministic functions
/// of `(seed, channel, per-channel sequence)`; see the module docs.
pub(crate) struct FaultPlane {
    config: FaultConfig,
    /// Per-channel message counters: `chan_seq[src * n + dst]`.
    chan_seq: Vec<AtomicU64>,
    /// Per-rank operation counters (sends + receives initiated).
    rank_ops: Vec<AtomicU64>,
    /// Per-rank arming. A disarmed rank's sends and ops bypass the plane
    /// entirely — no verdicts, no sequence numbers, no death countdown.
    /// Only rank `r` writes `armed[r]`, so disarm→(exempt phase)→arm in a
    /// rank's own program order is race-free and deterministic. `Universe`
    /// uses this to keep its intercomm bootstrap reliable.
    armed: Vec<AtomicBool>,
    trace: Mutex<Vec<FaultEvent>>,
    n: usize,
}

impl FaultPlane {
    /// Builds the fault plane for an `n`-rank world; every rank starts
    /// armed.
    pub(crate) fn new(config: FaultConfig, n: usize) -> Self {
        FaultPlane {
            config,
            chan_seq: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            rank_ops: (0..n).map(|_| AtomicU64::new(0)).collect(),
            armed: (0..n).map(|_| AtomicBool::new(true)).collect(),
            trace: Mutex::new(Vec::new()),
            n,
        }
    }

    /// Arms or disarms the plane for `rank`'s *outgoing* traffic and op
    /// counting. Must only be called by rank `rank` itself (see the field
    /// docs for why that keeps runs deterministic).
    pub(crate) fn set_armed(&self, rank: usize, armed: bool) {
        self.armed[rank].store(armed, Ordering::Release);
    }

    /// Whether `rank`'s outgoing traffic currently goes through the plane.
    pub(crate) fn is_armed(&self, rank: usize) -> bool {
        self.armed[rank].load(Ordering::Acquire)
    }

    /// The configured seed — the root of every verdict drawn here. Exposed
    /// so derived randomness (retry jitter, experiment shuffles) can be
    /// keyed off the same value and stay replayable.
    pub(crate) fn seed(&self) -> u64 {
        self.config.seed
    }

    fn policy(&self, src: usize, dst: usize) -> &ChannelPolicy {
        self.config.channel_policies.get(&(src, dst)).unwrap_or(&self.config.default_policy)
    }

    fn record(&self, event: FaultEvent) {
        self.trace.lock().push(event);
    }

    /// Judges the next message on channel `src → dst`. Returns the verdict
    /// plus any extra visibility delay. Self-messages are never faulted.
    pub(crate) fn judge(&self, src: usize, dst: usize) -> (Verdict, Duration) {
        if src == dst || !self.is_armed(src) {
            return (Verdict::Deliver, Duration::ZERO);
        }
        let policy = *self.policy(src, dst);
        if policy.is_reliable() {
            return (Verdict::Deliver, Duration::ZERO);
        }
        let seq = self.chan_seq[src * self.n + dst].fetch_add(1, Ordering::Relaxed);
        // Two independent draws: one for the fate, one for the jitter.
        let key = (src as u64) << 40 ^ (dst as u64) << 20 ^ seq.wrapping_mul(0x9e37);
        let fate = unit(splitmix64(self.config.seed ^ key));
        let jitter_draw = unit(splitmix64(self.config.seed ^ key ^ 0x6a09_e667_f3bc_c909));

        let mut delay = policy.delay;
        if !policy.jitter.is_zero() {
            delay += Duration::from_secs_f64(policy.jitter.as_secs_f64() * jitter_draw);
        }
        let verdict = if fate < policy.drop {
            self.record(FaultEvent { src, dst, seq, kind: FaultKind::Dropped });
            Verdict::Drop
        } else if fate < policy.drop + policy.duplicate {
            self.record(FaultEvent { src, dst, seq, kind: FaultKind::Duplicated });
            Verdict::Duplicate
        } else if fate < policy.drop + policy.duplicate + policy.corrupt {
            self.record(FaultEvent { src, dst, seq, kind: FaultKind::Corrupted });
            Verdict::Corrupt
        } else {
            Verdict::Deliver
        };
        if verdict != Verdict::Drop && !delay.is_zero() {
            self.record(FaultEvent {
                src,
                dst,
                seq,
                kind: FaultKind::Delayed(delay.as_micros() as u64),
            });
        }
        (verdict, delay)
    }

    /// Counts one operation by `rank` against its scheduled death, if any.
    /// Returns the rank to kill when the threshold is crossed (the caller —
    /// `WorldShared` — performs the kill so it can wake blocked receivers).
    /// Ops while disarmed are neither counted nor fatal.
    pub(crate) fn note_op(&self, rank: usize) -> Option<u64> {
        if !self.is_armed(rank) {
            return None;
        }
        let deaths: Vec<u64> =
            self.config.deaths.iter().filter(|d| d.rank == rank).map(|d| d.at_op).collect();
        if deaths.is_empty() {
            return None;
        }
        let op = self.rank_ops[rank].fetch_add(1, Ordering::Relaxed);
        if deaths.contains(&op) {
            self.record(FaultEvent { src: rank, dst: rank, seq: op, kind: FaultKind::Death(op) });
            Some(op)
        } else {
            None
        }
    }

    /// The canonical, sorted trace of everything injected so far.
    pub(crate) fn trace(&self) -> FaultTrace {
        let mut events = self.trace.lock().clone();
        events.sort_unstable();
        FaultTrace { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_policy_never_faults() {
        let fp = FaultPlane::new(
            FaultConfig::reliable(7).with_default_policy(ChannelPolicy::reliable()),
            4,
        );
        for _ in 0..100 {
            assert_eq!(fp.judge(0, 1), (Verdict::Deliver, Duration::ZERO));
        }
        assert!(fp.trace().is_empty());
    }

    #[test]
    fn same_seed_same_verdicts() {
        let mk = || {
            FaultPlane::new(
                FaultConfig::reliable(42).with_default_policy(ChannelPolicy {
                    drop: 0.2,
                    duplicate: 0.2,
                    corrupt: 0.2,
                    delay: Duration::ZERO,
                    jitter: Duration::from_micros(50),
                }),
                3,
            )
        };
        let a = mk();
        let b = mk();
        for _ in 0..200 {
            assert_eq!(a.judge(0, 1), b.judge(0, 1));
            assert_eq!(a.judge(1, 2), b.judge(1, 2));
        }
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.trace().digest(), b.trace().digest());
        assert!(!a.trace().is_empty(), "a 60% fault rate fired at least once in 400 draws");
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| {
            FaultPlane::new(
                FaultConfig::reliable(seed).with_default_policy(ChannelPolicy::lossy(0.5)),
                2,
            )
        };
        let a = mk(1);
        let b = mk(2);
        let va: Vec<_> = (0..64).map(|_| a.judge(0, 1).0).collect();
        let vb: Vec<_> = (0..64).map(|_| b.judge(0, 1).0).collect();
        assert_ne!(va, vb, "64 coin flips under different seeds almost surely differ");
    }

    #[test]
    fn interleaving_does_not_change_per_channel_decisions() {
        // Draw channels in different global orders; per-channel sequences
        // are what key the decisions, so each channel's verdict stream is
        // identical either way.
        let mk = || {
            FaultPlane::new(
                FaultConfig::reliable(9).with_default_policy(ChannelPolicy::lossy(0.4)),
                3,
            )
        };
        let a = mk();
        let mut a01 = Vec::new();
        let mut a12 = Vec::new();
        for _ in 0..50 {
            a01.push(a.judge(0, 1).0);
            a12.push(a.judge(1, 2).0);
        }
        let b = mk();
        let mut b12 = Vec::new();
        let mut b01 = Vec::new();
        for _ in 0..50 {
            b12.push(b.judge(1, 2).0);
            b01.push(b.judge(0, 1).0);
        }
        assert_eq!(a01, b01);
        assert_eq!(a12, b12);
        assert_eq!(a.trace(), b.trace(), "sorted traces are interleaving-independent");
    }

    #[test]
    fn self_messages_never_faulted() {
        let fp = FaultPlane::new(
            FaultConfig::reliable(3).with_default_policy(ChannelPolicy::lossy(1.0)),
            2,
        );
        for _ in 0..10 {
            assert_eq!(fp.judge(1, 1).0, Verdict::Deliver);
        }
    }

    #[test]
    fn scheduled_death_fires_once_at_op() {
        let fp = FaultPlane::new(FaultConfig::reliable(0).with_death(1, 2), 2);
        assert_eq!(fp.note_op(1), None); // op 0
        assert_eq!(fp.note_op(1), None); // op 1
        assert_eq!(fp.note_op(1), Some(2)); // op 2: dies
        assert_eq!(fp.note_op(1), None); // already counted past
        assert_eq!(fp.note_op(0), None, "other ranks unaffected");
        let t = fp.trace();
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].kind, FaultKind::Death(2));
    }

    #[test]
    fn liveness_kill_is_idempotent() {
        let l = Liveness::new(3);
        assert!(!l.is_dead(1));
        assert!(l.kill(1));
        assert!(!l.kill(1), "second kill reports already-dead");
        assert!(l.is_dead(1));
        assert_eq!((0..l.dead.len()).filter(|&r| l.is_dead(r)).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn liveness_revive_clears_a_provisional_death() {
        let l = Liveness::new(3);
        assert!(!l.revive(2), "reviving a live rank is a no-op");
        l.kill(2);
        assert!(l.revive(2), "revive reports the rank had been dead");
        assert!(!l.is_dead(2));
        assert!(l.kill(2), "a revived rank can die again for real");
    }

    #[test]
    fn channel_override_beats_default() {
        let fp =
            FaultPlane::new(
                FaultConfig::reliable(5)
                    .with_default_policy(ChannelPolicy::lossy(1.0))
                    .with_channel(0, 1, ChannelPolicy::reliable()),
                2,
            );
        assert_eq!(fp.judge(0, 1).0, Verdict::Deliver, "overridden channel is clean");
        assert_eq!(fp.judge(1, 0).0, Verdict::Drop, "default drops everything");
    }

    #[test]
    fn trace_digest_distinguishes_traces() {
        let a = FaultPlane::new(
            FaultConfig::reliable(1).with_default_policy(ChannelPolicy::lossy(1.0)),
            2,
        );
        a.judge(0, 1);
        let b = FaultPlane::new(
            FaultConfig::reliable(1).with_default_policy(ChannelPolicy::lossy(1.0)),
            2,
        );
        b.judge(0, 1);
        b.judge(0, 1);
        assert_ne!(a.trace().digest(), b.trace().digest());
    }
}
