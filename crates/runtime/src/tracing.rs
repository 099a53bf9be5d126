//! The runtime's trace vocabulary: stable numeric codes embedded in
//! trace-event args.
//!
//! `mxn-trace` defines the event ids and the recorder; the args are plain
//! `u64`s whose meaning is fixed here. Like the event ids themselves,
//! these codes are part of the golden-trace format — never renumber, only
//! append.

use crate::envelope::{Src, Tag, COLLECTIVE_TAG_BASE};
use crate::error::RuntimeError;
use crate::membership::RECOVERY_TAG_BASE;
use crate::stats::WorldStats;
use mxn_trace::{emit_instant, EventId};

/// Error codes: `args[0]` of [`EventId::OpError`].
pub mod err_code {
    /// A receive deadline expired.
    pub const TIMEOUT: u64 = 1;
    /// The operation's peer (or the caller itself) died.
    pub const PEER_DEAD: u64 = 2;
    /// An envelope failed its integrity check.
    pub const CORRUPT: u64 = 3;
    /// A typed receive matched a payload of a different type.
    pub const TYPE_MISMATCH: u64 = 4;
    /// The world aborted (another rank panicked).
    pub const ABORTED: u64 = 5;
    /// Any other runtime error.
    pub const OTHER: u64 = 6;
    /// The operation's communicator context was revoked.
    pub const REVOKED: u64 = 7;
}

/// Fault kinds: `args[0]` of [`EventId::FaultInject`].
pub mod fault_kind {
    /// Message dropped.
    pub const DROP: u64 = 1;
    /// Message delivered twice.
    pub const DUPLICATE: u64 = 2;
    /// Payload checksum damaged.
    pub const CORRUPT: u64 = 3;
    /// Delivery delayed beyond the network model.
    pub const DELAY: u64 = 4;
    /// A rank died.
    pub const DEATH: u64 = 5;
}

/// Collective algorithm codes: `args[1]` of [`EventId::Collective`] Begin.
/// Codes 3, 7 and 9 belonged to retired algorithms and stay unused.
pub mod coll_algo {
    /// Dissemination barrier.
    pub const DISSEMINATION: u64 = 1;
    /// Binomial tree.
    pub const BINOMIAL: u64 = 2;
    /// Ring exchange.
    pub const RING: u64 = 4;
    /// Pairwise exchange.
    pub const PAIRWISE: u64 = 5;
    /// Bruck log-round exchange.
    pub const BRUCK: u64 = 6;
    /// Binomial reduce + binomial broadcast.
    pub const REDUCE_BCAST: u64 = 8;
    /// Linear chain / root loop.
    pub const LINEAR: u64 = 10;
}

/// Deterministic classification of a context id for event args.
///
/// Raw context ids come from a racy global allocator
/// ([`crate::shared::WorldShared::allocate_context_pair`]), so the id a
/// given communicator receives is *physical* — two runs of the same
/// program can order concurrent `split`s differently. Mailbox events
/// therefore record the class, which is a pure function of the program:
/// 0 = world point-to-point, 1 = world collective, 2 = derived
/// point-to-point, 3 = derived collective.
pub(crate) fn ctx_class(context: u32) -> u64 {
    match context {
        0 => 0,
        1 => 1,
        c if c % 2 == 0 => 2,
        _ => 3,
    }
}

/// `Src` pattern encoded for trace args (`Any` = `u64::MAX`).
pub(crate) fn src_arg(src: Src) -> u64 {
    match src {
        Src::Any => u64::MAX,
        Src::Rank(r) => r as u64,
    }
}

/// `Tag` pattern encoded for trace args (`Any` = `u64::MAX`; values keep
/// their `i32` bit pattern, zero-extended).
pub(crate) fn tag_pat_arg(tag: Tag) -> u64 {
    match tag {
        Tag::Any => u64::MAX,
        Tag::Value(t) => tag_arg(t),
    }
}

/// Concrete tag encoded for trace args (`i32` bit pattern, zero-extended,
/// so negative tags stay deterministic and fit in 32 bits).
///
/// Recovery-plane agreement tags embed the context id of the communicator
/// the agreement runs on (bits 8..18 above [`RECOVERY_TAG_BASE`]), and
/// context ids are *physical* — see [`ctx_class`]. Tags in that range have
/// their channel bits replaced by the context class, keeping the logical
/// sequence/round bits, so agreement traffic digests identically across
/// runs that ordered their context allocations differently.
pub(crate) fn tag_arg(tag: i32) -> u64 {
    if (RECOVERY_TAG_BASE..COLLECTIVE_TAG_BASE).contains(&tag) {
        let rel = (tag - RECOVERY_TAG_BASE) as u32;
        let class = ctx_class((rel >> 8) & 0x3ff);
        return RECOVERY_TAG_BASE as u64 + (class << 8) + (rel & 0xff) as u64;
    }
    tag as u32 as u64
}

/// Uniform error-return accounting: bumps the matching `WorldStats`
/// counter (`Timeout`/`PeerDead` — the satellite-fix counters) and emits
/// one `OpError` event with `[code, src, tag]`. Called on every failed
/// receive/probe path so error returns are visible in both accounting
/// planes, never just one.
pub(crate) fn record_op_error(stats: &WorldStats, err: &RuntimeError) {
    let (code, src, tag) = match err {
        RuntimeError::Timeout { src, tag, .. } => {
            stats.record_recv_timeout();
            (err_code::TIMEOUT, src_arg(*src), tag_pat_arg(*tag))
        }
        RuntimeError::PeerDead { rank } => {
            stats.record_peer_dead_error();
            (err_code::PEER_DEAD, *rank as u64, 0)
        }
        RuntimeError::Corrupt { src, tag } => (err_code::CORRUPT, *src as u64, tag_arg(*tag)),
        RuntimeError::TypeMismatch { src, tag, .. } => {
            (err_code::TYPE_MISMATCH, *src as u64, tag_arg(*tag))
        }
        RuntimeError::Aborted => (err_code::ABORTED, 0, 0),
        RuntimeError::Revoked { context } => (err_code::REVOKED, ctx_class(*context), 0),
        _ => (err_code::OTHER, 0, 0),
    };
    emit_instant(EventId::OpError, [code, src, tag, 0]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_encodings_are_stable() {
        assert_eq!(src_arg(Src::Any), u64::MAX);
        assert_eq!(src_arg(Src::Rank(3)), 3);
        assert_eq!(tag_pat_arg(Tag::Any), u64::MAX);
        assert_eq!(tag_arg(-1), 0xffff_ffff);
        assert_eq!(tag_arg(7), 7);
        assert_eq!(ctx_class(0), 0);
        assert_eq!(ctx_class(1), 1);
        assert_eq!(ctx_class(2), 2);
        assert_eq!(ctx_class(10), 2);
        assert_eq!(ctx_class(3), 3);
        assert_eq!(ctx_class(11), 3);
    }

    #[test]
    fn recovery_tags_drop_their_physical_channel_bits() {
        // Two agreements that differ only in the (racy) context id of the
        // communicator they run on — same class, same seq, same round —
        // must record the same arg.
        let tag_for =
            |ch: i32, seq: i32, round: i32| RECOVERY_TAG_BASE + (ch << 8) + (seq << 2) + round;
        assert_eq!(tag_arg(tag_for(4, 3, 1)), tag_arg(tag_for(6, 3, 1)));
        // Different classes, sequences, or rounds stay distinguishable.
        assert_ne!(tag_arg(tag_for(4, 3, 1)), tag_arg(tag_for(5, 3, 1)));
        assert_ne!(tag_arg(tag_for(4, 3, 1)), tag_arg(tag_for(4, 2, 1)));
        assert_ne!(tag_arg(tag_for(4, 3, 1)), tag_arg(tag_for(4, 3, 0)));
        // Tags outside the recovery range are untouched.
        assert_eq!(tag_arg(RECOVERY_TAG_BASE - 1), (RECOVERY_TAG_BASE - 1) as u64);
        assert_eq!(tag_arg(COLLECTIVE_TAG_BASE), COLLECTIVE_TAG_BASE as u64);
    }

    #[test]
    fn op_error_updates_the_matching_counter() {
        let stats = WorldStats::new();
        record_op_error(
            &stats,
            &RuntimeError::timeout("x", std::time::Duration::ZERO, Src::Rank(1), Tag::Value(2)),
        );
        record_op_error(&stats, &RuntimeError::PeerDead { rank: 4 });
        record_op_error(&stats, &RuntimeError::Corrupt { src: 0, tag: 1 });
        let snap = stats.snapshot();
        assert_eq!(snap.recv_timeouts, 1);
        assert_eq!(snap.peer_dead_errors, 1);
    }
}
