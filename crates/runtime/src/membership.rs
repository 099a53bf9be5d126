//! Epoch-based membership and fault-tolerant recovery, in the spirit of
//! MPI ULFM (User-Level Failure Mitigation).
//!
//! Blocked operations return [`RuntimeError::PeerDead`] instead of
//! hanging; this module makes the death *survivable* with ULFM's three
//! primitives:
//!
//! * **revoke** poisons a communicator's context pair, so every pending and
//!   future operation on it fails with [`RuntimeError::Revoked`] and all
//!   participants leave the old epoch together.
//! * **agree** decides one AND-combined value across the survivors: a
//!   [`crate::reconfig`] instance on the world context (which is never
//!   revoked), with the caller's fault plane disarmed — the reliable
//!   control network a real system provisions separately. Deaths are
//!   still honoured.
//! * **shrink** agrees on the alive mask and renumbers the survivors
//!   densely (ascending old rank) on a fresh context, read from the world's
//!   epoch registry (`Revocations::epoch_context`) keyed on the agreed
//!   mask. Like the liveness registry this exploits the in-process
//!   runtime; a distributed implementation would piggyback the id on the
//!   agreement.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::comm::Comm;
use crate::envelope::COLLECTIVE_TAG_BASE;
use crate::error::{Result, RuntimeError};
use crate::msgsize::MsgSize;
use crate::reconfig::{drive, ControlPlane, Reconfig, Rule};
use crate::shared::Reliable;
use mxn_trace::{span, EventId};

/// Base of the tag range reserved for recovery-plane traffic on the world
/// context. Sits far above application tags (which stay small in practice)
/// and below [`COLLECTIVE_TAG_BASE`], so neither plane can match it.
pub(crate) const RECOVERY_TAG_BASE: i32 = COLLECTIVE_TAG_BASE - (1 << 22);

/// Tag for [`JoinOffer`] invitations to newcomer ranks, sent over the world
/// context by a reconfiguration's sponsor. Sits just below the agreement
/// tag range (and far above any tag an RMA window can produce).
pub(crate) const JOIN_TAG: i32 = RECOVERY_TAG_BASE - 1;

/// Base of the tag range reserved for one-sided RMA window traffic (see
/// [`crate::rma`]). A window's tags span `RMA_TAG_BASE ..= RMA_TAG_BASE +
/// 0x3fff`, well below [`JOIN_TAG`].
pub(crate) const RMA_TAG_BASE: i32 = RECOVERY_TAG_BASE - (1 << 22);

/// Per-peer wait inside an agreement before a silent participant is
/// excluded: a round over `n` participants closes `(n − 1) ×` this after
/// its start. Alive peers in this in-process runtime deliver promptly;
/// only a dead peer's missing contribution pays this (and usually fails
/// fast via the liveness check instead).
const AGREE_PEER_TIMEOUT: Duration = Duration::from_millis(150);

/// Encodes `(channel, seq, round)` into a recovery tag so concurrent
/// agreements on different communicators (and successive agreements on the
/// same one) never cross-match.
fn agree_tag(channel: u32, seq: u64, round: u8) -> i32 {
    RECOVERY_TAG_BASE
        + (((channel & 0x3ff) as i32) << 8)
        + (((seq & 0x3f) as i32) << 2)
        + round as i32
}

/// One gossip contribution: the sender's current AND-combined vote mask.
#[derive(Debug, Clone, Copy)]
struct AgreeMsg {
    value: u64,
}

impl MsgSize for AgreeMsg {
    fn msg_size(&self) -> usize {
        std::mem::size_of::<u64>()
    }
}

/// Epoch registry: `(old context, agreed mask, attempt)` → the fresh
/// context pair and the 1-based epoch of the old context, counted per
/// direction. Shrinks key on `attempt = None`, so one failure always heals
/// to one context; reconfigurations on `Some(attempt)`, so a retry after an
/// aborted handshake gets a fresh context (and fresh agreement tags)
/// instead of colliding with stale traffic from the failed attempt.
#[derive(Default)]
struct RecoveryTable {
    contexts: HashMap<(u32, u64, Option<u64>), (u32, u64)>,
    epochs: HashMap<(u32, bool), u64>,
}

/// `(sender, receiver, tag)` of an agreement message.
type VoteLink = (usize, usize, i32);

/// World-global revocation state: which context pairs are poisoned, and
/// the survivor-context registry.
///
/// Shared by every mailbox of a world; consulted on every blocking receive
/// and every send so a revoked communicator fails everywhere at once.
#[derive(Default)]
pub struct Revocations {
    /// Poisoned context ids (both members of each revoked pair).
    revoked: Mutex<HashSet<u32>>,
    /// Cached `revoked.len()`; the fast path (`count == 0`, no revocations
    /// ever) skips the lock on every message operation.
    count: AtomicUsize,
    table: Mutex<RecoveryTable>,
    /// The `(channel, seq)` of every agreement message in flight, per
    /// `(sender, receiver, tag)` in send order. `agree_tag` keeps only the
    /// low bits of both, so a vote arriving after its receiver gave up on
    /// it would be read by a later instance on the same tag (mailboxes are
    /// FIFO per sender and tag); a receiver pops the entry of each arrival
    /// and drops arrivals of other instances. The in-process stand-in for
    /// stamping the instance into the message, which keeps `AgreeMsg` and
    /// the trace unchanged.
    in_flight: Mutex<HashMap<VoteLink, VecDeque<(u32, u64)>>>,
}

impl Revocations {
    /// Fresh state: nothing revoked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `context` has been revoked.
    #[inline]
    pub(crate) fn is_revoked(&self, context: u32) -> bool {
        self.count.load(Ordering::Acquire) != 0 && self.revoked.lock().contains(&context)
    }

    /// `Err(Revoked)` if `context` has been revoked.
    #[inline]
    pub(crate) fn check(&self, context: u32) -> Result<()> {
        if self.is_revoked(context) {
            Err(RuntimeError::Revoked { context })
        } else {
            Ok(())
        }
    }

    /// Poisons the pair `(base, base + 1)`. Returns whether this call newly
    /// revoked it (revocation is idempotent).
    pub(crate) fn mark(&self, base: u32) -> bool {
        let mut set = self.revoked.lock();
        let newly = set.insert(base);
        set.insert(base + 1);
        self.count.store(set.len(), Ordering::Release);
        newly
    }

    /// Returns the epoch context for `(old, mask, attempt)`, allocating
    /// it via `alloc` on first arrival: every participant of one agreed
    /// shrink (`attempt = None`) or reconfiguration attempt reads the
    /// identical `(context, epoch)` without extra messaging; newcomers
    /// learn it from their [`crate::JoinOffer`].
    pub(crate) fn epoch_context(
        &self,
        old: u32,
        mask: u64,
        attempt: Option<u64>,
        alloc: impl FnOnce() -> u32,
    ) -> (u32, u64) {
        let mut t = self.table.lock();
        if let Some(&found) = t.contexts.get(&(old, mask, attempt)) {
            return found;
        }
        let epoch = t.epochs.entry((old, attempt.is_some())).or_insert(0);
        *epoch += 1;
        let found = (alloc(), *epoch);
        t.contexts.insert((old, mask, attempt), found);
        found
    }

    /// Records that agreement instance `id` is about to send on `link`.
    fn vote_sent(&self, link: VoteLink, id: (u32, u64)) {
        self.in_flight.lock().entry(link).or_default().push_back(id);
    }

    /// The instance of the message just received on `link`.
    fn vote_arrived(&self, link: VoteLink) -> Option<(u32, u64)> {
        self.in_flight.lock().get_mut(&link).and_then(VecDeque::pop_front)
    }
}

/// What an intercomm shrink decided, in *old* rank numbering — the data a
/// coupling layer needs to re-derive decompositions over the survivor set.
/// `local_survivors[k]` is the old local rank that became new rank `k`
/// (dense renumbering preserves ascending old-rank order on both sides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkReport {
    /// Old this-side local ranks that survived, ascending.
    pub local_survivors: Vec<usize>,
    /// Old remote-side local ranks that survived, ascending.
    pub remote_survivors: Vec<usize>,
    /// 1-based count of shrinks this channel has undergone.
    pub epoch: u64,
}

/// What an intercomm reconfiguration (expand or graceful contract)
/// committed, in *global* rank numbering and from the caller's own
/// perspective (`local` = the caller's side) — the data a coupling layer
/// needs to re-derive decompositions over both memberships and move the
/// elements between epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Global ranks of the caller's side before the reconfiguration.
    pub old_local_group: Vec<usize>,
    /// Global ranks of the opposite side before the reconfiguration.
    pub old_remote_group: Vec<usize>,
    /// Global ranks of the caller's side after the reconfiguration.
    pub new_local_group: Vec<usize>,
    /// Global ranks of the opposite side after the reconfiguration.
    pub new_remote_group: Vec<usize>,
    /// 1-based count of reconfigurations this channel has undergone.
    pub epoch: u64,
    /// The attempt number that committed.
    pub attempt: u64,
}

/// The sponsor's invitation to one newcomer rank: everything the joiner
/// needs to take part in the commit vote and, on commit, construct its
/// intercomm handle. Groups are written from the *joiner's* perspective
/// (`local` = the side it is joining).
///
/// Public because the wire transport's spare-process join sends the same
/// offer across a process boundary (`mxn-wire` owns its byte encoding).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinOffer {
    /// Which intercomm side the newcomer joins (0 or 1).
    pub side: usize,
    /// The newcomer's local rank within its side's new group.
    pub local_rank: usize,
    /// The proposed context pair base for the new epoch.
    pub context: u32,
    /// Reconfiguration attempt number of the proposing handshake.
    pub attempt: u64,
    /// 1-based reconfiguration epoch of the channel.
    pub epoch: u64,
    /// Global ranks of the joiner's side after the reconfiguration.
    pub local_group: Vec<usize>,
    /// Global ranks of the opposite side after the reconfiguration.
    pub remote_group: Vec<usize>,
    /// Pre-reconfiguration groups, joiner's perspective — for data rebind.
    pub old_local_group: Vec<usize>,
    /// Pre-reconfiguration opposite side, joiner's perspective.
    pub old_remote_group: Vec<usize>,
    /// Sorted union of old and new members: the vote membership.
    pub participants: Vec<usize>,
}

impl MsgSize for JoinOffer {
    fn msg_size(&self) -> usize {
        let vec_elems = self.local_group.len()
            + self.remote_group.len()
            + self.old_local_group.len()
            + self.old_remote_group.len()
            + self.participants.len();
        vec_elems * std::mem::size_of::<usize>() + 5 * std::mem::size_of::<u64>()
    }
}

/// The in-proc [`ControlPlane`]: [`AgreeMsg`] envelopes between `members`
/// (world ranks) on the world context, tagged by the recovery channel, with
/// the caller's fault plane disarmed while the plane lives.
struct WorldPlane<'a> {
    world: &'a Comm,
    members: &'a [usize],
    id: (u32, u64),
    tags: [i32; 2],
    heard: u64,
    _reliable: Reliable<'a>,
}

impl ControlPlane for WorldPlane<'_> {
    fn send(&mut self, to: usize, round: u8, value: u64) -> Result<()> {
        let (peer, tag) = (self.members[to], self.tags[round as usize]);
        let link = (self.world.global_rank(), peer, tag);
        self.world.shared.revocations().vote_sent(link, self.id);
        // Sends to dead peers succeed silently, so an error here is the
        // caller's own death (or abort): propagate.
        self.world.send(peer, tag, AgreeMsg { value })
    }

    fn recv(&mut self, from: usize, round: u8, timeout: Duration) -> Result<u64> {
        let (peer, tag) = (self.members[from], self.tags[round as usize]);
        let link = (peer, self.world.global_rank(), tag);
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let msg = self.world.recv_timeout::<AgreeMsg>(peer, tag, left)?;
            if self.world.shared.revocations().vote_arrived(link) == Some(self.id) {
                self.heard += 1;
                return Ok(msg.value);
            }
        }
    }
}

/// Decides one [`Reconfig`] instance over `members` (world ranks, identical
/// order on every participant) on the recovery channel `(channel, seq)`.
pub(crate) fn agree_over(
    world: &Comm,
    members: &[usize],
    (channel, seq): (u32, u64),
    rule: Rule,
    value: u64,
) -> Result<u64> {
    let (n, me) = (members.len(), members.iter().position(|&g| g == world.global_rank()));
    let timeout = AGREE_PEER_TIMEOUT * n.saturating_sub(1).max(1) as u32;
    let mut machine = Reconfig::new(n, me.unwrap_or(n), value, rule, timeout)?;
    let mut plane = WorldPlane {
        world,
        members,
        id: (channel, seq),
        tags: [agree_tag(channel, seq, 0), agree_tag(channel, seq, 1)],
        heard: 0,
        _reliable: world.shared.reliable(world.global_rank()),
    };
    let mut guard = span(EventId::Agree, [n as u64, seq, 0, 0]);
    let agreed = drive(&mut machine, &mut plane)?;
    guard.set_end([n as u64, plane.heard, 0, 0]);
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Src, Tag};
    use crate::world::World;
    use std::sync::Arc;

    #[test]
    fn revoke_poisons_pending_and_future_ops() {
        World::run(2, |p| {
            let c = p.world();
            let d = c.split(0, c.rank() as i64).unwrap().unwrap();
            if c.rank() == 0 {
                // Wait for rank 1 to be parked on the derived comm, then
                // revoke it from the other side.
                c.recv::<u8>(1, 1).unwrap();
                assert!(d.revoke());
                assert!(!d.revoke(), "idempotent");
                // Future ops fail too, on the revoker itself.
                let e = d.send(1, 9, 1u8).unwrap_err();
                assert!(matches!(e, RuntimeError::Revoked { .. }), "send on revoked ctx: {e}");
            } else {
                c.send(0, 1, 1u8).unwrap();
                let e = d.recv::<u8>(0, 3).unwrap_err();
                assert_eq!(e, RuntimeError::Revoked { context: d.context() });
                // Collectives ride ctx + 1 of the pair: poisoned as well.
                let e = d.barrier().unwrap_err();
                assert!(
                    matches!(e, RuntimeError::Revoked { .. }),
                    "collective on revoked ctx: {e}"
                );
            }
            // World traffic is unaffected.
            let peer = 1 - c.rank();
            c.send(peer, 5, 7u8).unwrap();
            assert_eq!(c.recv::<u8>(peer, 5).unwrap(), 7);
        });
    }

    #[test]
    fn world_context_cannot_be_revoked() {
        World::run(1, |p| {
            let c = p.world();
            assert!(!c.revoke());
            assert!(!c.shared.revocations().is_revoked(c.context));
            c.send(0, 0, 3u8).unwrap();
            assert_eq!(c.recv::<u8>(0, 0).unwrap(), 3);
        });
    }

    #[test]
    fn revoked_messages_already_queued_are_not_delivered() {
        World::run(2, |p| {
            let c = p.world();
            let d = c.split(0, c.rank() as i64).unwrap().unwrap();
            if c.rank() == 0 {
                d.send(1, 4, 9u8).unwrap(); // queued before the revoke
                c.send(1, 0, 0u8).unwrap(); // "sent" signal
            } else {
                c.recv::<u8>(0, 0).unwrap();
                d.revoke();
                let e = d.recv::<u8>(0, 4).unwrap_err();
                assert!(
                    matches!(e, RuntimeError::Revoked { .. }),
                    "stale-epoch message must not deliver: {e}"
                );
            }
        });
    }

    #[test]
    fn agree_tags_stay_below_collective_base() {
        for channel in [0u32, 2, 1023, 4096] {
            for seq in [0u64, 1, 63, 64] {
                for round in [0u8, 1] {
                    let t = agree_tag(channel, seq, round);
                    assert!(t >= RECOVERY_TAG_BASE);
                    assert!(t < COLLECTIVE_TAG_BASE);
                }
            }
        }
    }

    #[test]
    fn survivor_context_registry_is_deterministic() {
        let r = Revocations::new();
        let (a, e1) = r.epoch_context(6, 0b101, None, || 40);
        let (b, e2) = r.epoch_context(6, 0b101, None, || panic!("must not re-allocate"));
        assert_eq!((a, e1), (b, e2));
        let (c, e3) = r.epoch_context(6, 0b100, None, || 42);
        assert_eq!(c, 42);
        assert_eq!(e3, 2, "second shrink of the same channel");
    }

    #[test]
    fn reconfig_context_registry_keys_on_attempt() {
        let r = Revocations::new();
        let (a, e1) = r.epoch_context(6, 0b111, Some(0), || 50);
        let (b, e2) = r.epoch_context(6, 0b111, Some(0), || panic!("must not re-allocate"));
        assert_eq!((a, e1), (b, e2));
        // A retry after an aborted handshake is a different attempt:
        // fresh context, next reconfig epoch.
        let (c, e3) = r.epoch_context(6, 0b111, Some(1), || 52);
        assert_eq!(c, 52);
        assert_eq!(e3, 2);
        // Independent of the shrink registry.
        let (d, s1) = r.epoch_context(6, 0b111, None, || 54);
        assert_eq!((d, s1), (54, 1));
    }

    // Tag-layout invariants, pinned at compile time: join offers sit below
    // the recovery plane, RMA window tags cannot collide with join offers,
    // and everything stays far above application tags.
    const _: () = {
        assert!(JOIN_TAG < RECOVERY_TAG_BASE);
        assert!(RMA_TAG_BASE + 0x3fff < JOIN_TAG);
        assert!(RMA_TAG_BASE > 0);
    };

    #[test]
    fn revocation_marks_pairs_once() {
        let r = Revocations::new();
        assert!(r.mark(4));
        assert!(r.is_revoked(4));
        assert!(r.is_revoked(5), "collective context revoked with its pair");
        assert!(!r.is_revoked(6));
        assert!(!r.mark(4));
        assert!(r.check(4).is_err());
        assert!(r.check(0).is_ok());
    }

    #[test]
    fn pending_recv_is_woken_by_revoke() {
        // A receiver already parked inside `take` (not just about to enter)
        // must be woken and see Revoked.
        World::run(2, |p| {
            let c = p.world();
            let d = c.split(0, c.rank() as i64).unwrap().unwrap();
            if c.rank() == 0 {
                std::thread::sleep(Duration::from_millis(30));
                d.revoke();
            } else {
                let e = d.recv::<u8>(0, 3).unwrap_err();
                assert!(matches!(e, RuntimeError::Revoked { .. }));
            }
        });
    }

    #[test]
    fn try_take_ignores_revocation_but_take_does_not() {
        // Non-blocking try_take is documented as not revocation-checked;
        // the blocking paths are the epoch boundary.
        use crate::envelope::{Envelope, Payload};
        use crate::fault::Liveness;
        use crate::mailbox::Mailbox;
        use std::sync::atomic::AtomicBool;
        let revs = Arc::new(Revocations::new());
        let m = Mailbox::new(
            Arc::new(AtomicBool::new(false)),
            Arc::new(Liveness::new(2)),
            revs.clone(),
        );
        m.push(Envelope::new(0, 0, 6, 1, 4, None, Payload::owned(5u8)));
        m.push(Envelope::new(0, 0, 6, 1, 4, None, Payload::owned(6u8)));
        revs.mark(6);
        assert!(m.try_take(6, Src::Any, Tag::Any).is_some());
        assert!(matches!(
            m.take(6, Src::Any, Tag::Any, &[]).unwrap_err(),
            RuntimeError::Revoked { .. }
        ));
    }
}
