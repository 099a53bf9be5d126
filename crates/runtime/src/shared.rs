//! World-global state shared by all ranks.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::envelope::{Envelope, Payload};
use crate::error::{Result, RuntimeError};
use crate::fault::{FaultConfig, FaultPlane, FaultTrace, Liveness, Verdict};
use crate::mailbox::Mailbox;
use crate::membership::Revocations;
use crate::network::{ChannelClock, NetworkModel};
use crate::stats::{FaultClass, TrafficClass, WorldStats};
use crate::tracing::{ctx_class, fault_kind, tag_arg};
use mxn_trace::{emit_instant, EventId};

/// Context id of the world communicator's point-to-point traffic.
///
/// Every communicator owns a *pair* of contexts: `ctx` for point-to-point
/// and `ctx + 1` for collective-internal traffic, mirroring MPICH's design.
pub(crate) const WORLD_CONTEXT: u32 = 0;

/// State shared by every rank of one [`crate::World`]: the mailboxes, the
/// abort flag, the communicator-context allocator and the traffic counters.
pub(crate) struct WorldShared {
    /// One mailbox per rank; delivery is a push under the destination's
    /// bucket lock, moving the payload.
    mailboxes: Vec<Mailbox>,
    abort: Arc<AtomicBool>,
    next_context: AtomicU32,
    stats: WorldStats,
    network: Option<ChannelClock>,
    fault: Option<FaultPlane>,
    liveness: Arc<Liveness>,
    revocations: Arc<Revocations>,
}

impl WorldShared {
    /// Creates shared state with an optional network model and an optional
    /// fault plane.
    pub(crate) fn with_config(
        n: usize,
        network: Option<NetworkModel>,
        faults: Option<FaultConfig>,
    ) -> Arc<Self> {
        let abort = Arc::new(AtomicBool::new(false));
        let liveness = Arc::new(Liveness::new(n));
        let revocations = Arc::new(Revocations::new());
        let mailboxes = (0..n)
            .map(|_| Mailbox::new(abort.clone(), liveness.clone(), revocations.clone()))
            .collect();
        Arc::new(WorldShared {
            mailboxes,
            abort,
            // Context 0/1 belong to the world communicator.
            next_context: AtomicU32::new(2),
            stats: WorldStats::new(),
            network: network.map(|m| ChannelClock::new(m, n)),
            fault: faults.map(|c| FaultPlane::new(c, n)),
            liveness,
            revocations,
        })
    }

    /// Delivery instant for a message, under the network model (if any).
    pub(crate) fn delivery_time(&self, src: usize, dst: usize, bytes: usize) -> Option<Instant> {
        self.network.as_ref().map(|c| c.delivery_time(src, dst, bytes))
    }

    /// Number of ranks in the world.
    pub(crate) fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// The mailbox of a global rank.
    pub(crate) fn mailbox(&self, global_rank: usize) -> &Mailbox {
        &self.mailboxes[global_rank]
    }

    /// Allocates a fresh context *pair* and returns its point-to-point id.
    ///
    /// The caller is responsible for distributing the id to all members of
    /// the new communicator (this is what makes communicator creation a
    /// collective operation).
    pub(crate) fn allocate_context_pair(&self) -> u32 {
        self.next_context.fetch_add(2, Ordering::Relaxed)
    }

    /// Marks the world aborted and wakes every blocked receiver.
    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Release);
        self.wake_all();
    }

    /// Wakes every receiver blocked on any of this world's mailboxes
    /// (abort, revocation and death propagation).
    fn wake_all(&self) {
        for m in &self.mailboxes {
            m.wake_all();
        }
    }

    /// The world's traffic counters.
    pub(crate) fn stats(&self) -> &WorldStats {
        &self.stats
    }

    /// The liveness registry shared by this world's ranks.
    pub(crate) fn liveness(&self) -> &Arc<Liveness> {
        &self.liveness
    }

    /// The fault plane, if one is configured.
    pub(crate) fn fault(&self) -> Option<&FaultPlane> {
        self.fault.as_ref()
    }

    /// The world's revocation state (recovery plane).
    pub(crate) fn revocations(&self) -> &Arc<Revocations> {
        &self.revocations
    }

    /// Revokes a communicator's context pair: every pending and future
    /// operation on either context fails with [`RuntimeError::Revoked`] on
    /// every rank, and all blocked receivers are woken to observe it.
    /// `context` may be either member of the pair. Idempotent; returns
    /// whether this call newly revoked the pair.
    ///
    /// The world pair (0/1) cannot be revoked — recovery protocols run on
    /// it — so revoking it is a no-op returning `false`.
    pub(crate) fn revoke_context(&self, context: u32) -> bool {
        let base = context & !1;
        if base == WORLD_CONTEXT {
            return false;
        }
        let newly = self.revocations.mark(base);
        if newly {
            emit_instant(EventId::Revoke, [ctx_class(base), 0, 0, 0]);
            self.wake_all();
        }
        newly
    }

    /// Context pair of the epoch that the shrink (`attempt = None`) or
    /// reconfiguration attempt of `old_context` toward the agreed `mask`
    /// opens: the first participant to call allocates a fresh pair, every
    /// later one reads the identical `(context, epoch)` back.
    pub(crate) fn epoch_context(
        &self,
        old_context: u32,
        mask: u64,
        attempt: Option<u64>,
    ) -> (u32, u64) {
        self.revocations.epoch_context(old_context, mask, attempt, || self.allocate_context_pair())
    }

    /// The canonical trace of injected faults (empty without a fault plane).
    pub(crate) fn fault_trace(&self) -> FaultTrace {
        self.fault.as_ref().map(|f| f.trace()).unwrap_or_default()
    }

    /// Arms or disarms the fault plane for `global`'s outgoing traffic
    /// (no-op without a plane). See [`crate::fault::FaultPlane::set_armed`].
    pub(crate) fn fault_set_armed(&self, global: usize, armed: bool) {
        if let Some(fp) = &self.fault {
            fp.set_armed(global, armed);
        }
    }

    /// Disarms `global`'s fault plane until the returned guard drops, which
    /// restores the previous arming: the reliable control plane that
    /// reconfiguration runs on (deaths are still honoured).
    pub(crate) fn reliable(&self, global: usize) -> Reliable<'_> {
        let rearm = self.fault.as_ref().is_some_and(|fp| fp.is_armed(global));
        self.fault_set_armed(global, false);
        Reliable { shared: self, global, rearm }
    }

    /// Marks a rank dead and wakes every blocked receiver, so waits on the
    /// dead rank fail with [`RuntimeError::PeerDead`] instead of hanging.
    pub(crate) fn kill_rank(&self, global: usize) {
        if self.liveness.kill(global) {
            self.stats.record_fault(FaultClass::RankDeath);
            emit_instant(EventId::FaultInject, [fault_kind::DEATH, global as u64, 0, 0]);
        }
        self.wake_all();
    }

    /// Counts one operation by the calling rank and enforces its liveness:
    /// an already-dead caller — or one whose scheduled death this very
    /// operation triggers — gets `PeerDead` carrying its own
    /// communicator-local rank (`local`).
    pub(crate) fn note_op(&self, global: usize, local: usize) -> Result<()> {
        if self.liveness.is_dead(global) {
            return Err(RuntimeError::PeerDead { rank: local });
        }
        if let Some(fp) = &self.fault {
            if fp.note_op(global).is_some() {
                self.kill_rank(global);
                return Err(RuntimeError::PeerDead { rank: local });
            }
        }
        Ok(())
    }

    /// The single choke point every message passes through: counts the
    /// sender's operation against its scheduled death, asks the fault plane
    /// for a verdict, then delivers.
    ///
    /// A dead *destination* does not fail the send: whether the destination
    /// has reached its scheduled death yet is an artifact of thread
    /// interleaving, so failing here would make same-seed runs diverge. The
    /// message lands in a mailbox nobody will read; peers detect the death
    /// deterministically on the receive side.
    ///
    /// Ranks are global except `src_local`, the communicator-local number
    /// used in envelopes and errors. A duplicate verdict is counted and
    /// traced but delivers the message once: the payload is moved, not
    /// copied, so there is no second value to deliver.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_envelope(
        &self,
        src_global: usize,
        src_local: usize,
        dst_global: usize,
        context: u32,
        tag: i32,
        bytes: usize,
        payload: Payload,
        class: TrafficClass,
    ) -> Result<()> {
        // A revoked context refuses new traffic before it is counted, so
        // post-revoke sends leave no trace in either accounting plane.
        self.revocations.check(context)?;
        self.note_op(src_global, src_local)?;
        self.stats.record(class, bytes);
        emit_instant(
            EventId::MailboxPost,
            [ctx_class(context), tag_arg(tag), dst_global as u64, bytes as u64],
        );
        let mut deliver_at = self.delivery_time(src_global, dst_global, bytes);
        let (verdict, delay) = match &self.fault {
            Some(fp) => fp.judge(src_global, dst_global),
            None => (Verdict::Deliver, Duration::ZERO),
        };
        if verdict != Verdict::Drop && !delay.is_zero() {
            self.stats.record_fault(FaultClass::Delayed);
            emit_instant(
                EventId::FaultInject,
                [fault_kind::DELAY, dst_global as u64, tag_arg(tag), bytes as u64],
            );
            let delayed = Instant::now() + delay;
            deliver_at = Some(deliver_at.map_or(delayed, |t| t.max(delayed)));
        }
        let mut env =
            Envelope::new(src_global, src_local, context, tag, bytes, deliver_at, payload);
        match verdict {
            Verdict::Deliver => {}
            Verdict::Drop => {
                self.stats.record_fault(FaultClass::Dropped);
                emit_instant(
                    EventId::FaultInject,
                    [fault_kind::DROP, dst_global as u64, tag_arg(tag), bytes as u64],
                );
                return Ok(());
            }
            Verdict::Duplicate => {
                self.stats.record_fault(FaultClass::Duplicated);
                emit_instant(
                    EventId::FaultInject,
                    [fault_kind::DUPLICATE, dst_global as u64, tag_arg(tag), bytes as u64],
                );
            }
            Verdict::Corrupt => {
                self.stats.record_fault(FaultClass::Corrupted);
                emit_instant(
                    EventId::FaultInject,
                    [fault_kind::CORRUPT, dst_global as u64, tag_arg(tag), bytes as u64],
                );
                env.corrupt();
            }
        }
        let mailbox = self.mailbox(dst_global);
        mailbox.push(env);
        // Fold this destination's mailbox high-water mark into the world
        // peak at the same choke point that counted the bytes.
        self.stats.note_transfer_peak(mailbox.peak_bytes());
        Ok(())
    }
}

/// Guard returned by [`WorldShared::reliable`].
pub(crate) struct Reliable<'a> {
    shared: &'a WorldShared,
    global: usize,
    rearm: bool,
}

impl Drop for Reliable<'_> {
    fn drop(&mut self) {
        if self.rearm {
            self.shared.fault_set_armed(self.global, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Src, Tag};
    use crate::fault::ChannelPolicy;

    /// Rank 0 posts `v` to `dst` on `context`, tag 1, as point-to-point.
    fn post(s: &WorldShared, dst: usize, context: u32, v: u32) -> Result<()> {
        let payload = Payload::owned(v);
        s.send_envelope(0, 0, dst, context, 1, 4, payload, TrafficClass::PointToPoint)
    }

    #[test]
    fn context_pairs_are_disjoint() {
        let s = WorldShared::with_config(2, None, None);
        let a = s.allocate_context_pair();
        let b = s.allocate_context_pair();
        assert!(a >= 2, "0/1 reserved for the world communicator");
        assert_eq!(b, a + 2);
    }

    #[test]
    fn abort_is_visible_everywhere() {
        let s = WorldShared::with_config(3, None, None);
        assert!(!s.abort.load(Ordering::Acquire));
        s.abort();
        assert!(s.abort.load(Ordering::Acquire));
    }

    #[test]
    fn size_matches_mailboxes() {
        let s = WorldShared::with_config(5, None, None);
        assert_eq!(s.size(), 5);
        s.mailbox(4); // must not panic
    }

    #[test]
    fn deliver_lands_in_destination_mailbox() {
        let s = WorldShared::with_config(2, None, None);
        post(&s, 1, 0, 42).unwrap();
        let got = s.mailbox(1).try_take(0, Src::Rank(0), Tag::Value(1)).unwrap();
        assert_eq!(got.payload.into_owned::<u32>().unwrap(), 42);
    }

    #[test]
    fn send_to_dead_rank_succeeds_silently() {
        // Failing a send because the *destination* died would make outcomes
        // depend on whether the destination reached its death yet — an
        // interleaving artifact. Detection is receive-side only.
        let s = WorldShared::with_config(3, None, None);
        s.kill_rank(2);
        post(&s, 2, 0, 1).unwrap();
        assert_eq!(s.mailbox(2).len(), 1, "delivered to a mailbox nobody reads");
        assert_eq!(s.stats().snapshot().rank_deaths, 1);
    }

    #[test]
    fn dead_sender_cannot_send() {
        let s = WorldShared::with_config(2, None, None);
        s.kill_rank(0);
        let e = post(&s, 1, 0, 1).unwrap_err();
        assert_eq!(e, RuntimeError::PeerDead { rank: 0 }, "reports the caller's own rank");
        assert_eq!(s.mailbox(1).len(), 0, "nothing was delivered");
    }

    #[test]
    fn scheduled_death_triggers_on_send() {
        let cfg = FaultConfig::reliable(1).with_death(0, 1);
        let s = WorldShared::with_config(2, None, Some(cfg));
        assert!(post(&s, 1, 0, 1).is_ok());
        let e = post(&s, 1, 0, 2).unwrap_err();
        assert_eq!(e, RuntimeError::PeerDead { rank: 0 });
        assert!(s.liveness().is_dead(0));
        assert_eq!(s.mailbox(1).len(), 1, "only the pre-death message landed");
        assert_eq!(s.fault_trace().len(), 1);
    }

    #[test]
    fn drop_verdict_suppresses_delivery() {
        let cfg = FaultConfig::reliable(3).with_default_policy(ChannelPolicy::lossy(1.0));
        let s = WorldShared::with_config(2, None, Some(cfg));
        post(&s, 1, 0, 1).unwrap();
        assert_eq!(s.mailbox(1).len(), 0);
        let snap = s.stats().snapshot();
        assert_eq!(snap.dropped_messages, 1);
        assert_eq!(snap.p2p_messages, 1, "a dropped message still counts as sent");
    }

    #[test]
    fn duplicate_verdict_is_counted_and_delivered_once() {
        let policy = ChannelPolicy { duplicate: 1.0, ..ChannelPolicy::reliable() };
        let cfg = FaultConfig::reliable(3).with_default_policy(policy);
        let s = WorldShared::with_config(2, None, Some(cfg));
        post(&s, 1, 0, 7).unwrap();
        assert_eq!(s.mailbox(1).len(), 1, "an owned payload is delivered once");
        assert_eq!(s.stats().snapshot().duplicated_messages, 1);
    }

    #[test]
    fn corrupt_verdict_damages_checksum() {
        let policy = ChannelPolicy { corrupt: 1.0, ..ChannelPolicy::reliable() };
        let cfg = FaultConfig::reliable(3).with_default_policy(policy);
        let s = WorldShared::with_config(2, None, Some(cfg));
        post(&s, 1, 0, 1).unwrap();
        let env = s.mailbox(1).try_take(0, Src::Any, Tag::Any).unwrap();
        assert!(!env.verify());
        assert_eq!(s.stats().snapshot().corrupted_messages, 1);
    }

    #[test]
    fn revoked_context_refuses_sends_but_world_is_protected() {
        let s = WorldShared::with_config(2, None, None);
        let ctx = s.allocate_context_pair();
        assert!(s.revoke_context(ctx + 1), "either member of the pair revokes it");
        assert!(!s.revoke_context(ctx), "idempotent across the pair");
        let e = post(&s, 1, ctx, 1).unwrap_err();
        assert!(matches!(e, RuntimeError::Revoked { .. }));
        assert_eq!(s.mailbox(1).len(), 0, "refused before delivery");
        assert_eq!(s.stats().snapshot().p2p_messages, 0, "refused before accounting");
        assert!(!s.revoke_context(0), "world pair is not revocable");
        assert!(!s.revoke_context(1));
        post(&s, 1, 0, 1).unwrap();
    }

    #[test]
    fn survivor_context_is_shared_across_callers() {
        let s = WorldShared::with_config(2, None, None);
        let (a, e1) = s.epoch_context(2, 0b01, None);
        let (b, e2) = s.epoch_context(2, 0b01, None);
        assert_eq!((a, e1), (b, e2));
        assert!(a >= 2 && a % 2 == 0, "a real allocated pair");
        let (c, e3) = s.epoch_context(2, 0b10, None);
        assert_ne!(c, a);
        assert_eq!((e1, e3), (1, 2), "shrink epochs count per old context");
    }
}
