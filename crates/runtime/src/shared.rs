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
use crate::transport::{InProcTransport, Transport};
use mxn_trace::{emit_instant, EventId};

/// Context id of the world communicator's point-to-point traffic.
///
/// Every communicator owns a *pair* of contexts: `ctx` for point-to-point
/// and `ctx + 1` for collective-internal traffic, mirroring MPICH's design.
pub(crate) const WORLD_CONTEXT: u32 = 0;

/// State shared by every rank of one [`crate::World`]: the mailboxes, the
/// abort flag, the communicator-context allocator and the traffic counters.
pub(crate) struct WorldShared {
    transport: InProcTransport,
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
        let transport =
            InProcTransport::new(n, abort.clone(), liveness.clone(), revocations.clone());
        Arc::new(WorldShared {
            transport,
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
        self.transport.size()
    }

    /// The mailbox of a global rank.
    pub(crate) fn mailbox(&self, global_rank: usize) -> &Mailbox {
        self.transport.mailbox(global_rank)
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
        self.transport.wake_all();
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
            self.transport.wake_all();
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
        self.transport.wake_all();
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
    /// Ranks are global except `src_local`/`_dst_local`, which are the
    /// communicator-local numbers used in envelopes and errors. `replicate`
    /// produces a second payload when the fault plane duplicates an *owned*
    /// frame (shared payloads replicate themselves in O(1)); payloads are
    /// moved (not copied) in this in-process runtime, so without it a
    /// duplicated owned frame is delivered once and the duplication is
    /// visible only in the trace and stats.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_envelope(
        &self,
        src_global: usize,
        src_local: usize,
        dst_global: usize,
        _dst_local: usize,
        context: u32,
        tag: i32,
        bytes: usize,
        payload: Payload,
        replicate: Option<&dyn Fn() -> Payload>,
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
                let dup_payload =
                    env.payload.another_handle().or_else(|| replicate.map(|rep| rep()));
                if let Some(p) = dup_payload {
                    let dup =
                        Envelope::new(src_global, src_local, context, tag, bytes, deliver_at, p);
                    // Duplicate first, then the original, under one lock.
                    let res = self.transport.deliver_pair(dst_global, dup, env);
                    self.stats.note_transfer_peak(self.mailbox(dst_global).peak_bytes());
                    return res;
                }
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
        let res = self.transport.deliver(dst_global, env);
        // Fold this destination's mailbox high-water mark into the world
        // peak at the same choke point that counted the bytes.
        self.stats.note_transfer_peak(self.mailbox(dst_global).peak_bytes());
        res
    }

    /// Posts one shared payload to many destinations: the multicast
    /// counterpart of [`WorldShared::send_envelope`]. Each destination goes
    /// through the same choke point (its own fault verdict, delivery clock
    /// and traffic accounting, exactly like a loop of sends), but every
    /// delivered envelope holds another `Arc` handle to the *same* payload
    /// allocation — O(1) payload allocations for p receivers.
    ///
    /// `payload` must be [`Payload::Shared`]; owned payloads cannot be
    /// handed to more than one mailbox.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn multicast_envelope(
        &self,
        src_global: usize,
        src_local: usize,
        dst_globals: &[usize],
        context: u32,
        tag: i32,
        bytes: usize,
        payload: &Payload,
        class: TrafficClass,
    ) -> Result<()> {
        for &dst_global in dst_globals {
            let handle =
                payload.another_handle().expect("multicast requires a Payload::Shared handle");
            self.send_envelope(
                src_global, src_local, dst_global, 0, context, tag, bytes, handle, None, class,
            )?;
        }
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
    fn send_to_dead_rank_succeeds_silently() {
        // Failing a send because the *destination* died would make outcomes
        // depend on whether the destination reached its death yet — an
        // interleaving artifact. Detection is receive-side only.
        let s = WorldShared::with_config(3, None, None);
        s.kill_rank(2);
        s.send_envelope(
            0,
            0,
            2,
            2,
            0,
            1,
            4,
            Payload::owned(1u32),
            None,
            TrafficClass::PointToPoint,
        )
        .unwrap();
        assert_eq!(s.mailbox(2).len(), 1, "delivered to a mailbox nobody reads");
        assert_eq!(s.stats().snapshot().rank_deaths, 1);
    }

    #[test]
    fn dead_sender_cannot_send() {
        let s = WorldShared::with_config(2, None, None);
        s.kill_rank(0);
        let e = s
            .send_envelope(
                0,
                0,
                1,
                1,
                0,
                1,
                4,
                Payload::owned(1u32),
                None,
                TrafficClass::PointToPoint,
            )
            .unwrap_err();
        assert_eq!(e, RuntimeError::PeerDead { rank: 0 }, "reports the caller's own rank");
        assert_eq!(s.mailbox(1).len(), 0, "nothing was delivered");
    }

    #[test]
    fn scheduled_death_triggers_on_send() {
        let cfg = FaultConfig::reliable(1).with_death(0, 1);
        let s = WorldShared::with_config(2, None, Some(cfg));
        assert!(s
            .send_envelope(
                0,
                0,
                1,
                1,
                0,
                1,
                4,
                Payload::owned(1u32),
                None,
                TrafficClass::PointToPoint
            )
            .is_ok());
        let e = s
            .send_envelope(
                0,
                0,
                1,
                1,
                0,
                1,
                4,
                Payload::owned(2u32),
                None,
                TrafficClass::PointToPoint,
            )
            .unwrap_err();
        assert_eq!(e, RuntimeError::PeerDead { rank: 0 });
        assert!(s.liveness().is_dead(0));
        assert_eq!(s.mailbox(1).len(), 1, "only the pre-death message landed");
        assert_eq!(s.fault_trace().len(), 1);
    }

    #[test]
    fn drop_verdict_suppresses_delivery() {
        use crate::fault::ChannelPolicy;
        let cfg = FaultConfig::reliable(3).with_default_policy(ChannelPolicy::lossy(1.0));
        let s = WorldShared::with_config(2, None, Some(cfg));
        s.send_envelope(
            0,
            0,
            1,
            1,
            0,
            1,
            4,
            Payload::owned(1u32),
            None,
            TrafficClass::PointToPoint,
        )
        .unwrap();
        assert_eq!(s.mailbox(1).len(), 0);
        let snap = s.stats().snapshot();
        assert_eq!(snap.dropped_messages, 1);
        assert_eq!(snap.p2p_messages, 1, "a dropped message still counts as sent");
    }

    #[test]
    fn duplicate_verdict_delivers_twice_with_replicator() {
        use crate::fault::ChannelPolicy;
        let policy = ChannelPolicy { duplicate: 1.0, ..ChannelPolicy::reliable() };
        let cfg = FaultConfig::reliable(3).with_default_policy(policy);
        let s = WorldShared::with_config(2, None, Some(cfg));
        let rep = || Payload::owned(7u32);
        s.send_envelope(
            0,
            0,
            1,
            1,
            0,
            1,
            4,
            Payload::owned(7u32),
            Some(&rep),
            TrafficClass::PointToPoint,
        )
        .unwrap();
        assert_eq!(s.mailbox(1).len(), 2);
        assert_eq!(s.stats().snapshot().duplicated_messages, 1);
    }

    #[test]
    fn corrupt_verdict_damages_checksum() {
        use crate::envelope::{Src, Tag};
        use crate::fault::ChannelPolicy;
        let policy = ChannelPolicy { corrupt: 1.0, ..ChannelPolicy::reliable() };
        let cfg = FaultConfig::reliable(3).with_default_policy(policy);
        let s = WorldShared::with_config(2, None, Some(cfg));
        s.send_envelope(
            0,
            0,
            1,
            1,
            0,
            1,
            4,
            Payload::owned(1u32),
            None,
            TrafficClass::PointToPoint,
        )
        .unwrap();
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
        let e = s
            .send_envelope(
                0,
                0,
                1,
                1,
                ctx,
                1,
                4,
                Payload::owned(1u32),
                None,
                TrafficClass::PointToPoint,
            )
            .unwrap_err();
        assert!(matches!(e, RuntimeError::Revoked { .. }));
        assert_eq!(s.mailbox(1).len(), 0, "refused before delivery");
        assert_eq!(s.stats().snapshot().p2p_messages, 0, "refused before accounting");
        assert!(!s.revoke_context(0), "world pair is not revocable");
        assert!(!s.revoke_context(1));
        s.send_envelope(
            0,
            0,
            1,
            1,
            0,
            1,
            4,
            Payload::owned(1u32),
            None,
            TrafficClass::PointToPoint,
        )
        .unwrap();
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

    #[test]
    fn multicast_shares_one_allocation() {
        use crate::envelope::{Src, Tag};
        let s = WorldShared::with_config(4, None, None);
        let arc = Arc::new(vec![1.0f64; 8]);
        let payload = Payload::shared(Arc::clone(&arc));
        s.multicast_envelope(0, 0, &[1, 2, 3], 0, 5, 64, &payload, TrafficClass::Collective)
            .unwrap();
        drop(payload);
        // All three receivers hold handles to the same allocation.
        assert_eq!(Arc::strong_count(&arc), 4);
        for dst in 1..4 {
            let env = s.mailbox(dst).try_take(0, Src::Rank(0), Tag::Value(5)).unwrap();
            let (got, promoted) = env.payload.into_shared::<Vec<f64>>().unwrap();
            assert!(Arc::ptr_eq(&got, &arc));
            assert!(!promoted);
        }
        assert_eq!(s.stats().snapshot().collective_messages, 3);
    }

    #[test]
    fn duplicate_verdict_replicates_shared_payload_without_replicator() {
        use crate::envelope::{Src, Tag};
        use crate::fault::ChannelPolicy;
        let policy = ChannelPolicy { duplicate: 1.0, ..ChannelPolicy::reliable() };
        let cfg = FaultConfig::reliable(3).with_default_policy(policy);
        let s = WorldShared::with_config(2, None, Some(cfg));
        let payload = Payload::shared(Arc::new(9u32));
        s.send_envelope(0, 0, 1, 1, 0, 1, 4, payload, None, TrafficClass::PointToPoint).unwrap();
        assert_eq!(s.mailbox(1).len(), 2, "shared payloads self-replicate on duplication");
        for _ in 0..2 {
            let env = s.mailbox(1).try_take(0, Src::Any, Tag::Any).unwrap();
            assert_eq!(env.payload.into_owned::<u32>().unwrap().0, 9);
        }
        assert_eq!(s.stats().snapshot().duplicated_messages, 1);
    }
}
