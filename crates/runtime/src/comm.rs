//! Communicators: groups of ranks with isolated message contexts.

use std::any::type_name;
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use crate::envelope::{Envelope, MessageInfo, Payload, Src, Tag};
use crate::error::{Result, RuntimeError};
use crate::mailbox::PeerRef;
use crate::msgsize::MsgSize;
use crate::shared::{WorldShared, WORLD_CONTEXT};
use crate::stats::{TrafficClass, WorldStats};
use crate::tracing::{ctx_class, record_op_error, tag_arg};
use mxn_trace::{emit_instant, EventId};

/// A communicator: an ordered group of world ranks plus a private message
/// context, held by one rank (communicators are per-thread handles, exactly
/// like `MPI_Comm` values).
///
/// Point-to-point operations address peers by *communicator-local* rank.
/// Collective operations (see [`crate::collectives`]) must be called by every
/// member, in the same order.
pub struct Comm {
    shared: Arc<WorldShared>,
    /// Global rank per local rank; index = local rank.
    group: Arc<Vec<usize>>,
    /// This rank's local rank within `group`.
    local_rank: usize,
    /// Point-to-point context (collective context is `context + 1`).
    context: u32,
    /// Per-handle collective sequence number; members stay in lock-step
    /// because collectives are ordered.
    pub(crate) coll_seq: Cell<u64>,
    /// Per-handle recovery sequence number (agreements/shrinks are ordered
    /// collectives too, on the recovery tag space).
    pub(crate) recovery_seq: Cell<u64>,
}

impl Comm {
    /// Builds the world communicator handle for `global_rank`.
    pub(crate) fn world(shared: Arc<WorldShared>, global_rank: usize) -> Self {
        let n = shared.size();
        Comm {
            shared,
            group: Arc::new((0..n).collect()),
            local_rank: global_rank,
            context: WORLD_CONTEXT,
            coll_seq: Cell::new(0),
            recovery_seq: Cell::new(0),
        }
    }

    pub(crate) fn from_parts(
        shared: Arc<WorldShared>,
        group: Arc<Vec<usize>>,
        local_rank: usize,
        context: u32,
    ) -> Self {
        Comm {
            shared,
            group,
            local_rank,
            context,
            coll_seq: Cell::new(0),
            recovery_seq: Cell::new(0),
        }
    }

    /// This rank's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// The global (world) ranks of the members, in local-rank order.
    pub fn group(&self) -> &[usize] {
        &self.group
    }

    /// This rank's global (world) rank.
    pub fn global_rank(&self) -> usize {
        self.group[self.local_rank]
    }

    /// The communicator's point-to-point context id.
    pub fn context(&self) -> u32 {
        self.context
    }

    /// `(live, peak)` payload bytes of this rank's own mailbox: what is
    /// queued for this rank right now, and the most that has ever been.
    /// Spans all communicators of the world (the mailbox is per *rank*).
    pub fn mailbox_bytes(&self) -> (u64, u64) {
        let mb = self.shared.mailbox(self.global_rank());
        (mb.live_bytes(), mb.peak_bytes())
    }

    /// Resets this rank's mailbox byte high-water mark to its current live
    /// level (between measurement phases).
    pub fn reset_mailbox_peak(&self) {
        self.shared.mailbox(self.global_rank()).reset_peak_bytes();
    }

    pub(crate) fn shared(&self) -> &Arc<WorldShared> {
        &self.shared
    }

    /// The recovery view of this communicator: ULFM-style revoke / agree /
    /// shrink. See [`crate::membership::Membership`].
    pub fn membership(&self) -> crate::membership::Membership<'_> {
        crate::membership::Membership::new(self)
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank < self.group.len() {
            Ok(())
        } else {
            Err(RuntimeError::InvalidRank { rank, size: self.group.len() })
        }
    }

    /// The peers that could satisfy a receive matching `src`: a single rank,
    /// or (for `Src::Any`) every other member. Used for dead-peer detection
    /// in blocked waits.
    pub(crate) fn peers_of(&self, src: Src) -> Vec<PeerRef> {
        match src {
            Src::Rank(r) if r < self.group.len() => {
                vec![PeerRef { global: self.group[r], local: r }]
            }
            Src::Rank(_) => Vec::new(),
            Src::Any => (0..self.group.len())
                .filter(|&r| r != self.local_rank)
                .map(|r| PeerRef { global: self.group[r], local: r })
                .collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_envelope(
        &self,
        dst_local: usize,
        context: u32,
        tag: i32,
        bytes: usize,
        payload: Payload,
        replicate: Option<&dyn Fn() -> Payload>,
        class: TrafficClass,
    ) -> Result<()> {
        let dst_global = self.group[dst_local];
        self.shared.send_envelope(
            self.global_rank(),
            self.local_rank,
            dst_global,
            dst_local,
            context,
            tag,
            bytes,
            payload,
            replicate,
            class,
        )
    }

    /// Sends `value` to communicator-local rank `dst` with `tag`.
    ///
    /// Sends never block: the runtime models an eager/buffered MPI send, so
    /// deadlock can only arise from receives (which is exactly the behaviour
    /// the PRMI synchronization experiments need). Under a fault plane a
    /// send fails with [`RuntimeError::PeerDead`] only when the sending
    /// rank's own scheduled death triggers; a dead *destination* is detected
    /// on the receive side, keeping same-seed runs deterministic.
    pub fn send<T: Send + MsgSize + 'static>(&self, dst: usize, tag: i32, value: T) -> Result<()> {
        self.check_rank(dst)?;
        let bytes = value.msg_size();
        self.push_envelope(
            dst,
            self.context,
            tag,
            bytes,
            Payload::owned(value),
            None,
            TrafficClass::PointToPoint,
        )
    }

    /// Like [`Comm::send`] for clonable values. Payloads normally move into
    /// the destination mailbox, so a fault plane that duplicates a frame has
    /// no second copy to deliver; this variant posts the value as a shared
    /// payload, which replicates itself in O(1) — no eager clone, and the
    /// sole receiver unwraps it without copying.
    pub fn send_replicable<T: Send + Sync + Clone + MsgSize + 'static>(
        &self,
        dst: usize,
        tag: i32,
        value: T,
    ) -> Result<()> {
        self.check_rank(dst)?;
        let bytes = value.msg_size();
        self.shared.stats().record_payload_alloc();
        self.push_envelope(
            dst,
            self.context,
            tag,
            bytes,
            Payload::shared(Arc::new(value)),
            None,
            TrafficClass::PointToPoint,
        )
    }

    /// Sends one shared payload to every rank in `dsts` (communicator-local,
    /// duplicates allowed): O(1) payload allocations however many receivers.
    /// Receivers see an ordinary message — `recv` unwraps copy-on-write,
    /// [`Comm::recv_shared`] borrows the shared allocation outright.
    pub fn multicast<T: Send + Sync + Clone + MsgSize + 'static>(
        &self,
        dsts: &[usize],
        tag: i32,
        value: T,
    ) -> Result<()> {
        for &d in dsts {
            self.check_rank(d)?;
        }
        match dsts {
            [] => Ok(()),
            // A single destination needs no sharing machinery.
            [dst] => self.send(*dst, tag, value),
            _ => {
                let bytes = value.msg_size();
                let payload = Payload::shared(Arc::new(value));
                self.shared.stats().record_payload_alloc();
                let dst_globals: Vec<usize> = dsts.iter().map(|&d| self.group[d]).collect();
                self.shared.multicast_envelope(
                    self.global_rank(),
                    self.local_rank,
                    &dst_globals,
                    self.context,
                    tag,
                    bytes,
                    &payload,
                    TrafficClass::PointToPoint,
                )
            }
        }
    }

    pub(crate) fn downcast<T: 'static>(&self, env: Envelope) -> Result<(T, MessageInfo)> {
        unwrap_payload(self.shared.stats(), env, type_name::<T>(), Payload::into_owned)
    }

    pub(crate) fn downcast_shared<T: Send + Sync + 'static>(
        &self,
        env: Envelope,
    ) -> Result<(Arc<T>, MessageInfo)> {
        unwrap_payload(self.shared.stats(), env, type_name::<T>(), |p| {
            p.into_shared().map(|(v, _promoted)| (v, false))
        })
    }

    /// Every blocking receive funnels through here: counts the caller's
    /// operation, takes the earliest match, and keeps both accounting
    /// planes consistent — a matched envelope emits `MailboxMatch`, an
    /// error return (`Timeout`/`PeerDead`/`Aborted`) goes through
    /// [`record_op_error`] so it bumps the stats counters *and* the trace,
    /// never just one.
    pub(crate) fn recv_envelope(
        &self,
        context: u32,
        src: Src,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<Envelope> {
        let res = self.shared.note_op(self.global_rank(), self.local_rank).and_then(|()| {
            let mailbox = self.shared.mailbox(self.global_rank());
            match timeout {
                None => mailbox.take(context, src, tag, &self.peers_of(src)),
                Some(t) => mailbox.take_timeout(context, src, tag, t, &self.peers_of(src)),
            }
        });
        match &res {
            Ok(env) => emit_instant(
                EventId::MailboxMatch,
                [ctx_class(context), tag_arg(env.tag), env.src_local as u64, env.bytes as u64],
            ),
            Err(e) => record_op_error(self.shared.stats(), e),
        }
        res
    }

    /// Receives the earliest message matching `src`/`tag`, blocking until one
    /// arrives. Returns the payload.
    ///
    /// Under a fault plane the receive fails with
    /// [`RuntimeError::PeerDead`] instead of hanging when every rank that
    /// could satisfy it has died, and with [`RuntimeError::Corrupt`] when
    /// the matched envelope fails its integrity check.
    pub fn recv<T: 'static>(&self, src: impl Into<Src>, tag: impl Into<Tag>) -> Result<T> {
        self.recv_with_info(src, tag).map(|(v, _)| v)
    }

    /// Like [`Comm::recv`] but also returns the sender/tag/size metadata
    /// (needed with `Src::Any` / `Tag::Any`).
    pub fn recv_with_info<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<(T, MessageInfo)> {
        let src = src.into();
        let env = self.recv_envelope(self.context, src, tag.into(), None)?;
        self.downcast(env)
    }

    /// Like [`Comm::recv`] but borrows a shared payload without copying it:
    /// the zero-clone receive side of [`Comm::multicast`] and the shared
    /// collectives. Owned payloads are promoted into a fresh `Arc` (an O(1)
    /// pointer move, not a deep copy).
    pub fn recv_shared<T: Send + Sync + 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<Arc<T>> {
        let src = src.into();
        let env = self.recv_envelope(self.context, src, tag.into(), None)?;
        self.downcast_shared(env).map(|(v, _)| v)
    }

    /// Receives with a deadline; `Err(Timeout)` if nothing matched in time.
    /// This is the deadlock-detection primitive.
    pub fn recv_timeout<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
        timeout: Duration,
    ) -> Result<T> {
        let src = src.into();
        let env = self.recv_envelope(self.context, src, tag.into(), Some(timeout))?;
        self.downcast(env).map(|(v, _)| v)
    }

    /// Non-blocking receive: `Ok(None)` when no matching message is queued.
    pub fn try_recv<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<Option<(T, MessageInfo)>> {
        match self.shared.mailbox(self.global_rank()).try_take(self.context, src.into(), tag.into())
        {
            Some(env) => self.downcast(env).map(Some),
            None => Ok(None),
        }
    }

    /// Blocks until a matching message is queued, without consuming it.
    pub fn probe(&self, src: impl Into<Src>, tag: impl Into<Tag>) -> Result<MessageInfo> {
        let src = src.into();
        let res = self.shared.note_op(self.global_rank(), self.local_rank).and_then(|()| {
            self.shared.mailbox(self.global_rank()).probe(
                self.context,
                src,
                tag.into(),
                &self.peers_of(src),
            )
        });
        if let Err(e) = &res {
            record_op_error(self.shared.stats(), e);
        }
        res
    }

    /// Checks for a matching queued message without consuming or blocking.
    pub fn iprobe(&self, src: impl Into<Src>, tag: impl Into<Tag>) -> Option<MessageInfo> {
        self.shared.mailbox(self.global_rank()).iprobe(self.context, src.into(), tag.into())
    }

    /// Combined send-then-receive, the classic shift primitive.
    pub fn sendrecv<S: Send + MsgSize + 'static, R: 'static>(
        &self,
        dst: usize,
        send_tag: i32,
        value: S,
        src: usize,
        recv_tag: i32,
    ) -> Result<R> {
        self.send(dst, send_tag, value)?;
        self.recv(src, recv_tag)
    }

    /// Duplicates the communicator into a fresh context. Collective.
    pub fn dup(&self) -> Result<Comm> {
        let ctx = if self.local_rank == 0 {
            let ctx = self.shared.allocate_context_pair();
            self.bcast(0, Some(ctx))?
        } else {
            self.bcast::<u32>(0, None)?
        };
        Ok(Comm::from_parts(self.shared.clone(), self.group.clone(), self.local_rank, ctx))
    }

    /// Splits the communicator by `color`, ordering members of each new
    /// communicator by `(key, old rank)`. A negative color opts out
    /// (returns `None`). Collective.
    pub fn split(&self, color: i64, key: i64) -> Result<Option<Comm>> {
        // Everyone learns everyone's (color, key).
        let all: Vec<(i64, i64)> = self.allgather((color, key))?;

        if color < 0 {
            // Still participate in context distribution: opted-out ranks are
            // simply never sent a context id.
            return Ok(None);
        }

        // Members of my color, ordered by (key, old local rank).
        let mut members: Vec<usize> = (0..all.len()).filter(|&r| all[r].0 == color).collect();
        members.sort_by_key(|&r| (all[r].1, r));
        let my_new_rank = members
            .iter()
            .position(|&r| r == self.local_rank)
            .expect("calling rank is in its own color group");

        // The lowest *old* rank of the color allocates the context and sends
        // it to the other members over the parent communicator.
        let owner = *members.iter().min().expect("non-empty color group");
        const SPLIT_TAG: i32 = crate::envelope::COLLECTIVE_TAG_BASE + 1;
        let ctx = if self.local_rank == owner {
            let ctx = self.shared.allocate_context_pair();
            // One shared payload fans out to every other member.
            let others: Vec<usize> =
                members.iter().filter(|&&m| m != self.local_rank).map(|&m| self.group[m]).collect();
            if !others.is_empty() {
                let payload = Payload::shared(Arc::new(ctx));
                self.shared.stats().record_payload_alloc();
                self.shared.multicast_envelope(
                    self.global_rank(),
                    self.local_rank,
                    &others,
                    self.context,
                    SPLIT_TAG,
                    std::mem::size_of::<u32>(),
                    &payload,
                    TrafficClass::Collective,
                )?;
            }
            ctx
        } else {
            let env = self.shared.mailbox(self.global_rank()).take(
                self.context,
                Src::Rank(owner),
                Tag::Value(SPLIT_TAG),
                &self.peers_of(Src::Rank(owner)),
            )?;
            self.downcast::<u32>(env)?.0
        };

        let group: Vec<usize> = members.iter().map(|&m| self.group[m]).collect();
        Ok(Some(Comm::from_parts(self.shared.clone(), Arc::new(group), my_new_rank, ctx)))
    }

    /// Creates a sub-communicator containing exactly `ranks` (parent-local,
    /// need not be sorted; new ranks follow the given order). Collective over
    /// the parent; non-members receive `None`.
    pub fn subgroup(&self, ranks: &[usize]) -> Result<Option<Comm>> {
        let key = ranks.iter().position(|&r| r == self.local_rank);
        let color = if key.is_some() { 0 } else { -1 };
        self.split(color, key.map_or(0, |k| k as i64))
    }
}

/// Checks `env`'s integrity and unwraps its payload with `take`, which
/// also says whether it had to copy the payload. Failures and copies are
/// counted in `stats`, so every receive path accounts for them alike.
pub(crate) fn unwrap_payload<V>(
    stats: &WorldStats,
    env: Envelope,
    expected: &'static str,
    take: impl FnOnce(Payload) -> std::result::Result<(V, bool), Payload>,
) -> Result<(V, MessageInfo)> {
    let info = MessageInfo { src: env.src_local, tag: env.tag, bytes: env.bytes };
    let got = if env.verify() {
        take(env.payload).map_err(|_| RuntimeError::TypeMismatch {
            expected,
            src: info.src,
            tag: info.tag,
        })
    } else {
        Err(RuntimeError::Corrupt { src: info.src, tag: info.tag })
    };
    match got {
        Ok((v, copied)) => {
            if copied {
                stats.record_payload_clone();
            }
            Ok((v, info))
        }
        Err(e) => {
            record_op_error(stats, &e);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{RunOpts, World};

    #[test]
    fn ring_pass() {
        let results = World::run(4, |p| {
            let c = p.world();
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 0, c.rank() as u64).unwrap();
            c.recv::<u64>(prev, 0).unwrap()
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        World::run(2, |p| {
            let c = p.world();
            let e = c.send(5, 0, 1u8).unwrap_err();
            assert!(matches!(e, RuntimeError::InvalidRank { rank: 5, size: 2 }));
        });
    }

    #[test]
    fn type_mismatch_is_reported() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 3, 42u32).unwrap();
            } else {
                let e = c.recv::<f64>(0, 3).unwrap_err();
                assert!(matches!(e, RuntimeError::TypeMismatch { src: 0, tag: 3, .. }));
            }
        });
    }

    #[test]
    fn wildcard_receive_reports_sender() {
        World::run(3, |p| {
            let c = p.world();
            if c.rank() == 2 {
                let (v, info) = c.recv_with_info::<u32>(Src::Any, Tag::Any).unwrap();
                assert_eq!(v as usize, info.src);
                let (v2, info2) = c.recv_with_info::<u32>(Src::Any, Tag::Any).unwrap();
                assert_eq!(v2 as usize, info2.src);
                assert_ne!(info.src, info2.src);
            } else {
                c.send(2, c.rank() as i32, c.rank() as u32).unwrap();
            }
        });
    }

    #[test]
    fn sendrecv_shift() {
        let res = World::run(3, |p| {
            let c = p.world();
            let next = (c.rank() + 1) % 3;
            let prev = (c.rank() + 2) % 3;
            c.sendrecv::<usize, usize>(next, 1, c.rank(), prev, 1).unwrap()
        });
        assert_eq!(res, vec![2, 0, 1]);
    }

    #[test]
    fn try_recv_and_iprobe() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                assert!(c.try_recv::<u8>(Src::Any, Tag::Any).unwrap().is_none());
                c.send(1, 0, 9u8).unwrap();
            } else {
                // Wait until the message is visible, then probe + take it.
                let info = c.probe(0, 0).unwrap();
                assert_eq!(info.bytes, 1);
                assert!(c.iprobe(0, 0).is_some());
                let (v, _) = c.try_recv::<u8>(0, 0).unwrap().unwrap();
                assert_eq!(v, 9);
                assert!(c.iprobe(0, 0).is_none());
            }
        });
    }

    #[test]
    fn dup_isolates_traffic() {
        World::run(2, |p| {
            let c = p.world();
            let d = c.dup().unwrap();
            assert_ne!(c.context(), d.context());
            if c.rank() == 0 {
                c.send(1, 0, 1u8).unwrap();
                d.send(1, 0, 2u8).unwrap();
            } else {
                // Receive on the dup first: the world message must not match.
                assert_eq!(d.recv::<u8>(0, 0).unwrap(), 2);
                assert_eq!(c.recv::<u8>(0, 0).unwrap(), 1);
            }
        });
    }

    #[test]
    fn split_into_even_odd() {
        World::run(5, |p| {
            let c = p.world();
            let sub = c.split((c.rank() % 2) as i64, 0).unwrap().unwrap();
            let expected_size = if c.rank() % 2 == 0 { 3 } else { 2 };
            assert_eq!(sub.size(), expected_size);
            assert_eq!(sub.rank(), c.rank() / 2);
            // Global ranks recorded correctly.
            assert_eq!(sub.group()[sub.rank()], c.rank());
            // Traffic within the sub-communicator works.
            let total: u64 = sub.allreduce(c.rank() as u64, |a, b| *a += b).unwrap();
            let expected: u64 = if c.rank() % 2 == 0 { 2 + 4 } else { 1 + 3 };
            assert_eq!(total, expected);
        });
    }

    #[test]
    fn split_key_reorders_ranks() {
        World::run(3, |p| {
            let c = p.world();
            // Reverse order via key.
            let sub = c.split(0, -(c.rank() as i64)).unwrap().unwrap();
            assert_eq!(sub.rank(), c.size() - 1 - c.rank());
        });
    }

    #[test]
    fn split_negative_color_opts_out() {
        World::run(4, |p| {
            let c = p.world();
            let color = if c.rank() == 3 { -1 } else { 0 };
            let sub = c.split(color, 0).unwrap();
            if c.rank() == 3 {
                assert!(sub.is_none());
            } else {
                assert_eq!(sub.unwrap().size(), 3);
            }
        });
    }

    #[test]
    fn subgroup_follows_given_order() {
        World::run(4, |p| {
            let c = p.world();
            let sub = c.subgroup(&[2, 0]).unwrap();
            match c.rank() {
                0 => assert_eq!(sub.unwrap().rank(), 1),
                2 => assert_eq!(sub.unwrap().rank(), 0),
                _ => assert!(sub.is_none()),
            }
        });
    }

    #[test]
    fn recv_timeout_detects_missing_message() {
        World::run(1, |p| {
            let c = p.world();
            let e = c.recv_timeout::<u8>(0, 0, Duration::from_millis(10)).unwrap_err();
            assert!(matches!(e, RuntimeError::Timeout { .. }));
        });
    }

    #[test]
    fn stats_count_messages() {
        let stats = World::run_opts(2, RunOpts::default(), |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send(1, 0, vec![0.0f64; 10]).unwrap();
            } else {
                c.recv::<Vec<f64>>(0, 0).unwrap();
            }
        })
        .stats;
        assert_eq!(stats.p2p_messages, 1);
        assert_eq!(stats.p2p_bytes, 80);
    }

    #[test]
    fn multicast_delivers_to_every_destination() {
        let stats = World::run_opts(4, RunOpts::default(), |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.multicast(&[1, 2, 3], 7, vec![1.5f64; 16]).unwrap();
            } else {
                assert_eq!(c.recv::<Vec<f64>>(0, 7).unwrap(), vec![1.5; 16]);
            }
        })
        .stats;
        assert_eq!(stats.p2p_messages, 3);
        assert_eq!(stats.payload_allocs, 1, "one shared allocation for three receivers");
        // Two receivers unwrap while other handles live; the last is free.
        assert!(stats.payload_clones <= 2);
    }

    #[test]
    fn recv_shared_borrows_the_multicast_allocation() {
        let stats = World::run_opts(3, RunOpts::default(), |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.multicast(&[1, 2], 7, String::from("shared")).unwrap();
            } else {
                let arc = c.recv_shared::<String>(0, 7).unwrap();
                assert_eq!(*arc, "shared");
            }
        })
        .stats;
        assert_eq!(stats.payload_allocs, 1);
        assert_eq!(stats.payload_clones, 0, "Arc receivers never deep-copy");
    }

    #[test]
    fn multicast_to_one_or_zero_destinations() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.multicast(&[], 1, 1u8).unwrap(); // no-op
                c.multicast(&[1], 1, 2u8).unwrap(); // plain send
            } else {
                assert_eq!(c.recv::<u8>(0, 1).unwrap(), 2);
            }
        });
    }

    #[test]
    fn send_replicable_is_clone_free_without_faults() {
        let stats = World::run_opts(2, RunOpts::default(), |p| {
            let c = p.world();
            if c.rank() == 0 {
                c.send_replicable(1, 0, vec![9u64; 8]).unwrap();
            } else {
                assert_eq!(c.recv::<Vec<u64>>(0, 0).unwrap(), vec![9; 8]);
            }
        })
        .stats;
        assert_eq!(stats.payload_clones, 0, "sole receiver unwraps the shared payload in place");
    }
}
