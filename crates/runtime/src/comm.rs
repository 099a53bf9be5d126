//! Communicators and the point-to-point endpoint under them.
//!
//! MPI gives intra- and inter-communicators one point-to-point semantics;
//! they differ only in which group a rank number addresses. [`Endpoint`]
//! is that semantics, written once: the world handle, this rank's world
//! rank and its rank in its own group, the *addressed* group, the context
//! and the recovery sequence. A [`Comm`] is an endpoint that addresses its
//! own group; an [`InterComm`](crate::InterComm) is one that addresses the
//! remote group. Both are aliases of `Endpoint`, so `send`, `multicast`,
//! the `recv` family, `try_recv`, `iprobe`, the mailbox gauges, `revoke`
//! and `is_revoked` exist once for both.
//!
//! Every blocking receive of either handle and of the collectives goes
//! through one private choke point, which keeps the two accounting planes
//! (the `WorldStats` counters and the trace) in step. Receives come in
//! three flavours:
//!
//! | receive                                  | counts an op | on a match           | on an error       |
//! |------------------------------------------|--------------|----------------------|-------------------|
//! | point-to-point (`recv*`)                 | yes          | emits `MailboxMatch` | `record_op_error` |
//! | collective (`coll_take`, `gather`, `barrier`) | no      | emits `MailboxMatch` | `record_op_error` |
//! | `split`'s bootstrap context receive      | no           | silent               | `record_op_error` |
//!
//! "Counts an op" means the receive counts against the caller's scheduled
//! death in the fault plane; collectives count their operations on the
//! send side instead. `split`'s receive bypasses the choke point because
//! `Universe` bootstraps through it, and its matches stay out of the trace.

use std::any::type_name;
use std::cell::{Cell, OnceCell};
use std::sync::Arc;
use std::time::Duration;

use crate::envelope::{Envelope, MessageInfo, Payload, Src, Tag};
use crate::error::{Result, RuntimeError};
use crate::mailbox::PeerRef;
use crate::membership::agree_over;
use crate::msgsize::MsgSize;
use crate::reconfig::Rule;
use crate::shared::{WorldShared, WORLD_CONTEXT};
use crate::stats::{TrafficClass, WorldStats};
use crate::tracing::{ctx_class, record_op_error, tag_arg};
use mxn_trace::{emit_instant, EventId};

/// One rank's point-to-point handle on a group of peers, held by one rank
/// (handles are per-thread, exactly like `MPI_Comm` values). Rank numbers
/// index the *addressed* group; `K` holds what only one kind of handle
/// needs. See the aliases [`Comm`] and [`InterComm`](crate::InterComm).
pub struct Endpoint<K> {
    /// The world this handle's ranks live in.
    pub(crate) shared: Arc<WorldShared>,
    /// This rank's world rank.
    pub(crate) me: usize,
    /// This rank's rank within its own group: the source peers see.
    pub(crate) rank: usize,
    /// World rank per addressed rank; index = the rank callers pass.
    pub(crate) group: Arc<Vec<usize>>,
    /// Point-to-point context (a `Comm`'s collectives use `context + 1`).
    pub(crate) context: u32,
    /// Recovery sequence number: agreements, shrinks and reconfigurations
    /// over one handle are ordered, like collectives.
    pub(crate) recovery_seq: Cell<u64>,
    /// The `Src::Any` peer list, built on first use.
    any_peers: OnceCell<Vec<PeerRef>>,
    pub(crate) kind: K,
}

impl<K> Endpoint<K> {
    pub(crate) fn new(
        shared: Arc<WorldShared>,
        me: usize,
        rank: usize,
        group: Arc<Vec<usize>>,
        context: u32,
        kind: K,
    ) -> Self {
        let (recovery_seq, any_peers) = (Cell::new(0), OnceCell::new());
        Endpoint { shared, me, rank, group, context, recovery_seq, any_peers, kind }
    }

    /// This rank's global (world) rank.
    pub(crate) fn global_rank(&self) -> usize {
        self.me
    }

    /// The point-to-point context id.
    pub(crate) fn context(&self) -> u32 {
        self.context
    }

    /// `(live, peak)` payload bytes of this rank's own mailbox: what is
    /// queued for this rank right now, and the most that has ever been.
    /// Spans all communicators of the world (the mailbox is per *rank*).
    pub fn mailbox_bytes(&self) -> (u64, u64) {
        let mb = self.shared.mailbox(self.me);
        (mb.live_bytes(), mb.peak_bytes())
    }

    /// Resets this rank's mailbox byte high-water mark to its current live
    /// level (between measurement phases).
    pub fn reset_mailbox_peak(&self) {
        self.shared.mailbox(self.me).reset_peak_bytes();
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank < self.group.len() {
            Ok(())
        } else {
            Err(RuntimeError::InvalidRank { rank, size: self.group.len() })
        }
    }

    /// Addressed rank `r` as a peer a blocked receive watches for death.
    fn peer(&self, r: usize) -> Option<PeerRef> {
        self.group.get(r).map(|&global| PeerRef { global, local: r })
    }

    /// Every addressed rank but this one (which is there when the group is
    /// its own): who can satisfy a `Src::Any` receive. Built on the first
    /// wildcard receive and kept, as the group never changes.
    fn wildcard_peers(&self) -> &[PeerRef] {
        self.any_peers.get_or_init(|| {
            let peers = (0..self.group.len()).filter_map(|r| self.peer(r));
            peers.filter(|p| p.global != self.me).collect()
        })
    }

    /// Posts one envelope to addressed rank `dst` (already checked).
    pub(crate) fn post(
        &self,
        dst: usize,
        context: u32,
        tag: i32,
        bytes: usize,
        payload: Payload,
        class: TrafficClass,
    ) -> Result<()> {
        let to = self.group[dst];
        self.shared
            .send_envelope(self.me, self.rank, to, dst, context, tag, bytes, payload, None, class)
    }

    /// Sends `value` to addressed rank `dst` with `tag`.
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
        self.post(dst, self.context, tag, bytes, Payload::owned(value), TrafficClass::PointToPoint)
    }

    /// Sends one shared payload to every rank in `dsts` (addressed ranks,
    /// duplicates allowed): O(1) payload allocations however many
    /// receivers, each unwrapping it copy-on-write. This is the transport
    /// under collective remote method invocation, where one caller's
    /// argument fans out to every rank of the remote program.
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
                    self.me,
                    self.rank,
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

    /// The receive choke point (see the [module docs](self)): takes the
    /// earliest envelope matching `(context, src, tag)`, waiting at most
    /// `timeout` (forever if `None`). A point-to-point receive (`p2p`)
    /// first counts an operation against this rank's scheduled death. A
    /// match emits `MailboxMatch`; an error return (`Timeout`, `PeerDead`,
    /// `Revoked`, `Aborted`) goes through [`record_op_error`], so it bumps
    /// the stats counters *and* the trace, never just one.
    pub(crate) fn take(
        &self,
        context: u32,
        src: Src,
        tag: Tag,
        timeout: Option<Duration>,
        p2p: bool,
    ) -> Result<Envelope> {
        // The peers that could satisfy the receive; it fails with
        // `PeerDead` instead of hanging once all of them have died.
        let one;
        let peers = match src {
            Src::Rank(r) => {
                one = self.peer(r);
                one.as_slice()
            }
            Src::Any => self.wildcard_peers(),
        };
        let counted = if p2p { self.shared.note_op(self.me, self.rank) } else { Ok(()) };
        let res = counted.and_then(|()| {
            let mailbox = self.shared.mailbox(self.me);
            match timeout {
                None => mailbox.take(context, src, tag, peers),
                Some(t) => mailbox.take_timeout(context, src, tag, t, peers),
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

    fn recv_p2p<T: 'static>(
        &self,
        src: Src,
        tag: Tag,
        timeout: Option<Duration>,
    ) -> Result<(T, MessageInfo)> {
        let env = self.take(self.context, src, tag, timeout, true)?;
        self.downcast(env)
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

    /// Like [`Endpoint::recv`] but also returns the sender/tag/size
    /// metadata (needed with `Src::Any` / `Tag::Any`).
    pub fn recv_with_info<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<(T, MessageInfo)> {
        self.recv_p2p(src.into(), tag.into(), None)
    }

    /// Receives with a deadline; `Err(Timeout)` if nothing matched in time.
    /// This is the deadlock-detection primitive, within one program and
    /// across two.
    pub fn recv_timeout<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
        timeout: Duration,
    ) -> Result<T> {
        self.recv_timeout_with_info(src, tag, timeout).map(|(v, _)| v)
    }

    /// Receive with a deadline and sender metadata (for `Src::Any`).
    pub fn recv_timeout_with_info<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
        timeout: Duration,
    ) -> Result<(T, MessageInfo)> {
        self.recv_p2p(src.into(), tag.into(), Some(timeout))
    }

    /// Non-blocking receive: `Ok(None)` when no matching message is queued.
    pub fn try_recv<T: 'static>(
        &self,
        src: impl Into<Src>,
        tag: impl Into<Tag>,
    ) -> Result<Option<(T, MessageInfo)>> {
        match self.shared.mailbox(self.me).try_take(self.context, src.into(), tag.into()) {
            Some(env) => self.downcast(env).map(Some),
            None => Ok(None),
        }
    }

    /// Checks for a matching queued message without consuming or blocking.
    pub fn iprobe(&self, src: impl Into<Src>, tag: impl Into<Tag>) -> Option<MessageInfo> {
        self.shared.mailbox(self.me).iprobe(self.context, src.into(), tag.into())
    }

    /// Poisons this handle's context pair: every pending and future
    /// operation on it (point-to-point and, on a [`Comm`], collective)
    /// fails with [`RuntimeError::Revoked`] on every rank, both sides of
    /// an intercomm included. Idempotent; returns whether this call newly
    /// revoked it. The world communicator cannot be revoked — recovery
    /// itself runs on it — so revoking it returns `false` and changes
    /// nothing.
    pub fn revoke(&self) -> bool {
        self.shared.revoke_context(self.context)
    }

    /// One ordered recovery decision over `members` (world ranks) on this
    /// handle's recovery channel (see [`crate::reconfig`]).
    pub(crate) fn decide(&self, members: &[usize], rule: Rule, value: u64) -> Result<u64> {
        let seq = self.recovery_seq.get();
        self.recovery_seq.set(seq + 1);
        let world = Comm::world(self.shared.clone(), self.me);
        agree_over(&world, members, (self.context, seq), rule, value)
    }
}

/// What only a [`Comm`] carries beside its endpoint.
pub struct Intra {
    /// Per-handle collective sequence number; members stay in lock-step
    /// because collectives are ordered.
    pub(crate) coll_seq: Cell<u64>,
}

/// A communicator: an ordered group of world ranks plus a private message
/// context. Point-to-point operations address peers by
/// *communicator-local* rank. Collective operations (see
/// [`Comm::bcast`] and its siblings) must be called by every member, in the same
/// order.
pub type Comm = Endpoint<Intra>;

impl Comm {
    /// Builds the world communicator handle for `global_rank`.
    pub(crate) fn world(shared: Arc<WorldShared>, global_rank: usize) -> Self {
        let group = Arc::new((0..shared.size()).collect());
        Comm::from_parts(shared, group, global_rank, WORLD_CONTEXT)
    }

    pub(crate) fn from_parts(
        shared: Arc<WorldShared>,
        group: Arc<Vec<usize>>,
        local_rank: usize,
        context: u32,
    ) -> Self {
        let me = group[local_rank];
        Endpoint::new(shared, me, local_rank, group, context, Intra { coll_seq: Cell::new(0) })
    }

    /// This rank's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// The global (world) ranks of the members, in local-rank order.
    pub fn group(&self) -> &[usize] {
        &self.group
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
            .position(|&r| r == self.rank)
            .expect("calling rank is in its own color group");

        // The lowest *old* rank of the color allocates the context and sends
        // it to the other members over the parent communicator.
        let owner = *members.iter().min().expect("non-empty color group");
        const SPLIT_TAG: i32 = crate::envelope::COLLECTIVE_TAG_BASE + 1;
        let ctx = if self.rank == owner {
            let ctx = self.shared.allocate_context_pair();
            // One shared payload fans out to every other member.
            let others: Vec<usize> =
                members.iter().filter(|&&m| m != self.rank).map(|&m| self.group[m]).collect();
            if !others.is_empty() {
                let payload = Payload::shared(Arc::new(ctx));
                self.shared.stats().record_payload_alloc();
                self.shared.multicast_envelope(
                    self.me,
                    self.rank,
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
            // The bootstrap receive: silent on a match, accounted on an error.
            let res = self.shared.mailbox(self.me).take(
                self.context,
                Src::Rank(owner),
                Tag::Value(SPLIT_TAG),
                self.peer(owner).as_slice(),
            );
            if let Err(e) = &res {
                record_op_error(self.shared.stats(), e);
            }
            self.downcast::<u32>(res?)?.0
        };

        let group: Vec<usize> = members.iter().map(|&m| self.group[m]).collect();
        Ok(Some(Comm::from_parts(self.shared.clone(), Arc::new(group), my_new_rank, ctx)))
    }

    /// Creates a sub-communicator containing exactly `ranks` (parent-local,
    /// need not be sorted; new ranks follow the given order). Collective over
    /// the parent; non-members receive `None`.
    pub fn subgroup(&self, ranks: &[usize]) -> Result<Option<Comm>> {
        let key = ranks.iter().position(|&r| r == self.rank);
        let color = if key.is_some() { 0 } else { -1 };
        self.split(color, key.map_or(0, |k| k as i64))
    }
}

/// Checks `env`'s integrity and unwraps its payload with `take`, which
/// also says whether it had to copy the payload. Failures and copies are
/// counted in `stats`, so every receive path accounts for them alike.
fn unwrap_payload<V>(
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
    fn try_recv_and_iprobe() {
        World::run(2, |p| {
            let c = p.world();
            if c.rank() == 0 {
                assert!(c.try_recv::<u8>(Src::Any, Tag::Any).unwrap().is_none());
                c.send(1, 0, 9u8).unwrap();
            } else {
                // Wait until the message is visible, then take it.
                let info = loop {
                    match c.iprobe(0, 0) {
                        Some(info) => break info,
                        None => std::thread::yield_now(),
                    }
                };
                assert_eq!(info.bytes, 1);
                let (v, _) = c.try_recv::<u8>(0, 0).unwrap().unwrap();
                assert_eq!(v, 9);
                assert!(c.iprobe(0, 0).is_none());
            }
        });
    }

    #[test]
    fn a_derived_comm_isolates_traffic() {
        World::run(2, |p| {
            let c = p.world();
            let d = c.split(0, c.rank() as i64).unwrap().unwrap();
            assert_ne!(c.context(), d.context());
            if c.rank() == 0 {
                c.send(1, 0, 1u8).unwrap();
                d.send(1, 0, 2u8).unwrap();
            } else {
                // Receive on the derived comm first: the world message must not match.
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
    fn only_point_to_point_receives_count_fault_plane_ops() {
        // Rank 0 dies at its op 2. Its barrier's send is op 0 and its
        // receive counts nothing; the point-to-point receive is op 1, so
        // the death lands on the send after it.
        let cfg = crate::fault::FaultConfig::reliable(23).with_death(0, 2);
        let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
        World::run_opts(2, opts, |p| {
            let c = p.world();
            c.barrier().unwrap();
            if c.rank() == 0 {
                assert_eq!(c.recv::<u8>(1, 7).unwrap(), 1);
                let e = c.send(1, 8, 2u8).unwrap_err();
                assert!(matches!(e, RuntimeError::PeerDead { rank: 0 }), "{e}");
            } else {
                c.send(0, 7, 1u8).unwrap();
                let e = c.recv::<u8>(0, 8).unwrap_err();
                assert!(matches!(e, RuntimeError::PeerDead { rank: 0 }), "{e}");
            }
        });
    }

    #[test]
    fn a_wildcard_receive_fails_once_every_other_member_died() {
        // The caller is in its own group but never waits on itself: with
        // both peers dead the wildcard fails fast instead of timing out.
        let cfg = crate::fault::FaultConfig::reliable(29);
        let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
        World::run_opts(3, opts, |p| {
            if p.rank() != 0 {
                p.kill_rank(p.rank());
                return;
            }
            while !(p.is_dead(1) && p.is_dead(2)) {
                std::thread::yield_now();
            }
            let e = p.world().recv_timeout::<u8>(Src::Any, 3, Duration::from_secs(5)).unwrap_err();
            assert!(matches!(e, RuntimeError::PeerDead { .. }), "{e}");
        });
    }
}
