//! M×N connections and the `data_ready` transfer protocol.
//!
//! A connection couples one program's registered field to another
//! program's, across an inter-communicator. Its lifecycle reproduces §4.1
//! of the paper:
//!
//! * **Establishment** exchanges DADs: the initiating side's rank 0 sends a
//!   connection request (with its descriptor) to every remote rank; the
//!   accepting side validates field name, access mode and shape, and its
//!   rank 0 answers with its own descriptor. From then on each rank moves
//!   its share through a [`Redist`] between the two descriptors, with
//!   schedules and buffers from its registry's [`ScheduleCache`]; no rank
//!   waits on another to build them.
//! * **Transfers** follow the paper's `dataReady()` design: "each
//!   independent pairwise communication … is initiated when a single
//!   instance of the parallel source cohort invokes the dataReady() method
//!   … a matching dataReady() call at the corresponding destination cohort
//!   process completes the given pairwise communication … no additional
//!   synchronization barriers are required on either side."
//! * **One-shot** connections close after their single transfer;
//!   **persistent** connections recur automatically every `period`-th
//!   `data_ready` call (the CUMULVS channel model).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use mxn_dad::{AccessMode, Dad};
use mxn_runtime::{Comm, InterComm, MsgSize, ReconfigReport, RuntimeError, ShrinkReport, Src};
use mxn_schedule::{Redist, RegionSchedule, Role, ScheduleCache, TransferBuffers};
use mxn_trace::EventId;

use crate::elastic::redistribute_elastic;
use crate::error::{MxnError, Result};
use crate::field::FieldRegistry;

/// Rewrites a runtime-level failure detection (`PeerDead`) into the
/// coupling-level [`MxnError::PeerFailed`], preserving the rank the failing
/// operation itself reported and the tag it ran under — not whichever dead
/// rank a liveness scan happens to find first.
fn map_dead(tag: i32, e: MxnError) -> MxnError {
    match e {
        MxnError::Runtime(RuntimeError::PeerDead { rank }) => {
            MxnError::PeerFailed { rank, tag: Some(tag) }
        }
        other => other,
    }
}

/// Base of the tag space used by M×N data transfers.
const CONN_TAG_BASE: i32 = 1 << 20;
/// Tag carrying connection requests.
const REQ_TAG: i32 = CONN_TAG_BASE - 2;
/// Tag carrying connection acknowledgements.
const ACK_TAG: i32 = CONN_TAG_BASE - 1;
/// Tag carrying connection state to ranks joining an elastic expand.
const CONN_JOIN_TAG: i32 = CONN_TAG_BASE - 3;

/// The RMA window id an elastic rebind runs under. Salted with the
/// pre-bump epoch (so back-to-back reconfigurations of one connection
/// never alias) and the side bit (so the two programs' concurrent
/// redistribution windows over the same world stay disjoint).
fn elastic_win_id(tag: i32, epoch: u64, side: usize) -> u32 {
    (((tag as u32) ^ (epoch as u32).wrapping_add(1)) & 0x7ff) | ((side as u32) << 11)
}

/// Everything a joining rank needs to reconstruct its side of a live
/// connection: sent by the sponsor (old local rank 0) over the world
/// communicator *after* the membership expand commits, so an aborted
/// attempt leaks no connection state.
struct ConnState {
    field: String,
    /// The joining side's direction (same side as the sponsor).
    direction: Direction,
    kind: ConnectionKind,
    transactional: bool,
    tag: i32,
    /// The sponsor's epoch *before* the bump; the joiner bumps identically.
    epoch: u64,
    calls: u64,
    transfers: u64,
    /// Pre-expand descriptor of the joining side.
    my_dad: Dad,
    /// Pre-expand descriptor of the remote side.
    peer_dad: Dad,
}

impl MsgSize for ConnState {
    fn msg_size(&self) -> usize {
        self.field.len()
            + 1
            + self.kind.msg_size()
            + 1
            + 4
            + 3 * size_of::<u64>()
            + self.my_dad.descriptor_bytes()
            + self.peer_dad.descriptor_bytes()
    }
}

/// Re-derives one side's descriptor for a changed membership: a pure
/// append grows it ([`Dad::expand`]), a subset re-decomposes over the
/// keepers ([`Dad::shrink`]), an unchanged group keeps it as-is.
fn resize_dad(dad: &Dad, old_group: &[usize], new_group: &[usize]) -> Result<Dad> {
    use std::cmp::Ordering;
    match new_group.len().cmp(&old_group.len()) {
        Ordering::Equal => Ok(dad.clone()),
        Ordering::Greater => {
            dad.expand(new_group.len()).map_err(|detail| MxnError::Handshake { detail })
        }
        Ordering::Less => {
            let keep = new_group
                .iter()
                .map(|w| {
                    old_group.iter().position(|x| x == w).ok_or_else(|| MxnError::Handshake {
                        detail: format!("kept rank {w} was not in the pre-contract group"),
                    })
                })
                .collect::<Result<Vec<usize>>>()?;
            dad.shrink(&keep).map_err(|detail| MxnError::Handshake { detail })
        }
    }
}

/// One-shot or persistent periodic coupling (paper §2.3, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionKind {
    /// Transfer exactly once, then close.
    OneShot,
    /// Transfer automatically on every `period`-th `data_ready` call.
    Persistent {
        /// Steps between transfers (≥ 1).
        period: u32,
    },
}

impl MsgSize for ConnectionKind {
    fn msg_size(&self) -> usize {
        5
    }
}

/// Which way data flows through this side of the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// This side is the source (sends on `data_ready`).
    Export,
    /// This side is the destination (receives on `data_ready`).
    Import,
}

impl Direction {
    /// The peer side's direction.
    pub(crate) fn opposite(&self) -> Direction {
        match self {
            Direction::Export => Direction::Import,
            Direction::Import => Direction::Export,
        }
    }
}

impl MsgSize for Direction {
    fn msg_size(&self) -> usize {
        1
    }
}

/// Connection request (initiator rank 0 → every acceptor rank).
pub(crate) struct ConnReq {
    /// The initiating program's connection id.
    pub initiator_id: u32,
    /// Field name *on the accepting side*.
    pub field: String,
    /// Transfer cadence.
    pub kind: ConnectionKind,
    /// The initiator's direction (acceptor takes the opposite).
    pub initiator_direction: Direction,
    /// The initiator's descriptor of the shared array.
    pub dad: Dad,
}

impl MsgSize for ConnReq {
    fn msg_size(&self) -> usize {
        4 + self.field.len() + self.kind.msg_size() + 1 + self.dad.descriptor_bytes()
    }
}

/// Connection acknowledgement (acceptor rank 0 → every initiator rank).
/// Carries either the acceptor's descriptor or a rejection, so a failed
/// validation on the accepting side surfaces as an error at the initiator
/// instead of a hang.
pub(crate) struct ConnAck {
    /// The accepting program's connection id.
    pub acceptor_id: u32,
    /// The acceptor's descriptor, or why it refused.
    pub body: std::result::Result<Dad, String>,
}

impl MsgSize for ConnAck {
    fn msg_size(&self) -> usize {
        4 + match &self.body {
            Ok(dad) => dad.descriptor_bytes(),
            Err(e) => e.len(),
        }
    }
}

/// What a `data_ready` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// A transfer ran; this rank moved `elements` values.
    Transferred {
        /// Elements sent or received by this rank.
        elements: usize,
    },
    /// A persistent connection's period was not due this call.
    Skipped,
    /// The connection has already completed (one-shot) .
    Closed,
}

/// One rank's handle to one side of an established M×N connection.
#[derive(Debug)]
pub struct MxnConnection {
    field: String,
    direction: Direction,
    kind: ConnectionKind,
    /// This side's and the peer side's descriptors: every transfer looks
    /// its schedule up by them, and a heal or reconfiguration re-derives
    /// them for the new membership.
    my_dad: Dad,
    peer_dad: Dad,
    tag: i32,
    /// Recovery epoch: 0 until the first heal, +1 per heal. Transfers from
    /// different epochs never mix — a heal revokes the old intercomm
    /// context, so in-flight messages from before the shrink are dropped.
    epoch: u64,
    /// When set, each due transfer is a transaction: data is staged, a
    /// collective commit vote runs over both sides, and the field is only
    /// updated (and the sequence number advanced) on a unanimous yes.
    transactional: bool,
    calls: u64,
    transfers: u64,
    closed: bool,
}

fn conn_tag(ic: &InterComm, my_id: u32, peer_id: u32) -> i32 {
    // Ids wrap modulo 2^12: with 16M combined values this only aliases a
    // connection created 4096 handshakes earlier on the same side, which
    // is necessarily closed (handshakes and transfers are ordered per
    // intercomm), so FIFO matching keeps reused tags unambiguous.
    let (my_id, peer_id) = (my_id % (1 << 12), peer_id % (1 << 12));
    let (id0, id1) = if ic.side() == 0 { (my_id, peer_id) } else { (peer_id, my_id) };
    CONN_TAG_BASE + ((id0 as i32) << 12 | id1 as i32)
}

impl MxnConnection {
    /// Initiates a connection for `my_field`, asking the remote side to
    /// couple its field named `peer_field`. Collective over the local
    /// program; the remote program must call [`MxnConnection::accept`].
    ///
    /// `my_id` must be a program-locally consistent counter value (every
    /// local rank passes the same id for the same connection).
    pub fn initiate(
        ic: &InterComm,
        registry: &FieldRegistry,
        my_id: u32,
        my_field: &str,
        peer_field: &str,
        direction: Direction,
        kind: ConnectionKind,
    ) -> Result<MxnConnection> {
        let entry = match direction {
            Direction::Export => registry.check_exportable(my_field)?,
            Direction::Import => registry.check_importable(my_field)?,
        };
        if let ConnectionKind::Persistent { period } = kind {
            if period == 0 {
                return Err(MxnError::Handshake { detail: "period must be ≥ 1".into() });
            }
        }
        if ic.local_rank() == 0 {
            for r in 0..ic.remote_size() {
                ic.send(
                    r,
                    REQ_TAG,
                    ConnReq {
                        initiator_id: my_id,
                        field: peer_field.to_string(),
                        kind,
                        initiator_direction: direction,
                        dad: entry.dad().clone(),
                    },
                )
                .map_err(|e| map_dead(REQ_TAG, e.into()))?;
            }
        }
        let ack: ConnAck = ic.recv(0, ACK_TAG).map_err(|e| map_dead(ACK_TAG, e.into()))?;
        let peer_dad = match ack.body {
            Ok(dad) => dad,
            Err(reason) => {
                return Err(MxnError::Handshake {
                    detail: format!("peer rejected the connection: {reason}"),
                })
            }
        };
        Self::finish(
            ic,
            my_field,
            direction,
            kind,
            entry.dad().clone(),
            peer_dad,
            my_id,
            ack.acceptor_id,
        )
    }

    /// Accepts the next incoming connection request. Collective over the
    /// local program. `my_id` as in [`MxnConnection::initiate`].
    pub fn accept(ic: &InterComm, registry: &FieldRegistry, my_id: u32) -> Result<MxnConnection> {
        let req: ConnReq = ic.recv(0, REQ_TAG).map_err(|e| map_dead(REQ_TAG, e.into()))?;
        let direction = req.initiator_direction.opposite();
        let entry = match direction {
            Direction::Export => registry.check_exportable(&req.field),
            Direction::Import => registry.check_importable(&req.field),
        };
        let entry = match entry {
            Ok(e) => e,
            Err(err) => {
                // NACK every initiator rank so nobody hangs, then fail.
                if ic.local_rank() == 0 {
                    for r in 0..ic.remote_size() {
                        ic.send(
                            r,
                            ACK_TAG,
                            ConnAck { acceptor_id: my_id, body: Err(err.to_string()) },
                        )?;
                    }
                }
                return Err(err);
            }
        };
        if ic.local_rank() == 0 {
            for r in 0..ic.remote_size() {
                ic.send(r, ACK_TAG, ConnAck { acceptor_id: my_id, body: Ok(entry.dad().clone()) })?;
            }
        }
        Self::finish(
            ic,
            &req.field,
            direction,
            req.kind,
            entry.dad().clone(),
            req.dad,
            my_id,
            req.initiator_id,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        ic: &InterComm,
        field: &str,
        direction: Direction,
        kind: ConnectionKind,
        my_dad: Dad,
        peer_dad: Dad,
        my_id: u32,
        peer_id: u32,
    ) -> Result<MxnConnection> {
        if !my_dad.conforms(&peer_dad) {
            return Err(MxnError::ShapeMismatch {
                detail: format!(
                    "local extents {:?} vs remote extents {:?}",
                    my_dad.extents().dims(),
                    peer_dad.extents().dims()
                ),
            });
        }
        Ok(MxnConnection {
            field: field.to_string(),
            direction,
            kind,
            my_dad,
            peer_dad,
            tag: conn_tag(ic, my_id, peer_id),
            epoch: 0,
            transactional: false,
            calls: 0,
            transfers: 0,
            closed: false,
        })
    }

    /// This side's direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// `(data_ready calls, transfers executed)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.calls, self.transfers)
    }

    /// Whether the connection has completed (one-shot already fired).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Current recovery epoch (0 = never healed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Switches transactional transfers on or off. Both sides of the
    /// connection must agree (the commit vote is collective); the default
    /// is off, which keeps the legacy non-voting fast path.
    pub fn set_transactional(&mut self, on: bool) {
        self.transactional = on;
    }

    /// Declares this rank's local data consistent and "ready": runs this
    /// rank's independent pairwise sends or receives if a transfer is due.
    /// No global synchronization happens — pairs complete independently.
    pub fn data_ready(
        &mut self,
        ic: &InterComm,
        registry: &FieldRegistry,
    ) -> Result<TransferOutcome> {
        self.due_transfer(ic, registry, None)
    }

    /// This side's redistribution — from this side's descriptor to the
    /// peer's on export, the other way on import — on `cache` at the
    /// connection's epoch.
    fn redist<'a>(&'a self, cache: &'a ScheduleCache) -> Redist<'a> {
        let (src, dst) = match self.direction {
            Direction::Export => (&self.my_dad, &self.peer_dad),
            Direction::Import => (&self.peer_dad, &self.my_dad),
        };
        Redist::between(src, dst).cache(cache).epoch(self.epoch)
    }

    /// This rank's receive schedule, for the import paths that match
    /// messages pair by pair.
    fn recv_schedule(&self, ic: &InterComm, cache: &ScheduleCache) -> Arc<RegionSchedule> {
        let (src, dst, rank) = (&self.peer_dad, &self.my_dad, ic.local_rank());
        cache.get_or_build_for_epoch(src, dst, rank, Role::Receiver, self.epoch)
    }

    /// The body both `data_ready` forms share: cadence bookkeeping, the
    /// transfer itself (on the registry cache, or on the one `budgeted`
    /// names along a route planned for its byte budget), in place in the
    /// field, and the collective-failure check.
    fn due_transfer(
        &mut self,
        ic: &InterComm,
        registry: &FieldRegistry,
        budgeted: Option<(&ScheduleCache, u64)>,
    ) -> Result<TransferOutcome> {
        if self.closed {
            return Ok(TransferOutcome::Closed);
        }
        self.calls += 1;
        let due = match self.kind {
            ConnectionKind::OneShot => self.transfers == 0,
            ConnectionKind::Persistent { period } => (self.calls - 1).is_multiple_of(period as u64),
        };
        if !due {
            return Ok(TransferOutcome::Skipped);
        }
        if self.transactional {
            return self.transactional_transfer(ic, registry);
        }
        let entry = registry.get(&self.field)?;
        let redist = match budgeted {
            Some((cache, budget)) => self.redist(cache).budget(budget),
            None => self.redist(registry.cache()),
        };
        let moved = match self.direction {
            Direction::Export => redist.send(ic, &entry.data().read(), self.tag),
            Direction::Import => redist.recv_into(ic, &mut entry.data().write(), self.tag),
        };
        let elements = moved.map_err(|e| map_dead(self.tag, e.into()))?;
        // Consistent collective failure: even when this rank's own pairwise
        // schedule completed, a death anywhere in the coupling voids the
        // transfer, so every surviving rank reports the same outcome
        // instead of some ranks silently succeeding on partial data.
        if let Some(rank) = ic.any_dead() {
            return Err(MxnError::PeerFailed { rank, tag: None });
        }
        self.transfers += 1;
        if self.kind == ConnectionKind::OneShot {
            self.closed = true;
        }
        Ok(TransferOutcome::Transferred { elements })
    }

    /// One due transfer as a transaction. The import side *stages* each
    /// pairwise message instead of unpacking it; then both sides run a
    /// collective commit vote ([`InterComm::agree_all`]) on the reliable
    /// control channel. The decision is a pure function of the agreed
    /// value, so every survivor commits or rolls back identically — a
    /// transfer is never half-committed. On rollback the period slot is
    /// given back (`calls` is undone), so after [`MxnConnection::heal`]
    /// the next `data_ready` retries the same sequence number.
    fn transactional_transfer(
        &mut self,
        ic: &InterComm,
        registry: &FieldRegistry,
    ) -> Result<TransferOutcome> {
        let seq = self.transfers + 1;
        let (entry, cache) = (registry.get(&self.field)?, registry.cache());
        let mut staged: Vec<Vec<f64>> = Vec::new();
        let mut elements = 0usize;
        let mut failure: Option<MxnError> = None;
        let sched = (self.direction == Direction::Import).then(|| self.recv_schedule(ic, cache));
        match &sched {
            None => match self.redist(cache).send(ic, &entry.data().read(), self.tag) {
                Ok(n) => elements = n,
                Err(e) => failure = Some(map_dead(self.tag, e.into())),
            },
            Some(sched) => {
                for pair in sched.pairs() {
                    match ic.recv::<Vec<f64>>(pair.peer, self.tag) {
                        Ok(buf) => {
                            elements += buf.len();
                            staged.push(buf);
                        }
                        Err(e) => {
                            failure = Some(map_dead(self.tag, MxnError::Runtime(e)));
                            break;
                        }
                    }
                }
            }
        }
        let ok = failure.is_none() && ic.any_dead().is_none();
        let commit = ic.agree_all(ok).map_err(|e| map_dead(self.tag, e.into()))?;
        if commit {
            if let Some(sched) = sched {
                let mut data = entry.data().write();
                cache.with_pool(|pool: &mut TransferBuffers<f64>| {
                    // Park this receive set and no more, as a direct
                    // receive does.
                    let landed = staged.iter().map(|b| b.capacity() * size_of::<f64>()).sum();
                    for (i, buf) in staged.into_iter().enumerate() {
                        sched.unpack_pair_from(i, &mut data, &buf);
                        pool.recycle(buf);
                    }
                    pool.trim_to(landed);
                });
            }
            self.transfers += 1;
            mxn_trace::emit_instant(EventId::Commit, [self.epoch, seq, 0, 0]);
            if self.kind == ConnectionKind::OneShot {
                self.closed = true;
            }
            Ok(TransferOutcome::Transferred { elements })
        } else {
            // Staged data is dropped untouched; the field still holds the
            // last committed transfer. Undo the call so the period slot is
            // re-offered when the caller retries after healing.
            self.calls -= 1;
            mxn_trace::emit_instant(EventId::Rollback, [self.epoch, seq, 0, 0]);
            Err(failure.unwrap_or(MxnError::TransferAborted { epoch: self.epoch, seq }))
        }
    }

    /// Collectively heals the connection after a rank death: revokes the
    /// failed intercomm context (dropping in-flight transfers from the old
    /// epoch), shrinks the intercomm to the survivors, re-derives both
    /// sides' descriptors over their survivor sets ([`Dad::shrink`]),
    /// rebinds this rank's field storage to the survivor decomposition and
    /// bumps the epoch, so the next transfer builds its schedule afresh.
    /// The registry's cache is cleared. Every surviving rank of both
    /// programs must call this; returns the healed intercomm (use it for
    /// all subsequent `data_ready` calls) and the shrink report.
    ///
    /// The committed transfer count is untouched: a transfer rolled back
    /// just before the heal is retried — same sequence number — by the
    /// next `data_ready` on the healed intercomm. Data owned exclusively
    /// by dead ranks is lost (survivors' rebound storage holds zeros there
    /// until the next transfer overwrites it); see `FieldRegistry::rebind`.
    ///
    /// # Panics
    /// If called on a closed connection.
    pub fn heal(
        &mut self,
        ic: &InterComm,
        registry: &mut FieldRegistry,
    ) -> Result<(InterComm, ShrinkReport)> {
        assert!(!self.closed, "cannot heal a closed connection");
        let mut span = mxn_trace::span(EventId::Heal, [self.epoch + 1, 0, 0, 0]);
        ic.revoke();
        let (healed, report) = ic.shrink_with_report().map_err(|e| map_dead(self.tag, e.into()))?;
        let old_rank = ic.local_rank();
        let new_rank = report
            .local_survivors
            .iter()
            .position(|&r| r == old_rank)
            .expect("a rank that reached heal() is a survivor");
        let my_dad = self
            .my_dad
            .shrink(&report.local_survivors)
            .map_err(|detail| MxnError::Handshake { detail })?;
        let peer_dad = self
            .peer_dad
            .shrink(&report.remote_survivors)
            .map_err(|detail| MxnError::Handshake { detail })?;
        registry.rebind(&self.field, my_dad.clone(), old_rank, new_rank)?;
        registry.cache().clear();
        self.my_dad = my_dad;
        self.peer_dad = peer_dad;
        self.epoch += 1;
        span.set_end([
            self.epoch,
            report.local_survivors.len() as u64,
            report.remote_survivors.len() as u64,
            0,
        ]);
        Ok((healed, report))
    }

    /// Budget-aware `data_ready`: the pairwise transfer runs over a
    /// planned route from `cache` that respects the staging-buffer budget
    /// negotiated at plan time. Both sides of the coupling must use this
    /// path for the same rounds (the routed protocol has its own wire
    /// format). Schedules and routes are keyed on the descriptor
    /// fingerprints *and* the connection epoch: a heal or elastic
    /// reconfiguration bumps the epoch, which forces a fresh schedule,
    /// profile and plan even when a grow→shrink cycle returns to
    /// byte-identical descriptors — without the salt, a
    /// post-reconfiguration transfer silently reuses a route profiled for
    /// the old membership. Clearing `cache` is the caller's call: a heal
    /// clears only the registry's.
    ///
    /// The import lands in place in the registered field, as
    /// [`MxnConnection::data_ready`] does, so no second shard is resident;
    /// a failed budgeted import therefore leaves partial data in the
    /// field, exactly as `data_ready` does. Transactional connections keep
    /// staging: they run the same staged, voted transfer as `data_ready`
    /// (staging holds the whole receive set, so the budget does not apply
    /// to them). Pack and unpack buffers come from `cache`'s pool, trimmed
    /// to [`RedistRoute::idle_allowance`] before and after the transfer.
    ///
    /// [`RedistRoute::idle_allowance`]: mxn_schedule::RedistRoute::idle_allowance
    pub fn data_ready_budgeted(
        &mut self,
        ic: &InterComm,
        registry: &FieldRegistry,
        cache: &ScheduleCache,
        budget_bytes: u64,
    ) -> Result<TransferOutcome> {
        self.due_transfer(ic, registry, Some((cache, budget_bytes)))
    }

    /// Collectively grows the coupling: admits `add_local` world ranks to
    /// this side and `add_remote` to the peer side (the membership-level
    /// [`InterComm::expand`] handshake), then re-decomposes both sides'
    /// descriptors over the larger groups, *spreads* this side's field
    /// onto the newcomers through a one-sided RMA window
    /// ([`redistribute_elastic`]) and bumps the epoch. Every incumbent
    /// rank of both programs must call this; the admitted ranks must be
    /// parked in [`MxnConnection::join`]. Returns the grown intercomm —
    /// use it for all subsequent `data_ready` calls.
    ///
    /// The whole operation is transactional: if the membership vote fails
    /// (a newcomer died mid-handshake), every rank gets
    /// [`RuntimeError::ReconfigAborted`], the old intercomm stays valid,
    /// no connection state is sent, no data moves, and the epoch does not
    /// bump — retry with a healthy spare or keep running at the old size.
    ///
    /// # Panics
    /// If called on a closed connection.
    pub fn expand(
        &mut self,
        ic: &InterComm,
        world: &Comm,
        registry: &mut FieldRegistry,
        add_local: &[usize],
        add_remote: &[usize],
    ) -> Result<(InterComm, ReconfigReport)> {
        assert!(!self.closed, "cannot expand a closed connection");
        let (grown, report) =
            ic.expand(add_local, add_remote).map_err(|e| map_dead(self.tag, e.into()))?;
        if ic.local_rank() == 0 {
            for &w in add_local {
                world
                    .send(
                        w,
                        CONN_JOIN_TAG,
                        ConnState {
                            field: self.field.clone(),
                            direction: self.direction,
                            kind: self.kind,
                            transactional: self.transactional,
                            tag: self.tag,
                            epoch: self.epoch,
                            calls: self.calls,
                            transfers: self.transfers,
                            my_dad: self.my_dad.clone(),
                            peer_dad: self.peer_dad.clone(),
                        },
                    )
                    .map_err(|e| map_dead(CONN_JOIN_TAG, e.into()))?;
            }
        }
        self.elastic_rebind(ic.side(), world, registry, &report)?;
        Ok((grown, report))
    }

    /// Collectively shrinks the coupling *gracefully*: the ranks not in
    /// the keep lists are still alive, so — unlike [`MxnConnection::heal`]
    /// — their data is handed off through the RMA window before they
    /// retire and nothing is lost. Keep lists are this side's / the peer
    /// side's *local* ranks. Leavers get `None`, their connection handle
    /// closes, and their field registration is left untouched (stale).
    ///
    /// # Panics
    /// If called on a closed connection.
    pub fn contract(
        &mut self,
        ic: &InterComm,
        world: &Comm,
        registry: &mut FieldRegistry,
        keep_local_ranks: &[usize],
        keep_remote_ranks: &[usize],
    ) -> Result<(Option<InterComm>, ReconfigReport)> {
        assert!(!self.closed, "cannot contract a closed connection");
        let (shrunk, report) = ic
            .contract(keep_local_ranks, keep_remote_ranks)
            .map_err(|e| map_dead(self.tag, e.into()))?;
        self.elastic_rebind(ic.side(), world, registry, &report)?;
        Ok((shrunk, report))
    }

    /// The data-carrying half of an elastic reconfiguration, shared by
    /// grow, graceful shrink and a spare's join: resize both descriptors,
    /// move this side's field through the window, rebind storage (a
    /// joiner registers it), bump the epoch and clear the registry's
    /// cache. A leaver (not in the new group) serves its shard as a pure
    /// source and comes out closed.
    fn elastic_rebind(
        &mut self,
        side: usize,
        world: &Comm,
        registry: &mut FieldRegistry,
        report: &ReconfigReport,
    ) -> Result<()> {
        let new_my_dad =
            resize_dad(&self.my_dad, &report.old_local_group, &report.new_local_group)?;
        let new_peer_dad =
            resize_dad(&self.peer_dad, &report.old_remote_group, &report.new_remote_group)?;
        let me = world.rank();
        let old_rank = report.old_local_group.iter().position(|&r| r == me);
        let new_rank = report.new_local_group.iter().position(|&r| r == me);
        let win_id = elastic_win_id(self.tag, self.epoch, side);
        // A joining rank holds no shard yet, and has no field registered.
        let old = old_rank.map(|r| registry.get(&self.field).map(|e| (r, e.data().clone())));
        let old = old.transpose()?;
        let fresh = {
            let guard = old.as_ref().map(|(r, data)| (*r, data.read()));
            redistribute_elastic(
                world,
                win_id,
                &self.my_dad,
                &new_my_dad,
                &report.old_local_group,
                &report.new_local_group,
                guard.as_ref().map(|(r, local)| (*r, &**local)),
                new_rank,
            )?
        };
        match (new_rank, fresh) {
            (Some(nr), Some(arr)) if old.is_some() => {
                registry.rebind_elastic(&self.field, new_my_dad.clone(), nr, arr)?;
            }
            (Some(_), Some(arr)) => {
                let data = Arc::new(RwLock::new(arr));
                registry.register(&self.field, new_my_dad.clone(), AccessMode::ReadWrite, data)?;
            }
            _ => self.closed = true,
        }
        registry.cache().clear();
        self.my_dad = new_my_dad;
        self.peer_dad = new_peer_dad;
        self.epoch += 1;
        Ok(())
    }

    /// A spare rank's entry into a live coupling. Blocks in
    /// [`InterComm::await_join_with_report`] until some connection's
    /// [`MxnConnection::expand`] admits this rank, receives the sponsor's
    /// connection state, takes part in the data redistribution (receiving
    /// its shard of the field), and returns a fully formed connection
    /// handle, intercomm, and field registry — from here on the newcomer
    /// is indistinguishable from an incumbent. The field is registered
    /// read-write so it can serve either direction.
    pub fn join(
        world: &Comm,
        timeout: Duration,
    ) -> Result<(MxnConnection, InterComm, FieldRegistry)> {
        let (ic, report) = InterComm::await_join_with_report(world, timeout)?;
        let st: ConnState = world
            .recv_timeout(Src::Any, CONN_JOIN_TAG, timeout)
            .map_err(|e| map_dead(CONN_JOIN_TAG, e.into()))?;
        let mut conn = MxnConnection {
            field: st.field,
            direction: st.direction,
            kind: st.kind,
            my_dad: st.my_dad,
            peer_dad: st.peer_dad,
            tag: st.tag,
            epoch: st.epoch,
            transactional: st.transactional,
            calls: st.calls,
            transfers: st.transfers,
            closed: false,
        };
        let mut registry = FieldRegistry::new(ic.local_rank());
        conn.elastic_rebind(ic.side(), world, &mut registry, &report)?;
        Ok((conn, ic, registry))
    }

    /// CUMULVS-style *loose* synchronization for import connections:
    /// consumes every complete transfer already queued — without blocking
    /// — leaving the field holding the **newest** available data. Returns
    /// how many transfers were consumed (0 when nothing new arrived).
    ///
    /// This is the "variety of synchronization options" of §4.1 beyond
    /// tight periodic coupling: a visualization-style consumer polls at its
    /// own rate while the producer free-runs.
    ///
    /// # Panics
    /// If called on an export-side or closed connection.
    pub fn poll_latest(&mut self, ic: &InterComm, registry: &FieldRegistry) -> Result<u64> {
        assert_eq!(self.direction, Direction::Import, "poll_latest is import-side");
        assert!(!self.closed, "connection is closed");
        let entry = registry.get(&self.field)?;
        let sched = self.recv_schedule(ic, registry.cache());
        let mut rounds = 0;
        loop {
            // A transfer is consumable only when *every* partner's message
            // for the next round is present (messages per pair are FIFO,
            // so presence of one per partner = one complete round).
            let ready = sched.pairs().iter().all(|p| ic.iprobe(p.peer, self.tag).is_some());
            if !ready || sched.num_messages() == 0 {
                return Ok(rounds);
            }
            self.redist(registry.cache())
                .recv_into(ic, &mut entry.data().write(), self.tag)
                .map_err(|e| map_dead(self.tag, e.into()))?;
            self.transfers += 1;
            rounds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::{AccessMode, Extents, LocalArray};
    use mxn_runtime::Universe;
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn src_dad() -> Dad {
        Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap()
    }

    fn dst_dad() -> Dad {
        Dad::block(Extents::new([6, 6]), &[1, 3]).unwrap()
    }

    fn seeded(dad: &Dad, rank: usize, offset: f64) -> crate::field::FieldData {
        Arc::new(RwLock::new(LocalArray::from_fn(dad, rank, |idx| {
            (idx[0] * 6 + idx[1]) as f64 + offset
        })))
    }

    #[test]
    fn one_shot_source_initiated() {
        Universe::run(&[2, 3], |_, ctx| {
            let rank = ctx.comm.rank();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut reg = FieldRegistry::new(rank);
                reg.register("rho", src_dad(), AccessMode::Read, seeded(&src_dad(), rank, 0.0))
                    .unwrap();
                let mut conn = MxnConnection::initiate(
                    ic,
                    &reg,
                    0,
                    "rho",
                    "rho_in",
                    Direction::Export,
                    ConnectionKind::OneShot,
                )
                .unwrap();
                assert_eq!(
                    conn.data_ready(ic, &reg).unwrap(),
                    TransferOutcome::Transferred { elements: 18 }
                );
                assert!(conn.is_closed());
                assert_eq!(conn.data_ready(ic, &reg).unwrap(), TransferOutcome::Closed);
            } else {
                let ic = ctx.intercomm(0);
                let mut reg = FieldRegistry::new(rank);
                let data = reg.register_allocated("rho_in", dst_dad(), AccessMode::Write).unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                assert_eq!(conn.direction(), Direction::Import);
                conn.data_ready(ic, &reg).unwrap();
                for (idx, &v) in data.read().iter() {
                    assert_eq!(v, (idx[0] * 6 + idx[1]) as f64);
                }
            }
        });
    }

    #[test]
    fn destination_initiated_pull() {
        // The destination side initiates ("M×N connections can be initiated
        // by either the source or destination components").
        Universe::run(&[2, 2], |_, ctx| {
            let rank = ctx.comm.rank();
            if ctx.program == 1 {
                let ic = ctx.intercomm(0);
                let mut reg = FieldRegistry::new(rank);
                let data = reg.register_allocated("mine", dst_dad0(), AccessMode::Write).unwrap();
                let mut conn = MxnConnection::initiate(
                    ic,
                    &reg,
                    0,
                    "mine",
                    "theirs",
                    Direction::Import,
                    ConnectionKind::OneShot,
                )
                .unwrap();
                conn.data_ready(ic, &reg).unwrap();
                for (idx, &v) in data.read().iter() {
                    assert_eq!(v, (idx[0] * 6 + idx[1]) as f64 + 5.0);
                }
            } else {
                let ic = ctx.intercomm(1);
                let mut reg = FieldRegistry::new(rank);
                reg.register(
                    "theirs",
                    src_dad(),
                    AccessMode::ReadWrite,
                    seeded(&src_dad(), rank, 5.0),
                )
                .unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                assert_eq!(conn.direction(), Direction::Export);
                conn.data_ready(ic, &reg).unwrap();
            }
        });
        fn dst_dad0() -> Dad {
            Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap()
        }
    }

    #[test]
    fn persistent_period_two() {
        Universe::run(&[1, 1], |_, ctx| {
            let kind = ConnectionKind::Persistent { period: 2 };
            let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut reg = FieldRegistry::new(0);
                let data: crate::field::FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&dad, 0, |_| 0.0)));
                reg.register("f", dad.clone(), AccessMode::Read, data.clone()).unwrap();
                let mut conn =
                    MxnConnection::initiate(ic, &reg, 0, "f", "f", Direction::Export, kind)
                        .unwrap();
                for step in 0..6u64 {
                    // Update source data each step.
                    {
                        let mut d = data.write();
                        for i in 0..4 {
                            *d.get_mut(&[i]).unwrap() = step as f64;
                        }
                    }
                    let out = conn.data_ready(ic, &reg).unwrap();
                    if step % 2 == 0 {
                        assert!(matches!(out, TransferOutcome::Transferred { elements: 4 }));
                    } else {
                        assert_eq!(out, TransferOutcome::Skipped);
                    }
                }
                assert_eq!(conn.stats(), (6, 3));
            } else {
                let ic = ctx.intercomm(0);
                let mut reg = FieldRegistry::new(0);
                let data = reg.register_allocated("f", dad, AccessMode::Write).unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                let mut received = Vec::new();
                for _ in 0..6 {
                    if let TransferOutcome::Transferred { .. } = conn.data_ready(ic, &reg).unwrap()
                    {
                        received.push(*data.read().get(&[0]).unwrap());
                    }
                }
                // Transfers happened at steps 0, 2, 4 of the source.
                assert_eq!(received, vec![0.0, 2.0, 4.0]);
            }
        });
    }

    #[test]
    fn access_mode_rejects_wrong_direction() {
        Universe::run(&[1, 1], |_, ctx| {
            let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
            let mut reg = FieldRegistry::new(0);
            reg.register_allocated("w", dad, AccessMode::Write).unwrap();
            if ctx.program == 0 {
                let r = MxnConnection::initiate(
                    ctx.intercomm(1),
                    &reg,
                    0,
                    "w",
                    "w",
                    Direction::Export,
                    ConnectionKind::OneShot,
                );
                assert!(matches!(r, Err(MxnError::AccessDenied { .. })));
            }
        });
    }

    #[test]
    fn shape_mismatch_detected_at_handshake() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
                let mut reg = FieldRegistry::new(0);
                reg.register_allocated("f", dad, AccessMode::Read).unwrap();
                let r = MxnConnection::initiate(
                    ctx.intercomm(1),
                    &reg,
                    0,
                    "f",
                    "f",
                    Direction::Export,
                    ConnectionKind::OneShot,
                );
                assert!(matches!(r, Err(MxnError::ShapeMismatch { .. })));
            } else {
                let dad = Dad::block(Extents::new([5]), &[1]).unwrap();
                let mut reg = FieldRegistry::new(0);
                reg.register_allocated("f", dad, AccessMode::Write).unwrap();
                let r = MxnConnection::accept(ctx.intercomm(0), &reg, 0);
                assert!(matches!(r, Err(MxnError::ShapeMismatch { .. })));
            }
        });
    }

    #[test]
    fn two_connections_do_not_cross_talk() {
        // Two couplings in opposite directions between the same programs.
        Universe::run(&[2, 2], |_, ctx| {
            let rank = ctx.comm.rank();
            let a = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
            let b = Dad::block(Extents::new([4, 4]), &[1, 2]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut reg = FieldRegistry::new(rank);
                reg.register("out", a.clone(), AccessMode::Read, seeded2(&a, rank, 100.0)).unwrap();
                let din = reg.register_allocated("in", a.clone(), AccessMode::Write).unwrap();
                let mut c1 = MxnConnection::initiate(
                    ic,
                    &reg,
                    0,
                    "out",
                    "in",
                    Direction::Export,
                    ConnectionKind::OneShot,
                )
                .unwrap();
                let mut c2 = MxnConnection::accept(ic, &reg, 1).unwrap();
                c1.data_ready(ic, &reg).unwrap();
                c2.data_ready(ic, &reg).unwrap();
                for (idx, &v) in din.read().iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as f64 + 200.0);
                }
            } else {
                let ic = ctx.intercomm(0);
                let mut reg = FieldRegistry::new(rank);
                let din = reg.register_allocated("in", b.clone(), AccessMode::Write).unwrap();
                reg.register("out", b.clone(), AccessMode::Read, seeded2(&b, rank, 200.0)).unwrap();
                let mut c1 = MxnConnection::accept(ic, &reg, 0).unwrap();
                let mut c2 = MxnConnection::initiate(
                    ic,
                    &reg,
                    1,
                    "out",
                    "in",
                    Direction::Export,
                    ConnectionKind::OneShot,
                )
                .unwrap();
                c1.data_ready(ic, &reg).unwrap();
                c2.data_ready(ic, &reg).unwrap();
                for (idx, &v) in din.read().iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as f64 + 100.0);
                }
            }
        });
        fn seeded2(dad: &Dad, rank: usize, off: f64) -> crate::field::FieldData {
            Arc::new(RwLock::new(LocalArray::from_fn(dad, rank, |idx| {
                (idx[0] * 4 + idx[1]) as f64 + off
            })))
        }
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use crate::field::FieldRegistry;
    use mxn_dad::{AccessMode, Extents, LocalArray};
    use mxn_runtime::Universe;
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn src_dad() -> Dad {
        Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap()
    }

    fn dst_dad() -> Dad {
        Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap()
    }

    /// `(idx, step)`-coded value so each transfer's payload is unique.
    fn coded(idx: &[usize], step: f64) -> f64 {
        (idx[0] * 6 + idx[1]) as f64 + step * 100.0
    }

    fn refill(data: &crate::field::FieldData, step: f64) {
        let mut d = data.write();
        let idxs: Vec<Vec<usize>> = d.iter().map(|(i, _)| i).collect();
        for idx in idxs {
            *d.get_mut(&idx).unwrap() = coded(&idx, step);
        }
    }

    /// A transactional one-shot behaves like the legacy path when nothing
    /// fails: data lands, the connection closes, the commit advances seq.
    #[test]
    fn transactional_one_shot_commits_and_closes() {
        Universe::run(&[2, 3], |_, ctx| {
            let rank = ctx.comm.rank();
            let mut reg = FieldRegistry::new(rank);
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let data: crate::field::FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&src_dad(), rank, |idx| {
                        coded(idx, 1.0)
                    })));
                reg.register("f", src_dad(), AccessMode::Read, data).unwrap();
                let mut conn = MxnConnection::initiate(
                    ic,
                    &reg,
                    0,
                    "f",
                    "f",
                    Direction::Export,
                    ConnectionKind::OneShot,
                )
                .unwrap();
                conn.set_transactional(true);
                assert!(matches!(
                    conn.data_ready(ic, &reg).unwrap(),
                    TransferOutcome::Transferred { elements: 18 }
                ));
                assert!(conn.is_closed());
                assert_eq!(conn.epoch(), 0);
            } else {
                let dst = Dad::block(Extents::new([6, 6]), &[1, 3]).unwrap();
                let ic = ctx.intercomm(0);
                let data = reg.register_allocated("f", dst, AccessMode::Write).unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                conn.set_transactional(true);
                // Landing the staged buffers parks them and drops what the
                // pool held before, as a direct receive does.
                let stale = Vec::with_capacity(1000);
                reg.cache().with_pool(|p: &mut TransferBuffers<f64>| p.recycle(stale));
                conn.data_ready(ic, &reg).unwrap();
                for (idx, &v) in data.read().iter() {
                    assert_eq!(v, coded(&idx, 1.0));
                }
                let parked = reg.cache().with_pool(|p: &mut TransferBuffers<f64>| p.idle_bytes());
                assert!(parked < 1000 * size_of::<f64>(), "{parked} B parked");
            }
        });
    }

    /// The full self-healing cycle: a committed step, an importer death,
    /// a collective rollback (committed data untouched on every rank), a
    /// heal (shrink + survivor descriptors + rebound storage + rebuilt
    /// schedule), and a retried transfer of the *same* sequence number
    /// that completes over the survivors.
    #[test]
    fn transactional_rollback_then_heal_completes() {
        Universe::run(&[2, 2], |p, ctx| {
            let rank = ctx.comm.rank();
            let mut reg = FieldRegistry::new(rank);
            let kind = ConnectionKind::Persistent { period: 1 };
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let data: crate::field::FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&src_dad(), rank, |idx| {
                        coded(idx, 1.0)
                    })));
                reg.register("f", src_dad(), AccessMode::Read, data.clone()).unwrap();
                let mut conn =
                    MxnConnection::initiate(ic, &reg, 0, "f", "f", Direction::Export, kind)
                        .unwrap();
                conn.set_transactional(true);
                // Step 1 commits on every rank.
                conn.data_ready(ic, &reg).unwrap();
                p.world().barrier().unwrap();
                // World rank 3 (importer 1) kills itself after the barrier.
                while !p.is_dead(3) {
                    std::thread::yield_now();
                }
                // Step 2: the attempt must roll back collectively.
                refill(&data, 2.0);
                let err = conn.data_ready(ic, &reg).unwrap_err();
                assert!(
                    matches!(err, MxnError::PeerFailed { .. } | MxnError::TransferAborted { .. }),
                    "unexpected rollback error: {err}"
                );
                assert_eq!(conn.stats().1, 1, "seq 1 stays the last committed transfer");
                // Heal: shrink, survivor descriptors, rebuilt schedule.
                let (healed, report) = conn.heal(ic, &mut reg).unwrap();
                assert_eq!(report.local_survivors, vec![0, 1]);
                assert_eq!(report.remote_survivors, vec![0]);
                assert_eq!(conn.epoch(), 1);
                // Retry the same sequence over the healed intercomm.
                conn.data_ready(&healed, &reg).unwrap();
                assert_eq!(conn.stats().1, 2);
            } else if rank == 1 {
                // The importer that dies: participates in the committed
                // step, then drops dead.
                let ic = ctx.intercomm(0);
                let _data = reg.register_allocated("f", dst_dad(), AccessMode::Write).unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                conn.set_transactional(true);
                conn.data_ready(ic, &reg).unwrap();
                p.world().barrier().unwrap();
                p.kill_rank(p.rank());
            } else {
                // The surviving importer.
                let ic = ctx.intercomm(0);
                let data = reg.register_allocated("f", dst_dad(), AccessMode::Write).unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                conn.set_transactional(true);
                conn.data_ready(ic, &reg).unwrap();
                for (idx, &v) in data.read().iter() {
                    assert_eq!(v, coded(&idx, 1.0));
                }
                p.world().barrier().unwrap();
                while !p.is_dead(3) {
                    std::thread::yield_now();
                }
                let err = conn.data_ready(ic, &reg).unwrap_err();
                assert!(matches!(
                    err,
                    MxnError::PeerFailed { .. } | MxnError::TransferAborted { .. }
                ));
                // The rollback never touched the committed step-1 data.
                for (idx, &v) in data.read().iter() {
                    assert_eq!(v, coded(&idx, 1.0), "rollback preserved committed data");
                }
                let (healed, report) = conn.heal(ic, &mut reg).unwrap();
                assert_eq!(report.local_survivors, vec![0]);
                assert_eq!(report.remote_survivors, vec![0, 1]);
                assert_eq!(conn.epoch(), 1);
                conn.data_ready(&healed, &reg).unwrap();
                // The survivor now owns the whole array, filled with the
                // retried step-2 payload — nothing half-committed.
                let d = data.read();
                assert_eq!(d.len(), 36, "rebound storage covers the survivor share");
                for (idx, &v) in d.iter() {
                    assert_eq!(v, coded(&idx, 2.0));
                }
            }
        });
    }
}

#[cfg(test)]
mod elastic_tests {
    use super::*;
    use crate::field::{FieldData, FieldRegistry};
    use mxn_dad::{AccessMode, Extents, LocalArray};
    use mxn_runtime::{FaultConfig, RunOpts, World};
    use parking_lot::RwLock;
    use std::sync::Arc;
    use std::time::Duration;

    fn coded(idx: &[usize], step: f64) -> f64 {
        (idx[0] * 6 + idx[1]) as f64 + step * 100.0
    }

    /// Rewrites every locally held element with step-coded values, under
    /// whatever decomposition the storage currently has.
    fn refill(data: &FieldData, step: f64) {
        let mut d = data.write();
        let idxs: Vec<Vec<usize>> = d.iter().map(|(i, _)| i).collect();
        for idx in idxs {
            *d.get_mut(&idx).unwrap() = coded(&idx, step);
        }
    }

    fn check(data: &FieldData, step: f64) {
        let d = data.read();
        for (idx, &v) in d.iter() {
            assert_eq!(v, coded(&idx, step), "mismatch at {idx:?} (step {step})");
        }
    }

    /// The full elastic lifecycle on a live 2×2 coupling: an epoch at the
    /// original size, a grow to 3×3 (one spare joining each side, shards
    /// spread through the RMA window), an epoch at the grown size, a
    /// graceful contract back to 2×2 (leavers hand their data off and come
    /// out closed), and a final epoch — every transfer matching the
    /// fault-free oracle on the then-current decomposition.
    #[test]
    fn expand_then_contract_roundtrip_preserves_the_stream() {
        World::run(6, |p| {
            let world = p.world();
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            if p.rank() >= 4 {
                // Spare capacity parks until the coupling grows onto it.
                let (mut conn, ic, reg) =
                    MxnConnection::join(world, Duration::from_secs(10)).unwrap();
                assert_eq!(conn.epoch(), 1);
                let data = reg.get("f").unwrap().data().clone();
                if conn.direction() == Direction::Export {
                    // The received shard carries the last-published step.
                    check(&data, 1.0);
                    refill(&data, 2.0);
                }
                conn.data_ready(&ic, &reg).unwrap();
                if conn.direction() == Direction::Import {
                    check(&data, 2.0);
                }
                // The contract retires this rank: it serves its shard one
                // last time and its handle closes.
                let (gone, _) = conn.contract(&ic, world, &mut { reg }, &[0, 1], &[0, 1]).unwrap();
                assert!(gone.is_none(), "a leaver gets no new intercomm");
                assert!(conn.is_closed());
                return;
            }
            let side = usize::from(p.rank() >= 2);
            let (_prog, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
            let rank = ic.local_rank();
            let mut reg = FieldRegistry::new(rank);
            let src = Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap();
            let dst = Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap();
            let (data, mut conn) = if side == 0 {
                let data: FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&src, rank, |idx| coded(idx, 1.0))));
                reg.register("f", src.clone(), AccessMode::Read, data.clone()).unwrap();
                let conn = MxnConnection::initiate(
                    &ic,
                    &reg,
                    0,
                    "f",
                    "f",
                    Direction::Export,
                    ConnectionKind::Persistent { period: 1 },
                )
                .unwrap();
                (data, conn)
            } else {
                let data = reg.register_allocated("f", dst.clone(), AccessMode::Write).unwrap();
                (data, MxnConnection::accept(&ic, &reg, 0).unwrap())
            };
            // Epoch 0: the original 2×2 coupling.
            conn.data_ready(&ic, &reg).unwrap();
            if side == 1 {
                check(&data, 1.0);
            }
            // Grow: rank 4 joins side 0, rank 5 joins side 1.
            let (add_l, add_r) =
                if side == 0 { (&[4][..], &[5][..]) } else { (&[5][..], &[4][..]) };
            let (grown, report) = conn.expand(&ic, world, &mut reg, add_l, add_r).unwrap();
            assert_eq!(conn.epoch(), 1);
            assert_eq!(report.new_local_group.len(), 3);
            // The rebind spread the current step onto the 3-rank layout.
            check(&data, 1.0);
            assert!(data.read().len() < 36, "no rank holds the whole array after the grow");
            if side == 0 {
                refill(&data, 2.0);
            }
            conn.data_ready(&grown, &reg).unwrap();
            if side == 1 {
                check(&data, 2.0);
            }
            // Graceful contract back to the original 2×2.
            let (shrunk, _) = conn.contract(&grown, world, &mut reg, &[0, 1], &[0, 1]).unwrap();
            let shrunk = shrunk.expect("incumbents survive the contract");
            assert_eq!(conn.epoch(), 2);
            check(&data, 2.0);
            if side == 0 {
                refill(&data, 3.0);
            }
            conn.data_ready(&shrunk, &reg).unwrap();
            if side == 1 {
                check(&data, 3.0);
            }
            assert_eq!(conn.stats(), (3, 3));
        });
    }

    /// Three grow→contract cycles and a heal take one registry per rank
    /// through eight epochs, yet after every transfer the registry caches
    /// one schedule — this rank's one live role — because each
    /// reconfiguration clears what the last epoch built.
    #[test]
    fn reconfigurations_keep_the_registry_cache_bounded() {
        const CYCLES: usize = 3;
        World::run(5, |p| {
            let world = p.world();
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            if p.rank() == 4 {
                // The spare joins the import side once per cycle.
                for cycle in 0..CYCLES {
                    let (mut conn, ic, reg) =
                        MxnConnection::join(world, Duration::from_secs(10)).unwrap();
                    conn.data_ready(&ic, &reg).unwrap();
                    check(reg.get("f").unwrap().data(), (2 * cycle + 1) as f64);
                    assert_eq!(reg.cache().len(), 1);
                    let (gone, _) =
                        conn.contract(&ic, world, &mut { reg }, &[0, 1], &[0, 1]).unwrap();
                    assert!(gone.is_none());
                }
                return;
            }
            let pair = pair.unwrap();
            let side = usize::from(p.rank() >= 2);
            let (_prog, mut ic) = InterComm::create(&pair, side).unwrap();
            let mut reg = FieldRegistry::new(ic.local_rank());
            let e = Extents::new([6, 6]);
            let (data, mut conn) = if side == 0 {
                let data =
                    reg.register_allocated("f", Dad::block(e, &[2, 1]).unwrap(), AccessMode::Read);
                let kind = ConnectionKind::Persistent { period: 1 };
                let conn = MxnConnection::initiate(&ic, &reg, 0, "f", "f", Direction::Export, kind);
                (data.unwrap(), conn.unwrap())
            } else {
                let data =
                    reg.register_allocated("f", Dad::block(e, &[1, 2]).unwrap(), AccessMode::Write);
                (data.unwrap(), MxnConnection::accept(&ic, &reg, 0).unwrap())
            };
            let step = |conn: &mut MxnConnection, ic: &InterComm, reg: &FieldRegistry, s: usize| {
                if side == 0 {
                    refill(&data, s as f64);
                }
                conn.data_ready(ic, reg).unwrap();
                if side == 1 {
                    check(&data, s as f64);
                }
                assert_eq!(reg.cache().len(), 1, "one live role at step {s}");
            };
            step(&mut conn, &ic, &reg, 0);
            for cycle in 0..CYCLES {
                let (add_l, add_r) =
                    if side == 0 { (&[][..], &[4][..]) } else { (&[4][..], &[][..]) };
                let (grown, _) = conn.expand(&ic, world, &mut reg, add_l, add_r).unwrap();
                step(&mut conn, &grown, &reg, 2 * cycle + 1);
                let (shrunk, _) = conn.contract(&grown, world, &mut reg, &[0, 1], &[0, 1]).unwrap();
                ic = shrunk.unwrap();
                step(&mut conn, &ic, &reg, 2 * cycle + 2);
            }
            // Import rank 1 dies; the survivors heal and carry on.
            pair.barrier().unwrap();
            if p.rank() == 3 {
                p.kill_rank(3);
                return;
            }
            while !p.is_dead(3) {
                std::thread::yield_now();
            }
            let (healed, _) = conn.heal(&ic, &mut reg).unwrap();
            step(&mut conn, &healed, &reg, 2 * CYCLES + 1);
            assert_eq!(conn.epoch(), 2 * CYCLES as u64 + 1);
        });
    }

    /// A newcomer dying mid-handshake aborts the whole grow: every
    /// incumbent gets `ReconfigAborted`, the epoch does not bump, and the
    /// *old* coupling keeps transferring — the membership rollback leaves
    /// the connection exactly as it was.
    #[test]
    fn aborted_expand_rolls_the_connection_back() {
        let cfg = FaultConfig::reliable(23);
        let opts = RunOpts { faults: Some(cfg), ..RunOpts::default() };
        World::run_opts(5, opts, |p| {
            let world = p.world();
            // The split is a world collective, so the doomed spare takes
            // part in it (color −1) before dying.
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            if p.rank() == 4 {
                p.kill_rank(4);
                return;
            }
            let pair = pair.unwrap();
            // The kill must be visible before the vote so every incumbent
            // observes the same partial alive set.
            while !p.is_dead(4) {
                std::thread::yield_now();
            }
            let side = usize::from(p.rank() >= 2);
            let (_prog, ic) = InterComm::create(&pair, side).unwrap();
            let rank = ic.local_rank();
            let mut reg = FieldRegistry::new(rank);
            let src = Dad::block(Extents::new([6, 6]), &[2, 1]).unwrap();
            let dst = Dad::block(Extents::new([6, 6]), &[1, 2]).unwrap();
            let (data, mut conn) = if side == 0 {
                let data: FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&src, rank, |idx| coded(idx, 1.0))));
                reg.register("f", src.clone(), AccessMode::Read, data.clone()).unwrap();
                let conn = MxnConnection::initiate(
                    &ic,
                    &reg,
                    0,
                    "f",
                    "f",
                    Direction::Export,
                    ConnectionKind::Persistent { period: 1 },
                )
                .unwrap();
                (data, conn)
            } else {
                let data = reg.register_allocated("f", dst, AccessMode::Write).unwrap();
                (data, MxnConnection::accept(&ic, &reg, 0).unwrap())
            };
            conn.data_ready(&ic, &reg).unwrap();
            let before = conn.epoch();
            let (add_l, add_r) = if side == 0 { (&[4][..], &[][..]) } else { (&[][..], &[4][..]) };
            let err = conn.expand(&ic, world, &mut reg, add_l, add_r).unwrap_err();
            assert!(
                matches!(&err, MxnError::Runtime(re) if re.is_reconfig_aborted()),
                "expected a reconfig abort, got: {err}"
            );
            assert_eq!(conn.epoch(), before, "an aborted grow must not bump the epoch");
            // The old coupling is untouched: the next step still flows.
            if side == 0 {
                refill(&data, 2.0);
            }
            conn.data_ready(&ic, &reg).unwrap();
            if side == 1 {
                check(&data, 2.0);
            }
        });
    }
}

#[cfg(test)]
mod budgeted_epoch_tests {
    use super::*;
    use crate::field::{FieldData, FieldRegistry};
    use mxn_dad::{AccessMode, Extents, LocalArray};
    use mxn_runtime::World;
    use parking_lot::RwLock;
    use std::sync::Arc;
    use std::time::Duration;

    fn coded(idx: &[usize], step: f64) -> f64 {
        (idx[0] * 24 + idx[1]) as f64 + step * 10_000.0
    }

    fn refill(data: &FieldData, step: f64) {
        let mut d = data.write();
        let idxs: Vec<Vec<usize>> = d.iter().map(|(i, _)| i).collect();
        for idx in idxs {
            *d.get_mut(&idx).unwrap() = coded(&idx, step);
        }
    }

    /// The PR 8 follow-on regression: budgeted routes are cached by
    /// descriptor fingerprints, and a grow→shrink cycle returns to
    /// *byte-identical* fingerprints. Without the epoch salt the
    /// post-contract transfer would silently reuse the route profiled
    /// before the cycle; with it, every elastic epoch re-plans. The cache
    /// must hold three routes at the end — epochs 0, 1 and 2 — not two.
    #[test]
    fn budgeted_routes_replan_across_elastic_epochs() {
        const BUDGET: u64 = 2000;
        World::run(5, |p| {
            let world = p.world();
            let color = if p.rank() < 4 { 0 } else { -1 };
            let pair = world.split(color, 0).unwrap();
            let cache = ScheduleCache::new();
            if p.rank() == 4 {
                // Joins the import side for the grown epoch, then retires.
                let (mut conn, ic, reg) =
                    MxnConnection::join(world, Duration::from_secs(10)).unwrap();
                conn.data_ready_budgeted(&ic, &reg, &cache, BUDGET).unwrap();
                let d = reg.get("f").unwrap().data().read().clone();
                for (idx, &v) in d.iter() {
                    assert_eq!(v, coded(&idx, 2.0));
                }
                let (gone, _) = conn.contract(&ic, world, &mut { reg }, &[0, 1], &[0, 1]).unwrap();
                assert!(gone.is_none());
                return;
            }
            let side = usize::from(p.rank() >= 2);
            let (_prog, ic) = InterComm::create(&pair.unwrap(), side).unwrap();
            let rank = ic.local_rank();
            let mut reg = FieldRegistry::new(rank);
            let src = Dad::block(Extents::new([24, 24]), &[2, 1]).unwrap();
            let dst = Dad::block(Extents::new([24, 24]), &[1, 2]).unwrap();
            // Both sides watch the import-side descriptor round-trip.
            let original_fp = dst.fingerprint();
            let (data, mut conn) = if side == 0 {
                let data: FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&src, rank, |idx| coded(idx, 1.0))));
                reg.register("f", src.clone(), AccessMode::Read, data.clone()).unwrap();
                let conn = MxnConnection::initiate(
                    &ic,
                    &reg,
                    0,
                    "f",
                    "f",
                    Direction::Export,
                    ConnectionKind::Persistent { period: 1 },
                )
                .unwrap();
                (data, conn)
            } else {
                let data = reg.register_allocated("f", dst.clone(), AccessMode::Write).unwrap();
                (data, MxnConnection::accept(&ic, &reg, 0).unwrap())
            };
            // Epoch 0 at the original size.
            conn.data_ready_budgeted(&ic, &reg, &cache, BUDGET).unwrap();
            assert_eq!(cache.routes_len(), 1);
            // Grow the import side onto rank 4, transfer at epoch 1.
            let (add_l, add_r) = if side == 0 { (&[][..], &[4][..]) } else { (&[4][..], &[][..]) };
            let (grown, _) = conn.expand(&ic, world, &mut reg, add_l, add_r).unwrap();
            if side == 0 {
                refill(&data, 2.0);
            }
            conn.data_ready_budgeted(&grown, &reg, &cache, BUDGET).unwrap();
            assert_eq!(cache.routes_len(), 2, "the grown layout planned its own route");
            // Contract back: fingerprints return to the pre-grow values.
            let (shrunk, _) = conn.contract(&grown, world, &mut reg, &[0, 1], &[0, 1]).unwrap();
            let shrunk = shrunk.unwrap();
            let peer_fp =
                if side == 0 { conn.peer_dad.fingerprint() } else { conn.my_dad.fingerprint() };
            assert_eq!(peer_fp, original_fp, "the cycle returns to identical descriptors");
            if side == 0 {
                refill(&data, 3.0);
            }
            conn.data_ready_budgeted(&shrunk, &reg, &cache, BUDGET).unwrap();
            assert_eq!(
                cache.routes_len(),
                3,
                "identical fingerprints at a new epoch must re-plan, not reuse the stale route"
            );
            if side == 1 {
                let d = data.read();
                for (idx, &v) in d.iter() {
                    assert_eq!(v, coded(&idx, 3.0), "post-cycle budgeted transfer fits");
                }
            }
        });
    }
}

#[cfg(test)]
mod budgeted_steady_state_tests {
    use super::*;
    use crate::field::FieldRegistry;
    use mxn_dad::{AccessMode, Extents};
    use mxn_runtime::{schedule_stats, Universe};
    use mxn_schedule::{RouteKind, RoutePlanner};

    const ROWS: usize = 64;
    const COLS: usize = 32;

    fn coded(idx: &[usize], step: u64) -> f64 {
        (idx[0] * COLS + idx[1]) as f64 + step as f64 * 10_000.0
    }

    /// The benchmark's budgeted coupling at test size: a 2→2 persistent
    /// connection pair over row bands ⇄ column bands, both directions
    /// under a 1.25×-shard budget (8 chunked rounds). Once warm, a step
    /// allocates no transfer buffer, the import lands in the registered
    /// storage (no second shard), the rank pool stays within the route's
    /// idle allowance, and every value arrives exact.
    #[test]
    fn budgeted_data_ready_is_allocation_free_in_steady_state() {
        Universe::run(&[2, 2], |_, ctx| {
            let extents = Extents::new([ROWS, COLS]);
            let m = Dad::block(extents.clone(), &[2, 1]).unwrap();
            let n = Dad::block(extents, &[1, 2]).unwrap();
            let shard = (ROWS * COLS * size_of::<f64>() / 2) as u64;
            let budget = shard + shard / 4;
            let route = RoutePlanner::default().plan_for(&m, &n, size_of::<f64>(), budget, false);
            assert_eq!((route.kind, route.rounds()), (RouteKind::Chunked, 8));
            let is_m = ctx.program == 0;
            let ic = ctx.intercomm(if is_m { 1 } else { 0 });
            let rank = ctx.comm.rank();
            let mut reg = FieldRegistry::new(rank);
            let dad = if is_m { m } else { n };
            let data = reg.register_allocated("field", dad, AccessMode::ReadWrite).unwrap();
            let kind = ConnectionKind::Persistent { period: 1 };
            let export = |reg: &FieldRegistry, id| {
                MxnConnection::initiate(ic, reg, id, "field", "field", Direction::Export, kind)
            };
            let (mut out, mut inc) = if is_m {
                let out = export(&reg, 0).unwrap();
                (out, MxnConnection::accept(ic, &reg, 1).unwrap())
            } else {
                let inc = MxnConnection::accept(ic, &reg, 0).unwrap();
                (export(&reg, 1).unwrap(), inc)
            };
            let cache = ScheduleCache::new();
            let storage = data.read().patch(0).1.as_ptr();
            let mut allocs = 0;
            for step in 0..10u64 {
                if step == 2 {
                    allocs = schedule_stats().buffer_allocs;
                }
                // M publishes the step; N hands it back one higher.
                let fill = |offset: f64| {
                    let mut d = data.write();
                    let idxs: Vec<Vec<usize>> = d.iter().map(|(i, _)| i).collect();
                    for idx in idxs {
                        *d.get_mut(&idx).unwrap() = coded(&idx, step) + offset;
                    }
                };
                let check = |offset: f64| {
                    for (idx, &v) in data.read().iter() {
                        assert_eq!(v, coded(&idx, step) + offset, "step {step} at {idx:?}");
                    }
                };
                if is_m {
                    fill(0.0);
                    out.data_ready_budgeted(ic, &reg, &cache, budget).unwrap();
                    inc.data_ready_budgeted(ic, &reg, &cache, budget).unwrap();
                    check(1.0);
                } else {
                    inc.data_ready_budgeted(ic, &reg, &cache, budget).unwrap();
                    check(0.0);
                    fill(1.0);
                    out.data_ready_budgeted(ic, &reg, &cache, budget).unwrap();
                }
                assert_eq!(data.read().patch(0).1.as_ptr(), storage, "import landed in place");
                let idle =
                    cache.with_pool(|pool: &mut TransferBuffers<f64>| pool.idle_bytes()) as u64;
                assert!(idle <= route.idle_allowance(), "pool parks {idle} B at step {step}");
            }
            assert_eq!(schedule_stats().buffer_allocs, allocs, "fresh buffers after warm-up");
        });
    }
}

#[cfg(test)]
mod loose_sync_tests {
    use super::*;
    use crate::field::FieldRegistry;
    use mxn_dad::{AccessMode, Dad, Extents, LocalArray};
    use mxn_runtime::Universe;
    use parking_lot::RwLock;
    use std::sync::Arc;

    /// A free-running producer and a lazily polling consumer: the consumer
    /// always ends up with the *newest* data, never blocking.
    #[test]
    fn poll_latest_consumes_backlog_and_keeps_newest() {
        Universe::run(&[1, 1], |_, ctx| {
            let dad = Dad::block(Extents::new([4]), &[1]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut reg = FieldRegistry::new(0);
                let data: crate::field::FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&dad, 0, |_| 0.0)));
                reg.register("f", dad, AccessMode::Read, data.clone()).unwrap();
                let mut conn = MxnConnection::initiate(
                    ic,
                    &reg,
                    0,
                    "f",
                    "f",
                    Direction::Export,
                    ConnectionKind::Persistent { period: 1 },
                )
                .unwrap();
                // Producer free-runs 5 steps before the consumer looks.
                for step in 1..=5u64 {
                    {
                        let mut d = data.write();
                        for i in 0..4 {
                            *d.get_mut(&[i]).unwrap() = step as f64;
                        }
                    }
                    conn.data_ready(ic, &reg).unwrap();
                }
                // Signal "done producing" out of band.
                ic.send(0, 0x7f, ()).unwrap();
            } else {
                let ic = ctx.intercomm(0);
                let mut reg = FieldRegistry::new(0);
                let data = reg.register_allocated("f", dad, AccessMode::Write).unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                // Wait until the producer finished all 5 exports.
                ic.recv::<()>(0, 0x7f).unwrap();
                let consumed = conn.poll_latest(ic, &reg).unwrap();
                assert_eq!(consumed, 5, "whole backlog drained");
                assert_eq!(*data.read().get(&[0]).unwrap(), 5.0, "newest kept");
                // Nothing more queued: poll returns instantly with 0.
                assert_eq!(conn.poll_latest(ic, &reg).unwrap(), 0);
            }
        });
    }

    /// Loose sync across a real M×N shape: partial rounds (some partners
    /// delivered, some not) are not consumed.
    #[test]
    fn poll_latest_waits_for_complete_rounds() {
        Universe::run(&[2, 1], |_, ctx| {
            let src = Dad::block(Extents::new([4]), &[2]).unwrap();
            let dst = Dad::block(Extents::new([4]), &[1]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut reg = FieldRegistry::new(ctx.comm.rank());
                let data: crate::field::FieldData =
                    Arc::new(RwLock::new(LocalArray::from_fn(&src, ctx.comm.rank(), |idx| {
                        idx[0] as f64
                    })));
                reg.register("f", src, AccessMode::Read, data).unwrap();
                let mut conn = MxnConnection::initiate(
                    ic,
                    &reg,
                    0,
                    "f",
                    "f",
                    Direction::Export,
                    ConnectionKind::Persistent { period: 1 },
                )
                .unwrap();
                if ctx.comm.rank() == 0 {
                    // Rank 0 exports immediately…
                    conn.data_ready(ic, &reg).unwrap();
                    ic.send(0, 0x7e, ()).unwrap();
                    // …then waits for the consumer's probe result before
                    // rank 1 is allowed to send (ordering via consumer).
                    ic.recv::<()>(0, 0x7d).unwrap();
                } else {
                    // Rank 1 exports only after the consumer verified the
                    // partial round was not consumable.
                    ic.recv::<()>(0, 0x7d).unwrap();
                    conn.data_ready(ic, &reg).unwrap();
                    ic.send(0, 0x7c, ()).unwrap();
                }
            } else {
                let ic = ctx.intercomm(0);
                let mut reg = FieldRegistry::new(0);
                let data = reg.register_allocated("f", dst, AccessMode::Write).unwrap();
                let mut conn = MxnConnection::accept(ic, &reg, 0).unwrap();
                // Only rank 0's half has arrived: not a complete round.
                ic.recv::<()>(0, 0x7e).unwrap();
                assert_eq!(conn.poll_latest(ic, &reg).unwrap(), 0);
                // Release rank 1 (and rank 0).
                ic.send(0, 0x7d, ()).unwrap();
                ic.send(1, 0x7d, ()).unwrap();
                ic.recv::<()>(1, 0x7c).unwrap();
                // Now the round is complete.
                assert_eq!(conn.poll_latest(ic, &reg).unwrap(), 1);
                assert_eq!(*data.read().get(&[3]).unwrap(), 3.0);
            }
        });
    }
}
