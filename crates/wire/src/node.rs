//! A wire-transport node: one OS process's endpoint in a UDS mesh.
//!
//! Each of the `size` participants binds `dir/rank_<r>.sock` and the mesh
//! is completed by the *higher* rank dialing the lower — every pair gets
//! exactly one bidirectional stream. On top of that sit the robustness
//! layers, bottom to top:
//!
//! * **Framing + CRC** ([`crate::frame`]): damage is detected, reported as
//!   a `WireFrameCorrupt` trace event, surfaced to the blocked receiver as
//!   [`RuntimeError::Corrupt`] when the header was routable, and the
//!   stream resyncs.
//! * **Sequencing + session resume** ([`crate::link`]): data frames carry
//!   per-link sequence numbers; a reconnecting peer announces the highest
//!   one it saw (`Hello`) and the sender replays the missing tail from its
//!   ring, while the receiver's duplicate guard drops any overlap — at
//!   the link layer, disconnects lose nothing the ring still holds.
//! * **Heartbeats** : every link is beaconed; silence past the liveness
//!   deadline is a `HeartbeatMiss` and tears the link down for reconnect.
//! * **Bounded reconnect**: the dialing side retries with deterministic
//!   seeded exponential backoff (the fault plane's RNG via
//!   [`CallPolicy::retry_pause`]); when attempts exhaust — or, on the
//!   passive side, the reconnect window passes without a new `Hello` —
//!   the peer is *reported dead* in the same [`Liveness`] registry the
//!   in-proc runtime uses, every blocked receive wakes with
//!   [`RuntimeError::PeerDead`], and recovery proceeds exactly as for an
//!   in-proc rank death: agree on survivors, shrink, go on.
//!
//! The mailbox behind `recv` *is* `mxn_runtime::mailbox::Mailbox` — the
//! wire transport changes how envelopes arrive, not how they match.
//!
//! A `Vec<f64>` sent with [`WireNode::send`] or [`UdsTransport::deliver`]
//! moves into the link: a large one is written to the socket from its own
//! memory and retained as itself for resends ([`LinkSender::send_values`]).
//! The node's readers land large `Vec<f64>` bodies in vectors from one
//! node-wide [`SpareValues`] list, which acknowledged sends refill, and
//! deliver those vectors as the payload: no codec pass either way.
//!
//! A reader thread never waits on a sender lock: an application thread
//! may hold it while blocked writing to a peer whose reader is stuck the
//! same way. A resend or `Hello` the reader owes the peer is done at once
//! if the lock is free and recorded otherwise; the next holder of the lock
//! — the send path, the fence tick or the monitor — does it.

use std::any::Any;
use std::io::{self, Read};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use mxn_framework::CallPolicy;
use mxn_runtime::envelope::{Envelope, Payload, Src, Tag};
use mxn_runtime::fault::Liveness;
use mxn_runtime::mailbox::{Mailbox, PeerRef};
use mxn_runtime::reconfig::{drive, mask, ControlPlane, Reconfig, Rule};
use mxn_runtime::{splitmix64, JoinOffer, Result, Revocations, RuntimeError, Transport};
use mxn_trace::{emit, emit_instant, EventId, Phase, TraceHandle};

use crate::codec::{decode_value, encode_value, CodecRegistry};
use crate::fault::WireFaults;
use crate::frame::{Arrival, Frame, FrameError, FrameKind, FrameReader, SpareValues};
use crate::link::LinkSender;

use std::os::unix::net::{UnixListener, UnixStream};

/// Context id reserved for the node's own control protocol (survivor
/// agreement and the spare-process join handshake); application traffic
/// must stay below it.
pub const WIRE_CTRL_CONTEXT: u32 = 0xffff_fff0;

/// Join handshake: newcomer → sponsor, "I am rank `payload` and wired in".
/// The join protocol owns the *negative* tag space on the control context;
/// survivor agreement uses tags ≥ 0, so the two planes never collide.
pub const JOIN_REQ_TAG: i32 = -1;
/// Join handshake: sponsor → incumbents and newcomer, a serialized
/// [`JoinOffer`]. The agreement that follows runs at tags
/// `-100 - 2·attempt - round`, salted per attempt so a straggler from an
/// aborted attempt can never satisfy a later one.
pub const JOIN_OFFER_TAG: i32 = -2;
/// Join handshake: sponsor → newcomer after a commit, the state blob.
pub const JOIN_STATE_TAG: i32 = -6;

/// Payload bytes a node delivers from a peer before its next data send to
/// that peer carries an ack (a `ProgressFence` with `fence_seq = 0`), so
/// the peer's resend ring holds only the undelivered tail. Links that
/// carry traffic both ways get their acks on the reverse sends; one-way
/// links are trimmed by periodic fences and bounded by the ring caps.
const ACK_BYTES: u64 = 256 * 1024;

/// The wire's [`ControlPlane`]: `u64` messages between mesh `ranks` on
/// [`WIRE_CTRL_CONTEXT`], round `r` at `tags[r]`. Every instance has tags
/// of its own (per survivor epoch or join attempt), so a late message can
/// never be read by another instance.
struct MeshPlane<'a> {
    node: &'a WireNode,
    ranks: &'a [usize],
    tags: [i32; 2],
}

impl ControlPlane for MeshPlane<'_> {
    fn send(&mut self, to: usize, round: u8, value: u64) -> Result<()> {
        match self.node.send(self.ranks[to], WIRE_CTRL_CONTEXT, self.tags[round as usize], value) {
            Err(RuntimeError::PeerDead { .. }) => Ok(()),
            sent => sent,
        }
    }

    fn recv(&mut self, from: usize, round: u8, timeout: Duration) -> Result<u64> {
        let (src, tag) = (self.ranks[from], self.tags[round as usize]);
        self.node.recv_timeout(src, WIRE_CTRL_CONTEXT, tag, timeout)
    }
}

/// What the node's waits sleep on: notified whenever a peer attaches,
/// dies, is readmitted or evicted, and when the node shuts down.
#[derive(Default)]
struct Signal {
    /// Bumped by every notification.
    epoch: Mutex<u64>,
    changed: Condvar,
}

impl Signal {
    fn notify(&self) {
        *self.epoch.lock() += 1;
        self.changed.notify_all();
    }

    /// Waits until `done` holds (`true`) or `timeout` passes (`false`).
    /// `done` runs without the signal's lock held, so it may take any
    /// other lock.
    fn wait_until(&self, timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let seen = *self.epoch.lock();
            if done() {
                return true;
            }
            let mut epoch = self.epoch.lock();
            // A notification since `seen` may have made `done` true.
            if *epoch == seen && self.changed.wait_until(&mut epoch, deadline).timed_out() {
                drop(epoch);
                return done();
            }
        }
    }
}

/// No replay owed (see `Peer::replay_from`).
const NO_REPLAY: u64 = u64::MAX;

/// Configuration of one wire node.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Directory holding the per-rank socket files.
    pub dir: PathBuf,
    /// This process's global rank.
    pub rank: usize,
    /// Total participants in the mesh.
    pub size: usize,
    /// Interval between heartbeat frames on every live link.
    pub heartbeat: Duration,
    /// Silence beyond this is a heartbeat miss: the link is torn down and
    /// reconnect (or the passive reconnect window) begins.
    pub liveness_deadline: Duration,
    /// Reconnect attempts after the first (total dials = attempts + 1)
    /// before the peer is declared dead.
    pub reconnect_attempts: u32,
    /// Base reconnect backoff; doubles per attempt, jittered by `seed`.
    pub reconnect_backoff: Duration,
    /// How long `connect` waits for the full mesh at startup.
    pub connect_timeout: Duration,
    /// Seed for reconnect jitter (and anything else that must replay).
    pub seed: u64,
    /// Frame-layer fault injection policy.
    pub faults: WireFaults,
    /// Upper bound on mesh size. Peer tables are preallocated to this, so
    /// spare processes can join (rank `size`, `size+1`, …) without
    /// reallocating rank-indexed state. Defaults to `size` (no spares).
    pub max_size: usize,
    /// Interval between progress fences on every live link. Fences carry
    /// the delivered-sequence watermark that distinguishes a zombie
    /// (socket open, application frozen) from a healthy peer.
    pub fence_interval: Duration,
    /// Consecutive fence ticks a peer's watermark may stall — while we
    /// hold undelivered data for it — before it is quarantined.
    pub fence_stall_fences: u32,
    /// Reconnect-churn threshold: this many heartbeat-miss teardowns with
    /// no intact frame in between quarantines the peer even when no data
    /// is outstanding (the idle-zombie case: the kernel keeps accepting
    /// our dials on the stopped process's listener backlog).
    pub zombie_churn: u32,
    /// How long a quarantined peer may stay frozen before it is evicted
    /// for good. Resuming within the grace (watermark advances again)
    /// re-admits it; past the grace the verdict is final.
    pub quarantine_grace: Duration,
}

impl WireConfig {
    /// Defaults tuned for tests: sub-second failure detection.
    pub fn new(dir: impl Into<PathBuf>, rank: usize, size: usize) -> Self {
        WireConfig {
            dir: dir.into(),
            rank,
            size,
            heartbeat: Duration::from_millis(20),
            liveness_deadline: Duration::from_millis(250),
            reconnect_attempts: 4,
            reconnect_backoff: Duration::from_millis(25),
            connect_timeout: Duration::from_secs(10),
            seed: 1,
            faults: WireFaults::none(),
            max_size: size,
            fence_interval: Duration::from_millis(25),
            fence_stall_fences: 4,
            zombie_churn: 3,
            quarantine_grace: Duration::from_millis(1500),
        }
    }

    /// Socket path of `rank` under this configuration.
    pub fn sock_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank_{rank}.sock"))
    }

    /// The longest a passive side waits for a dialer to come back before
    /// declaring it dead: the dialer's full (un-jittered) backoff schedule
    /// plus one liveness deadline of slack.
    pub fn reconnect_window(&self) -> Duration {
        let mut total = Duration::ZERO;
        let mut base = self.reconnect_backoff;
        for _ in 0..=self.reconnect_attempts {
            total += base;
            base = base.saturating_mul(2);
        }
        total + self.liveness_deadline * 2
    }
}

/// Monotone wire-level counters (diagnostics and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Data frames handed to the link layer.
    pub frames_sent: u64,
    /// Data frames delivered into the mailbox.
    pub frames_received: u64,
    /// Frames rejected by CRC/framing checks.
    pub corrupt_frames: u64,
    /// Duplicate data frames suppressed by the resume guard.
    pub duplicates_dropped: u64,
    /// Reconnect dials attempted.
    pub reconnect_dials: u64,
    /// Heartbeat misses observed.
    pub heartbeat_misses: u64,
    /// Progress fences sent.
    pub fences_sent: u64,
    /// Acks sent (control frames: not counted in `frames_sent`).
    pub acks_sent: u64,
    /// Peers quarantined as zombies (watermark stall or reconnect churn).
    pub zombies_quarantined: u64,
    /// Quarantined peers re-admitted after their watermark resumed.
    pub zombies_readmitted: u64,
    /// Quarantined peers evicted for good after the grace expired.
    pub zombies_evicted: u64,
    /// Spare-process joins committed (as sponsor, voter, or newcomer).
    pub joins_committed: u64,
    /// Join attempts aborted and rolled back.
    pub joins_aborted: u64,
}

#[derive(Default)]
struct StatsInner {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    corrupt_frames: AtomicU64,
    duplicates_dropped: AtomicU64,
    reconnect_dials: AtomicU64,
    heartbeat_misses: AtomicU64,
    fences_sent: AtomicU64,
    acks_sent: AtomicU64,
    zombies_quarantined: AtomicU64,
    zombies_readmitted: AtomicU64,
    zombies_evicted: AtomicU64,
    joins_committed: AtomicU64,
    joins_aborted: AtomicU64,
}

/// Per-peer connection state. The `LinkSender` (sequencing, ring) persists
/// across socket generations; everything else is per-connection.
struct Peer {
    sender: Mutex<LinkSender>,
    /// Highest data seq assigned on this link (`LinkSender::last_seq`),
    /// readable without the sender lock.
    last_seq: AtomicU64,
    /// The reader thread owes the peer a replay of every retained frame
    /// after this seq ([`NO_REPLAY`]: none); done by the next holder of
    /// the sender lock.
    replay_from: AtomicU64,
    /// The reader thread owes the peer a `Hello` (readmission).
    hello_owed: AtomicBool,
    /// Last time any intact frame arrived from this peer.
    last_heard: Mutex<Instant>,
    /// Last time we beaconed this peer.
    last_beat: Mutex<Instant>,
    /// When the link dropped; `None` while connected or never-connected.
    disconnected_at: Mutex<Option<Instant>>,
    /// Whether the link has ever been established (gates the monitor).
    ever_connected: AtomicBool,
    /// Bumped on every (re)attach; readers use it to tell whether the
    /// stream that failed is still the current one.
    generation: AtomicU64,
    /// Highest data seq received from this peer (duplicate guard + the
    /// value announced in our `Hello`s).
    last_recv_seq: AtomicU64,
    /// The peer's session id, to detect a restarted peer process.
    session: AtomicU64,
    /// A reconnect thread is in flight.
    reconnecting: AtomicBool,
    /// Last time we fenced this peer.
    last_fence: Mutex<Instant>,
    /// Our fence counter toward this peer.
    fence_seq: AtomicU64,
    /// Highest delivered-sequence watermark the peer has reported for
    /// *our* outbound stream (via its acks and periodic fences); the ring
    /// is trimmed to it.
    peer_watermark: AtomicU64,
    /// The watermark of the peer's last *periodic* fence. The NACK and
    /// readmit rules compare each periodic fence with this, never with an
    /// ack: a fence repeating what an ack already reported is progress,
    /// not a stall.
    fence_watermark: AtomicU64,
    /// Payload bytes delivered from the peer since our last ack to it.
    unacked_bytes: AtomicU64,
    /// Consecutive fence ticks the watermark stalled with data
    /// outstanding.
    stall_fences: AtomicU64,
    /// Heartbeat-miss teardowns since the last intact frame.
    churn: AtomicU64,
    /// The peer is quarantined: provisionally dead, frames dropped,
    /// awaiting either resumed progress (readmit) or the grace expiring
    /// (evict).
    quarantined: AtomicBool,
    /// The verdict is final: no readmission, no reconnect, ever.
    evicted: AtomicBool,
    /// When quarantine began (drives the eviction grace timer).
    quarantined_at: Mutex<Option<Instant>>,
}

impl Peer {
    fn new(src: u32, dst: u32, faults: WireFaults, spares: &Arc<SpareValues>) -> Self {
        let now = Instant::now();
        Peer {
            sender: Mutex::new(LinkSender::new(src, dst, faults).with_spares(Arc::clone(spares))),
            last_seq: AtomicU64::new(0),
            replay_from: AtomicU64::new(NO_REPLAY),
            hello_owed: AtomicBool::new(false),
            last_heard: Mutex::new(now),
            last_beat: Mutex::new(now),
            disconnected_at: Mutex::new(None),
            ever_connected: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            last_recv_seq: AtomicU64::new(0),
            session: AtomicU64::new(0),
            reconnecting: AtomicBool::new(false),
            last_fence: Mutex::new(now),
            fence_seq: AtomicU64::new(0),
            peer_watermark: AtomicU64::new(0),
            fence_watermark: AtomicU64::new(0),
            unacked_bytes: AtomicU64::new(0),
            stall_fences: AtomicU64::new(0),
            churn: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            evicted: AtomicBool::new(false),
            quarantined_at: Mutex::new(None),
        }
    }
}

struct NodeShared {
    cfg: WireConfig,
    /// This process incarnation's session id (announced in `Hello`).
    session: u64,
    mailbox: Mailbox,
    liveness: Arc<Liveness>,
    registry: CodecRegistry,
    /// The registry's tag for `Vec<f64>`, whose large bodies move without
    /// the codec.
    values_codec: Option<u32>,
    /// Vectors for landed bodies, refilled by acknowledged sends.
    spares: Arc<SpareValues>,
    /// Wakes the node's waits (`connect`, `await_*`, reconnect backoff).
    signal: Signal,
    /// Preallocated to `cfg.max_size`; ranks in `cur_size..max_size` are
    /// parked spare slots.
    peers: Vec<Peer>,
    /// Current mesh size. Starts at `cfg.size`, grows when a spare-process
    /// join commits, shrinks back when an attempt is rescinded.
    cur_size: AtomicUsize,
    abort: Arc<AtomicBool>,
    shutdown: AtomicBool,
    stats: StatsInner,
    /// Recorder the node's internal threads install, so wire spans
    /// (connect/reconnect/corrupt/heartbeat-miss) land in Chrome traces.
    trace: Option<TraceHandle>,
}

impl NodeShared {
    /// Installs this node's trace recorder on the calling thread (no-op
    /// without one). Every internal thread calls this at entry.
    fn install_trace(&self) -> Option<mxn_trace::InstallGuard> {
        self.trace.as_ref().map(TraceHandle::install)
    }
    fn declare_dead(&self, peer: usize) {
        if self.liveness.kill(peer) {
            self.mailbox.wake_all();
        }
        self.signal.notify();
    }

    /// Does what the reader thread owed `peer` while another thread held
    /// its sender lock: the `Hello` of a readmission, then one replay from
    /// the lowest seq any NACK or `Hello` asked for. The caller holds the
    /// lock as `sender`.
    fn settle(&self, peer: usize, sender: &mut LinkSender) {
        let p = &self.peers[peer];
        if p.hello_owed.swap(false, Ordering::AcqRel) {
            let _ = sender.send_hello(self.session, p.last_recv_seq.load(Ordering::Acquire));
        }
        let from = p.replay_from.swap(NO_REPLAY, Ordering::AcqRel);
        if from != NO_REPLAY && sender.is_connected() {
            let _ = sender.resend_since(from);
        }
    }

    /// From the reader thread: settles what `peer` is owed now unless
    /// another thread holds the sender lock, which then settles it.
    fn try_settle(&self, peer: usize) {
        if let Some(mut sender) = self.peers[peer].sender.try_lock() {
            self.settle(peer, &mut sender);
        }
    }

    /// From the reader thread: owes `peer` a replay of everything retained
    /// after `from`.
    fn owe_replay(&self, peer: usize, from: u64) {
        self.peers[peer].replay_from.fetch_min(from, Ordering::AcqRel);
        self.try_settle(peer);
    }

    fn cur_size(&self) -> usize {
        self.cur_size.load(Ordering::Acquire)
    }

    fn mark_disconnected(&self, peer: usize) {
        let mut at = self.peers[peer].disconnected_at.lock();
        if at.is_none() {
            *at = Some(Instant::now());
        }
    }

    /// One fence tick toward `peer`: sends our fence (carrying the
    /// delivered watermark of the peer's stream) and judges the peer's
    /// delivery of *our* stream. A watermark frozen across
    /// `fence_stall_fences` consecutive ticks while we hold undelivered
    /// data quarantines the peer — the socket being open proves nothing
    /// (a SIGSTOP'd process's listener backlog still accepts), only
    /// delivered sequence numbers prove the far application runs.
    fn fence_tick(&self, peer: usize) {
        let p = &self.peers[peer];
        let fence_seq = p.fence_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let outstanding = {
            let mut sender = p.sender.lock();
            let watermark = p.last_recv_seq.load(Ordering::Acquire);
            if sender.send_fence(fence_seq, watermark).is_err() {
                sender.detach();
                drop(sender);
                self.mark_disconnected(peer);
                return;
            }
            self.stats.fences_sent.fetch_add(1, Ordering::Relaxed);
            self.settle(peer, &mut sender);
            let delivered = p.peer_watermark.load(Ordering::Acquire);
            sender.trim_through(delivered);
            sender.last_seq() > delivered
        };
        if outstanding {
            let stalled = p.stall_fences.fetch_add(1, Ordering::AcqRel) + 1;
            if stalled >= u64::from(self.cfg.fence_stall_fences) {
                self.quarantine(peer, stalled);
            }
        } else {
            p.stall_fences.store(0, Ordering::Release);
        }
    }

    /// Quarantines `peer`: provisionally dead (blocked operations fail
    /// fast with `PeerDead`), inbound data dropped, but reversible — a
    /// resumed watermark before the grace expires re-admits it.
    fn quarantine(&self, peer: usize, stalled_fences: u64) {
        let p = &self.peers[peer];
        if p.evicted.load(Ordering::Acquire) || p.quarantined.swap(true, Ordering::AcqRel) {
            return;
        }
        *p.quarantined_at.lock() = Some(Instant::now());
        self.stats.zombies_quarantined.fetch_add(1, Ordering::Relaxed);
        emit_instant(EventId::WireZombie, [peer as u64, 1, stalled_fences, 0]);
        self.declare_dead(peer);
    }

    /// Re-admits a quarantined peer whose application proved it is
    /// consuming again. Owes it a fresh `Hello` so the peer replays the data
    /// we dropped during quarantine (our `last_recv_seq` never advanced
    /// past them).
    fn readmit(&self, peer: usize) {
        let p = &self.peers[peer];
        if p.evicted.load(Ordering::Acquire) || !p.quarantined.swap(false, Ordering::AcqRel) {
            return;
        }
        let held = p
            .quarantined_at
            .lock()
            .take()
            .map_or(0, |at| Instant::now().duration_since(at).as_micros() as u64);
        p.stall_fences.store(0, Ordering::Release);
        p.churn.store(0, Ordering::Release);
        self.liveness.revive(peer);
        self.stats.zombies_readmitted.fetch_add(1, Ordering::Relaxed);
        emit_instant(EventId::WireZombie, [peer as u64, 2, 0, held]);
        self.signal.notify();
        p.hello_owed.store(true, Ordering::Release);
        self.try_settle(peer);
    }

    /// Makes the quarantine verdict final: the peer stays dead, its link
    /// is closed, and no readmission or reconnect will ever touch it.
    fn evict(&self, peer: usize) {
        let p = &self.peers[peer];
        if p.evicted.swap(true, Ordering::AcqRel) {
            return;
        }
        let held = p
            .quarantined_at
            .lock()
            .take()
            .map_or(0, |at| Instant::now().duration_since(at).as_micros() as u64);
        p.quarantined.store(false, Ordering::Release);
        self.stats.zombies_evicted.fetch_add(1, Ordering::Relaxed);
        emit_instant(EventId::WireZombie, [peer as u64, 3, 0, held]);
        self.declare_dead(peer);
        p.sender.lock().shutdown();
    }

    /// Opens an admission window for `new_rank` (must be the next free
    /// slot): raises the membership so the acceptor, monitor, and send
    /// path address it, and scrubs any state a previous occupant or
    /// aborted attempt left behind. A connection the newcomer already made
    /// is kept — voters admit *after* the newcomer dials the mesh.
    fn begin_admit(&self, new_rank: usize) -> Result<()> {
        let cur = self.cur_size();
        if new_rank != cur || new_rank >= self.cfg.max_size {
            return Err(RuntimeError::InvalidRank { rank: new_rank, size: self.cfg.max_size });
        }
        let p = &self.peers[new_rank];
        p.evicted.store(false, Ordering::Release);
        p.quarantined.store(false, Ordering::Release);
        *p.quarantined_at.lock() = None;
        p.stall_fences.store(0, Ordering::Release);
        p.churn.store(0, Ordering::Release);
        {
            let mut sender = p.sender.lock();
            // The joiner owes us nothing sent to a previous occupant: the
            // watermark baseline starts at today's sequence counter, so
            // only data sent *after* admission can count as outstanding.
            p.peer_watermark.store(sender.last_seq(), Ordering::Release);
            p.fence_watermark.store(sender.last_seq(), Ordering::Release);
            if !sender.is_connected() {
                // No live connection from the joiner yet: forget the
                // previous occupant entirely. The ring is cleared (its
                // frames belong to a dead incarnation — replaying them at
                // a fresh process would cross sessions) but the sequence
                // counter stays monotone.
                sender.clear_ring();
                p.ever_connected.store(false, Ordering::Release);
                p.session.store(0, Ordering::Release);
                p.last_recv_seq.store(0, Ordering::Release);
                p.unacked_bytes.store(0, Ordering::Release);
            }
        }
        self.liveness.revive(new_rank);
        self.cur_size.store(cur + 1, Ordering::Release);
        Ok(())
    }

    /// Rolls an admission window back after an aborted join: closes any
    /// half-made connection, scrubs the slot, and lowers the membership
    /// (only if no later admit committed on top of it).
    fn rescind_admit(&self, new_rank: usize) {
        let p = &self.peers[new_rank];
        {
            let mut sender = p.sender.lock();
            sender.shutdown();
            sender.clear_ring();
            p.peer_watermark.store(sender.last_seq(), Ordering::Release);
            p.fence_watermark.store(sender.last_seq(), Ordering::Release);
        }
        p.ever_connected.store(false, Ordering::Release);
        p.session.store(0, Ordering::Release);
        p.last_recv_seq.store(0, Ordering::Release);
        p.unacked_bytes.store(0, Ordering::Release);
        *p.disconnected_at.lock() = None;
        self.liveness.revive(new_rank);
        let _ = self.cur_size.compare_exchange(
            new_rank + 1,
            new_rank,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Routes one decoded frame from `peer` and hands its payload buffer
    /// back for reuse.
    fn handle_frame(self: &Arc<Self>, peer: usize, frame: Frame) -> Vec<u8> {
        match frame.kind {
            FrameKind::Data => {
                let bytes = frame.payload.len();
                if self.admit_data(peer, frame.seq, bytes) {
                    match self.registry.decode_any(frame.codec, &frame.payload) {
                        Ok(boxed) => self.push_data(peer, &frame, bytes, boxed),
                        // Bytes passed CRC but no/odd codec: a registry
                        // mismatch between the two processes. Surface it
                        // as a detectable Corrupt — never a panic — so the
                        // receiver's retry/NACK machinery engages.
                        Err(_) => self.push_corrupt(peer, frame.context, frame.tag, bytes),
                    }
                }
            }
            FrameKind::Heartbeat => {} // `last_heard` already refreshed
            FrameKind::Hello => {
                if let Ok((session, last_recv)) =
                    crate::codec::decode_value::<(u64, u64)>(&frame.payload)
                {
                    self.note_peer_session(peer, session);
                    self.owe_replay(peer, last_recv);
                }
            }
            FrameKind::Bye => {
                // An orderly goodbye still marks the peer dead: blocked
                // receives must fail fast, exactly as for a crash; the
                // difference is no reconnect is attempted.
                self.declare_dead(peer);
            }
            FrameKind::ProgressFence => {
                if let Ok((fence_seq, watermark)) =
                    crate::codec::decode_value::<(u64, u64)>(&frame.payload)
                {
                    self.on_fence(peer, fence_seq, watermark);
                }
            }
        }
        frame.payload
    }

    /// Routes a Data frame from `peer` whose `Vec<f64>` body landed in
    /// `values`; a frame the guards drop gives its vector to the spares.
    fn handle_values(&self, peer: usize, frame: &Frame, values: Vec<f64>) {
        let bytes = 4 + 8 * values.len();
        if self.admit_data(peer, frame.seq, bytes) {
            self.push_data(peer, frame, bytes, Box::new(values));
        } else {
            self.spares.give(values);
        }
    }

    /// Whether a Data frame from `peer` with sequence number `seq` and
    /// `bytes` of payload is delivered, advancing the duplicate guard and
    /// the ack count if so.
    fn admit_data(&self, peer: usize, seq: u64, bytes: usize) -> bool {
        let p = &self.peers[peer];
        // A quarantined peer's data is dropped *without* advancing
        // `last_recv_seq`: if the peer is re-admitted, the `Hello` we send
        // announces the pre-quarantine watermark and its ring replays
        // everything we refused here.
        if p.quarantined.load(Ordering::Acquire) || p.evicted.load(Ordering::Acquire) {
            return false;
        }
        // Duplicate guard: session resume may replay frames the original
        // delivery already landed.
        if seq <= p.last_recv_seq.load(Ordering::Acquire) {
            self.stats.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        p.last_recv_seq.store(seq, Ordering::Release);
        p.unacked_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        true
    }

    /// Delivers a decoded Data frame's value to the mailbox.
    fn push_data(&self, peer: usize, frame: &Frame, bytes: usize, value: Box<dyn Any + Send>) {
        self.stats.frames_received.fetch_add(1, Ordering::Relaxed);
        let payload = Payload::Owned(value);
        let env = Envelope::new(peer, peer, frame.context, frame.tag, bytes, None, payload);
        self.mailbox.push(env);
    }

    /// A progress fence or ack from `peer` reporting `watermark`. Both
    /// raise the watermark the ring is trimmed to — on the send path and
    /// the fence tick, not here: the reader takes no sender lock to trim.
    /// Only a periodic fence judges the peer.
    fn on_fence(&self, peer: usize, fence_seq: u64, watermark: u64) {
        let p = &self.peers[peer];
        p.peer_watermark.fetch_max(watermark, Ordering::AcqRel);
        if fence_seq == 0 {
            // An ack proves delivery, nothing more: never a NACK, never a
            // readmit.
            p.stall_fences.store(0, Ordering::Release);
            return;
        }
        let prev = p.fence_watermark.fetch_max(watermark, Ordering::AcqRel);
        let advanced = watermark > prev;
        if advanced {
            p.stall_fences.store(0, Ordering::Release);
        }
        // A fence *arriving at all* proves the peer's monitor thread is
        // scheduled again — a stopped process sends nothing. Re-admit once
        // it has either advanced or fully caught up with our stream.
        if p.quarantined.load(Ordering::Acquire) {
            let caught_up = watermark >= p.last_seq.load(Ordering::Acquire);
            if advanced || caught_up {
                self.readmit(peer);
            }
        } else if !advanced
            && !p.evicted.load(Ordering::Acquire)
            && p.last_seq.load(Ordering::Acquire) > watermark
        {
            // A fence *repeating* a lagging watermark is a NACK, not a
            // freeze: the peer is running but frames beyond the watermark
            // were lost to bit damage or a torn connection. Repair from the
            // resend ring — the duplicate guard on the far side keeps
            // redelivery exact-once.
            self.owe_replay(peer, watermark);
        }
    }

    /// Delivers a checksum-damaged envelope so a receiver blocked on this
    /// `(context, tag)` observes `RuntimeError::Corrupt`, mirroring the
    /// in-proc fault plane's corrupt verdict.
    fn push_corrupt(&self, peer: usize, context: u32, tag: i32, bytes: usize) {
        let mut env = Envelope::new(peer, peer, context, tag, bytes, None, Payload::owned(()));
        env.corrupt();
        self.mailbox.push(env);
    }

    /// Records the peer's session id; a changed id means the peer process
    /// restarted, so its data sequence numbers start over.
    fn note_peer_session(&self, peer: usize, session: u64) {
        let p = &self.peers[peer];
        let prev = p.session.swap(session, Ordering::AcqRel);
        if prev != 0 && prev != session {
            p.last_recv_seq.store(0, Ordering::Release);
        }
    }

    /// Attaches a fresh stream for `peer` and spawns its reader thread.
    /// `reader` carries any bytes already consumed during the handshake.
    /// `resume` is set on an accepted stream, whose `Hello` was read
    /// already: the highest seq the peer saw, after which the ring is
    /// replayed before anyone waiting on the connection wakes.
    fn attach(
        self: &Arc<Self>,
        peer: usize,
        stream: UnixStream,
        reader: FrameReader,
        resume: Option<u64>,
        attempt: u64,
    ) -> io::Result<()> {
        let p = &self.peers[peer];
        // A zombie peer stops draining its socket; once the kernel buffer
        // fills, a blocking `write_all` would wedge whichever thread holds
        // the sender lock (the monitor included). Bound every write so a
        // full pipe surfaces as a link failure instead.
        stream.set_write_timeout(Some(self.cfg.liveness_deadline))?;
        let read_half = stream.try_clone()?;
        let mut reader = reader;
        if let Some(codec) = self.values_codec {
            reader.land_values(codec, Arc::clone(&self.spares));
        }
        let generation = {
            let mut sender = p.sender.lock();
            sender.attach(stream);
            let generation = p.generation.fetch_add(1, Ordering::AcqRel) + 1;
            *p.last_heard.lock() = Instant::now();
            *p.disconnected_at.lock() = None;
            p.ever_connected.store(true, Ordering::Release);
            // Announce our session and what we have seen, triggering the
            // peer's resume replay toward us.
            sender.send_hello(self.session, p.last_recv_seq.load(Ordering::Acquire))?;
            if let Some(last_recv) = resume {
                let _ = sender.resend_since(last_recv);
            }
            generation
        };
        self.signal.notify();
        emit_instant(
            EventId::WireConnect,
            [
                peer as u64,
                attempt,
                self.peers[peer].last_recv_seq.load(Ordering::Relaxed),
                u64::from(resume.is_some()),
            ],
        );
        let shared = Arc::clone(self);
        std::thread::Builder::new().name(format!("wire-read-{}-{peer}", self.cfg.rank)).spawn(
            move || {
                let _trace = shared.install_trace();
                shared.reader_loop(peer, read_half, reader, generation)
            },
        )?;
        Ok(())
    }

    /// Blocking per-connection read loop: bytes → frames → mailbox.
    fn reader_loop(
        self: Arc<Self>,
        peer: usize,
        mut stream: UnixStream,
        mut frames: FrameReader,
        generation: u64,
    ) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            // Drain frames already buffered (handshake leftovers first).
            while let Some(res) = frames.next_arrival() {
                *self.peers[peer].last_heard.lock() = Instant::now();
                match res {
                    Ok(arrival) => {
                        // Any intact frame resets the reconnect-churn and
                        // fence-stall counters: the peer's application
                        // demonstrably ran. A zombie sends *nothing* — a
                        // peer on a lossy wire keeps proving itself with
                        // every frame that survives, so bit damage alone
                        // can never convict it.
                        self.peers[peer].churn.store(0, Ordering::Release);
                        self.peers[peer].stall_fences.store(0, Ordering::Release);
                        match arrival {
                            Arrival::Frame(frame) => frames.recycle(self.handle_frame(peer, frame)),
                            Arrival::Values(frame, values) => {
                                self.handle_values(peer, &frame, values)
                            }
                        }
                    }
                    Err(FrameError::Corrupt { skipped, header, .. }) => {
                        self.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                        emit_instant(
                            EventId::WireFrameCorrupt,
                            [peer as u64, u64::from(header.is_some()), skipped as u64, 0],
                        );
                        if let Some(h) = header {
                            self.push_corrupt(peer, h.context, h.tag, skipped);
                        }
                    }
                }
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Large frame bodies are read straight into their own buffer.
            match frames.read_from(&mut stream, &mut buf) {
                Ok(0) | Err(_) => break, // EOF or failure: the link is down
                Ok(_) => {}
            }
        }
        // Only the *current* stream's reader tears the link down; a stale
        // generation means a reconnect already replaced us.
        let p = &self.peers[peer];
        if p.generation.load(Ordering::Acquire) == generation
            && !self.shutdown.load(Ordering::Acquire)
        {
            p.sender.lock().detach();
            self.mark_disconnected(peer);
        }
    }

    /// Reads the peer's opening `Hello` off a freshly accepted stream.
    fn read_hello(stream: &UnixStream) -> io::Result<(Frame, FrameReader)> {
        let mut s = stream.try_clone()?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut frames = FrameReader::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(res) = frames.next() {
                match res {
                    Ok(f) if f.kind == FrameKind::Hello => {
                        stream.set_read_timeout(None)?;
                        return Ok((f, frames));
                    }
                    // Anything else before Hello is a protocol violation
                    // from an unknown peer: drop the connection.
                    Ok(_) | Err(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "expected Hello as first frame",
                        ));
                    }
                }
            }
            let n = s.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF before Hello"));
            }
            frames.feed(&buf[..n]);
        }
    }

    /// Accept loop: blocks in `accept`, handshakes inbound connections,
    /// attaches them. Shutdown wakes it with a connection of its own.
    fn acceptor_loop(self: Arc<Self>, listener: UnixListener) {
        loop {
            let accepted = listener.accept();
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            match accepted {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self);
                    // Handshake off-thread so one slow dialer cannot stall
                    // the accept queue.
                    let _ = std::thread::Builder::new()
                        .name(format!("wire-hello-{}", self.cfg.rank))
                        .spawn(move || {
                            let _trace = shared.install_trace();
                            if let Ok((hello, frames)) = NodeShared::read_hello(&stream) {
                                let peer = hello.src as usize;
                                // Accept up to `max_size`: a joining spare
                                // dials the mesh before every incumbent has
                                // raised its membership.
                                if peer < shared.cfg.max_size && peer != shared.cfg.rank {
                                    if let Ok((session, last_recv)) =
                                        crate::codec::decode_value::<(u64, u64)>(&hello.payload)
                                    {
                                        shared.note_peer_session(peer, session);
                                        let resume = Some(last_recv);
                                        let _ = shared.attach(peer, stream, frames, resume, 0);
                                    }
                                }
                            }
                        });
                }
                // A failing `accept` (descriptor exhaustion) backs off
                // instead of spinning.
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Heartbeat/liveness monitor: beacons live links, fences them for
    /// end-to-end progress, detects silence, launches reconnects, expires
    /// the passive reconnect window, and walks peers through the
    /// quarantine → readmit/evict state machine.
    fn monitor_loop(self: Arc<Self>) {
        let tick = self.cfg.heartbeat / 2;
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(tick);
            let now = Instant::now();
            for peer in 0..self.cur_size() {
                if peer == self.cfg.rank {
                    continue;
                }
                let p = &self.peers[peer];
                if p.evicted.load(Ordering::Acquire) {
                    continue; // verdict is final
                }
                if p.quarantined.load(Ordering::Acquire) {
                    // Quarantine: liveness says dead, but the link (if
                    // any) stays up so a resumed peer's fences can reach
                    // us and trigger readmission. No beacons, no silence
                    // checks, no reconnects — just the grace timer.
                    let expired = p
                        .quarantined_at
                        .lock()
                        .is_some_and(|at| now.duration_since(at) > self.cfg.quarantine_grace);
                    if expired {
                        self.evict(peer);
                    }
                    continue;
                }
                if self.liveness.is_dead(peer) {
                    continue; // dead by crash/agreement, not quarantine
                }
                if !p.ever_connected.load(Ordering::Acquire) {
                    continue; // still in startup; `connect` owns this phase
                }
                let connected = {
                    let mut sender = p.sender.lock();
                    self.settle(peer, &mut sender);
                    sender.is_connected()
                };
                if connected {
                    if now.duration_since(*p.last_beat.lock()) >= self.cfg.heartbeat {
                        *p.last_beat.lock() = now;
                        let mut sender = p.sender.lock();
                        if sender.send_control(FrameKind::Heartbeat).is_err() {
                            sender.detach();
                            drop(sender);
                            self.mark_disconnected(peer);
                            continue;
                        }
                    }
                    if now.duration_since(*p.last_fence.lock()) >= self.cfg.fence_interval {
                        *p.last_fence.lock() = now;
                        self.fence_tick(peer);
                        if p.quarantined.load(Ordering::Acquire) {
                            continue;
                        }
                    }
                    let silence = now.duration_since(*p.last_heard.lock());
                    if silence > self.cfg.liveness_deadline {
                        self.stats.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
                        emit_instant(
                            EventId::HeartbeatMiss,
                            [
                                peer as u64,
                                silence.as_micros() as u64,
                                self.cfg.liveness_deadline.as_micros() as u64,
                                0,
                            ],
                        );
                        // Tear the link down; reconnect (or the passive
                        // window) decides whether the peer is dead. Count
                        // the churn: a zombie's listener backlog lets the
                        // redial "succeed", so miss → reconnect → miss
                        // cycles are themselves a detection signal.
                        let churn = p.churn.fetch_add(1, Ordering::AcqRel) + 1;
                        let mut sender = p.sender.lock();
                        sender.shutdown();
                        drop(sender);
                        self.mark_disconnected(peer);
                        if churn >= u64::from(self.cfg.zombie_churn) {
                            self.quarantine(peer, 0);
                        }
                    }
                } else {
                    let since = p.disconnected_at.lock().map(|at| now.duration_since(at));
                    let Some(since) = since else { continue };
                    if peer < self.cfg.rank {
                        // We are the dialer: bounded reconnect attempts.
                        if !p.reconnecting.swap(true, Ordering::AcqRel) {
                            let shared = Arc::clone(&self);
                            let _ = std::thread::Builder::new()
                                .name(format!("wire-redial-{}-{peer}", self.cfg.rank))
                                .spawn(move || {
                                    let _trace = shared.install_trace();
                                    shared.reconnect_loop(peer)
                                });
                        }
                    } else if since > self.cfg.reconnect_window() {
                        // Passive side: the dialer's whole backoff schedule
                        // has passed without a new Hello. It is gone.
                        self.declare_dead(peer);
                    }
                }
            }
        }
    }

    /// Dials `peer` with seeded exponential backoff; on exhaustion the
    /// peer is declared dead and heal takes over.
    fn reconnect_loop(self: Arc<Self>, peer: usize) {
        emit(EventId::WireReconnect, Phase::Begin, [peer as u64, 0, 0, 0]);
        // The jitter draws come from the same splitmix stream as the
        // in-proc retry plane, keyed so each (rank, peer) pair decorrelates.
        let policy = CallPolicy {
            backoff: self.cfg.reconnect_backoff,
            max_retries: self.cfg.reconnect_attempts,
            jitter: Some(splitmix64(self.cfg.seed ^ ((self.cfg.rank as u64) << 32 | peer as u64))),
            ..CallPolicy::default()
        };
        let mut base = self.cfg.reconnect_backoff;
        for attempt in 0..=self.cfg.reconnect_attempts {
            if self.shutdown.load(Ordering::Acquire) || self.liveness.is_dead(peer) {
                break;
            }
            self.stats.reconnect_dials.fetch_add(1, Ordering::Relaxed);
            if let Ok(stream) = UnixStream::connect(self.cfg.sock_path(peer)) {
                if self.attach(peer, stream, FrameReader::new(), None, u64::from(attempt)).is_ok() {
                    emit(
                        EventId::WireReconnect,
                        Phase::End,
                        [peer as u64, u64::from(attempt), 1, 0],
                    );
                    self.peers[peer].reconnecting.store(false, Ordering::Release);
                    return;
                }
            }
            // Interruptible backoff: a `Bye` (or any other death verdict)
            // that lands mid-pause must cancel the remaining attempts now,
            // not after the full schedule drains — otherwise the redial
            // races the goodbye and can resurrect a link to a peer that
            // already left on purpose.
            self.signal.wait_until(policy.retry_pause(base, attempt), || {
                self.shutdown.load(Ordering::Acquire) || self.liveness.is_dead(peer)
            });
            base = base.saturating_mul(2);
        }
        emit(
            EventId::WireReconnect,
            Phase::End,
            [peer as u64, u64::from(self.cfg.reconnect_attempts) + 1, 0, 0],
        );
        self.declare_dead(peer);
        self.peers[peer].reconnecting.store(false, Ordering::Release);
    }

    /// Sends one payload to `dst`: a `Vec<f64>` through
    /// [`LinkSender::send_values`], anything else encoded straight into a
    /// frame; `unregistered` is the error when the payload's type has no
    /// codec. A send while the link is down still succeeds: the frame
    /// enters the resend ring and session resume redelivers it (or the
    /// peer is declared dead and later operations fail with `PeerDead`).
    fn send_any(
        &self,
        dst: usize,
        context: u32,
        tag: i32,
        value: Outgoing<'_>,
        unregistered: impl FnOnce() -> RuntimeError,
    ) -> Result<()> {
        let size = self.cur_size();
        if dst >= size {
            return Err(RuntimeError::InvalidRank { rank: dst, size });
        }
        if self.liveness.is_dead(dst) {
            return Err(RuntimeError::PeerDead { rank: dst });
        }
        if self.shutdown.load(Ordering::Acquire) {
            return Err(RuntimeError::Aborted);
        }
        let p = &self.peers[dst];
        let mut sender = p.sender.lock();
        // A replay the reader owes goes out before newer data.
        self.settle(dst, &mut sender);
        let owed = p.unacked_bytes.load(Ordering::Relaxed);
        if owed >= ACK_BYTES {
            p.unacked_bytes.fetch_sub(owed, Ordering::Relaxed);
            if sender.send_fence(0, p.last_recv_seq.load(Ordering::Acquire)).is_ok() {
                self.stats.acks_sent.fetch_add(1, Ordering::Relaxed);
            } else {
                // Detached now, the data frame below goes to the ring only.
                sender.detach();
                self.mark_disconnected(dst);
            }
        }
        // Trimmed frames free their buffers for this encode.
        sender.trim_through(p.peer_watermark.load(Ordering::Acquire));
        let sent = match (value, self.values_codec) {
            (Outgoing::Values(values), Some(codec)) => {
                Some(sender.send_values(context, tag, codec, values))
            }
            (Outgoing::Values(values), None) => {
                sender.send_data(context, tag, |out| self.registry.encode_any_into(&values, out))
            }
            (Outgoing::Any(value), _) => {
                sender.send_data(context, tag, |out| self.registry.encode_any_into(value, out))
            }
        };
        let Some(sent) = sent else {
            return Err(unregistered());
        };
        p.last_seq.store(sender.last_seq(), Ordering::Release);
        self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        // And what the reader recorded during the write.
        self.settle(dst, &mut sender);
        if sent.is_err() {
            // The write failed but the frame is ring-retained; the
            // reconnect/resume machinery owns redelivery from here.
            sender.detach();
            drop(sender);
            self.mark_disconnected(dst);
        }
        Ok(())
    }
}

/// A payload on its way to [`NodeShared::send_any`].
enum Outgoing<'a> {
    /// A `Vec<f64>`, moved: a large one is written from its own memory.
    Values(Vec<f64>),
    /// Anything else, encoded by the registry.
    Any(&'a dyn Any),
}

/// A running wire-transport endpoint. See the module docs for the design.
pub struct WireNode {
    shared: Arc<NodeShared>,
    acceptor: Option<JoinHandle<()>>,
    /// The acceptor's listening socket, shut down to wake it should
    /// dialing the socket file fail.
    listener_fd: i32,
    monitor: Option<JoinHandle<()>>,
}

impl WireNode {
    /// Binds this rank's socket and starts the acceptor and monitor
    /// threads. The mesh is not connected until [`WireNode::connect`].
    pub fn start(cfg: WireConfig, registry: CodecRegistry) -> io::Result<WireNode> {
        Self::start_traced(cfg, registry, None)
    }

    /// [`WireNode::start`] with a trace recorder the node's internal
    /// threads install, so wire events show up in Chrome traces.
    pub fn start_traced(
        cfg: WireConfig,
        registry: CodecRegistry,
        trace: Option<TraceHandle>,
    ) -> io::Result<WireNode> {
        assert!(cfg.max_size >= cfg.size, "max_size must admit the initial membership");
        std::fs::create_dir_all(&cfg.dir)?;
        let path = cfg.sock_path(cfg.rank);
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let listener_fd = listener.as_raw_fd();
        let abort = Arc::new(AtomicBool::new(false));
        // Rank-indexed state is sized to the ceiling once; spare slots in
        // `size..max_size` sit parked until a join admits them.
        let liveness = Arc::new(Liveness::new(cfg.max_size));
        let revocations = Arc::new(Revocations::default());
        let session = splitmix64((u64::from(std::process::id()) << 20) ^ cfg.rank as u64 | 1);
        let spares = Arc::new(SpareValues::new());
        let peers = (0..cfg.max_size)
            .map(|peer| Peer::new(cfg.rank as u32, peer as u32, cfg.faults, &spares))
            .collect();
        let shared = Arc::new(NodeShared {
            mailbox: Mailbox::new(abort.clone(), liveness.clone(), revocations),
            session,
            liveness,
            values_codec: registry.tag_of::<Vec<f64>>(),
            registry,
            spares,
            signal: Signal::default(),
            peers,
            cur_size: AtomicUsize::new(cfg.size),
            abort,
            shutdown: AtomicBool::new(false),
            stats: StatsInner::default(),
            trace,
            cfg,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name(format!("wire-accept-{}", shared.cfg.rank)).spawn(
                move || {
                    let _trace = shared.install_trace();
                    let s = Arc::clone(&shared);
                    s.acceptor_loop(listener)
                },
            )?
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new().name(format!("wire-monitor-{}", shared.cfg.rank)).spawn(
                move || {
                    let _trace = shared.install_trace();
                    shared.monitor_loop()
                },
            )?
        };
        Ok(WireNode { shared, acceptor: Some(acceptor), listener_fd, monitor: Some(monitor) })
    }

    /// Completes the mesh: dials every lower rank (retrying while peers
    /// are still binding) and waits until every higher rank has dialed us.
    pub fn connect(&self) -> io::Result<()> {
        let cfg = &self.shared.cfg;
        let deadline = Instant::now() + cfg.connect_timeout;
        for peer in 0..cfg.rank {
            loop {
                match UnixStream::connect(cfg.sock_path(peer)) {
                    Ok(stream) => {
                        self.shared.attach(peer, stream, FrameReader::new(), None, 0)?;
                        break;
                    }
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("rank {peer} never bound its socket: {e}"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
        }
        // Higher ranks dial us; `attach` signals each arrival.
        for peer in cfg.rank + 1..cfg.size {
            let left = deadline.saturating_duration_since(Instant::now());
            let dialed = || self.shared.peers[peer].ever_connected.load(Ordering::Acquire);
            if !self.shared.signal.wait_until(left, dialed) {
                let e = format!("rank {peer} never dialed us");
                return Err(io::Error::new(io::ErrorKind::TimedOut, e));
            }
        }
        Ok(())
    }

    /// This node's global rank.
    pub fn rank(&self) -> usize {
        self.shared.cfg.rank
    }

    /// Current mesh size (grows when a spare-process join commits).
    pub fn size(&self) -> usize {
        self.shared.cur_size()
    }

    /// The preallocated membership ceiling ([`WireConfig::max_size`]).
    pub fn max_size(&self) -> usize {
        self.shared.cfg.max_size
    }

    /// The shared liveness registry — the same type, with the same
    /// semantics, the in-proc world uses.
    pub fn liveness(&self) -> &Arc<Liveness> {
        &self.shared.liveness
    }

    /// Whether `rank` has been declared dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.shared.liveness.is_dead(rank)
    }

    /// Blocks until `rank` is declared dead or `timeout` passes; returns
    /// whether it died in time.
    pub fn await_death(&self, rank: usize, timeout: Duration) -> bool {
        self.shared.signal.wait_until(timeout, || self.is_dead(rank))
    }

    /// Whether `rank` is currently quarantined (provisionally dead: frames
    /// dropped, operations fail fast, but readmission is still possible).
    pub fn is_quarantined(&self, rank: usize) -> bool {
        self.shared.peers[rank].quarantined.load(Ordering::Acquire)
    }

    /// Whether the quarantine verdict on `rank` became final.
    pub fn is_evicted(&self, rank: usize) -> bool {
        self.shared.peers[rank].evicted.load(Ordering::Acquire)
    }

    /// Blocks until `rank` enters quarantine (or is evicted outright) or
    /// `timeout` passes; returns whether it happened in time.
    pub fn await_quarantine(&self, rank: usize, timeout: Duration) -> bool {
        self.shared
            .signal
            .wait_until(timeout, || self.is_quarantined(rank) || self.is_evicted(rank))
    }

    /// Blocks until `rank` is back in good standing — neither quarantined
    /// nor dead — or `timeout` passes; returns whether it was re-admitted.
    pub fn await_readmit(&self, rank: usize, timeout: Duration) -> bool {
        let standing = || !self.is_quarantined(rank) && !self.is_dead(rank);
        self.shared.signal.wait_until(timeout, || standing() || self.is_evicted(rank)) && standing()
    }

    /// Arms or disarms frame-layer fault injection on every link (the
    /// wire analogue of `Process::set_faults_armed`).
    pub fn set_faults_armed(&self, armed: bool) {
        for peer in 0..self.shared.cur_size() {
            if peer != self.shared.cfg.rank {
                self.shared.peers[peer].sender.lock().set_armed(armed);
            }
        }
    }

    /// Sends `value` to `dst`'s mailbox bucket `(context, tag)`. The type
    /// must be registered in both processes' codec registries. A
    /// `Vec<f64>` moves into the link without being encoded.
    pub fn send<T: Any + Send>(&self, dst: usize, context: u32, tag: i32, value: T) -> Result<()> {
        let unregistered = || RuntimeError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            src: self.shared.cfg.rank,
            tag,
        };
        let mut slot = Some(value);
        let as_values = (&mut slot as &mut dyn Any).downcast_mut::<Option<Vec<f64>>>();
        if let Some(values) = as_values.and_then(Option::take) {
            return self.shared.send_any(dst, context, tag, Outgoing::Values(values), unregistered);
        }
        let value = slot.expect("only a Vec<f64> is taken out");
        self.shared.send_any(dst, context, tag, Outgoing::Any(&value), unregistered)
    }

    /// Receives a `T` from `src` on `(context, tag)`, blocking until it
    /// arrives, `src` is declared dead, or a damaged frame for this bucket
    /// surfaces as [`RuntimeError::Corrupt`].
    pub fn recv<T: Any>(&self, src: usize, context: u32, tag: i32) -> Result<T> {
        let env = self.shared.mailbox.take(
            context,
            Src::Rank(src),
            Tag::Value(tag),
            &[PeerRef { global: src, local: src }],
        )?;
        Self::unpack(env, src, tag)
    }

    /// [`WireNode::recv`] with a deadline.
    pub fn recv_timeout<T: Any>(
        &self,
        src: usize,
        context: u32,
        tag: i32,
        timeout: Duration,
    ) -> Result<T> {
        let env = self.shared.mailbox.take_timeout(
            context,
            Src::Rank(src),
            Tag::Value(tag),
            timeout,
            &[PeerRef { global: src, local: src }],
        )?;
        Self::unpack(env, src, tag)
    }

    fn unpack<T: Any>(env: Envelope, src: usize, tag: i32) -> Result<T> {
        if !env.verify() {
            return Err(RuntimeError::Corrupt { src, tag });
        }
        env.payload.into_owned::<T>().map(|(v, _)| v).map_err(|_| RuntimeError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            src,
            tag,
        })
    }

    /// Agrees with the surviving peers on who is alive: one
    /// [`Rule::Membership`] instance of the reconfiguration machine over
    /// every rank, on the reserved control context (tags `2·epoch` and
    /// `2·epoch + 1`). Ranks this node sees dead, and peers silent past
    /// `timeout` in the first round, are dropped; every survivor leaves
    /// with the same list.
    pub fn agree_survivors(&self, epoch: u32, timeout: Duration) -> Result<Vec<usize>> {
        let size = self.shared.cur_size();
        let me = self.shared.cfg.rank;
        let ranks: Vec<usize> = (0..size).collect();
        let alive = mask(size, |r| !self.is_dead(r));
        let tags = [0, 1].map(|round| epoch as i32 * 2 + round);
        let agreed = self.decide(&ranks, tags, alive, timeout)?;
        // Commit the verdict locally: every rank outside the agreed set is
        // dead *and evicted* here, even if this node never independently
        // detected it — and a quarantined zombie that resumes after this
        // point must not resurrect (the agreement is the point of no
        // return, exactly like the membership plane's epoch commit).
        for r in (0..size).filter(|&r| r != me && agreed & 1 << r == 0) {
            let p = &self.shared.peers[r];
            p.quarantined.store(false, Ordering::Release);
            p.evicted.store(true, Ordering::Release);
            self.shared.declare_dead(r);
        }
        Ok((0..size).filter(|r| agreed & 1 << r != 0).collect())
    }

    /// Runs one [`Rule::Membership`] instance of the reconfiguration
    /// machine over mesh ranks `ranks` on [`WIRE_CTRL_CONTEXT`].
    fn decide(&self, ranks: &[usize], tags: [i32; 2], value: u64, t: Duration) -> Result<u64> {
        let me = ranks.iter().position(|&r| r == self.rank()).unwrap_or(ranks.len());
        let mut machine = Reconfig::new(ranks.len(), me, value, Rule::Membership, t)?;
        drive(&mut machine, &mut MeshPlane { node: self, ranks, tags })
    }

    /// This node's seat in the join vote on `offer`: it votes every
    /// participant it sees alive, the newcomer only if `wired`, and reports
    /// whether the vote was unanimous.
    fn join_decide(&self, offer: &JoinOffer, wired: bool, timeout: Duration) -> bool {
        let ranks = &offer.participants;
        let n = ranks.len();
        let ready = mask(n, |i| (wired || ranks[i] != offer.local_rank) && !self.is_dead(ranks[i]));
        let tags = [0, 1].map(|round| -100 - 2 * offer.attempt as i32 - round);
        self.decide(ranks, tags, ready, timeout).is_ok_and(|v| v == mask(n, |_| true))
    }

    fn recv_offer(&self, sponsor: usize, timeout: Duration) -> Result<JoinOffer> {
        let bytes: Vec<u8> =
            self.recv_timeout(sponsor, WIRE_CTRL_CONTEXT, JOIN_OFFER_TAG, timeout)?;
        decode_value(&bytes)
            .map_err(|_| RuntimeError::Corrupt { src: sponsor, tag: JOIN_OFFER_TAG })
    }

    /// Sponsors one attempt to admit a spare process as rank `self.size()`,
    /// in the same join vote the in-proc `InterComm::reconfigure` runs:
    /// open the admission window, wait for the newcomer's `JoinReq` (it
    /// has dialed the whole mesh by then), offer a [`JoinOffer`] to
    /// every live incumbent and the newcomer, and vote readiness — an
    /// incumbent is ready once the newcomer's connection reached it, and
    /// the newcomer's own vote proves it survived the handshake. Unanimity
    /// commits: the mesh grows by one everywhere and `state` is replayed
    /// to the newcomer (the wire analogue of the RMA rebind). Anything
    /// else is [`RuntimeError::ReconfigAborted`] and a rescind on every
    /// node, leaving the old mesh fully usable.
    pub fn expand_mesh(&self, attempt: u64, state: &[u8], timeout: Duration) -> Result<usize> {
        let me = self.shared.cfg.rank;
        let new_rank = self.shared.cur_size();
        emit(EventId::WireJoin, Phase::Begin, [new_rank as u64, attempt, 0, new_rank as u64]);
        self.shared.begin_admit(new_rank)?;
        let announced =
            self.recv_timeout::<u64>(new_rank, WIRE_CTRL_CONTEXT, JOIN_REQ_TAG, timeout);
        let committed = announced.is_ok_and(|r| r as usize == new_rank) && {
            let mut participants: Vec<usize> =
                (0..new_rank).filter(|&r| r == me || !self.is_dead(r)).collect();
            participants.push(new_rank);
            let offer = JoinOffer {
                local_rank: new_rank,
                context: WIRE_CTRL_CONTEXT,
                attempt,
                epoch: (new_rank + 1) as u64,
                local_group: (0..=new_rank).collect(),
                old_local_group: (0..new_rank).collect(),
                participants,
                ..JoinOffer::default()
            };
            for &r in offer.participants.iter().filter(|&&r| r != me) {
                let _ = self.send(r, WIRE_CTRL_CONTEXT, JOIN_OFFER_TAG, encode_value(&offer));
            }
            self.join_decide(&offer, true, timeout)
        };
        if !committed {
            self.shared.rescind_admit(new_rank);
            self.shared.stats.joins_aborted.fetch_add(1, Ordering::Relaxed);
            emit(EventId::WireJoin, Phase::End, [new_rank as u64, attempt, 0, new_rank as u64]);
            return Err(RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt });
        }
        self.send(new_rank, WIRE_CTRL_CONTEXT, JOIN_STATE_TAG, state.to_vec())?;
        self.shared.stats.joins_committed.fetch_add(1, Ordering::Relaxed);
        emit(EventId::WireJoin, Phase::End, [new_rank as u64, attempt, 1, (new_rank + 1) as u64]);
        Ok(new_rank + 1)
    }

    /// Incumbent's side of one join attempt: receives the sponsor's offer,
    /// opens the admission window, waits (up to half of `timeout`) for the
    /// newcomer's connection to arrive, and votes — growing the mesh on a
    /// unanimous vote, rescinding otherwise. Returns the admitted rank.
    pub fn join_vote(&self, sponsor: usize, timeout: Duration) -> Result<usize> {
        let offer = self.recv_offer(sponsor, timeout)?;
        let (attempt, new_rank) = (offer.attempt, offer.local_rank);
        let admitted = self.shared.begin_admit(new_rank).is_ok();
        // The newcomer dials the whole mesh before announcing itself to
        // the sponsor, so its connection is usually already here; a dead
        // newcomer (killed mid-join) shows up as EOF → never connected.
        let wired = admitted
            && self.shared.signal.wait_until(timeout / 2, || {
                self.shared.peers[new_rank].sender.lock().is_connected()
            });
        let committed = self.join_decide(&offer, wired, timeout);
        emit_instant(
            EventId::WireJoin,
            [new_rank as u64, attempt, committed.into(), self.size() as u64],
        );
        if committed {
            self.shared.stats.joins_committed.fetch_add(1, Ordering::Relaxed);
            return Ok(new_rank);
        }
        if admitted {
            self.shared.rescind_admit(new_rank);
        }
        self.shared.stats.joins_aborted.fetch_add(1, Ordering::Relaxed);
        Err(RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt })
    }

    /// Newcomer's side: announces itself to the sponsor (call after
    /// [`WireNode::connect`] wired the mesh), votes in the join the offer
    /// names, and on commit returns the state blob the sponsor replayed —
    /// the newcomer resumes exactly where the membership left off. On
    /// abort, [`RuntimeError::ReconfigAborted`]; without an offer within
    /// `timeout`, [`RuntimeError::Timeout`].
    pub fn join_mesh(&self, sponsor: usize, timeout: Duration) -> Result<Vec<u8>> {
        self.send(sponsor, WIRE_CTRL_CONTEXT, JOIN_REQ_TAG, self.rank() as u64)?;
        let offer = self.recv_offer(sponsor, timeout)?;
        self.join_offered(sponsor, &offer, timeout)
    }

    /// The newcomer's vote on `offer`, then the state replay on commit.
    fn join_offered(&self, sponsor: usize, offer: &JoinOffer, t: Duration) -> Result<Vec<u8>> {
        if !self.join_decide(offer, true, t) {
            let attempt = offer.attempt;
            return Err(RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt });
        }
        self.recv_timeout(sponsor, WIRE_CTRL_CONTEXT, JOIN_STATE_TAG, t)
    }

    /// Snapshot of the wire counters.
    pub fn stats(&self) -> WireStats {
        let s = &self.shared.stats;
        WireStats {
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            frames_received: s.frames_received.load(Ordering::Relaxed),
            corrupt_frames: s.corrupt_frames.load(Ordering::Relaxed),
            duplicates_dropped: s.duplicates_dropped.load(Ordering::Relaxed),
            reconnect_dials: s.reconnect_dials.load(Ordering::Relaxed),
            heartbeat_misses: s.heartbeat_misses.load(Ordering::Relaxed),
            fences_sent: s.fences_sent.load(Ordering::Relaxed),
            acks_sent: s.acks_sent.load(Ordering::Relaxed),
            zombies_quarantined: s.zombies_quarantined.load(Ordering::Relaxed),
            zombies_readmitted: s.zombies_readmitted.load(Ordering::Relaxed),
            zombies_evicted: s.zombies_evicted.load(Ordering::Relaxed),
            joins_committed: s.joins_committed.load(Ordering::Relaxed),
            joins_aborted: s.joins_aborted.load(Ordering::Relaxed),
        }
    }

    /// A [`Transport`] handle over this node, for code written against
    /// the runtime's transport seam.
    pub fn transport(&self) -> UdsTransport {
        UdsTransport { shared: Arc::clone(&self.shared) }
    }

    /// Orderly shutdown: says goodbye to every live peer, stops the
    /// service threads, closes every link, and removes the socket file.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for peer in 0..self.shared.cur_size() {
            if peer == self.shared.cfg.rank || self.shared.liveness.is_dead(peer) {
                continue;
            }
            let mut sender = self.shared.peers[peer].sender.lock();
            let _ = sender.send_control(FrameKind::Bye);
            sender.shutdown();
        }
        self.shared.abort.store(true, Ordering::Release);
        self.shared.mailbox.wake_all();
        self.shared.signal.notify();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            // The acceptor blocks in `accept`: a connection wakes it. With
            // the socket file gone, shutting the listener down does (on
            // Linux, `accept` then fails).
            if UnixStream::connect(self.shared.cfg.sock_path(self.shared.cfg.rank)).is_err() {
                // SAFETY: `shutdown(2)` on a descriptor the acceptor thread
                // still owns (it is joined below); no memory is passed.
                unsafe { shutdown(self.listener_fd, SHUT_RDWR) };
            }
            let _ = h.join();
        }
        let _ = std::fs::remove_file(self.shared.cfg.sock_path(self.shared.cfg.rank));
    }
}

impl Drop for WireNode {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// `shutdown(2)`'s "both directions".
const SHUT_RDWR: i32 = 2;

extern "C" {
    fn shutdown(fd: i32, how: i32) -> i32;
}

/// The Unix-domain-socket [`Transport`]: envelopes crossing this seam are
/// codec-encoded into frames. [`Payload::Shared`] — the `Arc`-based
/// zero-clone multicast representation — is rejected: sharing one
/// allocation only means something inside one address space, and a silent
/// deep copy here would falsify the in-proc zero-clone accounting.
pub struct UdsTransport {
    shared: Arc<NodeShared>,
}

impl Transport for UdsTransport {
    fn kind(&self) -> &'static str {
        "uds"
    }

    fn size(&self) -> usize {
        self.shared.cur_size()
    }

    fn capacity(&self) -> usize {
        self.shared.cfg.max_size
    }

    fn deliver(&self, dst: usize, env: Envelope) -> Result<()> {
        match env.payload {
            Payload::Shared { .. } => Err(RuntimeError::TypeMismatch {
                expected: "wire-encodable payload (Payload::Shared is in-proc-only)",
                src: env.src_global,
                tag: env.tag,
            }),
            Payload::Owned(boxed) => {
                let (src, tag) = (env.src_global, env.tag);
                let unregistered = || RuntimeError::TypeMismatch {
                    expected: "a type registered in the CodecRegistry",
                    src,
                    tag,
                };
                match boxed.downcast::<Vec<f64>>() {
                    Ok(values) => self.shared.send_any(
                        dst,
                        env.context,
                        tag,
                        Outgoing::Values(*values),
                        unregistered,
                    ),
                    Err(other) => self.shared.send_any(
                        dst,
                        env.context,
                        tag,
                        Outgoing::Any(other.as_ref()),
                        unregistered,
                    ),
                }
            }
        }
    }

    fn deliver_pair(&self, dst: usize, first: Envelope, second: Envelope) -> Result<()> {
        self.deliver(dst, first)?;
        self.deliver(dst, second)
    }

    fn wake_all(&self) {
        self.shared.mailbox.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mxn-wire-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mesh(dir: &Path, n: usize) -> Vec<WireNode> {
        mesh_with(dir, n, |_| {})
    }

    /// An `n`-node mesh whose configurations `tune` adjusts.
    fn mesh_with(dir: &Path, n: usize, tune: impl Fn(&mut WireConfig)) -> Vec<WireNode> {
        let nodes: Vec<WireNode> = (0..n)
            .map(|r| {
                let mut cfg = WireConfig::new(dir, r, n);
                tune(&mut cfg);
                WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap()
            })
            .collect();
        // Connect concurrently: dialing blocks until the peer binds, and
        // every node both dials and is dialed.
        std::thread::scope(|s| {
            for node in &nodes {
                s.spawn(move || node.connect().unwrap());
            }
        });
        nodes
    }

    /// The bulk benchmark's setting: no periodic fences, a deadline long
    /// enough for 1 MiB frames on a loaded host.
    fn fences_off(cfg: &mut WireConfig) {
        cfg.fence_interval = Duration::from_secs(3600);
        cfg.liveness_deadline = Duration::from_secs(5);
    }

    #[test]
    fn two_nodes_exchange_typed_messages() {
        let dir = test_dir("pair");
        let nodes = mesh(&dir, 2);
        nodes[0].send(1, 7, 3, vec![1.5f64, 2.5]).unwrap();
        nodes[1].send(0, 7, 4, String::from("pong")).unwrap();
        let v: Vec<f64> = nodes[1].recv_timeout(0, 7, 3, Duration::from_secs(5)).unwrap();
        assert_eq!(v, vec![1.5, 2.5]);
        let s: String = nodes[0].recv_timeout(1, 7, 4, Duration::from_secs(5)).unwrap();
        assert_eq!(s, "pong");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fifo_order_per_link() {
        let dir = test_dir("fifo");
        let nodes = mesh(&dir, 2);
        for i in 0..100u64 {
            nodes[0].send(1, 1, 1, i).unwrap();
        }
        for i in 0..100u64 {
            let got: u64 = nodes[1].recv_timeout(0, 1, 1, Duration::from_secs(5)).unwrap();
            assert_eq!(got, i);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unregistered_type_is_a_type_error_not_a_hang() {
        struct Opaque;
        let dir = test_dir("unreg");
        let nodes = mesh(&dir, 2);
        let err = nodes[0].send(1, 1, 1, Opaque).unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_payloads_are_rejected_by_the_uds_transport() {
        let dir = test_dir("shared");
        let nodes = mesh(&dir, 2);
        let t = nodes[0].transport();
        let env = Envelope::new(0, 0, 1, 1, 8, None, Payload::shared(Arc::new(5u64)));
        assert!(matches!(t.deliver(1, env), Err(RuntimeError::TypeMismatch { .. })));
        // Owned payloads of registered types go through the same seam.
        let env = Envelope::new(0, 0, 1, 2, 8, None, Payload::owned(9u64));
        t.deliver(1, env).unwrap();
        let got: u64 = nodes[1].recv_timeout(0, 1, 2, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 9);
        assert_eq!(t.kind(), "uds");
        assert_eq!(t.size(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (s, d) pair indexing reads clearer
    fn three_node_mesh_all_pairs() {
        let dir = test_dir("mesh3");
        let nodes = mesh(&dir, 3);
        for s in 0..3 {
            for d in 0..3 {
                if s != d {
                    nodes[s].send(d, 2, (s * 3 + d) as i32, (s as u64, d as u64)).unwrap();
                }
            }
        }
        for s in 0..3 {
            for d in 0..3 {
                if s != d {
                    let got: (u64, u64) = nodes[d]
                        .recv_timeout(s, 2, (s * 3 + d) as i32, Duration::from_secs(5))
                        .unwrap();
                    assert_eq!(got, (s as u64, d as u64));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orderly_shutdown_marks_peer_dead_not_hung() {
        let dir = test_dir("bye");
        let mut nodes = mesh(&dir, 2);
        let n1 = nodes.pop().unwrap();
        n1.shutdown();
        assert!(nodes[0].await_death(1, Duration::from_secs(5)), "Bye marks the peer dead");
        let err = nodes[0].recv::<u64>(1, 1, 1).unwrap_err();
        assert!(matches!(err, RuntimeError::PeerDead { rank: 1 }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abrupt_death_is_detected_and_survivors_agree() {
        let dir = test_dir("crash");
        let mut nodes = mesh(&dir, 3);
        // Simulate a crash of rank 2: close its sockets without Bye.
        let crashed = nodes.pop().unwrap();
        {
            // Mark shutdown without the goodbye protocol: readers on the
            // peers see raw EOF, exactly like a kill -9.
            crashed.shared.shutdown.store(true, Ordering::Release);
            for peer in 0..2 {
                crashed.shared.peers[peer].sender.lock().shutdown();
            }
        }
        for node in &nodes {
            assert!(
                node.await_death(2, Duration::from_secs(10)),
                "rank {} never declared 2 dead",
                node.rank()
            );
        }
        let survivors = std::thread::scope(|s| {
            let handles: Vec<_> = nodes
                .iter()
                .map(|n| s.spawn(move || n.agree_survivors(1, Duration::from_secs(5)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        assert_eq!(survivors[0], vec![0, 1]);
        assert_eq!(survivors[1], vec![0, 1]);
        drop(crashed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn mesh_max(dir: &Path, n: usize, max: usize) -> Vec<WireNode> {
        mesh_with(dir, n, |cfg| cfg.max_size = max)
    }

    #[test]
    fn acks_keep_bulk_rings_at_the_undelivered_tail() {
        let dir = test_dir("bulk-acks");
        let nodes = mesh_with(&dir, 2, fences_off);
        // 1 MiB of f64s, distinct per sender and exchange.
        let field = |from: usize, i: usize| -> Vec<f64> {
            (0..1 << 17).map(|k| (from * 1000 + i) as f64 * 1e6 + k as f64).collect()
        };
        std::thread::scope(|s| {
            for (me, node) in nodes.iter().enumerate() {
                s.spawn(move || {
                    let peer = 1 - me;
                    for i in 0..64 {
                        node.send(peer, 4, 1, field(me, i)).unwrap();
                        let got: Vec<f64> =
                            node.recv_timeout(peer, 4, 1, Duration::from_secs(20)).unwrap();
                        assert!(got == field(peer, i), "exchange {i} from rank {peer} differs");
                    }
                });
            }
        });
        for (me, node) in nodes.iter().enumerate() {
            let retained = node.shared.peers[1 - me].sender.lock().retained();
            assert!(retained <= 2, "rank {me} still retains {retained} frames");
            let stats = node.stats();
            assert_eq!((stats.frames_sent, stats.frames_received), (64, 64));
            // One ack rides on a send when a 1 MiB frame or two arrived
            // since the last: at most one per send, never on the first.
            assert!((32..64).contains(&stats.acks_sent), "{} acks", stats.acks_sent);
            assert_eq!(stats.duplicates_dropped, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn acks_never_nack_or_readmit() {
        let dir = test_dir("ack-rules");
        let nodes = mesh_with(&dir, 2, fences_off);
        let t = Duration::from_secs(10);
        // Rank 0 → 1: seqs 1..=4, all delivered; the last one is a marker
        // behind which every earlier frame on the stream has been handled.
        let sync = |marker: u64| {
            nodes[0].send(1, 5, 5, marker).unwrap();
            assert_eq!(nodes[1].recv_timeout::<u64>(0, 5, 5, t).unwrap(), marker);
        };
        for i in 0..4 {
            sync(i);
        }
        // Fences from rank 1 as rank 0's reader would hand them over.
        let from_1 = |fence_seq: u64, watermark: u64| {
            let mut fence = Frame::control(FrameKind::ProgressFence, 1);
            fence.payload = encode_value(&(fence_seq, watermark));
            nodes[0].shared.handle_frame(1, fence);
        };
        // An ack for seq 2, then the first periodic fence repeating it:
        // progress since the last periodic fence, not a NACK.
        from_1(0, 2);
        from_1(1, 2);
        // A second periodic fence at seq 2 is a NACK: seqs 3 and 4 are
        // replayed and the duplicate guard drops them.
        from_1(2, 2);
        sync(4);
        assert_eq!(nodes[1].stats().duplicates_dropped, 2, "exactly one replay, for the NACK");

        // Quarantined, rank 1 is readmitted by a caught-up periodic fence
        // but never by an ack, caught up or not.
        nodes[0].shared.quarantine(1, 0);
        from_1(0, 5);
        assert!(nodes[0].is_quarantined(1), "an ack readmitted a quarantined peer");
        from_1(3, 5);
        assert!(!nodes[0].is_quarantined(1) && !nodes[0].is_dead(1));
        assert_eq!(nodes[0].stats().zombies_readmitted, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vectors_ping_pong_in_recycled_allocations() {
        use crate::frame::{SPARE_BYTES, SPARE_VALUES};
        use std::collections::HashSet;
        let dir = test_dir("vec-pingpong");
        let nodes = mesh_with(&dir, 2, fences_off);
        let t = Duration::from_secs(20);
        // 1 MiB of f64s, distinct per sender and exchange.
        let fill = |v: &mut Vec<f64>, from: usize, i: usize| {
            v.clear();
            v.extend((0..1 << 17).map(|k| (from * 1000 + i) as f64 * 1e6 + k as f64));
        };
        let field = |from: usize, i: usize| {
            let mut v = Vec::new();
            fill(&mut v, from, i);
            v
        };
        std::thread::scope(|s| {
            for (me, node) in nodes.iter().enumerate() {
                s.spawn(move || {
                    let peer = 1 - me;
                    // Every allocation this node sent or received: after
                    // two exchanges, each body lands in one of them.
                    let mut seen = HashSet::new();
                    let mut buf = field(me, 0);
                    for i in 0..32 {
                        if me == 0 {
                            fill(&mut buf, me, i);
                            seen.insert(buf.as_ptr() as usize);
                            node.send(peer, 4, 1, buf).unwrap();
                        }
                        let got: Vec<f64> = node.recv_timeout(peer, 4, 1, t).unwrap();
                        assert!(got == field(peer, i), "exchange {i} from rank {peer} differs");
                        if i >= 2 {
                            let reused = seen.contains(&(got.as_ptr() as usize));
                            assert!(reused, "rank {me}: exchange {i} landed in a fresh allocation");
                        }
                        seen.insert(got.as_ptr() as usize);
                        buf = got;
                        if me == 1 {
                            fill(&mut buf, me, i);
                            node.send(peer, 4, 1, buf).unwrap();
                            buf = Vec::new();
                        }
                        let spares = &node.shared.spares;
                        assert!(spares.len() <= SPARE_VALUES && spares.bytes() <= SPARE_BYTES);
                    }
                });
            }
        });
        for node in &nodes {
            let stats = node.stats();
            assert_eq!((stats.frames_sent, stats.frames_received), (32, 32));
            assert_eq!(stats.duplicates_dropped, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_never_waits_on_a_sender_lock() {
        let dir = test_dir("reader-no-lock");
        let nodes = mesh_with(&dir, 2, fences_off);
        let t = Duration::from_secs(10);
        let sync = |marker: u64| {
            nodes[0].send(1, 5, 5, marker).unwrap();
            assert_eq!(nodes[1].recv_timeout::<u64>(0, 5, 5, t).unwrap(), marker);
        };
        for i in 0..4 {
            sync(i);
        }
        let fence = |fence_seq: u64, watermark: u64| {
            let mut fence = Frame::control(FrameKind::ProgressFence, 1);
            fence.payload = encode_value(&(fence_seq, watermark));
            fence
        };
        nodes[0].shared.handle_frame(1, fence(1, 2));
        // An application thread holds the lock, as one blocked writing to
        // rank 1 would: a NACK and a Hello from rank 1 must not wait on it.
        let held = nodes[0].shared.peers[1].sender.lock();
        let start = Instant::now();
        nodes[0].shared.handle_frame(1, fence(2, 2));
        let mut hello = Frame::control(FrameKind::Hello, 1);
        hello.payload = encode_value(&(nodes[1].shared.session, 3u64));
        nodes[0].shared.handle_frame(1, hello);
        let took = start.elapsed();
        assert!(took < Duration::from_millis(100), "the reader waited {took:?} on the lock");
        drop(held);
        // The next holder replays seqs 3 and 4 once, for both requests.
        let owed = || nodes[0].shared.peers[1].replay_from.load(Ordering::Acquire) != NO_REPLAY;
        let deadline = Instant::now() + t;
        while owed() {
            assert!(Instant::now() < deadline, "the recorded replay never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        sync(4);
        assert_eq!(nodes[1].stats().duplicates_dropped, 2, "exactly one replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zombie_peer_is_quarantined_then_evicted() {
        let dir = test_dir("zombie");
        std::fs::create_dir_all(&dir).unwrap();
        // Rank 0 plays the SIGSTOP'd zombie: its listener's kernel backlog
        // accepts every dial, but the "application" never reads a byte and
        // never speaks. Heartbeat-miss → reconnect loops forever; only the
        // frozen watermark tells the truth.
        let _zombie = UnixListener::bind(dir.join("rank_0.sock")).unwrap();
        let mut cfg = WireConfig::new(&dir, 1, 2);
        cfg.quarantine_grace = Duration::from_millis(400);
        let node = WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap();
        node.connect().unwrap();
        // Outstanding data: the stall detector needs something undelivered.
        node.send(0, 1, 1, 7u64).unwrap();
        assert!(node.await_quarantine(0, Duration::from_secs(10)), "watermark stall missed");
        assert!(node.is_dead(0), "quarantine poisons liveness immediately");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !node.is_evicted(0) {
            assert!(Instant::now() < deadline, "grace expiry never evicted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!node.is_quarantined(0), "eviction supersedes quarantine");
        let stats = node.stats();
        assert!(stats.fences_sent >= 1);
        assert_eq!(stats.zombies_quarantined, 1);
        assert_eq!(stats.zombies_evicted, 1);
        assert_eq!(stats.zombies_readmitted, 0);
        assert!(matches!(node.send(0, 1, 1, 8u64), Err(RuntimeError::PeerDead { rank: 0 })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spare_node_joins_and_the_mesh_grows() {
        let dir = test_dir("join");
        let nodes = mesh_max(&dir, 3, 4);
        let mut cfg = WireConfig::new(&dir, 3, 4);
        cfg.max_size = 4;
        let spare = WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap();
        let t = Duration::from_secs(10);
        std::thread::scope(|s| {
            let sponsor = s.spawn(|| nodes[0].expand_mesh(0, b"step=42", t).unwrap());
            let v1 = s.spawn(|| nodes[1].join_vote(0, t).unwrap());
            let v2 = s.spawn(|| nodes[2].join_vote(0, t).unwrap());
            let newcomer = s.spawn(|| {
                spare.connect().unwrap();
                spare.join_mesh(0, t).unwrap()
            });
            assert_eq!(sponsor.join().unwrap(), 4);
            assert_eq!(v1.join().unwrap(), 3);
            assert_eq!(v2.join().unwrap(), 3);
            assert_eq!(newcomer.join().unwrap(), b"step=42".to_vec());
        });
        for node in &nodes {
            assert_eq!(node.size(), 4, "rank {} never grew", node.rank());
        }
        // The admitted rank is a first-class member: traffic both ways.
        nodes[1].send(3, 2, 9, 123u64).unwrap();
        let got: u64 = spare.recv_timeout(1, 2, 9, t).unwrap();
        assert_eq!(got, 123);
        spare.send(2, 2, 10, 321u64).unwrap();
        let got: u64 = nodes[2].recv_timeout(3, 2, 10, t).unwrap();
        assert_eq!(got, 321);
        assert_eq!(nodes[0].stats().joins_committed, 1);
        let transport = nodes[0].transport();
        assert_eq!(transport.size(), 4);
        assert_eq!(transport.capacity(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_or_missing_newcomer_vote_never_splits_the_mesh() {
        // A spare that announces itself and then sits on its vote with every
        // socket still open: each incumbent sees it wired and votes at once,
        // so only the newcomer's own vote decides. Everyone uses the same
        // timeout; the vote comes well inside the first round (commit),
        // right at its deadline (either verdict) or never (abort), and
        // sponsor and incumbent must decide alike every time.
        let t = Duration::from_millis(400);
        let cases = [
            (Some(t / 2), Some(true)),
            (Some(t - Duration::from_millis(10)), None),
            (None, Some(false)),
        ];
        for (i, (delay, expect)) in cases.into_iter().enumerate() {
            let dir = test_dir(&format!("join-late-{i}"));
            let nodes = mesh_max(&dir, 2, 3);
            let mut cfg = WireConfig::new(&dir, 2, 3);
            cfg.max_size = 3;
            let spare = WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap();
            let (sponsor, voter) = std::thread::scope(|s| {
                let sponsor = s.spawn(|| nodes[0].expand_mesh(0, b"", t));
                let voter = s.spawn(|| nodes[1].join_vote(0, t));
                spare.connect().unwrap();
                spare.send(0, WIRE_CTRL_CONTEXT, JOIN_REQ_TAG, 2u64).unwrap();
                if let Some(delay) = delay {
                    let offer = spare.recv_offer(0, t).unwrap();
                    assert_eq!(offer.attempt, 0);
                    std::thread::sleep(delay);
                    let _ = spare.join_offered(0, &offer, t);
                }
                (sponsor.join().unwrap(), voter.join().unwrap())
            });
            assert_eq!(sponsor.is_ok(), voter.is_ok(), "{delay:?}: {sponsor:?} vs {voter:?}");
            if let Some(commit) = expect {
                assert_eq!(sponsor.is_ok(), commit, "{delay:?}: {sponsor:?}");
            }
            for err in [sponsor.as_ref().err(), voter.as_ref().err()].into_iter().flatten() {
                assert!(matches!(err, RuntimeError::ReconfigAborted { attempt: 0, .. }), "{err:?}");
            }
            let size = if sponsor.is_ok() { 3 } else { 2 };
            for node in &nodes {
                assert_eq!(node.size(), size, "{delay:?}: rank {} diverged", node.rank());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn expand_without_a_newcomer_aborts_and_rolls_back() {
        let dir = test_dir("join-abort");
        let nodes = mesh_max(&dir, 2, 3);
        let err = nodes[0].expand_mesh(5, b"", Duration::from_millis(300)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt: 5 }),
            "got {err:?}"
        );
        assert_eq!(nodes[0].size(), 2, "membership rolled back");
        assert_eq!(nodes[0].stats().joins_aborted, 1);
        // The old mesh is untouched by the aborted attempt.
        nodes[0].send(1, 1, 1, 11u64).unwrap();
        let got: u64 = nodes[1].recv_timeout(0, 1, 1, Duration::from_secs(5)).unwrap();
        assert_eq!(got, 11);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn messages_sent_while_disconnected_resume_after_reconnect() {
        let dir = test_dir("resume");
        let nodes = mesh(&dir, 2);
        // Tear down the link from under node 1 (the dialer side).
        nodes[1].shared.peers[0].sender.lock().shutdown();
        nodes[1].shared.peers[0].sender.lock().detach();
        nodes[1].shared.mark_disconnected(0);
        // Send while down: frames land in the ring.
        for i in 0..5u64 {
            nodes[1].send(0, 3, 3, i * 10).unwrap();
        }
        // The monitor redials, Hello resumes, and the ring drains.
        for i in 0..5u64 {
            let got: u64 = nodes[0].recv_timeout(1, 3, 3, Duration::from_secs(10)).unwrap();
            assert_eq!(got, i * 10);
        }
        assert!(nodes[0].stats().frames_received >= 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
