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
//! The protocol decisions behind all of this — sequencing, acks and
//! fences, NACKs, resume, liveness, quarantine — are one I/O-free machine
//! per peer ([`crate::peer::Link`]). This module only runs it: the send
//! path, the stream readers, the acceptor and the monitor step the
//! machine and do what it says, under the rule of [`crate::peer`]:
//! service threads never wait on a peer's `io` lock.
//!
//! Who reads a stream: a rank blocked in [`WireNode::recv`] with nothing
//! in the mailbox reads it itself — its own frame comes straight back, the
//! rest go to the mailbox — and the stream's reader thread reads only
//! while no rank does, standing down one-shot without being woken
//! (`node/inbound.rs`). Lock order: a read half, then `link`; nobody
//! holds `io` across a blocking read. The mailbox behind `recv` *is*
//! `mxn_runtime::Mailbox`: the wire changes how envelopes
//! arrive, not how they match.
//!
//! A `Vec<f64>` sent with [`WireNode::send`] or [`UdsTransport::deliver`]
//! moves into the link: a large one is written to the socket from its own
//! memory and retained as itself for resends ([`LinkSender::send_values`]).
//! The node's readers land large `Vec<f64>` bodies in vectors from one
//! node-wide [`SpareValues`] list, which acknowledged sends refill, and
//! deliver those vectors as the payload: no codec pass either way.
//!
//! Where the receiver may read the sender's memory, such a body is not
//! written at all. Every `Hello` is followed by a `PullOffer` naming where
//! this process keeps its per-session cookie; the reader of that stream
//! reads the cookie with `process_vm_readv` in the process `SO_PEERCRED`
//! names and, on a match, has the link answer `PullAccept`. From then on
//! the sender writes descriptors on that stream, and whoever reads it
//! pulls each admitted body into a spare vector
//! ([`crate::frame::Descriptor::pull`]) and checks it. A failed pull
//! delivers nothing and ends the stream's read half, so the stream is
//! torn down and the resume replays the frame; a failed probe
//! leaves the stream on whole bodies. In-process meshes always pull;
//! sibling processes pull only where the kernel lets them (YAMA
//! `ptrace_scope` 1 forbids it).

use std::any::Any;
use std::io;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use mxn_framework::CallPolicy;
use mxn_runtime::reconfig::{drive, mask, ControlPlane, Reconfig, Rule};
use mxn_runtime::{
    splitmix64, Envelope, JoinOffer, Liveness, Mailbox, Payload, PeerRef, Result, Revocations,
    RuntimeError, Src, Tag, Transport,
};
use mxn_trace::{emit, emit_instant, EventId, Phase, TraceHandle};

mod inbound;

use crate::codec::{decode_value, encode_value, CodecRegistry};
use crate::fault::WireFaults;
use crate::frame::{Frame, FrameKind, FrameReader, SpareValues};
use crate::link::LinkSender;
use crate::peer::{Action, Actions, Event, Link, Peer, Standing};
use inbound::Stream;

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
    pub(crate) fn sock_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank_{rank}.sock"))
    }

    /// The longest a passive side waits for a dialer to come back before
    /// declaring it dead: the dialer's full (un-jittered) backoff schedule
    /// plus one liveness deadline of slack.
    pub(crate) fn reconnect_window(&self) -> Duration {
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
    /// Data frames whose body the receiver pulled.
    pub bodies_pulled: u64,
    /// Data frames an application thread waiting in `recv` read off a
    /// stream itself, the awaited peer's or another.
    pub frames_read_by_receiver: u64,
}

/// Node-wide counters; the per-link ones live in each [`Link`].
#[derive(Default)]
struct NodeCounters {
    reconnect_dials: AtomicU64,
    joins_committed: AtomicU64,
    joins_aborted: AtomicU64,
    bodies_pulled: AtomicU64,
    frames_read_by_receiver: AtomicU64,
}

struct NodeShared {
    cfg: WireConfig,
    mailbox: Mailbox,
    liveness: Arc<Liveness>,
    registry: CodecRegistry,
    /// The registry's tag for `Vec<f64>`, whose large bodies move without
    /// the codec.
    values_codec: Option<u32>,
    /// Vectors for landed and pulled bodies, refilled by acknowledged
    /// sends.
    spares: Arc<SpareValues>,
    /// The per-session cookie every link offers: a peer that reads it at
    /// this address in our memory pulls the bodies we lend it.
    #[expect(dead_code, reason = "only peers read it, out of this process's memory")]
    cookie: Box<u64>,
    /// Test seam: readers name a process that does not exist as every
    /// stream's peer, so probes and pulls fail.
    #[cfg(test)]
    foreign: AtomicBool,
    /// Wakes the node's waits (`connect`, `await_*`, reconnect backoff,
    /// the monitor's tick).
    signal: Signal,
    /// Preallocated to `cfg.max_size`; ranks in `cur_size..max_size` are
    /// parked spare slots.
    peers: Vec<Peer>,
    /// Each peer's newest stream, read by its reader thread or a rank.
    streams: Vec<Mutex<Option<Arc<Stream>>>>,
    /// Current mesh size. Starts at `cfg.size`, grows when a spare-process
    /// join commits, shrinks back when an attempt is rescinded.
    cur_size: AtomicUsize,
    abort: Arc<AtomicBool>,
    shutdown: AtomicBool,
    counters: NodeCounters,
    /// Recorder the node's internal threads install, so wire spans
    /// (connect/reconnect/corrupt/heartbeat-miss) land in Chrome traces.
    trace: Option<TraceHandle>,
}

impl NodeShared {
    /// Spawns a node thread named `name` running `body`, with the node's
    /// trace recorder (if any) installed so its wire events are recorded.
    fn spawn(
        self: &Arc<Self>,
        name: String,
        body: impl FnOnce(Arc<Self>) + Send + 'static,
    ) -> io::Result<JoinHandle<()>> {
        let shared = Arc::clone(self);
        std::thread::Builder::new().name(name).spawn(move || {
            let _trace = shared.trace.as_ref().map(TraceHandle::install);
            body(shared)
        })
    }

    fn declare_dead(&self, peer: usize) {
        if self.liveness.kill(peer) {
            self.mailbox.wake_all();
        }
        self.wake(peer);
        self.signal.notify();
    }

    /// `peer`'s newest stream.
    fn stream(&self, peer: usize) -> Option<Arc<Stream>> {
        self.streams.get(peer)?.lock().clone()
    }

    /// Makes whoever reads `peer`'s newest stream look again.
    fn wake(&self, peer: usize) {
        if let Some(stream) = self.stream(peer) {
            stream.wake();
        }
    }

    fn cur_size(&self) -> usize {
        self.cur_size.load(Ordering::Acquire)
    }

    /// From a service thread: steps `peer`'s link (never waiting on its
    /// `io`) and carries out what reaches past the link.
    fn service(self: &Arc<Self>, peer: usize, event: Event) -> Actions {
        let actions = self.peers[peer].service(event, &Instant::now);
        for &action in actions.iter() {
            match action {
                Action::Quarantine { stalled } => {
                    emit_instant(EventId::WireZombie, [peer as u64, 1, stalled, 0]);
                    self.declare_dead(peer);
                }
                Action::Readmit { held } => {
                    self.liveness.revive(peer);
                    self.wake(peer);
                    emit_instant(EventId::WireZombie, [peer as u64, 2, 0, micros(held)]);
                    self.signal.notify();
                }
                Action::Evict { held } => {
                    emit_instant(EventId::WireZombie, [peer as u64, 3, 0, micros(held)]);
                    self.declare_dead(peer);
                }
                Action::Missed { silence } => {
                    let deadline = micros(self.cfg.liveness_deadline);
                    emit_instant(
                        EventId::HeartbeatMiss,
                        [peer as u64, micros(silence), deadline, 0],
                    );
                }
                Action::DeclareDead => self.declare_dead(peer),
                Action::Redial if !self.peers[peer].redialing.swap(true, Ordering::AcqRel) => {
                    let name = format!("wire-redial-{}-{peer}", self.cfg.rank);
                    let _ = self.spawn(name, move |shared| shared.reconnect_loop(peer));
                }
                _ => {}
            }
        }
        actions
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
        {
            let mut io = p.io.lock();
            let connected = io.is_connected();
            if !connected {
                // The ring's frames belong to a dead incarnation: replaying
                // them at a fresh process would cross sessions.
                io.clear_ring();
            }
            p.link.lock().step(Event::Admit { connected }, Instant::now(), &mut Actions::default());
        }
        self.liveness.revive(new_rank);
        self.wake(new_rank);
        self.cur_size.store(cur + 1, Ordering::Release);
        Ok(())
    }

    /// Rolls an admission window back after an aborted join: closes any
    /// half-made connection, scrubs the slot, and lowers the membership
    /// (only if no later admit committed on top of it).
    fn rescind_admit(&self, new_rank: usize) {
        let p = &self.peers[new_rank];
        {
            let mut io = p.io.lock();
            io.shutdown();
            io.clear_ring();
            p.link.lock().step(Event::Rescind, Instant::now(), &mut Actions::default());
        }
        self.liveness.revive(new_rank);
        self.wake(new_rank);
        let (from, to) = (new_rank + 1, new_rank);
        let _ = self.cur_size.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Attaches a fresh stream for `peer` and spawns its reader thread.
    /// `reader` carries any bytes already consumed during the handshake.
    /// `hello` is the peer's `(session, last_recv)` on an accepted stream,
    /// whose `Hello` was read already: the ring is replayed past
    /// `last_recv` before anyone waiting on the connection wakes.
    fn attach(
        self: &Arc<Self>,
        peer: usize,
        stream: UnixStream,
        reader: FrameReader,
        hello: Option<(u64, u64)>,
        attempt: u64,
    ) -> io::Result<()> {
        let p = &self.peers[peer];
        // A zombie peer stops draining its socket; once the kernel buffer
        // fills, a blocking write would wedge whichever thread holds `io`.
        // Bound every write so a full pipe surfaces as a link failure.
        stream.set_write_timeout(Some(self.cfg.liveness_deadline))?;
        let read_half = stream.try_clone()?;
        let from = peer_pid(&stream);
        let mut reader = reader;
        if let Some(codec) = self.values_codec {
            reader.land_values(codec, Arc::clone(&self.spares));
        }
        let (said_hello, generation) = p.attach(stream, hello, &Instant::now);
        let recv = p.link.lock().recv();
        if !said_hello {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "Hello not written"));
        }
        let inbound = Arc::new(Stream::new(read_half, reader, generation, from)?);
        {
            // Of two attaches racing here, the newer stream stays; the one
            // it replaces is retired.
            let mut newest = self.streams[peer].lock();
            let stale = if newest.as_ref().is_none_or(|s| s.generation < generation) {
                newest.replace(Arc::clone(&inbound))
            } else {
                Some(Arc::clone(&inbound))
            };
            stale.inspect(|old| old.retire());
        }
        self.signal.notify();
        let resumed = u64::from(hello.is_some());
        emit_instant(EventId::WireConnect, [peer as u64, attempt, recv, resumed]);
        let name = format!("wire-read-{}-{peer}", self.cfg.rank);
        self.spawn(name, move |shared| shared.reader_loop(peer, inbound))?;
        Ok(())
    }

    /// Reads the peer's opening `Hello` off a freshly accepted stream.
    fn read_hello(stream: &UnixStream) -> io::Result<(Frame, FrameReader)> {
        let mut s = stream.try_clone()?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        let (mut frames, mut buf) = (FrameReader::new(), [0u8; 4096]);
        loop {
            match frames.next() {
                Some(Ok(f)) if f.kind == FrameKind::Hello => {
                    stream.set_read_timeout(None)?;
                    return Ok((f, frames));
                }
                // Anything else before Hello is a protocol violation from an
                // unknown peer: drop the connection.
                Some(_) => return Err(io::Error::other("expected Hello as first frame")),
                None if frames.read_from(&mut s, &mut buf)? == 0 => {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                None => {}
            }
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
                // Handshake off-thread so one slow dialer cannot stall the
                // accept queue.
                Ok((stream, _)) => {
                    let name = format!("wire-hello-{}", self.cfg.rank);
                    let _ = self.spawn(name, move |shared| shared.handshake(stream));
                }
                // A failing `accept` (descriptor exhaustion) backs off
                // instead of spinning.
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Attaches an accepted stream once its `Hello` names the dialer.
    fn handshake(self: Arc<Self>, stream: UnixStream) {
        let Ok((hello, frames)) = NodeShared::read_hello(&stream) else { return };
        let peer = hello.src as usize;
        // Accept up to `max_size`: a joining spare dials the mesh before
        // every incumbent has raised its membership.
        if let (true, Ok(hello)) =
            (peer < self.cfg.max_size && peer != self.cfg.rank, decode_value(&hello.payload))
        {
            let _ = self.attach(peer, stream, frames, Some(hello), 0);
        }
    }

    /// Heartbeat/liveness monitor: ticks every link, whose machine
    /// beacons and fences it, detects silence, asks for redials, expires
    /// the passive reconnect window, and walks the peer through
    /// quarantine → readmit/evict. It waits on the node's signal, so
    /// shutdown wakes it at once.
    fn monitor_loop(self: Arc<Self>) {
        let tick = self.cfg.heartbeat / 2;
        while !self.signal.wait_until(tick, || self.shutdown.load(Ordering::Acquire)) {
            for peer in (0..self.cur_size()).filter(|&peer| peer != self.cfg.rank) {
                self.service(peer, Event::Tick { dead: self.liveness.is_dead(peer) });
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
            self.counters.reconnect_dials.fetch_add(1, Ordering::Relaxed);
            if let Ok(stream) = UnixStream::connect(self.cfg.sock_path(peer)) {
                if self.attach(peer, stream, FrameReader::new(), None, u64::from(attempt)).is_ok() {
                    emit(
                        EventId::WireReconnect,
                        Phase::End,
                        [peer as u64, u64::from(attempt), 1, 0],
                    );
                    self.peers[peer].redialing.store(false, Ordering::Release);
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
        self.peers[peer].redialing.store(false, Ordering::Release);
    }

    /// Says goodbye to every live peer, closes every link, and wakes every
    /// wait: the node stops, once.
    fn stop(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for peer in (0..self.cur_size()).filter(|&p| p != self.cfg.rank) {
            if !self.liveness.is_dead(peer) {
                let mut io = self.peers[peer].io.lock();
                let _ = io.send_control(FrameKind::Bye);
                io.shutdown();
            }
        }
        self.abort.store(true, Ordering::Release);
        self.mailbox.wake_all();
        (0..self.cfg.max_size).for_each(|peer| self.wake(peer));
        self.signal.notify();
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
        let codec = match &value {
            Outgoing::Values(_) => self.values_codec,
            Outgoing::Any(value) => self.registry.tag_of_value(*value),
        };
        let Some(codec) = codec else {
            return Err(unregistered());
        };
        // A failed write leaves the frame in the ring; the reconnect and
        // resume machinery owns redelivery from there.
        self.peers[dst].send(&Instant::now, |io| match value {
            Outgoing::Values(values) => io.send_values(context, tag, codec, values),
            Outgoing::Any(value) => io
                .send_data(context, tag, |out| self.registry.encode_any_into(value, out))
                .expect("a registered type encodes"),
        });
        Ok(())
    }
}

/// Whole microseconds of `d`, for trace arguments.
fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
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
        let cookie = Box::new(splitmix64(session ^ 0x5eed_c00c_1e00_0000));
        let at = &*cookie as *const u64 as u64;
        let now = Instant::now();
        let peers = (0..cfg.max_size)
            .map(|peer| {
                let io = LinkSender::new(cfg.rank as u32, peer as u32, cfg.faults)
                    .with_spares(Arc::clone(&spares))
                    .offering(at, *cookie);
                Peer::new(Link::new(&cfg, session, peer, now), io)
            })
            .collect();
        let shared = Arc::new(NodeShared {
            mailbox: Mailbox::new(abort.clone(), liveness.clone(), revocations),
            liveness,
            values_codec: registry.tag_of::<Vec<f64>>(),
            registry,
            spares,
            cookie,
            #[cfg(test)]
            foreign: AtomicBool::new(false),
            signal: Signal::default(),
            streams: (0..cfg.max_size).map(|_| Mutex::new(None)).collect(),
            peers,
            cur_size: AtomicUsize::new(cfg.size),
            abort,
            shutdown: AtomicBool::new(false),
            counters: NodeCounters::default(),
            trace,
            cfg,
        });
        let rank = shared.cfg.rank;
        let acceptor =
            shared.spawn(format!("wire-accept-{rank}"), |s| s.acceptor_loop(listener))?;
        let monitor = shared.spawn(format!("wire-monitor-{rank}"), NodeShared::monitor_loop)?;
        Ok(WireNode { shared, acceptor: Some(acceptor), listener_fd, monitor: Some(monitor) })
    }

    /// Completes the mesh: dials every lower rank (retrying while peers
    /// are still binding) and waits until every higher rank has dialed us.
    pub fn connect(&self) -> io::Result<()> {
        let cfg = &self.shared.cfg;
        let deadline = Instant::now() + cfg.connect_timeout;
        for peer in 0..cfg.rank {
            // Retry while the peer is still binding its socket.
            let stream = loop {
                match UnixStream::connect(cfg.sock_path(peer)) {
                    Ok(stream) => break stream,
                    Err(e) if Instant::now() >= deadline => {
                        let e = format!("rank {peer} never bound its socket: {e}");
                        return Err(io::Error::new(io::ErrorKind::TimedOut, e));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            self.shared.attach(peer, stream, FrameReader::new(), None, 0)?;
        }
        // Higher ranks dial us; `attach` signals each arrival.
        for peer in cfg.rank + 1..cfg.size {
            let left = deadline.saturating_duration_since(Instant::now());
            let dialed = || self.shared.peers[peer].link.lock().standing() != Standing::Connecting;
            if !self.shared.signal.wait_until(left, dialed) {
                let e = format!("rank {peer} never dialed us");
                return Err(io::Error::new(io::ErrorKind::TimedOut, e));
            }
        }
        Ok(())
    }

    /// This node's global rank.
    pub(crate) fn rank(&self) -> usize {
        self.shared.cfg.rank
    }

    /// Current mesh size (grows when a spare-process join commits).
    pub fn size(&self) -> usize {
        self.shared.cur_size()
    }

    /// Whether `rank` has been declared dead.
    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.shared.liveness.is_dead(rank)
    }

    /// Blocks until `rank` is declared dead or `timeout` passes; returns
    /// whether it died in time.
    pub fn await_death(&self, rank: usize, timeout: Duration) -> bool {
        self.shared.signal.wait_until(timeout, || self.is_dead(rank))
    }

    /// Whether `rank` is currently quarantined (provisionally dead: frames
    /// dropped, operations fail fast, but readmission is still possible).
    pub(crate) fn is_quarantined(&self, rank: usize) -> bool {
        matches!(self.shared.peers[rank].link.lock().standing(), Standing::Quarantined(_))
    }

    /// Whether the quarantine verdict on `rank` became final.
    pub fn is_evicted(&self, rank: usize) -> bool {
        self.shared.peers[rank].link.lock().standing() == Standing::Evicted
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
                self.shared.peers[peer].io.lock().set_armed(armed);
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
    /// surfaces as [`RuntimeError::Corrupt`]. With nothing in the mailbox,
    /// the caller reads `src`'s stream itself when no other thread does.
    pub fn recv<T: Any>(&self, src: usize, context: u32, tag: i32) -> Result<T> {
        self.recv_within(src, context, tag, None)
    }

    /// [`WireNode::recv`] with a deadline.
    pub fn recv_timeout<T: Any>(
        &self,
        src: usize,
        context: u32,
        tag: i32,
        timeout: Duration,
    ) -> Result<T> {
        self.recv_within(src, context, tag, Some(timeout))
    }

    fn recv_within<T: Any>(
        &self,
        src: usize,
        context: u32,
        tag: i32,
        timeout: Option<Duration>,
    ) -> Result<T> {
        let (start, shared) = (Instant::now(), &self.shared);
        let (from, on, peers) =
            (Src::Rank(src), Tag::Value(tag), [PeerRef { global: src, local: src }]);
        let read = match shared.mailbox.try_take(context, from, on) {
            Some(env) => Some(Ok(env)),
            None => shared.read_for(src, (context, tag), start, timeout.map(|t| start + t)),
        };
        let env = match (read, timeout) {
            (Some(read), _) => read,
            (None, None) => shared.mailbox.take(context, from, on, &peers),
            (None, Some(t)) => {
                let left = t.saturating_sub(start.elapsed());
                shared.mailbox.take_timeout(context, from, on, left, &peers)
            }
        }?;
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
            self.shared.service(r, Event::AgreedDead);
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
    /// in the same join vote the in-proc `InterComm::expand` runs:
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
            self.shared.counters.joins_aborted.fetch_add(1, Ordering::Relaxed);
            emit(EventId::WireJoin, Phase::End, [new_rank as u64, attempt, 0, new_rank as u64]);
            return Err(RuntimeError::ReconfigAborted { context: WIRE_CTRL_CONTEXT, attempt });
        }
        self.send(new_rank, WIRE_CTRL_CONTEXT, JOIN_STATE_TAG, state.to_vec())?;
        self.shared.counters.joins_committed.fetch_add(1, Ordering::Relaxed);
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
            && self
                .shared
                .signal
                .wait_until(timeout / 2, || self.shared.peers[new_rank].io.lock().is_connected());
        let committed = self.join_decide(&offer, wired, timeout);
        emit_instant(
            EventId::WireJoin,
            [new_rank as u64, attempt, committed.into(), self.size() as u64],
        );
        if committed {
            self.shared.counters.joins_committed.fetch_add(1, Ordering::Relaxed);
            return Ok(new_rank);
        }
        if admitted {
            self.shared.rescind_admit(new_rank);
        }
        self.shared.counters.joins_aborted.fetch_add(1, Ordering::Relaxed);
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

    /// Snapshot of the wire counters: the node's own plus every link's.
    pub fn stats(&self) -> WireStats {
        let c = &self.shared.counters;
        let mut s = WireStats {
            reconnect_dials: c.reconnect_dials.load(Ordering::Relaxed),
            joins_committed: c.joins_committed.load(Ordering::Relaxed),
            joins_aborted: c.joins_aborted.load(Ordering::Relaxed),
            bodies_pulled: c.bodies_pulled.load(Ordering::Relaxed),
            frames_read_by_receiver: c.frames_read_by_receiver.load(Ordering::Relaxed),
            ..WireStats::default()
        };
        for peer in &self.shared.peers {
            let l = peer.link.lock().stats;
            s.frames_sent += l.frames_sent;
            s.frames_received += l.frames_received;
            s.corrupt_frames += l.corrupt_frames;
            s.duplicates_dropped += l.duplicates_dropped;
            s.heartbeat_misses += l.heartbeat_misses;
            s.fences_sent += l.fences_sent;
            s.acks_sent += l.acks_sent;
            s.zombies_quarantined += l.zombies_quarantined;
            s.zombies_readmitted += l.zombies_readmitted;
            s.zombies_evicted += l.zombies_evicted;
        }
        s
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
        self.shared.stop();
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.acceptor.take() {
            // The listener stays open until the joined acceptor drops it.
            wake_acceptor(&self.shared.cfg.sock_path(self.shared.cfg.rank), self.listener_fd);
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

/// Wakes a thread blocked in `accept` on the listener `fd` bound at
/// `path`: a connection wakes it; with the socket file gone, shutting the
/// listener down does (on Linux, `accept` then fails). The acceptor checks
/// its stop flag after every `accept`.
pub(crate) fn wake_acceptor(path: &Path, fd: i32) {
    if UnixStream::connect(path).is_err() {
        inbound::shutdown_socket(fd, inbound::SHUT_RDWR);
    }
}

/// `struct ucred`, what `SO_PEERCRED` reports.
#[repr(C)]
#[derive(Default)]
struct Ucred {
    pid: i32,
    uid: u32,
    gid: u32,
}

/// `SOL_SOCKET` and `SO_PEERCRED` where Linux uses the generic values.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "x86", target_arch = "aarch64", target_arch = "arm")
))]
const PEERCRED: Option<(i32, i32)> = Some((1, 17));
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "x86", target_arch = "aarch64", target_arch = "arm")
)))]
const PEERCRED: Option<(i32, i32)> = None;

extern "C" {
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut Ucred, len: *mut u32) -> i32;
}

/// The process at the other end of `stream`, as the kernel recorded it
/// when the connection was made; no frame ever names a pid.
fn peer_pid(stream: &UnixStream) -> Option<i32> {
    let (level, name) = PEERCRED?;
    let mut cred = Ucred::default();
    let mut len = std::mem::size_of::<Ucred>() as u32;
    // SAFETY: `getsockopt(2)` writes at most `len` bytes into `cred`, a
    // live `Ucred` of exactly that size, and its new length into `len`;
    // the descriptor is borrowed from `stream` for the call.
    let ok = unsafe { getsockopt(stream.as_raw_fd(), level, name, &mut cred, &mut len) } == 0;
    (ok && len as usize == std::mem::size_of::<Ucred>() && cred.pid > 0).then_some(cred.pid)
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
        let (src, tag) = (env.src_global, env.tag);
        let Payload::Owned(boxed) = env.payload else {
            let expected = "wire-encodable payload (Payload::Shared is in-proc-only)";
            return Err(RuntimeError::TypeMismatch { expected, src, tag });
        };
        let expected = "a type registered in the CodecRegistry";
        let unregistered = || RuntimeError::TypeMismatch { expected, src, tag };
        let other;
        let value = match boxed.downcast::<Vec<f64>>() {
            Ok(values) => Outgoing::Values(*values),
            Err(any) => {
                other = any;
                Outgoing::Any(other.as_ref())
            }
        };
        self.shared.send_any(dst, env.context, tag, value, unregistered)
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
    use super::inbound::Sink;
    use super::*;
    use std::path::Path;
    use std::sync::mpsc;

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
                crashed.shared.peers[peer].io.lock().shutdown();
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
            let retained = node.shared.peers[1 - me].io.lock().retained().0;
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
            nodes[0].shared.handle_frame(1, fence, &mut Sink::default());
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
        let quarantined = nodes[0].shared.peers[1].link.lock().quarantine(0, Instant::now());
        assert_eq!(quarantined, Some(Action::Quarantine { stalled: 0 }));
        nodes[0].shared.declare_dead(1);
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

    /// Waits until every link of `nodes` lends or `lending` is false for
    /// all, having given the probes time to finish.
    fn await_probes(nodes: &[WireNode], lending: bool) {
        let lends = |n: &WireNode, p: usize| n.shared.peers[p].io.lock().lends();
        let settled = || {
            nodes.iter().enumerate().all(|(me, n)| {
                (0..nodes.len()).filter(|&p| p != me).all(|p| lends(n, p) == lending)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !settled() {
            assert!(Instant::now() < deadline, "the probes never settled on lending {lending}");
            std::thread::sleep(Duration::from_millis(1));
        }
        if !lending {
            // A probe that would succeed has long answered by now.
            std::thread::sleep(Duration::from_millis(50));
            assert!(settled(), "a failed probe lends");
        }
    }

    /// A 2-node mesh, fences off, whose readers take every peer for a
    /// process that does not exist when `foreign` is set.
    fn pull_mesh(dir: &Path, foreign: bool) -> Vec<WireNode> {
        let nodes: Vec<WireNode> = (0..2)
            .map(|r| {
                let mut cfg = WireConfig::new(dir, r, 2);
                fences_off(&mut cfg);
                let node = WireNode::start(cfg, CodecRegistry::with_defaults()).unwrap();
                node.shared.foreign.store(foreign, Ordering::Relaxed);
                node
            })
            .collect();
        std::thread::scope(|s| {
            for node in &nodes {
                s.spawn(move || node.connect().unwrap());
            }
        });
        await_probes(&nodes, !foreign);
        nodes
    }

    /// `len` values, distinct per sender and exchange.
    fn field_of(len: usize, from: usize, i: usize) -> Vec<f64> {
        (0..len).map(|k| (from * 1000 + i) as f64 * 1e6 + k as f64).collect()
    }

    /// Both nodes send each other `sizes` in turn; returns how many of the
    /// vectors each received had a body of at least `BODY_IN_PLACE`.
    fn exchange(nodes: &[WireNode], sizes: &[usize]) -> usize {
        use crate::frame::BODY_IN_PLACE;
        std::thread::scope(|s| {
            for (me, node) in nodes.iter().enumerate() {
                s.spawn(move || {
                    let peer = 1 - me;
                    for (i, &len) in sizes.iter().enumerate() {
                        node.send(peer, 4, 1, field_of(len, me, i)).unwrap();
                        let got: Vec<f64> =
                            node.recv_timeout(peer, 4, 1, Duration::from_secs(20)).unwrap();
                        assert!(got == field_of(len, peer, i), "exchange {i} from {peer} differs");
                    }
                });
            }
        });
        sizes.iter().filter(|&&len| 4 + 8 * len >= BODY_IN_PLACE).count()
    }

    #[test]
    fn pull_takes_every_large_vector_in_an_in_process_mesh() {
        let dir = test_dir("pull-all");
        let nodes = pull_mesh(&dir, false);
        let sizes = [1 << 17, 10, 8192, 8191, 1 << 16, 3, 1 << 17, 100_000];
        let large = exchange(&nodes, &sizes);
        assert_eq!(large, 5);
        for node in &nodes {
            let stats = node.stats();
            assert_eq!(stats.bodies_pulled, large as u64, "every large body was pulled");
            assert_eq!((stats.frames_sent, stats.frames_received), (8, 8));
            assert_eq!((stats.corrupt_frames, stats.duplicates_dropped), (0, 0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pull_probe_that_fails_keeps_bodies_streamed() {
        let dir = test_dir("pull-foreign");
        let nodes = pull_mesh(&dir, true);
        exchange(&nodes, &[1 << 17, 10, 1 << 16, 1 << 17]);
        for node in &nodes {
            let stats = node.stats();
            assert_eq!(stats.bodies_pulled, 0, "a link whose probe failed pulled");
            assert_eq!((stats.frames_sent, stats.frames_received), (4, 4));
            assert_eq!((stats.corrupt_frames, stats.reconnect_dials), (0, 0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pull_that_fails_after_a_good_probe_redials_and_replays_once() {
        let dir = test_dir("pull-fails");
        let nodes = pull_mesh(&dir, false);
        let t = Duration::from_secs(20);
        // Rank 0 lends to rank 1; rank 1 dials, so rank 0 replays past what
        // rank 1's Hello reports, and nothing it delivered comes again.
        nodes[0].send(1, 4, 1, field_of(1 << 17, 0, 0)).unwrap();
        assert!(nodes[1].recv_timeout::<Vec<f64>>(0, 4, 1, t).unwrap() == field_of(1 << 17, 0, 0));
        assert_eq!(nodes[1].stats().bodies_pulled, 1);
        // Rank 0's memory turns unreadable to rank 1: the next pull fails.
        nodes[1].shared.foreign.store(true, Ordering::Relaxed);
        nodes[0].send(1, 4, 1, field_of(1 << 17, 0, 1)).unwrap();
        let got: Vec<f64> = nodes[1].recv_timeout(0, 4, 1, t).unwrap();
        assert!(got == field_of(1 << 17, 0, 1), "the replayed frame differs");
        let stats = nodes[1].stats();
        assert_eq!(stats.bodies_pulled, 1, "the failed pull delivered");
        assert_eq!(stats.frames_received, 2, "delivered other than exactly once");
        assert!(stats.reconnect_dials >= 1, "the stream was not dropped");
        assert_eq!((stats.duplicates_dropped, stats.corrupt_frames), (0, 0));
        // The new stream's probe failed too, so bodies now stream.
        await_probes(&nodes[..1], false);
        nodes[0].send(1, 4, 1, field_of(1 << 17, 0, 2)).unwrap();
        assert!(nodes[1].recv_timeout::<Vec<f64>>(0, 4, 1, t).unwrap() == field_of(1 << 17, 0, 2));
        assert_eq!(nodes[1].stats().bodies_pulled, 1);
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
        nodes[0].shared.handle_frame(1, fence(1, 2), &mut Sink::default());
        // An application thread holds the lock, as one blocked writing to
        // rank 1 would: a NACK and a Hello from rank 1 must not wait on it.
        let held = nodes[0].shared.peers[1].io.lock();
        let start = Instant::now();
        nodes[0].shared.handle_frame(1, fence(2, 2), &mut Sink::default());
        let mut hello = Frame::control(FrameKind::Hello, 1);
        hello.payload = encode_value(&(nodes[1].shared.peers[0].link.lock().session(), 3u64));
        nodes[0].shared.handle_frame(1, hello, &mut Sink::default());
        let took = start.elapsed();
        assert!(took < Duration::from_millis(100), "the reader waited {took:?} on the lock");
        drop(held);
        // The next holder replays seqs 3 and 4 once, for both requests.
        let owed = || nodes[0].shared.peers[1].link.lock().owes_replay();
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
    fn monitor_never_waits_on_a_sender_lock() {
        let dir = test_dir("monitor-no-lock");
        let nodes = mesh(&dir, 3);
        // An application thread holds rank 0's lock toward rank 1 past the
        // liveness deadline, as one blocked writing to a zombie would:
        // rank 0's monitor must go on beaconing rank 2 meanwhile.
        let held = nodes[0].shared.peers[1].io.lock();
        std::thread::sleep(Duration::from_millis(400));
        drop(held);
        assert_eq!(nodes[2].stats().heartbeat_misses, 0, "rank 0 went silent toward rank 2");
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
        nodes[1].shared.peers[0].io.lock().shutdown();
        nodes[1].shared.peers[0].io.lock().detach();
        nodes[1].shared.service(0, Event::WriteFailed);
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

    /// How long a test waits for a receive it expects to return.
    const LIMIT: Duration = Duration::from_secs(10);

    /// Runs `f` on a thread of its own, which a hang leaves behind; the
    /// result comes on the channel.
    fn run<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> mpsc::Receiver<R> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx
    }

    /// No heartbeats and no fences: nothing but the test moves a frame, so
    /// only the wake fd or the stream's end wakes a reading rank.
    fn quiet(cfg: &mut WireConfig) {
        (cfg.heartbeat, cfg.fence_interval) =
            (Duration::from_secs(3600), Duration::from_secs(3600));
    }

    /// Waits until a rank of `node` reads `from`'s stream: the stream's
    /// slot, its reader thread, the rank and this look each hold it.
    fn await_reading(node: &WireNode, from: usize) {
        let deadline = Instant::now() + LIMIT;
        while node.shared.stream(from).is_none_or(|s| Arc::strong_count(&s) < 4) {
            assert!(Instant::now() < deadline, "no rank read rank {from}'s stream");
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    #[test]
    fn a_reading_rank_times_out_at_its_deadline_and_the_late_frame_waits() {
        let dir = test_dir("read-timeout");
        let nodes = Arc::new(mesh_with(&dir, 2, quiet));
        let t = Duration::from_millis(200);
        let n = Arc::clone(&nodes);
        let waited = run(move || {
            let start = Instant::now();
            (n[1].recv_timeout::<u64>(0, 6, 1, t), start.elapsed())
        });
        await_reading(&nodes[1], 0);
        let (got, took) = waited.recv_timeout(LIMIT).expect("the deadline passed unnoticed");
        assert!(matches!(got, Err(RuntimeError::Timeout { .. })), "{got:?}");
        assert!(took >= t && took < t + Duration::from_millis(150), "timed out after {took:?}");
        // Sent just after, the frame goes to the next receive: no rank
        // waits, so the reader thread takes it.
        nodes[0].send(1, 6, 1, 41u64).unwrap();
        let n = Arc::clone(&nodes);
        let next = run(move || n[1].recv_timeout::<u64>(0, 6, 1, LIMIT));
        assert_eq!(next.recv_timeout(LIMIT).expect("the late frame was lost").unwrap(), 41);
        assert_eq!(nodes[1].stats().frames_received, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn death_and_shutdown_wake_a_reading_rank() {
        let dir = test_dir("read-wake");
        let nodes = Arc::new(mesh_with(&dir, 3, quiet));
        let n = Arc::clone(&nodes);
        let dead = run(move || n[1].recv::<u64>(0, 7, 1));
        await_reading(&nodes[1], 0);
        nodes[1].shared.declare_dead(0);
        let got = dead.recv_timeout(LIMIT).expect("declare_dead left the rank reading");
        assert!(matches!(got, Err(RuntimeError::PeerDead { rank: 0 })), "{got:?}");
        let n = Arc::clone(&nodes);
        let stopped = run(move || n[2].recv::<u64>(1, 7, 1));
        await_reading(&nodes[2], 1);
        // With the write halves gone, stopping closes no socket under the
        // rank: only its wake fd tells it.
        (0..2).for_each(|p| nodes[2].shared.peers[p].io.lock().detach());
        nodes[2].shared.stop();
        let got = stopped.recv_timeout(LIMIT).expect("shutdown left the rank reading");
        assert!(matches!(got, Err(RuntimeError::Aborted)), "{got:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_redial_under_a_reading_rank_delivers_every_frame_once() {
        let dir = test_dir("read-redial");
        let nodes = Arc::new(mesh(&dir, 2));
        let n = Arc::clone(&nodes);
        let got = run(move || {
            let recv = || n[1].recv_timeout::<u64>(0, 3, 3, LIMIT);
            (0..10).map(|_| recv()).collect::<Result<Vec<u64>>>()
        });
        for i in 0..5u64 {
            nodes[0].send(1, 3, 3, i).unwrap();
        }
        // Rank 1 loses its write side while it reads for the sixth frame
        // and redials; its old stream stays open and silent, so only the
        // swap tells the reading rank. Rank 0 sends the rest on the new one.
        await_reading(&nodes[1], 0);
        let generation = |node: &WireNode, peer| node.shared.stream(peer).unwrap().generation;
        let old = [generation(&nodes[0], 1), generation(&nodes[1], 0)];
        let old_stream = Arc::downgrade(&nodes[1].shared.stream(0).unwrap());
        let old_readers = tasks_named("wire-read-1-0");
        nodes[1].shared.peers[0].io.lock().detach();
        nodes[1].shared.service(0, Event::WriteFailed);
        let deadline = Instant::now() + LIMIT;
        while generation(&nodes[0], 1) == old[0] || generation(&nodes[1], 0) == old[1] {
            assert!(Instant::now() < deadline, "rank 1 never redialed");
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 5..10u64 {
            nodes[0].send(1, 3, 3, i).unwrap();
        }
        // Well inside the reading rank's own deadline.
        let swapped = got.recv_timeout(LIMIT / 2);
        let got = swapped.expect("the swap stranded the reading rank").unwrap();
        assert_eq!(got, (0..10).collect::<Vec<u64>>());
        let stats = nodes[1].stats();
        assert_eq!(stats.frames_received, 10, "delivered other than exactly once");
        assert!(stats.reconnect_dials >= 1, "the stream was not replaced");
        // The replaced stream's read side ended: its reader read the end
        // and exited, dropping the stream and its descriptors.
        let gone = || {
            let now = tasks_named("wire-read-1-0");
            old_stream.strong_count() == 0 && old_readers.iter().any(|t| !now.contains(t))
        };
        let deadline = Instant::now() + LIMIT;
        while !gone() {
            assert!(Instant::now() < deadline, "the replaced stream's reader never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The ids of this process's threads named `name`.
    fn tasks_named(name: &str) -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").unwrap().flatten();
        let named = |t: &std::fs::DirEntry| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.trim_end() == name)
        };
        tasks.filter(named).map(|t| t.file_name().to_string_lossy().into_owned()).collect()
    }

    #[test]
    fn a_pull_that_fails_on_a_reading_rank_redials_and_replays_once() {
        let dir = test_dir("read-pull-fails");
        let nodes = Arc::new(pull_mesh(&dir, false));
        let n = Arc::clone(&nodes);
        let got = run(move || n[1].recv_timeout::<Vec<f64>>(0, 4, 1, LIMIT));
        await_reading(&nodes[1], 0);
        // Rank 0's memory turns unreadable to the reading rank: its pull
        // fails, the stream goes, and the resume replays the body whole.
        nodes[1].shared.foreign.store(true, Ordering::Relaxed);
        nodes[0].send(1, 4, 1, field_of(1 << 17, 0, 1)).unwrap();
        let got = got.recv_timeout(LIMIT).expect("the failed pull stranded the rank").unwrap();
        assert!(got == field_of(1 << 17, 0, 1), "the replayed frame differs");
        let stats = nodes[1].stats();
        assert_eq!(stats.bodies_pulled, 0, "the failed pull delivered");
        assert_eq!(stats.frames_received, 1, "delivered other than exactly once");
        assert!(stats.reconnect_dials >= 1, "the stream was not dropped");
        assert_eq!((stats.duplicates_dropped, stats.corrupt_frames), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reading_rank_hands_other_tags_to_their_waiters() {
        let dir = test_dir("read-other-tag");
        let nodes = Arc::new(mesh_with(&dir, 2, quiet));
        let n = Arc::clone(&nodes);
        let first = run(move || n[1].recv_timeout::<u64>(0, 8, 1, LIMIT));
        await_reading(&nodes[1], 0);
        // The second waiter finds the half held: it waits on the mailbox,
        // where the reading rank puts its frame.
        let n = Arc::clone(&nodes);
        let second = run(move || n[1].recv_timeout::<u64>(0, 8, 2, LIMIT));
        nodes[0].send(1, 8, 2, 22u64).unwrap();
        assert_eq!(second.recv_timeout(LIMIT).expect("the other tag's waiter slept").unwrap(), 22);
        assert!(first.try_recv().is_err(), "the reading rank took another tag's frame");
        nodes[0].send(1, 8, 1, 11u64).unwrap();
        assert_eq!(first.recv_timeout(LIMIT).expect("the reading rank slept").unwrap(), 11);
        assert_eq!(nodes[1].stats().frames_read_by_receiver, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_waiting_receiver_reads_its_own_frames() {
        let dir = test_dir("read-pingpong");
        let nodes = mesh(&dir, 2);
        std::thread::scope(|s| {
            for (me, node) in nodes.iter().enumerate() {
                let peer = &nodes[1 - me];
                s.spawn(move || {
                    for i in 0..200u64 {
                        if me == 1 {
                            assert_eq!(node.recv_timeout::<u64>(0, 9, 1, LIMIT).unwrap(), i);
                        }
                        // The receiver always waits first.
                        await_reading(peer, me);
                        node.send(1 - me, 9, 1, i).unwrap();
                        if me == 0 {
                            assert_eq!(node.recv_timeout::<u64>(1, 9, 1, LIMIT).unwrap(), i);
                        }
                    }
                });
            }
        });
        for node in &nodes {
            let stats = node.stats();
            assert_eq!(stats.frames_received, 200);
            let read = stats.frames_read_by_receiver;
            assert!(read * 10 >= stats.frames_received * 9, "the receiver read {read} of 200");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
