//! Explores the wire link machine (`mxn_wire::peer`) under a virtual
//! clock. Each seeded schedule runs two nodes — rank 1 dials rank 0 — as
//! the node does: a [`Peer`] per side (the `Link` machine driving a real
//! [`LinkSender`] and its resend ring), a real [`FrameReader`] per inbound
//! stream, and an in-memory byte pipe in place of the socket. Frames are
//! judged by [`WireFaults::judge`], the wire's one verdict source: a drop
//! loses a data frame, a flip damages one bit of it, a delay holds it (and,
//! the stream being FIFO, everything behind it) for a while. Between
//! monitor ticks the schedule interleaves application sends, partial
//! reads, disconnects (the bytes in flight are lost) and redials, a stalled
//! (SIGSTOP-like) side, out-of-range watermarks, and held `io` windows:
//! service steps of a node run while its application thread holds `io` —
//! between its send step and its write, or while it is blocked in a write
//! and releases `io` to the next sender.
//!
//! Checked on every schedule, after a fault-free quiet phase at the end:
//! delivery is at most once and in seq order, with the bytes sent; every
//! frame sent is delivered unless a drop or flip verdict destroyed one of
//! its writes (or the peer was declared dead) — reconnects, delays,
//! contention and NACK races lose nothing; a ring never retains more than
//! [`RING_FRAMES`] frames or [`RING_BYTES`] bytes; a peer that is lossy but
//! live is never quarantined; a stalled peer holding data outstanding is
//! quarantined within `fence_stall_fences + 1` fence ticks and evicted
//! after `quarantine_grace`, and one that resumes inside the grace is
//! readmitted and then receives everything.
//!
//! A second sweep runs the same schedules on pull-capable links: every
//! sender offers its cookie, every reader that finds it accepts, and large
//! sends are `Vec<f64>`s whose bodies are lent as descriptors and pulled
//! out of the sender's ring (this process's own memory) into the
//! receiver's spare vectors, which the sender's trims refill; one probe in
//! five fails, as across a YAMA boundary. On top of
//! the properties above: a descriptor arrives only on a stream that
//! accepted, every pull the duplicate guard admits succeeds and passes its
//! CRC — a lent vector reused before its pull would fail it — and a link's
//! lent bytes stay within [`RING_BYTES`], its ring and held vectors within
//! twice that.
//!
//! In both sweeps a node's blocked application thread — a rank — takes
//! the newest stream's read half (its `FrameReader`, the bytes already fed
//! and the lender) from the reader thread at any point, between two
//! partial reads of one frame included, reads through it with the same
//! dispatch, and keeps it across later steps or hands it back. While a
//! rank holds a half its reader thread stands down and never reads it.
//! On top: no byte is read twice or skipped across handoffs — what the
//! half's holders fed equals what was written, and a direction with no
//! flip verdict never yields a damaged frame — and a pull from a lender
//! that died is `PeerFailed` and tears the stream down, one from a lender
//! whose memory changed (re-exec'd) fails its CRC: never other values.
//!
//! A violation names the seed that replays it, printing every step:
//! `MXN_EXPLORER_SEED=<seed> cargo test -p mxn-wire --test link_explorer
//! -- --nocapture` (both sweeps replay the seed, each on its own links).

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, IoSlice, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mxn_runtime::splitmix64;
use mxn_wire::peer::{Action, Actions, Event, Link, Peer, Standing};
use mxn_wire::{
    crc32_continue, decode_value, Arrival, Conn, Descriptor, Frame, FrameError, FrameKind,
    FrameReader, LinkSender, PullError, SpareValues, WireConfig, WireFaults, WireVerdict,
    DESCRIPTOR_CODEC, RING_BYTES, RING_FRAMES,
};

/// Seeds the sweep explores.
const SCHEDULES: u64 = 100_000;
/// Seeds the pull-capable sweep explores: all of them in an optimized
/// build (CI's explorer step), a quarter in a debug one, where copying and
/// checking its bodies makes each schedule several times dearer.
const PULL_SCHEDULES: u64 = if cfg!(debug_assertions) { SCHEDULES / 4 } else { SCHEDULES };
/// Payload of a large data frame: three of them call for an ack.
const LARGE: usize = 96 << 10;
/// Codec tag of a `Vec<f64>` large send on pull-capable links.
const VALUES: u32 = 15;
/// Values of such a send: the fewest whose body is lent.
const LENT: usize = 8192;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Virtual time, in microseconds since the schedule's start.
#[derive(Clone)]
struct Clock {
    t0: Instant,
    us: Arc<AtomicU64>,
}

impl Clock {
    fn us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }
    fn now(&self) -> Instant {
        self.t0 + Duration::from_micros(self.us())
    }
    fn advance(&self, d: Duration) {
        self.us.fetch_add(d.as_micros() as u64, Ordering::Relaxed);
    }
}

/// One direction of one connection: written chunks, each readable from
/// its virtual time on, in order, with the digest of every byte written
/// before it; `read` bytes of the first are gone.
#[derive(Default)]
struct Wire {
    chunks: VecDeque<(u64, Vec<u8>, u32)>,
    read: usize,
    closed: bool,
    /// The digest of every byte written.
    digest: u32,
}

/// The digest of a byte stream: its CRC register, continued over `bytes`.
fn digest(reg: u32, bytes: &[u8]) -> u32 {
    crc32_continue(reg, bytes)
}

impl Wire {
    /// What is in flight is lost, as if never written.
    fn lose(&mut self) {
        self.digest = self.read_digest();
        self.chunks.clear();
        self.read = 0;
    }

    /// The digest of the bytes read so far.
    fn read_digest(&self) -> u32 {
        match self.chunks.front() {
            Some((_, bytes, before)) => digest(*before, &bytes[..self.read]),
            None => self.digest,
        }
    }
}

/// One direction across every connection: the fault draws, and the seqs
/// a verdict destroyed at least once.
struct Dir {
    faults: WireFaults,
    src: u32,
    dst: u32,
    attempts: u64,
    destroyed: BTreeSet<u64>,
    /// A flip verdict damaged a write: a damaged frame may arrive.
    flipped: bool,
}

/// A node's end of a connection, as its `LinkSender` sees it.
struct End {
    out: Arc<Mutex<Wire>>,
    back: Arc<Mutex<Wire>>,
    dir: Arc<Mutex<Dir>>,
    clock: Clock,
}

impl Write for End {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// Takes a whole frame at once: the sender writes one frame per call.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut bytes = Vec::with_capacity(bufs.iter().map(|b| b.len()).sum());
        for buf in bufs {
            bytes.extend_from_slice(buf);
        }
        let n = bytes.len();
        let mut wire = self.out.lock();
        if wire.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let mut ready = self.clock.us();
        if bytes[4] == FrameKind::Data as u8 {
            let seq = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
            let mut dir = self.dir.lock();
            dir.attempts += 1;
            match dir.faults.judge(dir.src, dir.dst, dir.attempts, n) {
                WireVerdict::Deliver => {}
                WireVerdict::Drop => {
                    dir.destroyed.insert(seq);
                    return Ok(n);
                }
                WireVerdict::FlipBit(bit) => {
                    dir.destroyed.insert(seq);
                    dir.flipped = true;
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                WireVerdict::Delay(d) => ready += d.as_micros() as u64,
            }
        }
        let ready = ready.max(wire.chunks.back().map_or(0, |c| c.0));
        let before = wire.digest;
        wire.digest = digest(before, &bytes);
        wire.chunks.push_back((ready, bytes, before));
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for End {
    /// Both directions: the peer reads what is left, then the end; our own
    /// reader sees the end at once.
    fn close(&mut self) {
        self.out.lock().closed = true;
        let mut back = self.back.lock();
        back.closed = true;
        back.lose();
    }
}

/// An inbound stream's read half, and who holds it: its reader thread,
/// or a rank that took it.
struct Reader {
    wire: Arc<Mutex<Wire>>,
    frames: FrameReader,
    generation: u64,
    /// The peer's cookie was found: its descriptors may be pulled.
    lender: bool,
    /// The digest of every byte the half's holders fed `frames`.
    fed: u32,
    /// A rank holds the half: the reader thread stands down.
    rank: bool,
}

impl Reader {
    fn new(wire: &Arc<Mutex<Wire>>, frames: FrameReader, generation: u64) -> Reader {
        let wire = Arc::clone(wire);
        Reader { wire, frames, generation, lender: false, fed: 0, rank: false }
    }
}

struct Node {
    rank: usize,
    peer: Arc<Peer>,
    /// Where this node's reader pulls bodies into, refilled by its trims.
    spares: Arc<SpareValues>,
    /// The cookie this node offers, at its own address.
    cookie: Box<u64>,
    readers: Vec<Reader>,
    /// Stopped until this virtual time.
    stalled_until: u64,
    /// The liveness registry's view of the other node.
    dead: bool,
    /// Declared dead by a crash verdict or evicted: the final kind.
    gone: bool,
    /// Data frames sent, and the seqs delivered from the other node.
    sent: u64,
    delivered: Vec<u64>,
    quarantined_at: Option<u64>,
}

impl Node {
    fn running(&self, now: u64) -> bool {
        now >= self.stalled_until
    }
}

/// A stall being watched: `victim` stopped, the other side has data out.
struct Watch {
    victim: usize,
    fences: u64,
}

struct Sim {
    rng: Rng,
    clock: Clock,
    cfg: WireConfig,
    nodes: [Node; 2],
    /// Directions 0 → 1 and 1 → 0.
    dirs: [Arc<Mutex<Dir>>; 2],
    /// Wires 0 → 1 and 1 → 0 of the current connection.
    wires: Option<[Arc<Mutex<Wire>>; 2]>,
    /// Rank 1 dialed; rank 0 has yet to read its `Hello` and attach.
    accept: Option<FrameReader>,
    redial: bool,
    watch: Option<Watch>,
    stalls: bool,
    /// Some sends are large enough that acks ride on the reverse sends.
    bulk: bool,
    /// Links offer, accept and pull; large sends are lent vectors.
    pull: bool,
    /// Print every step (a seed replayed alone).
    trace: bool,
}

/// The `Vec<f64>` a pull-capable link sends as large data frame `seq`.
fn vector(seq: u64) -> Vec<f64> {
    vec![seq as f64; LENT]
}

/// Whether `values` is [`vector`]`(seq)`, judged by its length and a
/// sample of its values: the CRCs already vouch that the bytes are the
/// ones written, this checks they were written for `seq`.
fn is_vector(seq: u64, values: &[f64]) -> bool {
    let sample = values.iter().step_by(997).chain(values.last());
    values.len() == LENT && sample.into_iter().all(|&v| v == seq as f64)
}

/// Where `cookie` lives, as a `PullOffer` announces it.
fn address(cookie: &u64) -> u64 {
    cookie as *const u64 as u64
}

fn payload(seq: u64, large: bool) -> Vec<u8> {
    let mut out = vec![seq as u8; if large { LARGE } else { 16 }];
    out[..8].copy_from_slice(&seq.to_le_bytes());
    out
}

impl Sim {
    fn new(seed: u64, trace: bool, pull: bool) -> Sim {
        let mut rng = Rng(seed);
        let clock = Clock { t0: Instant::now(), us: Arc::default() };
        let cfg = WireConfig::new("/unused", 0, 2);
        let faults = match rng.below(4) {
            0 => WireFaults::none(),
            1 => WireFaults { seed, drop: 0.05 + 0.2 * rng.below(2) as f64, ..WireFaults::none() },
            2 => WireFaults { seed, corrupt: 0.1, ..WireFaults::none() },
            _ => WireFaults {
                seed,
                delay: Duration::from_millis(1 + rng.below(20)),
                ..WireFaults::none()
            },
        };
        let t0 = clock.t0;
        let node = |rank: usize| {
            let cfg = WireConfig::new("/unused", rank, 2);
            let link = Link::new(&cfg, 100 + rank as u64, 1 - rank, t0);
            let spares = Arc::new(SpareValues::new());
            let cookie = Box::new(splitmix64(seed ^ rank as u64));
            let mut io = LinkSender::new(rank as u32, 1 - rank as u32, WireFaults::none());
            if pull {
                io = io.with_spares(Arc::clone(&spares)).offering(address(&cookie), *cookie);
            }
            Node {
                rank,
                peer: Arc::new(Peer::new(link, io)),
                spares,
                cookie,
                readers: Vec::new(),
                stalled_until: 0,
                dead: false,
                gone: false,
                sent: 0,
                delivered: Vec::new(),
                quarantined_at: None,
            }
        };
        let dir = |src: u32| {
            let destroyed = BTreeSet::new();
            let dir = Dir { faults, src, dst: 1 - src, attempts: 0, destroyed, flipped: false };
            Arc::new(Mutex::new(dir))
        };
        let bulk = rng.chance(10) || pull;
        Sim {
            rng,
            clock,
            cfg,
            nodes: [node(0), node(1)],
            dirs: [dir(0), dir(1)],
            wires: None,
            accept: None,
            redial: false,
            watch: None,
            stalls: false,
            bulk,
            pull,
            trace,
        }
    }

    fn now(&self) -> u64 {
        self.clock.us()
    }

    fn end(&self, rank: usize, wires: &[Arc<Mutex<Wire>>; 2]) -> End {
        let (out, back) = (Arc::clone(&wires[rank]), Arc::clone(&wires[1 - rank]));
        End { out, back, dir: Arc::clone(&self.dirs[rank]), clock: self.clock.clone() }
    }

    /// Rank 1 dials: fresh wires, its end attached at once.
    fn dial(&mut self) -> Result<(), String> {
        self.disconnect();
        let wires = [Arc::default(), Arc::default()];
        let end = self.end(1, &wires);
        let clock = self.clock.clone();
        let (_, generation) = self.nodes[1].peer.attach(end, None, &|| clock.now());
        self.nodes[1].readers.push(Reader::new(&wires[0], FrameReader::new(), generation));
        self.wires = Some(wires);
        self.accept = Some(FrameReader::new());
        self.redial = false;
        self.check()
    }

    /// Rank 0's acceptor: reads the dialer's `Hello`, then attaches.
    fn accept(&mut self) -> Result<(), String> {
        let (Some(wires), Some(mut frames)) = (self.wires.clone(), self.accept.take()) else {
            return Ok(());
        };
        let now = self.now();
        let fed;
        let closed = {
            let mut wire = wires[1].lock();
            while wire.chunks.front().is_some_and(|c| c.0 <= now) {
                frames.feed(&wire.chunks.pop_front().unwrap().1);
            }
            fed = wire.read_digest();
            wire.closed && wire.chunks.is_empty()
        };
        let hello = match frames.next() {
            Some(Ok(f)) => match Event::arrived(&f) {
                Event::Control(FrameKind::Hello, Some(hello)) => hello,
                other => return Err(format!("first frame of a dial was {other:?}")),
            },
            Some(Err(e)) => return Err(format!("a dial's Hello was damaged: {e:?}")),
            None if closed => return Ok(()),
            None => {
                self.accept = Some(frames);
                return Ok(());
            }
        };
        let end = self.end(0, &wires);
        let clock = self.clock.clone();
        let (_, generation) = self.nodes[0].peer.attach(end, Some(hello), &|| clock.now());
        let reader = Reader { fed, ..Reader::new(&wires[1], frames, generation) };
        self.nodes[0].readers.push(reader);
        self.check()
    }

    /// The connection breaks: what is in flight is lost.
    fn disconnect(&mut self) {
        for wire in self.wires.take().into_iter().flatten() {
            let mut wire = wire.lock();
            wire.closed = true;
            wire.lose();
        }
        self.accept = None;
    }

    /// Carries out the actions of node `n`'s link that reach past it.
    fn apply(&mut self, n: usize, actions: &[Action]) -> Result<(), String> {
        let now = self.now();
        let grace = self.cfg.quarantine_grace.as_micros() as u64;
        for action in actions {
            let node = &mut self.nodes[n];
            match *action {
                Action::Quarantine { .. } if !self.stalls => {
                    return Err(format!("rank {n} quarantined a live peer"));
                }
                Action::Quarantine { .. } => (node.dead, node.quarantined_at) = (true, Some(now)),
                Action::Readmit { .. } => node.dead = false,
                Action::Evict { .. } => {
                    let at = node.quarantined_at.expect("evicted while quarantined");
                    if now - at <= grace {
                        return Err(format!("rank {n} evicted inside the grace"));
                    }
                    (node.dead, node.gone) = (true, true);
                }
                Action::DeclareDead => (node.dead, node.gone) = (true, true),
                Action::Redial => self.redial = true,
                _ => {}
            }
        }
        Ok(())
    }

    fn service(&mut self, n: usize, event: Event) -> Result<Vec<Action>, String> {
        let clock = self.clock.clone();
        let actions = self.nodes[n].peer.service(event, &|| clock.now());
        if self.trace {
            let link = self.nodes[n].peer.link.lock();
            println!("{:>8} rank {n} {event:?} -> {actions:?} {:?}", self.now(), link.standing());
        }
        self.apply(n, &actions)?;
        Ok(actions.to_vec())
    }

    /// Node `n`'s reader threads take in up to `budget` bytes each and
    /// handle up to `frames` arrivals; with `rank`, so does a rank through
    /// the half it holds. A reader thread never touches a half a rank
    /// holds.
    fn read(&mut self, n: usize, budget: usize, frames: usize, rank: bool) -> Result<(), String> {
        let mut i = 0;
        while i < self.nodes[n].readers.len() {
            let held = self.nodes[n].readers[i].rank;
            if held && !rank {
                i += 1; // the reader thread stands down
            } else if self.read_half(n, i, budget, frames, held)? {
                i += 1;
            }
        }
        self.check()
    }

    /// Node `n`'s read half `i` takes in up to `budget` bytes and handles up
    /// to `frames` arrivals, with the one dispatch both reader and rank run,
    /// for a rank (`as_rank`) or the reader thread. Returns `false` when the
    /// stream ended and the half is gone.
    fn read_half(
        &mut self,
        n: usize,
        i: usize,
        budget: usize,
        frames: usize,
        as_rank: bool,
    ) -> Result<bool, String> {
        if self.nodes[n].readers[i].rank != as_rank {
            return Err(format!("rank {n}: the reader thread read a half a rank holds"));
        }
        let now = self.now();
        let eof = {
            let reader = &mut self.nodes[n].readers[i];
            let mut wire = reader.wire.lock();
            let mut left = budget;
            while left > 0 && wire.chunks.front().is_some_and(|c| c.0 <= now) {
                let (from, len) = (wire.read, wire.chunks[0].1.len());
                let take = left.min(len - from);
                let bytes = &wire.chunks[0].1[from..from + take];
                reader.frames.feed(bytes);
                reader.fed = digest(reader.fed, bytes);
                left -= take;
                wire.read += take;
                if wire.read == len {
                    wire.chunks.pop_front();
                    wire.read = 0;
                }
            }
            wire.closed && wire.chunks.is_empty()
        };
        let mut handled = 0;
        while handled < frames {
            let Some(arrival) = self.nodes[n].readers[i].frames.next_arrival() else { break };
            handled += 1;
            match arrival {
                Ok(Arrival::Frame(frame)) if frame.kind == FrameKind::PullOffer => {
                    self.service(n, Event::arrived(&frame))?;
                    let cookie = &self.nodes[1 - n].cookie;
                    let offer = decode_value::<(u64, u64)>(&frame.payload);
                    // Some probes fail, as across a YAMA boundary: that
                    // stream's bodies must come whole.
                    let readable = !self.rng.chance(20);
                    if offer == Ok((address(cookie), **cookie)) && readable {
                        self.nodes[n].readers[i].lender = true;
                        let generation = self.nodes[n].readers[i].generation;
                        self.service(n, Event::Readable { generation })?;
                    }
                }
                Ok(Arrival::Frame(frame)) if frame.kind == FrameKind::PullAccept => {
                    self.service(n, Event::arrived(&frame))?;
                    let generation = self.nodes[n].readers[i].generation;
                    self.service(n, Event::Pulls { generation })?;
                }
                Ok(Arrival::Frame(frame)) if frame.codec == DESCRIPTOR_CODEC => {
                    let lender = self.nodes[n].readers[i].lender;
                    if !self.pull(n, &frame, lender)? {
                        // The lender died: the stream goes, the resume replays.
                        let generation = self.nodes[n].readers.remove(i).generation;
                        self.service(n, Event::Detached { generation })?;
                        return Ok(false);
                    }
                }
                Ok(Arrival::Frame(frame)) => {
                    let delivered = self.service(n, Event::arrived(&frame))?;
                    if delivered.contains(&Action::Deliver) {
                        let intact = match frame.codec {
                            VALUES => decode_value::<Vec<f64>>(&frame.payload)
                                .is_ok_and(|v| is_vector(frame.seq, &v)),
                            _ => frame.payload == payload(frame.seq, frame.payload.len() == LARGE),
                        };
                        if !intact {
                            return Err(format!("rank {n}: seq {} has other bytes", frame.seq));
                        }
                        self.deliver(n, frame.seq)?;
                    }
                }
                Ok(Arrival::Values(..)) => unreachable!("this reader lands no vectors"),
                Err(e @ FrameError::Corrupt { .. }) => {
                    // Without a flip verdict, only a byte read twice or
                    // skipped damages a frame.
                    if !self.dirs[1 - n].lock().flipped {
                        return Err(format!("rank {n}: a clean stream yielded {e:?}"));
                    }
                    self.service(n, Event::Corrupt)?;
                }
            }
        }
        if eof && handled < frames {
            let generation = self.nodes[n].readers.remove(i).generation;
            self.service(n, Event::Detached { generation })?;
            return Ok(false);
        }
        Ok(true)
    }

    /// A rank blocked receiving on node `n` takes the newest stream's read
    /// half from its reader — wherever the reader left off, mid-frame
    /// included — reads some of it, and keeps it or hands it back. What the
    /// half's holders fed must be exactly what was written, at every
    /// handoff.
    fn rank_reads(&mut self, n: usize) -> Result<(), String> {
        if !self.nodes[n].running(self.now()) {
            return Ok(());
        }
        let Some(i) = self.nodes[n].readers.len().checked_sub(1) else { return Ok(()) };
        self.handoff(n, i, true)?;
        let budget = 1 + self.rng.below(4096) as usize;
        let frames = 1 + self.rng.below(3) as usize;
        if self.read_half(n, i, budget, frames, true)? && self.rng.chance(50) {
            self.handoff(n, i, false)?;
        }
        self.check()
    }

    /// Node `n`'s half `i` goes to a rank (`rank`) or back to its reader.
    fn handoff(&mut self, n: usize, i: usize, rank: bool) -> Result<(), String> {
        let reader = &mut self.nodes[n].readers[i];
        reader.rank = rank;
        let written = reader.wire.lock().read_digest();
        if reader.fed != written {
            return Err(format!(
                "rank {n}: a handoff of half {i} read bytes twice or skipped some"
            ));
        }
        Ok(())
    }

    /// Records delivery of `seq` at node `n`: in seq order, once.
    fn deliver(&mut self, n: usize, seq: u64) -> Result<(), String> {
        let node = &mut self.nodes[n];
        if node.delivered.last().is_some_and(|&last| last >= seq) {
            return Err(format!("rank {n} delivered seq {seq} after {:?}", node.delivered.last()));
        }
        node.delivered.push(seq);
        Ok(())
    }

    /// Node `n`'s half holder takes a descriptor as the node does: the
    /// duplicate guard, then the pull from this process's memory, then
    /// delivery. Some lenders died (the pull fails: `false`, the stream
    /// must go) and some were re-exec'd (their memory holds other values:
    /// the pull fails its CRC and the frame is damaged, as by a flip).
    fn pull(&mut self, n: usize, frame: &Frame, lender: bool) -> Result<bool, String> {
        let seq = frame.seq;
        if !lender {
            return Err(format!("rank {n}: descriptor {seq} on a stream that never accepted"));
        }
        let d = Descriptor::parse(frame).map_err(|e| format!("rank {n}: descriptor {e:?}"))?;
        if !self.service(n, Event::Lent { seq })?.contains(&Action::Pull) {
            return Ok(true);
        }
        let spares = Arc::clone(&self.nodes[n].spares);
        match self.rng.below(50) {
            0 => {
                return match d.pull(i32::MAX, &spares) {
                    Err(PullError::Failed(_)) => Ok(false),
                    other => Err(format!("rank {n}: a dead lender's seq {seq} pulled {other:?}")),
                };
            }
            1 => {
                let decoy = vector(seq + 1);
                let mut moved = frame.clone();
                moved.payload[4..12].copy_from_slice(&(decoy.as_ptr() as u64).to_le_bytes());
                let d = Descriptor::parse(&moved).map_err(|e| format!("rank {n}: {e:?}"))?;
                if let Ok(values) = d.pull(std::process::id() as i32, &spares) {
                    return Err(format!(
                        "rank {n}: a re-exec'd lender's seq {seq} pulled {}",
                        values[0]
                    ));
                }
                self.dirs[1 - n].lock().destroyed.insert(seq);
                self.service(n, Event::Corrupt)?;
                return Ok(true);
            }
            _ => {}
        }
        let values = d
            .pull(std::process::id() as i32, &spares)
            .map_err(|e| format!("rank {n}: pulling seq {seq}: {e:?}"))?;
        let data = Event::Data { seq, bytes: d.body_len() as u64 };
        if self.service(n, data)?.contains(&Action::Deliver) {
            if !is_vector(seq, &values) {
                return Err(format!("rank {n}: pulled seq {seq} has other values"));
            }
            self.deliver(n, seq)?;
        }
        // The application hands the vector on, as the benchmark's does.
        spares.give(values);
        Ok(true)
    }

    /// Application sends on node `n`. Plain, through `Peer::send`; else
    /// step by step, with service steps of `n` run while it holds `io` —
    /// between its send step and its write, or after the write, when the
    /// next sender may take `io` before the holder looks for owed writes.
    fn send(&mut self, n: usize, held: bool) -> Result<(), String> {
        if self.nodes[n].dead || !self.nodes[n].running(self.now()) {
            return Ok(());
        }
        let clock = self.clock.clone();
        let clock = || clock.now();
        let peer = Arc::clone(&self.nodes[n].peer);
        loop {
            let large = self.bulk && self.rng.chance(40);
            let lend = large && self.pull;
            let write = move |io: &mut LinkSender| {
                let seq = io.last_seq() + 1;
                if lend {
                    return io.send_values(1, 1, VALUES, vector(seq));
                }
                let sent = io.send_data(1, 1, |out| {
                    out.extend_from_slice(&payload(seq, large));
                    Some(9)
                });
                sent.expect("the encoder never declines")
            };
            self.nodes[n].sent += 1;
            if !held {
                peer.send(&clock, write);
                return self.check();
            }
            let mut io = peer.io.lock();
            // A replay owed on a live stream (a dead one resumes on attach).
            let owed = {
                let link = peer.link.lock();
                let live = matches!(link.standing(), Standing::Up | Standing::Quarantined(_));
                live && link.owes_replay()
            };
            let seq = io.last_seq() + 1;
            let mut actions = Actions::default();
            peer.link.lock().step(Event::Send { seq }, clock(), &mut actions);
            let at = |a: fn(&Action) -> bool| actions.iter().position(a);
            let replay = at(|a| matches!(a, Action::Replay(_)));
            if owed && replay.is_none_or(|r| Some(r) >= at(|a| *a == Action::Data)) {
                return Err(format!("rank {n}: new data before the owed replay: {actions:?}"));
            }
            let early = self.rng.chance(50);
            for _ in 0..self.rng.below(4) {
                if early {
                    self.service_step(n)?;
                }
            }
            let mut write = Some(write);
            peer.drive(&mut io, &actions, &clock, &mut |io| write.take().unwrap()(io).map(drop));
            for _ in 0..self.rng.below(4) {
                if !early {
                    self.service_step(n)?;
                }
            }
            drop(io);
            if early || self.rng.chance(50) {
                peer.flush(&clock);
                return self.check();
            }
        }
    }

    /// One service-thread step of node `n`: a partial read, or a tick that
    /// does not move the clock, or an out-of-range watermark, or a rank
    /// reading.
    fn service_step(&mut self, n: usize) -> Result<(), String> {
        match self.rng.below(7) {
            0..=3 => {
                let budget = 1 + self.rng.below(4096) as usize;
                let frames = 1 + self.rng.below(3) as usize;
                self.read(n, budget, frames, false)
            }
            4 => {
                let dead = self.nodes[n].dead;
                self.service(n, Event::Tick { dead }).map(drop)
            }
            5 => self.bogus(n),
            _ => self.rank_reads(n),
        }
    }

    /// A fence or ack claiming delivery of seqs node `n` never sent.
    fn bogus(&mut self, n: usize) -> Result<(), String> {
        let sent = self.nodes[n].sent;
        let watermark = sent + 1 + self.rng.below(1000);
        let fence_seq = self.rng.below(3);
        let before = self.nodes[n].peer.link.lock().stats.corrupt_frames;
        let bogus = Event::Control(FrameKind::ProgressFence, Some((fence_seq, watermark)));
        self.service(n, bogus)?;
        let after = self.nodes[n].peer.link.lock().stats.corrupt_frames;
        if after != before + 1 {
            return Err(format!("rank {n} took watermark {watermark} with {sent} sent"));
        }
        Ok(())
    }

    /// Virtual time passes: every running node reads all that is ready,
    /// then its monitor ticks.
    fn tick(&mut self, dt: Duration) -> Result<(), String> {
        self.clock.advance(dt);
        let now = self.now();
        for n in 0..2 {
            if self.nodes[n].running(now) {
                self.read(n, usize::MAX, usize::MAX, true)?;
            }
        }
        for n in 0..2 {
            if !self.nodes[n].running(now) {
                continue;
            }
            let fences = self.nodes[n].peer.link.lock().stats.fences_sent;
            let dead = self.nodes[n].dead;
            self.service(n, Event::Tick { dead })?;
            let judged = self.nodes[n].peer.link.lock().stats.fences_sent > fences;
            if let Some(w) = self.watch.as_mut().filter(|w| w.victim != n && judged) {
                w.fences += 1;
                let (standing, stalled) =
                    (self.nodes[n].peer.link.lock().standing(), !self.nodes[w.victim].running(now));
                let fsf = u64::from(self.cfg.fence_stall_fences);
                if stalled
                    && w.fences > fsf + 1
                    && !matches!(standing, Standing::Quarantined(_) | Standing::Evicted)
                {
                    return Err(format!("rank {n} judged {} fences of a stalled peer", w.fences));
                }
            }
        }
        if self.watch.as_ref().is_some_and(|w| self.nodes[w.victim].running(now)) {
            self.watch = None;
        }
        self.connect()
    }

    /// Redials and accepts whatever the running nodes would.
    fn connect(&mut self) -> Result<(), String> {
        let now = self.now();
        if self.redial && self.nodes[1].running(now) && !self.nodes[1].gone {
            self.dial()?;
        }
        if self.nodes[0].running(now) {
            self.accept()?;
        }
        Ok(())
    }

    /// Node `n` stops; the other node sends so it has data outstanding.
    fn stall(&mut self, n: usize) -> Result<(), String> {
        let now = self.now();
        if !self.nodes[n].running(now) || self.nodes[1 - n].dead {
            return Ok(());
        }
        if self.watch.as_ref().is_some_and(|w| w.victim != n) {
            self.watch = None; // the watcher stops too
        }
        let grace = self.cfg.quarantine_grace.as_micros() as u64;
        let span = match self.rng.below(3) {
            0 => 50_000 + self.rng.below(grace / 2),
            1 => grace + self.rng.below(grace),
            _ => 3 * grace,
        };
        self.stalls = true;
        self.nodes[n].stalled_until = now + span;
        self.send(1 - n, false)?;
        let up = self.nodes[1 - n].peer.link.lock().standing() == Standing::Up;
        if up && self.nodes[1 - n].running(now) && self.watch.is_none() {
            self.watch = Some(Watch { victim: n, fences: 0 });
        }
        Ok(())
    }

    /// Invariants that hold after every step.
    fn check(&self) -> Result<(), String> {
        // (Inside a held `io` window the holder checks when it lets go.)
        for node in &self.nodes {
            let Some(io) = node.peer.io.try_lock() else { continue };
            let (frames, bytes) = io.retained();
            if frames > RING_FRAMES || bytes > RING_BYTES {
                return Err(format!("rank {} retains {frames} frames, {bytes} bytes", node.rank));
            }
            let (lent, held) = (io.lent_bytes(), io.held_bytes());
            if self.pull && (lent > RING_BYTES || bytes + held > 2 * RING_BYTES) {
                return Err(format!("rank {} lent {lent} bytes, holds {held} more", node.rank));
            }
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), String> {
        self.dial()?;
        self.accept()?;
        let fence = self.cfg.fence_interval;
        let ops = 20 + self.rng.below(60);
        for _ in 0..ops {
            let n = self.rng.below(2) as usize;
            match self.rng.below(100) {
                0..=29 => self.send(n, false)?,
                30..=41 => self.send(n, true)?,
                42..=59 => {
                    if self.nodes[n].running(self.now()) {
                        self.service_step(n)?;
                    }
                }
                60..=87 => {
                    let dt = Duration::from_micros(1 + self.rng.below(fence.as_micros() as u64));
                    self.tick(dt)?;
                }
                88..=93 => {
                    if self.watch.is_none() {
                        self.disconnect();
                        self.redial = true; // as rank 1's next tick would
                    }
                }
                94..=96 => self.connect()?,
                _ => self.stall(n)?,
            }
        }
        // Quiet phase: no more faults, everyone runs, the protocol settles.
        for dir in &self.dirs {
            dir.lock().faults = WireFaults::none();
        }
        let settle = self.cfg.quarantine_grace * 4;
        let mut waited = Duration::ZERO;
        while waited < settle && (waited < fence * 4 || self.lossless().is_err()) {
            self.tick(fence)?;
            waited += fence;
        }
        self.lossless()
    }

    /// Every frame sent is delivered, but for those a verdict destroyed,
    /// and neither side holds the other dead — unless a final verdict fell.
    fn lossless(&self) -> Result<(), String> {
        for n in 0..2 {
            if self.nodes.iter().any(|x| x.gone) {
                break;
            }
            let (from, to) = (&self.nodes[1 - n], &self.nodes[n]);
            let destroyed = &self.dirs[1 - n].lock().destroyed;
            // Delivery is in seq order, so `delivered` is sorted.
            let got = |s: &u64| to.delivered.binary_search(s).is_ok();
            let lost: Vec<u64> =
                (1..=from.sent).filter(|s| !got(s) && !destroyed.contains(s)).collect();
            if !lost.is_empty() {
                return Err(format!(
                    "rank {n} never got {lost:?} of {} from rank {}",
                    from.sent,
                    1 - n
                ));
            }
            if to.dead {
                return Err(format!("rank {n} still holds rank {} dead", 1 - n));
            }
        }
        Ok(())
    }
}

fn explore(seed: u64, trace: bool) -> Result<(), String> {
    Sim::new(seed, trace, false).run()
}

fn explore_pulls(seed: u64, trace: bool) -> Result<(), String> {
    Sim::new(seed, trace, true).run()
}

#[test]
fn seeded_schedules_keep_every_property() {
    sweep(explore, SCHEDULES, "seeded_schedules_keep_every_property");
}

#[test]
fn pull_capable_links_keep_every_property() {
    sweep(explore_pulls, PULL_SCHEDULES, "pull_capable_links_keep_every_property");
}

/// Runs `explore` over seeds `0..schedules`, or replays
/// `MXN_EXPLORER_SEED` alone.
fn sweep(explore: fn(u64, bool) -> Result<(), String>, schedules: u64, test: &str) {
    if let Some(seed) = std::env::var("MXN_EXPLORER_SEED").ok().and_then(|v| v.parse().ok()) {
        explore(seed, true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        return;
    }
    let t0 = std::time::Instant::now();
    // Schedules are independent: one sweep per core, each taking every
    // `threads`-th seed; the lowest failing seed is reported.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failed = std::thread::scope(|s| {
        let sweeps: Vec<_> = (0..threads as u64)
            .map(|first| {
                s.spawn(move || {
                    (first..schedules)
                        .step_by(threads)
                        .find_map(|seed| explore(seed, false).err().map(|e| (seed, e)))
                })
            })
            .collect();
        sweeps.into_iter().filter_map(|h| h.join().unwrap()).min_by_key(|(seed, _)| *seed)
    });
    if let Some((seed, e)) = failed {
        panic!("seed {seed}: {e}\nreplay: MXN_EXPLORER_SEED={seed} cargo test -p mxn-wire --test link_explorer -- --nocapture {test}");
    }
    println!("{schedules} schedules explored on {threads} threads in {:?}", t0.elapsed());
}
