//! One peer link as an I/O-free protocol machine, and the rule the
//! threads that run it follow.
//!
//! [`Link`] holds everything the wire protocol knows about one peer as
//! plain fields: the last data seq sent (the sender numbers frames; the
//! machine learns each number from [`Event::Send`]) and the last one
//! delivered, the peer's session, the ack and fence watermarks, the stall
//! and churn counts, the liveness timers, where the link stands
//! (connecting, up, down, quarantined, evicted) and the writes it owes.
//! [`Link::step`] takes one [`Event`] and the time, and writes the
//! [`Action`]s to take, in the order they must happen, into a caller-owned
//! [`Actions`] buffer. It does no I/O, reads no clock and allocates nothing,
//! so a test can drive it through any schedule under a virtual clock.
//!
//! A [`Peer`] pairs the machine with the [`LinkSender`] that does its
//! writes, under two locks and one rule:
//!
//! * Lock order is `io`, then `link`; `link` is never held across I/O.
//! * Application threads take `io` blocking ([`Peer::send`]). Service
//!   threads — readers, the monitor, the accept loop — step `link` and
//!   only `try_lock` `io` ([`Peer::service`]): a write they cannot do
//!   stays owed in the `Link`. Attaching a stream ([`Peer::attach`]) waits
//!   for `io`, on a thread of its own: installing it is itself a write.
//! * Whoever takes `io` does what is owed before its own writes, and looks
//!   again after letting `io` go, so a write owed while it held `io` is
//!   never stranded.
//!
//! So a replay a reader asked for goes out before the next data frame,
//! and no service thread ever waits on an application thread blocked in a
//! write to a stuck peer.
//!
//! Lending bodies rides the same rule. A reader that found the peer's
//! cookie steps [`Event::Readable`], and the link owes an
//! [`Action::Accept`] write on that stream; a reader that read the peer's
//! accept steps [`Event::Pulls`], and the link owes [`Action::Lend`], which
//! switches the sender to descriptors. Both name the stream's generation,
//! so a late frame from an old stream never switches a new one, and an
//! attach clears what is owed. A descriptor is judged before its pull
//! ([`Event::Lent`] → [`Action::Pull`] or [`Action::Drop`], by the rules a
//! data frame meets) and delivered by the [`Event::Data`] after it.

use std::io;
use std::ops::Deref;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::codec::decode_value;
use crate::frame::{Frame, FrameKind};
use crate::link::{Conn, LinkSender};
use crate::node::{WireConfig, WireStats};

/// Payload bytes a node delivers from a peer before its next data send to
/// that peer carries an ack (a `ProgressFence` with `fence_seq = 0`), so
/// the peer's resend ring holds only the undelivered tail. Links that
/// carry traffic both ways get their acks on the reverse sends; one-way
/// links are trimmed by periodic fences and bounded by the ring caps.
const ACK_BYTES: u64 = 256 * 1024;

/// Where a link stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standing {
    /// Never attached (startup, or a slot scrubbed for a joiner).
    Connecting,
    /// Attached.
    Up,
    /// Detached since the instant given; reconnect decides the rest.
    Down(Instant),
    /// Provisionally dead since the instant given: inbound data dropped
    /// until resumed progress readmits the peer or the grace runs out.
    Quarantined(Instant),
    /// The verdict is final: no readmission, no reconnect.
    Evicted,
}

/// What happened to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The `io` holder is about to send application data frame `seq`, the
    /// seq its sender assigns next.
    Send { seq: u64 },
    /// The `io` holder took `io` to do what is owed.
    Wrote,
    /// A write failed; the `io` holder detached the stream.
    WriteFailed,
    /// An intact data frame with `bytes` of payload arrived.
    Data { seq: u64, bytes: u64 },
    /// An intact control frame of this kind arrived, with its payload if
    /// that decodes as a pair: a `Hello`'s session and the highest data seq
    /// the peer has from us, a fence's (an ack's) fence seq and watermark.
    Control(FrameKind, Option<(u64, u64)>),
    /// A damaged frame arrived.
    Corrupt,
    /// The monitor's tick; `dead` if the peer is already dead by a crash
    /// or goodbye verdict.
    Tick { dead: bool },
    /// The `io` holder attached a fresh stream. `hello` is the peer's
    /// `(session, last_recv)` when its `Hello` was read already (an
    /// accepted stream): everything after `last_recv` is replayed, else
    /// everything after the peer's last reported watermark.
    Attached { hello: Option<(u64, u64)> },
    /// The reader of stream `generation` hit its end.
    Detached { generation: u64 },
    /// The `io` holder opened the slot to a joiner; `connected` if the
    /// joiner's stream is already attached.
    Admit { connected: bool },
    /// An aborted join gave the slot back.
    Rescind,
    /// Survivor agreement dropped the peer.
    AgreedDead,
    /// An intact descriptor for data frame `seq` arrived: its body is
    /// pulled only if the step says [`Action::Pull`], and delivered by the
    /// [`Event::Data`] that follows the pull.
    Lent { seq: u64 },
    /// The reader of stream `generation` found the peer's cookie in the
    /// peer's memory: the peer may lend bodies on that stream.
    Readable { generation: u64 },
    /// The peer accepted our offer on stream `generation`: it pulls the
    /// bodies lent on it.
    Pulls { generation: u64 },
}

impl Event {
    /// The event an intact `frame` is.
    pub fn arrived(frame: &Frame) -> Event {
        match frame.kind {
            FrameKind::Data => Event::Data { seq: frame.seq, bytes: frame.payload.len() as u64 },
            kind => Event::Control(kind, decode_value(&frame.payload).ok()),
        }
    }
}

/// What the caller of [`Link::step`] does, in the order given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Write a `Hello`: our session and the highest data seq we have.
    Hello { session: u64, last_recv: u64 },
    /// Write a periodic fence, or an ack when `fence_seq == 0`.
    Fence { fence_seq: u64, watermark: u64 },
    /// Write a liveness beacon.
    Heartbeat,
    /// Write the application's data frame.
    Data,
    /// Replay every retained frame after this seq.
    Replay(u64),
    /// Forget every retained frame through this seq.
    Trim(u64),
    /// Shut the stream down.
    Teardown,
    /// Hand the arrived data frame to the mailbox.
    Deliver,
    /// Discard it.
    Drop,
    /// The peer is quarantined (dead to the liveness plane) after this
    /// many stalled fences (0: reconnect churn).
    Quarantine { stalled: u64 },
    /// The quarantined peer is readmitted after being held this long.
    Readmit { held: Duration },
    /// The quarantined peer is evicted after being held this long.
    Evict { held: Duration },
    /// A heartbeat miss after this much silence tore the link down.
    Missed { silence: Duration },
    /// The peer is dead.
    DeclareDead,
    /// Dial the peer again.
    Redial,
    /// Pull the described body: the duplicate guard lets it through.
    Pull,
    /// Write a `PullAccept`: we pull what the peer lends on this stream.
    Accept,
    /// Lend retained vectors on the current stream from now on.
    Lend,
}

/// The most actions one step takes: an owed hello, accept, lend, replay,
/// heartbeat, fence and trim, then a send's ack, trim and data.
const MAX_ACTIONS: usize = 10;

/// The buffer [`Link::step`] appends its actions to, in order: a fixed
/// array the caller owns, so stepping allocates nothing.
#[derive(Clone, Copy)]
pub struct Actions {
    buf: [Action; MAX_ACTIONS],
    len: usize,
}

impl Default for Actions {
    fn default() -> Self {
        Actions { buf: [Action::Drop; MAX_ACTIONS], len: 0 }
    }
}

impl Actions {
    fn push(&mut self, action: Action) {
        self.buf[self.len] = action;
        self.len += 1;
    }
}

impl Deref for Actions {
    type Target = [Action];
    fn deref(&self) -> &[Action] {
        &self.buf[..self.len]
    }
}

impl Extend<Action> for Actions {
    fn extend<I: IntoIterator<Item = Action>>(&mut self, actions: I) {
        actions.into_iter().for_each(|a| self.push(a));
    }
}

impl std::fmt::Debug for Actions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Writes a link owes until an `io` holder does them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Owed {
    teardown: bool,
    hello: bool,
    /// Replay everything after the lowest seq asked for.
    replay: Option<u64>,
    beat: bool,
    fence: bool,
    accept: bool,
    lend: bool,
}

/// The per-peer wire protocol, free of I/O. See the module docs.
#[derive(Debug, Clone)]
pub struct Link {
    /// The node's tuning.
    cfg: WireConfig,
    /// Our session, announced in `Hello`s.
    session: u64,
    /// We dial this peer (it has the lower rank).
    dialer: bool,
    standing: Standing,
    /// Bumped by every attach; a reader ending a stale stream is ignored.
    generation: u64,
    /// Highest data seq sent toward the peer, as its sender numbered it.
    sent: u64,
    /// Highest data seq delivered from the peer (the duplicate guard).
    recv: u64,
    /// This stream was dialed and replayed past `acked` at attach, so the
    /// peer's answering Hello owes no replay.
    resumed: bool,
    /// Quarantine dropped data past `recv`: until the replay brings
    /// `recv + 1`, later data is dropped too, or it would overtake it.
    hole: bool,
    /// The peer's session; a change means it restarted.
    peer_session: u64,
    /// Highest watermark the peer reported for our stream, by ack or
    /// fence: the ring is trimmed to it.
    acked: u64,
    /// The watermark of the peer's last periodic fence. The NACK and
    /// readmit rules compare each periodic fence with this, never with an
    /// ack: a fence repeating what an ack reported is progress, not a
    /// stall.
    fenced: u64,
    /// Our periodic fence counter toward the peer.
    fence_seq: u64,
    /// Payload bytes delivered from the peer since our last ack.
    unacked: u64,
    /// Consecutive fence ticks the watermark stalled with data out.
    stalls: u32,
    /// Heartbeat-miss teardowns since the last intact frame.
    churn: u32,
    last_heard: Instant,
    last_beat: Instant,
    last_fence: Instant,
    owed: Owed,
    /// This link's share of the node's counters.
    pub stats: WireStats,
}

impl Link {
    /// The link from the node `cfg` describes (session `session`) to
    /// `peer`, connecting.
    pub fn new(cfg: &WireConfig, session: u64, peer: usize, now: Instant) -> Link {
        Link {
            cfg: cfg.clone(),
            session,
            dialer: peer < cfg.rank,
            standing: Standing::Connecting,
            generation: 0,
            sent: 0,
            recv: 0,
            hole: false,
            resumed: false,
            peer_session: 0,
            acked: 0,
            fenced: 0,
            fence_seq: 0,
            unacked: 0,
            stalls: 0,
            churn: 0,
            last_heard: now,
            last_beat: now,
            last_fence: now,
            owed: Owed::default(),
            stats: WireStats::default(),
        }
    }

    /// Where the link stands.
    pub fn standing(&self) -> Standing {
        self.standing
    }

    fn hello(&self) -> Action {
        Action::Hello { session: self.session, last_recv: self.recv }
    }

    /// Our session, announced in `Hello`s.
    #[cfg(test)]
    pub(crate) fn session(&self) -> u64 {
        self.session
    }

    /// The current stream's generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Highest data seq delivered from the peer.
    pub(crate) fn recv(&self) -> u64 {
        self.recv
    }

    /// Whether a write is owed.
    pub(crate) fn owes(&self) -> bool {
        self.owed != Owed::default()
    }

    /// Whether a replay is owed.
    pub fn owes_replay(&self) -> bool {
        self.owed.replay.is_some()
    }

    /// Takes `event` at `now`: appends what to do to `out`, in order.
    /// Writes a service thread's event calls for are owed, not returned;
    /// the `io` holder gets them from [`Event::Send`] and [`Event::Wrote`].
    pub fn step(&mut self, event: Event, now: Instant, out: &mut Actions) {
        match event {
            Event::Send { seq } => {
                // What is owed — a replay above all — goes before new data.
                self.drain(out);
                if self.standing == Standing::Up && self.unacked >= ACK_BYTES {
                    self.unacked = 0;
                    self.stats.acks_sent += 1;
                    out.push(Action::Fence { fence_seq: 0, watermark: self.recv });
                }
                // Trimmed frames free their buffers for this encode.
                out.push(Action::Trim(self.acked));
                self.sent = seq;
                self.stats.frames_sent += 1;
                out.push(Action::Data);
            }
            Event::Wrote => self.drain(out),
            Event::WriteFailed => self.down(now),
            Event::Data { .. } | Event::Lent { .. } | Event::Control(..) => {
                self.arrived(event, now, out)
            }
            // Either only ever concerns the stream it came from.
            Event::Readable { generation } => self.owed.accept |= generation == self.generation,
            Event::Pulls { generation } => self.owed.lend |= generation == self.generation,
            Event::Corrupt => {
                self.last_heard = now;
                self.stats.corrupt_frames += 1;
            }
            Event::Tick { dead } => self.tick(dead, now, out),
            Event::Attached { hello } => {
                self.generation += 1;
                if !matches!(self.standing, Standing::Quarantined(_) | Standing::Evicted) {
                    self.standing = Standing::Up;
                }
                self.last_heard = now;
                // The new stream starts clean: its Hellos supersede
                // anything owed to the old one.
                self.owed = Owed::default();
                if let Some((session, _)) = hello {
                    // A Hello proves the peer's application runs: a stopped
                    // process's listener accepts, but nobody dials from it.
                    self.note_session(session);
                    (self.churn, self.stalls) = (0, 0);
                }
                // Announce what we have seen, triggering the peer's resume
                // replay, and replay what the peer may not have seen before
                // the attach lets anyone send: past the `Hello` an accepted
                // peer sent, else past its last reported watermark — new
                // data must never overtake the resume.
                out.push(self.hello());
                out.push(Action::Replay(hello.map_or(self.acked, |(_, last_recv)| last_recv)));
                self.resumed = hello.is_none();
            }
            Event::Detached { generation } => {
                if generation == self.generation {
                    self.down(now);
                    self.owed.teardown = true;
                }
            }
            Event::Admit { connected } => self.scrub(!connected),
            Event::Rescind => self.scrub(true),
            Event::AgreedDead => {
                self.standing = Standing::Evicted;
                out.push(Action::DeclareDead);
            }
        }
    }

    /// Moves what is owed into `out`: a teardown alone, else the writes
    /// for a link that may have a stream.
    fn drain(&mut self, out: &mut Actions) {
        let owed = std::mem::take(&mut self.owed);
        if owed.teardown {
            out.push(Action::Teardown);
            return;
        }
        if !matches!(self.standing, Standing::Up | Standing::Quarantined(_)) {
            return;
        }
        if owed.hello {
            out.push(self.hello());
        }
        if owed.accept {
            out.push(Action::Accept);
        }
        if owed.lend {
            out.push(Action::Lend);
        }
        if let Some(after) = owed.replay {
            out.push(Action::Replay(after));
        }
        if owed.beat {
            out.push(Action::Heartbeat);
        }
        if owed.fence {
            let fence = Action::Fence { fence_seq: self.fence_seq, watermark: self.recv };
            out.extend([fence, Action::Trim(self.acked)]);
        }
    }

    /// The stream is gone: what was owed to it goes with it.
    fn down(&mut self, now: Instant) {
        if self.standing == Standing::Up {
            self.standing = Standing::Down(now);
        }
        self.owed = Owed::default();
    }

    fn owe_replay(&mut self, after: u64) {
        self.owed.replay = Some(self.owed.replay.map_or(after, |r| r.min(after)));
    }

    /// Records the peer's session; a changed one means the peer process
    /// restarted, so its data seqs start over.
    fn note_session(&mut self, session: u64) {
        if self.peer_session != 0 && self.peer_session != session {
            (self.recv, self.hole) = (0, false);
        }
        self.peer_session = session;
    }

    /// Clears the slot for a joiner. The joiner owes us nothing sent to a
    /// previous occupant: the watermark baseline starts at today's seq, so
    /// only data sent after admission counts as outstanding. `forget`
    /// drops the previous occupant entirely (no live stream from the
    /// joiner yet); the sender's seqs go on either way.
    fn scrub(&mut self, forget: bool) {
        (self.acked, self.fenced, self.stalls, self.churn) = (self.sent, self.sent, 0, 0);
        self.owed = Owed::default();
        if forget {
            self.standing = Standing::Connecting;
            (self.peer_session, self.recv, self.unacked, self.hole) = (0, 0, 0, false);
        } else {
            self.standing = Standing::Up;
        }
    }

    /// Quarantines the peer unless it is held already.
    pub(crate) fn quarantine(&mut self, stalled: u32, now: Instant) -> Option<Action> {
        if matches!(self.standing, Standing::Quarantined(_) | Standing::Evicted) {
            return None;
        }
        self.standing = Standing::Quarantined(now);
        self.stats.zombies_quarantined += 1;
        Some(Action::Quarantine { stalled: stalled.into() })
    }

    fn arrived(&mut self, event: Event, now: Instant, out: &mut Actions) {
        self.last_heard = now;
        if let Event::Control(FrameKind::ProgressFence, Some((_, watermark))) = event {
            if watermark > self.sent {
                // Delivery of seqs we never sent: trimming to it would drop
                // undelivered frames and silence the stall detector.
                self.stats.corrupt_frames += 1;
                return;
            }
        }
        // Any intact frame proves the peer's application ran: a zombie
        // sends nothing, while a peer on a lossy wire keeps proving itself
        // with every frame that survives, so damage alone never convicts.
        (self.churn, self.stalls) = (0, 0);
        let held = matches!(self.standing, Standing::Quarantined(_) | Standing::Evicted);
        match event {
            // A held peer's data is dropped without advancing `recv`: if it
            // is readmitted, its ring replays everything refused here. A
            // descriptor is judged as its data frame will be, before the
            // pull: a duplicate's vector may be reused already.
            Event::Data { seq, .. } | Event::Lent { seq } if held => {
                self.hole |= seq > self.recv;
                out.push(Action::Drop);
            }
            Event::Data { seq, .. } | Event::Lent { seq } if seq <= self.recv => {
                self.stats.duplicates_dropped += 1;
                out.push(Action::Drop);
            }
            Event::Data { seq, .. } | Event::Lent { seq } if self.hole && seq > self.recv + 1 => {
                out.push(Action::Drop)
            }
            Event::Lent { .. } => out.push(Action::Pull),
            Event::Data { seq, bytes } => {
                (self.recv, self.unacked, self.hole) = (seq, self.unacked + bytes, false);
                self.stats.frames_received += 1;
                out.push(Action::Deliver);
            }
            Event::Control(FrameKind::Hello, Some((session, last_recv))) => {
                self.note_session(session);
                // A dialed stream's first Hello asks for nothing the attach
                // did not replay already; a later one (readmission) does.
                if !std::mem::take(&mut self.resumed) {
                    self.owe_replay(last_recv);
                }
            }
            Event::Control(FrameKind::ProgressFence, Some((fence_seq, watermark))) => {
                self.acked = self.acked.max(watermark);
                if fence_seq == 0 {
                    return; // an ack proves delivery, nothing more
                }
                let advanced = watermark > self.fenced;
                self.fenced = self.fenced.max(watermark);
                match self.standing {
                    // A fence arriving at all proves the peer's monitor runs
                    // again; readmit once it advanced or caught up. The
                    // Hello makes the peer replay what quarantine dropped.
                    Standing::Quarantined(since) if advanced || watermark >= self.sent => {
                        self.standing = Standing::Up;
                        self.owed.hello = true;
                        self.stats.zombies_readmitted += 1;
                        out.push(Action::Readmit { held: now.saturating_duration_since(since) });
                    }
                    Standing::Quarantined(_) | Standing::Evicted => {}
                    // A fence repeating a lagging watermark is a NACK: the
                    // peer runs, but frames past it were lost. The far
                    // duplicate guard keeps the repair exact-once.
                    _ if !advanced && self.sent > watermark => self.owe_replay(watermark),
                    _ => {}
                }
            }
            Event::Control(FrameKind::Bye, _) => out.push(Action::DeclareDead),
            // A heartbeat, or a control frame whose payload does not decode.
            _ => {}
        }
    }

    fn tick(&mut self, dead: bool, now: Instant, out: &mut Actions) {
        let since = |at: Instant| now.saturating_duration_since(at);
        match self.standing {
            Standing::Quarantined(at) if since(at) > self.cfg.quarantine_grace => {
                self.standing = Standing::Evicted;
                self.owed.teardown = true;
                self.stats.zombies_evicted += 1;
                out.push(Action::Evict { held: since(at) });
            }
            Standing::Up if !dead => {
                if since(self.last_beat) >= self.cfg.heartbeat {
                    self.last_beat = now;
                    self.owed.beat = true;
                }
                if since(self.last_fence) >= self.cfg.fence_interval {
                    // Judge the peer's delivery of our stream: a watermark
                    // frozen while we hold undelivered data, tick after
                    // tick, convicts — an open socket proves nothing.
                    (self.last_fence, self.fence_seq) = (now, self.fence_seq + 1);
                    self.owed.fence = true;
                    self.stats.fences_sent += 1;
                    self.stalls = if self.sent > self.acked { self.stalls + 1 } else { 0 };
                    if self.stalls >= self.cfg.fence_stall_fences {
                        return out.extend(self.quarantine(self.stalls, now));
                    }
                }
                let silence = since(self.last_heard);
                if silence > self.cfg.liveness_deadline {
                    // A zombie's listener backlog lets the redial
                    // "succeed", so miss → redial → miss cycles are
                    // themselves a conviction signal.
                    self.stats.heartbeat_misses += 1;
                    self.churn += 1;
                    self.down(now);
                    self.owed.teardown = true;
                    out.push(Action::Missed { silence });
                    if self.churn >= self.cfg.zombie_churn {
                        out.extend(self.quarantine(0, now));
                    }
                }
            }
            Standing::Down(_) if !dead && self.dialer => out.push(Action::Redial),
            // The dialer's whole backoff schedule passed without a Hello.
            Standing::Down(at) if !dead && since(at) > self.cfg.reconnect_window() => {
                out.push(Action::DeclareDead)
            }
            _ => {}
        }
    }
}

/// One peer: its [`Link`] machine and the [`LinkSender`] doing its writes.
/// Lock order is `io`, then `link`; see the module docs.
pub struct Peer {
    /// The protocol state.
    pub link: Mutex<Link>,
    /// The stream and resend ring.
    pub io: Mutex<LinkSender>,
    /// The node's bookkeeping: a redial is in flight.
    pub(crate) redialing: AtomicBool,
}

impl Peer {
    /// `link` driving `io`.
    pub fn new(link: Link, io: LinkSender) -> Peer {
        Peer { link: Mutex::new(link), io: Mutex::new(io), redialing: AtomicBool::new(false) }
    }

    /// From an application thread: sends one data frame, waiting for `io`.
    /// `write` writes the frame, which its sender numbers.
    pub fn send(
        &self,
        clock: &dyn Fn() -> Instant,
        write: impl FnOnce(&mut LinkSender) -> io::Result<u64>,
    ) {
        let mut io = self.io.lock();
        let seq = io.last_seq() + 1;
        let mut actions = Actions::default();
        self.link.lock().step(Event::Send { seq }, clock(), &mut actions);
        let mut write = Some(write);
        self.drive(&mut io, &actions, clock, &mut |io| {
            write.take().expect("one data frame per send")(io).map(drop)
        });
        drop(io);
        self.flush(clock);
    }

    /// Attaches a fresh stream, waiting for `io`: says hello and replays
    /// what the peer may not have seen before anyone else can write.
    /// Returns whether those writes went out, and the stream's generation.
    pub fn attach(
        &self,
        stream: impl Conn + 'static,
        hello: Option<(u64, u64)>,
        clock: &dyn Fn() -> Instant,
    ) -> (bool, u64) {
        let mut io = self.io.lock();
        io.attach(stream);
        let mut actions = Actions::default();
        self.link.lock().step(Event::Attached { hello }, clock(), &mut actions);
        let said = self.drive(&mut io, &actions, clock, &mut |_| Ok(()));
        let generation = self.link.lock().generation();
        drop(io);
        self.flush(clock);
        (said, generation)
    }

    /// From a service thread: steps `event` and returns its actions; does
    /// what the link owes if `io` is free, never waiting for it.
    pub fn service(&self, event: Event, clock: &dyn Fn() -> Instant) -> Actions {
        let mut actions = Actions::default();
        let owes = {
            let mut link = self.link.lock();
            link.step(event, clock(), &mut actions);
            link.owes()
        };
        if owes {
            self.flush(clock);
        }
        actions
    }

    /// Does what the link owes while `io` is free. Whoever lets `io` go
    /// calls this: a write owed meanwhile found `io` held.
    pub fn flush(&self, clock: &dyn Fn() -> Instant) {
        while self.link.lock().owes() {
            let Some(mut io) = self.io.try_lock() else { return };
            let mut actions = Actions::default();
            self.link.lock().step(Event::Wrote, clock(), &mut actions);
            self.drive(&mut io, &actions, clock, &mut |_| Ok(()));
        }
    }

    /// Holding `io`: performs `actions` — `data` writes the frame an
    /// [`Action::Data`] asks for. A failed write detaches the stream and
    /// steps the link down; the rest still run (a data frame still enters
    /// the ring). Returns whether every write went out.
    pub fn drive(
        &self,
        io: &mut LinkSender,
        actions: &[Action],
        clock: &dyn Fn() -> Instant,
        data: &mut dyn FnMut(&mut LinkSender) -> io::Result<()>,
    ) -> bool {
        let mut ok = true;
        for &action in actions {
            let done = match action {
                Action::Data => data(io),
                // Every Hello offers the peer our cookie to probe.
                Action::Hello { session, last_recv } => io
                    .send_pair(FrameKind::Hello, session, last_recv)
                    .and_then(|()| io.send_offer()),
                Action::Accept => io.send_control(FrameKind::PullAccept),
                Action::Lend => {
                    io.lend();
                    Ok(())
                }
                Action::Fence { fence_seq, watermark } => {
                    io.send_pair(FrameKind::ProgressFence, fence_seq, watermark)
                }
                Action::Heartbeat => io.send_control(FrameKind::Heartbeat),
                Action::Replay(after) => io.resend_since(after).map(drop),
                Action::Trim(through) => {
                    io.trim_through(through);
                    Ok(())
                }
                Action::Teardown => {
                    io.shutdown();
                    Ok(())
                }
                // Verdicts: no write step returns them.
                Action::Deliver
                | Action::Drop
                | Action::Quarantine { .. }
                | Action::Readmit { .. }
                | Action::Evict { .. }
                | Action::Missed { .. }
                | Action::DeclareDead
                | Action::Redial
                | Action::Pull => Ok(()),
            };
            if ok && done.is_err() {
                ok = false;
                io.detach();
            }
        }
        if !ok {
            self.link.lock().step(Event::WriteFailed, clock(), &mut Actions::default());
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Rank 1's link to rank 0 (we dial it) under test defaults.
    fn link(t0: Instant) -> Link {
        let cfg = WireConfig::new("/unused", 1, 2);
        let mut link = Link::new(&cfg, 7, 0, t0);
        link.stepped(Event::Attached { hello: None }, t0);
        link
    }

    /// [`Link::step`] into a fresh buffer.
    trait Stepped {
        fn stepped(&mut self, event: Event, now: Instant) -> Vec<Action>;
    }

    impl Stepped for Link {
        fn stepped(&mut self, event: Event, now: Instant) -> Vec<Action> {
            let mut out = Actions::default();
            self.step(event, now, &mut out);
            out.to_vec()
        }
    }

    fn fence(fence_seq: u64, watermark: u64) -> Event {
        Event::Control(FrameKind::ProgressFence, Some((fence_seq, watermark)))
    }

    fn hello(session: u64, last_recv: u64) -> Event {
        Event::Control(FrameKind::Hello, Some((session, last_recv)))
    }

    fn data(seq: u64) -> Event {
        Event::Data { seq, bytes: 8 }
    }

    /// The next data frame's send step.
    fn send_step(link: &mut Link, now: Instant) -> Vec<Action> {
        let seq = link.sent + 1;
        link.stepped(Event::Send { seq }, now)
    }

    /// Sends `n` data frames.
    fn send(link: &mut Link, n: usize, now: Instant) {
        for _ in 0..n {
            send_step(link, now);
            link.stepped(Event::Wrote, now);
        }
    }

    fn quarantined(link: &Link) -> bool {
        matches!(link.standing(), Standing::Quarantined(_))
    }

    #[test]
    fn attach_says_hello_then_replays_before_anything_else() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 3, t0);
        let got = l.stepped(Event::Attached { hello: Some((9, 1)) }, t0);
        let said = Action::Hello { session: 7, last_recv: 0 };
        assert_eq!(got, [said, Action::Replay(1)]);
        assert_eq!(l.generation(), 2);
        // A dialed stream brings no resume point: replay past the watermark,
        // and the peer's answering Hello asks for nothing more; a later one
        // (a readmission) does.
        l.stepped(fence(0, 2), t0);
        let got = l.stepped(Event::Attached { hello: None }, t0);
        assert_eq!(got, [said, Action::Replay(2)]);
        l.stepped(hello(9, 2), t0);
        assert!(!l.owes_replay());
        l.stepped(hello(9, 2), t0);
        assert!(l.owes_replay());
    }

    #[test]
    fn an_ack_never_nacks_and_never_readmits() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 4, t0);
        assert!(l.stepped(fence(0, 2), t0).is_empty());
        assert!(l.stepped(fence(0, 2), t0).is_empty());
        assert!(!l.owes(), "a repeated ack asked for a replay");
        l.standing = Standing::Quarantined(t0);
        assert!(l.stepped(fence(0, 4), t0).is_empty());
        assert!(quarantined(&l), "a caught-up ack readmitted");
        // The ack still raised the trim watermark.
        assert_eq!(send_step(&mut l, t0)[0], Action::Trim(4));
    }

    #[test]
    fn a_repeated_lagging_fence_owes_one_replay() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 4, t0);
        l.stepped(fence(1, 2), t0);
        assert!(!l.owes_replay(), "the first fence at 2 is progress");
        l.stepped(fence(2, 2), t0);
        l.stepped(fence(3, 2), t0);
        assert_eq!(l.stepped(Event::Wrote, t0), [Action::Replay(2)], "one replay, owed once");
        assert!(l.stepped(Event::Wrote, t0).is_empty());
        // The owed replay goes before new data.
        l.stepped(fence(4, 2), t0);
        let got = send_step(&mut l, t0);
        assert_eq!(got, [Action::Replay(2), Action::Trim(2), Action::Data]);
    }

    #[test]
    fn a_caught_up_fence_readmits() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 2, t0);
        l.stepped(fence(1, 1), t0);
        l.standing = Standing::Quarantined(t0);
        assert!(l.stepped(fence(2, 1), t0).is_empty(), "a stalled fence keeps it held");
        let got = l.stepped(fence(3, 2), t0 + 5 * MS);
        assert_eq!(got, [Action::Readmit { held: 5 * MS }]);
        assert_eq!(l.standing(), Standing::Up);
        let hello = Action::Hello { session: 7, last_recv: 0 };
        assert_eq!(l.stepped(Event::Wrote, t0), [hello]);
        assert_eq!(l.stats.zombies_readmitted, 1);
    }

    #[test]
    fn a_session_change_resets_the_receive_guard() {
        let t0 = Instant::now();
        let mut l = link(t0);
        l.stepped(hello(5, 0), t0);
        l.stepped(data(1), t0);
        l.stepped(data(2), t0);
        assert_eq!(l.stepped(data(2), t0), [Action::Drop]);
        l.stepped(hello(5, 0), t0);
        assert_eq!(l.recv(), 2, "the same session keeps the guard");
        l.stepped(hello(6, 0), t0);
        assert_eq!(l.recv(), 0);
        assert_eq!(l.stepped(data(1), t0), [Action::Deliver]);
    }

    #[test]
    fn admit_and_rescind_scrub_the_slot_but_keep_the_send_seq() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 3, t0);
        l.stepped(hello(5, 0), t0);
        l.stepped(data(1), t0);
        l.standing = Standing::Evicted;
        l.stepped(Event::Admit { connected: false }, t0);
        assert_eq!((l.standing(), l.recv(), l.acked, l.fenced), (Standing::Connecting, 0, 3, 3));
        l.stepped(Event::Attached { hello: None }, t0);
        send(&mut l, 1, t0);
        l.stepped(Event::Rescind, t0);
        assert_eq!((l.standing(), l.acked), (Standing::Connecting, 4));
        l.stepped(Event::Admit { connected: true }, t0);
        assert_eq!(l.standing(), Standing::Up);
        assert_eq!(l.sent, 4, "the send seq stays");
    }

    #[test]
    fn agreed_dead_is_evicted_and_final() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 2, t0);
        l.standing = Standing::Quarantined(t0);
        assert_eq!(l.stepped(Event::AgreedDead, t0), [Action::DeclareDead]);
        assert_eq!(l.standing(), Standing::Evicted);
        assert!(l.stepped(fence(1, 2), t0).is_empty(), "no readmission");
        assert_eq!(l.stepped(data(1), t0), [Action::Drop]);
        assert!(l.stepped(Event::Tick { dead: true }, t0 + 10 * l.cfg.quarantine_grace).is_empty());
        l.stepped(Event::Attached { hello: None }, t0);
        assert_eq!(l.standing(), Standing::Evicted, "a new stream changes nothing");
    }

    #[test]
    fn a_watermark_past_our_last_seq_is_rejected() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 3, t0);
        assert!(l.stepped(fence(1, 1000), t0).is_empty());
        assert!(l.stepped(fence(0, 4), t0).is_empty());
        assert_eq!(l.stats.corrupt_frames, 2);
        assert_eq!(send_step(&mut l, t0)[0], Action::Trim(0), "nothing undelivered trimmed");
        l.stepped(fence(0, 4), t0);
        assert_eq!(send_step(&mut l, t0)[0], Action::Trim(4), "in range now");
    }

    #[test]
    fn a_stalled_watermark_quarantines_then_grace_evicts() {
        let t0 = Instant::now();
        let mut l = link(t0);
        send(&mut l, 1, t0);
        let fence_ms = l.cfg.fence_interval;
        let mut now = t0;
        let mut ticks = 0;
        while !quarantined(&l) {
            now += fence_ms;
            ticks += 1;
            l.last_heard = now; // heartbeats keep arriving
            l.stepped(Event::Tick { dead: false }, now);
        }
        assert_eq!(ticks, l.cfg.fence_stall_fences);
        let got = l.stepped(Event::Tick { dead: true }, now + l.cfg.quarantine_grace + MS);
        assert!(matches!(got[..], [Action::Evict { .. }]), "{got:?}");
        assert_eq!(l.stepped(Event::Wrote, now), [Action::Teardown]);
    }

    #[test]
    fn silence_tears_down_and_churn_quarantines() {
        let t0 = Instant::now();
        let mut l = link(t0);
        let mut now = t0;
        for miss in 1..=l.cfg.zombie_churn {
            now += l.cfg.liveness_deadline + MS;
            let got = l.stepped(Event::Tick { dead: false }, now);
            assert!(matches!(got[0], Action::Missed { .. }), "{got:?}");
            assert_eq!(l.stepped(Event::Wrote, now), [Action::Teardown]);
            if miss < l.cfg.zombie_churn {
                assert_eq!(l.stepped(Event::Tick { dead: false }, now), [Action::Redial]);
                l.stepped(Event::Attached { hello: None }, now);
            }
        }
        assert!(quarantined(&l));
    }

    #[test]
    fn a_descriptor_is_judged_like_its_data_frame_before_the_pull() {
        let t0 = Instant::now();
        let mut l = link(t0);
        l.stepped(hello(5, 0), t0);
        assert_eq!(l.stepped(Event::Lent { seq: 1 }, t0), [Action::Pull]);
        assert_eq!(l.recv(), 0, "judging a descriptor delivers nothing");
        assert_eq!(l.stepped(data(1), t0), [Action::Deliver]);
        assert_eq!(l.stepped(Event::Lent { seq: 1 }, t0), [Action::Drop]);
        assert_eq!(l.stats.duplicates_dropped, 1, "a duplicate is never pulled");
        l.standing = Standing::Quarantined(t0);
        assert_eq!(l.stepped(Event::Lent { seq: 2 }, t0), [Action::Drop]);
        l.standing = Standing::Up;
        assert_eq!(l.stepped(Event::Lent { seq: 3 }, t0), [Action::Drop], "behind the hole");
        assert_eq!(l.stepped(Event::Lent { seq: 2 }, t0), [Action::Pull]);
    }

    #[test]
    fn an_accept_and_a_lend_are_owed_only_to_the_current_stream() {
        let t0 = Instant::now();
        let mut l = link(t0);
        l.stepped(Event::Readable { generation: 1 }, t0);
        l.stepped(Event::Pulls { generation: 1 }, t0);
        assert_eq!(l.stepped(Event::Wrote, t0), [Action::Accept, Action::Lend]);
        l.stepped(Event::Readable { generation: 1 }, t0);
        l.stepped(Event::Attached { hello: None }, t0);
        assert!(!l.owes(), "a new stream owes nothing to the old one");
        l.stepped(Event::Readable { generation: 1 }, t0);
        l.stepped(Event::Pulls { generation: 1 }, t0);
        assert!(!l.owes(), "a late frame from the old stream switched the new one");
        l.stepped(Event::Pulls { generation: 2 }, t0);
        l.stepped(Event::Detached { generation: 2 }, t0);
        assert_eq!(l.stepped(Event::Wrote, t0), [Action::Teardown], "a detach clears the lend");
    }

    #[test]
    fn a_stale_reader_never_tears_down_the_current_stream() {
        let t0 = Instant::now();
        let mut l = link(t0);
        l.stepped(Event::Attached { hello: None }, t0);
        l.stepped(Event::Detached { generation: 1 }, t0);
        assert_eq!(l.standing(), Standing::Up);
        l.stepped(Event::Detached { generation: 2 }, t0);
        assert_eq!(l.standing(), Standing::Down(t0));
        assert_eq!(l.stepped(Event::Wrote, t0), [Action::Teardown]);
    }
}
