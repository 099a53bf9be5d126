//! The node's read side: each attached stream's read half, who reads it,
//! and the one dispatch every reader of a half runs.
//!
//! A [`Stream`] keeps the stream's read half ([`ReadHalf`]: the socket, its
//! [`FrameReader`] and buffer, the lender its probe found) behind one lock.
//! A rank blocked receiving takes it and reads the socket itself, in
//! `poll` ([`wait`]); the stream's reader thread takes it, with `try_lock`,
//! only for what no rank waits on, and waits in `epoll_wait` on a private
//! epoll that holds the socket with `EPOLLONESHOT` ([`Stream::standby`]).
//!
//! The one-shot rule: an event disarms the socket, and a rank taking the
//! half disarms it with an `EPOLL_CTL_MOD` that wakes nobody
//! ([`Stream::disarm`]); whoever lets the half go re-arms it after
//! unlocking ([`Stream::arm`]). So no reader wakes while a rank reads; a
//! reader an event woke too late fails `try_lock` and waits again,
//! disarmed; and bytes left when the half is let go wake the reader at
//! once. What a rank cannot see on the socket — death, revival, shutdown,
//! a newer stream, a frame that reached the mailbox another way — comes on
//! the stream's wake fd ([`Stream::wake`]), which only the holder drains.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};

use std::any::Any;
use std::sync::Arc;

use mxn_runtime::{Envelope, Payload, Result, RuntimeError, Src, Tag};
use mxn_trace::{emit_instant, EventId};

use super::NodeShared;
use crate::codec::decode_value;
use crate::frame::{
    read_remote, Arrival, Descriptor, Frame, FrameError, FrameKind, FrameReader, PullError,
    DESCRIPTOR_CODEC,
};
use crate::peer::{Action, Event};

const EPOLLIN: u32 = 0x001;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2_000_000;
/// `shutdown(2)`'s "no more reads" and "both directions".
const SHUT_RD: i32 = 0;
pub(super) const SHUT_RDWR: i32 = 2;
/// `POLLIN`; `poll` reports `POLLHUP` and `POLLERR` unasked.
const POLLIN: i16 = 0x001;

/// `struct epoll_event`, packed where the kernel packs it.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, max: i32, timeout: i32) -> i32;
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    fn shutdown(fd: i32, how: i32) -> i32;
}

/// Shuts the socket `fd` down for reading (`SHUT_RD`) or both ways
/// (`SHUT_RDWR`): whoever blocks on it wakes to an end of stream, or to a
/// failed `accept` on a listener. The caller owns `fd` for the call.
pub(super) fn shutdown_socket(fd: i32, how: i32) {
    // SAFETY: `shutdown(2)` takes no pointers, and the caller owns `fd`.
    unsafe { shutdown(fd, how) };
}

/// Polls `fds` for input until `deadline` (`None`: no deadline; in the
/// past: a look without waiting) and returns which are ready, hung up or
/// failed — or none, at the deadline or on a signal.
fn poll_fds<const N: usize>(fds: [i32; N], deadline: Option<Instant>) -> [bool; N] {
    // Round up: waking before the deadline would only poll again.
    let timeout = deadline.map_or(-1, |d| {
        let left = d.saturating_duration_since(Instant::now());
        left.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
    });
    let mut set = fds.map(|fd| PollFd { fd, events: POLLIN, revents: 0 });
    // SAFETY: `poll(2)` reads and writes exactly `N` `pollfd`s of `set`,
    // which lives across the call.
    let n = unsafe { poll(set.as_mut_ptr(), N as std::ffi::c_ulong, timeout) };
    set.map(|p| n > 0 && p.revents != 0)
}

/// The most streams one waiting rank reads at once: the one it waits on
/// and up to seven more of its node's.
pub(crate) const DRIVEN: usize = 8;

/// A waiting rank's wait: until one of the streams whose halves it holds
/// (`None`: a slot not to watch) is readable — which — or `waiting`'s wake
/// fd was written (the first of the two), or `deadline` passes.
pub(crate) fn wait(
    waiting: &Stream,
    held: [Option<&Stream>; DRIVEN],
    deadline: Option<Instant>,
) -> (bool, [bool; DRIVEN]) {
    let mut fds = [-1; DRIVEN + 1]; // `poll` skips a negative fd
    fds[0] = waiting.wake_rx.as_raw_fd();
    for (fd, stream) in fds[1..].iter_mut().zip(held) {
        *fd = stream.map_or(-1, |s| s.socket);
    }
    let ready = poll_fds(fds, deadline);
    (ready[0], std::array::from_fn(|i| ready[1 + i]))
}

/// One stream's read half: what a thread needs to read and dispatch it.
pub(crate) struct ReadHalf {
    pub stream: UnixStream,
    pub frames: FrameReader,
    buf: Box<[u8]>,
    /// The attach that installed this stream.
    pub generation: u64,
    /// The process the kernel names as the stream's peer.
    pub from: Option<i32>,
    /// That process, once its cookie was found there: its descriptors are
    /// pulled.
    pub lender: Option<i32>,
    /// The stream hit its end or had to go: nobody reads it again.
    pub ended: bool,
}

impl ReadHalf {
    /// Whether the socket has bytes (or its end) to read now.
    pub(super) fn ready(&self) -> bool {
        poll_fds([self.stream.as_raw_fd()], Some(Instant::now()))[0]
    }

    /// One `read` into the frame reader; `false` at the end of the stream
    /// or on a failure. Call only when [`ReadHalf::ready`] (or a poll)
    /// said so: the socket blocks, and the half's holder reads alone.
    pub(super) fn fill(&mut self) -> bool {
        matches!(self.frames.read_from(&mut self.stream, &mut self.buf), Ok(n) if n > 0)
    }
}

/// One attached stream's read side. See the module docs.
pub(crate) struct Stream {
    pub half: Mutex<ReadHalf>,
    /// The reader thread is taking, or holds, the half: a rank that finds
    /// it held waits the reader's turn out instead of the mailbox.
    reading: AtomicBool,
    /// Data has come off this stream: a rank waiting on another holds
    /// only streams that carry data, not ones that only beacon.
    pub carries: AtomicBool,
    /// The reader thread's epoll, holding the socket one-shot.
    epoll: OwnedFd,
    socket: i32,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    pub generation: u64,
}

impl Stream {
    /// The read side of `stream` (a clone of the attached socket) with
    /// `frames` holding what its handshake read already, armed.
    pub(super) fn new(
        stream: UnixStream,
        frames: FrameReader,
        generation: u64,
        from: Option<i32>,
    ) -> io::Result<Stream> {
        // SAFETY: `epoll_create1(2)` takes no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor nothing else owns.
        let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let socket = stream.as_raw_fd();
        let buf = vec![0; 64 * 1024].into_boxed_slice();
        let half = ReadHalf { stream, frames, buf, generation, from, lender: None, ended: false };
        let half = Mutex::new(half);
        let (reading, carries) = (AtomicBool::new(false), AtomicBool::new(false));
        let s = Stream { half, reading, carries, epoll, socket, wake_rx, wake_tx, generation };
        s.ctl(EPOLL_CTL_ADD, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT)?;
        Ok(s)
    }

    fn ctl(&self, op: i32, events: u32) -> io::Result<()> {
        let mut event = EpollEvent { events, data: 0 };
        // SAFETY: `epoll_ctl(2)` reads one `epoll_event`, `event`, which
        // lives across the call; both descriptors belong to `self`.
        match unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, self.socket, &mut event) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }

    /// The reader thread's turn: `turn` with the half, unless a rank holds
    /// it (`None`).
    pub(super) fn reader_turn(&self, turn: impl FnOnce(&mut ReadHalf) -> bool) -> Option<bool> {
        self.reading.store(true, Ordering::SeqCst);
        let done = self.half.try_lock().map(|mut half| turn(&mut half));
        self.reading.store(false, Ordering::SeqCst);
        done
    }

    /// A rank's take of the half: `None` if another rank holds it. The
    /// reader's turn never blocks, so a rank waits it out.
    pub(super) fn take(&self) -> Option<MutexGuard<'_, ReadHalf>> {
        loop {
            if let Some(half) = self.half.try_lock() {
                return Some(half);
            }
            if !self.reading.load(Ordering::SeqCst) {
                return None;
            }
            std::thread::yield_now();
        }
    }

    /// Re-arms the reader's epoll; it fires at once if bytes are pending.
    /// Whoever lets the half go calls this after unlocking it.
    pub(super) fn arm(&self) {
        let _ = self.ctl(EPOLL_CTL_MOD, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT);
    }

    /// Disarms the reader's epoll without waking the reader: a rank took
    /// the half.
    pub(super) fn disarm(&self) {
        let _ = self.ctl(EPOLL_CTL_MOD, EPOLLONESHOT);
    }

    /// The reader thread's wait: blocks until the armed stream fires.
    /// `false` when the epoll fails for good.
    pub(super) fn standby(&self) -> bool {
        let mut event = EpollEvent { events: 0, data: 0 };
        loop {
            // SAFETY: `epoll_wait(2)` writes at most one `epoll_event` into
            // `event`, which lives across the call.
            if unsafe { epoll_wait(self.epoll.as_raw_fd(), &mut event, 1, -1) } >= 0 {
                return true;
            }
            if io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
                return false;
            }
        }
    }

    /// Ends the read side of a stream a newer one replaced: its holder
    /// reads what is buffered, then the end, and lets the stream go — its
    /// reader thread exits and drops the descriptors. A rank reading it
    /// looks again.
    pub(super) fn retire(&self) {
        shutdown_socket(self.socket, SHUT_RD);
        self.wake();
    }

    /// Tells the half's holder to look again.
    pub(super) fn wake(&self) {
        // A full buffer is a pending wake already.
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Forgets the wakes so far; the holder looks again after this.
    pub(super) fn clear_wakes(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The read side of the node: bytes → frames → link → the waiting rank or
/// the mailbox, for whoever holds a stream's read half.
impl NodeShared {
    /// Whether `peer`'s link lets an arriving data frame through.
    fn admits(self: &Arc<Self>, peer: usize, seq: u64, bytes: usize) -> bool {
        let data = Event::Data { seq, bytes: bytes as u64 };
        self.service(peer, data).contains(&Action::Deliver)
    }

    /// Routes one decoded frame from `peer` into `sink` and hands its
    /// payload buffer back for reuse.
    pub(super) fn handle_frame(
        self: &Arc<Self>,
        peer: usize,
        frame: Frame,
        sink: &mut Sink,
    ) -> Vec<u8> {
        let bytes = frame.payload.len();
        if frame.kind != FrameKind::Data {
            self.service(peer, Event::arrived(&frame));
        } else if self.admits(peer, frame.seq, bytes) {
            let env = match self.registry.decode_any(frame.codec, &frame.payload) {
                Ok(boxed) => data_envelope(peer, &frame, bytes, boxed),
                // Bytes passed CRC but no/odd codec: a registry mismatch
                // between the two processes. Surface it as a detectable
                // Corrupt — never a panic — so the receiver's retry/NACK
                // machinery engages.
                Err(_) => corrupt_envelope(peer, frame.context, frame.tag, bytes),
            };
            self.deliver(peer, sink, env);
        }
        frame.payload
    }

    /// Delivers `env` from `peer`, read off stream `sink.generation`: to the
    /// rank reading it if that rank waits for `env`, else to the mailbox. A
    /// frame read off a stream a newer one replaced makes the newer one's
    /// reader look in the mailbox.
    fn deliver(&self, peer: usize, sink: &mut Sink, env: Envelope) {
        let newest = self.stream(peer);
        let current = newest.as_ref().filter(|s| s.generation == sink.generation);
        if env.verify() {
            current.inspect(|s| s.carries.store(true, Ordering::Relaxed));
        }
        let current = current.is_some();
        if sink.rank && env.verify() {
            self.counters.frames_read_by_receiver.fetch_add(1, Ordering::Relaxed);
        }
        if current && sink.got.is_none() && sink.want == Some((env.context, env.tag)) {
            sink.got = Some(env);
            return;
        }
        self.mailbox.push(env);
        if !current {
            newest.inspect(|s| s.wake());
        }
    }

    /// A stream's reader thread: handles what no rank reading for itself
    /// takes, standing down (disarmed, not woken) while one holds the half.
    pub(super) fn reader_loop(self: Arc<Self>, peer: usize, stream: Arc<Stream>) {
        loop {
            match stream.reader_turn(|half| self.drain(peer, half)) {
                Some(false) => return,
                Some(true) => stream.arm(),
                None => {} // its holder re-arms the stream when it lets go
            }
            if !stream.standby() {
                return;
            }
        }
    }

    /// The reader's turn with `half`: handles what it holds and what the
    /// socket has ready, never blocking. `false` once the stream is done.
    fn drain(self: &Arc<Self>, peer: usize, half: &mut ReadHalf) -> bool {
        let mut sink = Sink::default();
        while !half.ended && self.dispatch(peer, half, &mut sink) {
            if self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            if !half.ready() {
                return true;
            }
            if !half.fill() {
                return self.end(peer, half);
            }
        }
        false
    }

    /// Handles every frame `half` holds: the one dispatch routine for
    /// whoever holds it, its reader or a rank reading for itself. Returns
    /// `false`, the half ended, when the stream must go.
    fn dispatch(self: &Arc<Self>, peer: usize, half: &mut ReadHalf, sink: &mut Sink) -> bool {
        while let Some(res) = half.frames.next_arrival() {
            match res {
                Ok(Arrival::Frame(frame)) => match frame.kind {
                    FrameKind::Data if frame.codec == DESCRIPTOR_CODEC => {
                        if !self.pull_body(peer, &frame, half.lender, sink) {
                            return self.end(peer, half); // the resume replays
                        }
                    }
                    FrameKind::PullOffer => {
                        self.service(peer, Event::arrived(&frame));
                        if let Some(pid) = self.lender(half.from, &frame.payload) {
                            half.lender = Some(pid);
                            self.service(peer, Event::Readable { generation: half.generation });
                        }
                    }
                    FrameKind::PullAccept => {
                        self.service(peer, Event::arrived(&frame));
                        self.service(peer, Event::Pulls { generation: half.generation });
                    }
                    _ => {
                        let payload = self.handle_frame(peer, frame, sink);
                        half.frames.recycle(payload);
                    }
                },
                Ok(Arrival::Values(frame, values)) => {
                    let bytes = 4 + 8 * values.len();
                    if self.admits(peer, frame.seq, bytes) {
                        self.deliver(
                            peer,
                            sink,
                            data_envelope(peer, &frame, bytes, Box::new(values)),
                        );
                    } else {
                        self.spares.give(values);
                    }
                }
                Err(e) => self.report_corrupt(peer, e, sink),
            }
        }
        true
    }

    /// Ends `half`: nobody reads its stream again, and the link (the node
    /// not shutting down) loses it. Returns `false`.
    fn end(self: &Arc<Self>, peer: usize, half: &mut ReadHalf) -> bool {
        if !std::mem::replace(&mut half.ended, true) && !self.shutdown.load(Ordering::Acquire) {
            self.service(peer, Event::Detached { generation: half.generation });
            self.wake(peer);
        }
        false
    }

    /// A rank waiting since `start` for `want`, a `(context, tag)` from
    /// `peer`, reads `peer`'s newest stream itself until `deadline` — and
    /// every other stream of this node that carries data and whose half is
    /// free, so that their frames reach the mailbox without waking a
    /// reader. `None`: wait on the mailbox instead — another thread holds
    /// `peer`'s half, or its stream ended or was replaced.
    pub(super) fn read_for(
        self: &Arc<Self>,
        peer: usize,
        want: (u32, i32),
        start: Instant,
        deadline: Option<Instant>,
    ) -> Option<Result<Envelope>> {
        let carries = |s: &Arc<Stream>| s.carries.load(Ordering::Relaxed);
        let others = (0..self.cur_size())
            .filter(|&q| q != peer && q != self.cfg.rank)
            .filter_map(|q| Some((q, self.stream(q).filter(carries)?)));
        let mut streams: [Option<(usize, Arc<Stream>)>; DRIVEN] = Default::default();
        streams[0] = Some((peer, self.stream(peer)?));
        for (slot, other) in streams[1..].iter_mut().zip(others) {
            *slot = Some(other);
        }
        let mut held: [Option<(usize, &Stream, MutexGuard<ReadHalf>)>; DRIVEN] = Default::default();
        for (i, (q, s)) in streams.iter().enumerate().filter_map(|(i, s)| Some((i, s.as_ref()?))) {
            let Some(half) = (if i == 0 { Some(s.take()?) } else { s.half.try_lock() }) else {
                continue;
            };
            s.disarm();
            held[i] = Some((*q, &**s, half));
        }
        let (waiting, generation) = (held[0].as_ref()?.1, held[0].as_ref()?.2.generation);
        let (context, src, tag) = (want.0, Src::Rank(peer), Tag::Value(want.1));
        let read = loop {
            if let Some(env) = self.mailbox.try_take(context, src, tag) {
                break Some(Ok(env));
            }
            if self.abort.load(Ordering::Acquire) {
                break Some(Err(RuntimeError::Aborted));
            }
            if self.liveness.is_dead(peer) {
                break Some(Err(RuntimeError::PeerDead { rank: peer }));
            }
            if self.stream(peer).is_none_or(|s| s.generation != generation) {
                break None;
            }
            let mut got = None;
            for (q, _, half) in held.iter_mut().flatten().filter(|(_, _, h)| !h.ended) {
                let want = (*q == peer).then_some(want);
                let mut sink = Sink { rank: true, want, generation: half.generation, got: None };
                self.dispatch(*q, half, &mut sink);
                got = got.or(sink.got);
            }
            if got.is_some() || held[0].as_ref().is_some_and(|(_, _, h)| h.ended) {
                break got.map(Ok);
            }
            let live = held.each_ref().map(|h| match h {
                Some((_, s, half)) if !half.ended => Some(*s),
                _ => None,
            });
            let (woken, readable) = wait(waiting, live, deadline);
            for (slot, _) in held.iter_mut().zip(readable).filter(|(_, ready)| *ready) {
                if let Some((q, _, half)) = slot {
                    if !half.fill() {
                        self.end(*q, half);
                    }
                }
            }
            if woken {
                // Every wake so far is seen by the look this loop takes.
                waiting.clear_wakes();
            } else if !readable.contains(&true) && deadline.is_some_and(|d| Instant::now() >= d) {
                let waited = format!("message (context={context})");
                let late = RuntimeError::timeout(waited, start.elapsed(), src, tag);
                break Some(self.mailbox.try_take(context, src, tag).ok_or(late));
            }
        };
        // Let every half go, then re-arm its reader.
        held.map(|h| h.map(|(_, s, _)| s)).into_iter().flatten().for_each(Stream::arm);
        read
    }

    /// Reports a damaged frame from `peer`: to its link, to the trace, and
    /// to a receiver blocked on its bucket when the header was intact.
    fn report_corrupt(self: &Arc<Self>, peer: usize, e: FrameError, sink: &mut Sink) {
        let FrameError::Corrupt { skipped, header, .. } = e;
        self.service(peer, Event::Corrupt);
        emit_instant(
            EventId::WireFrameCorrupt,
            [peer as u64, u64::from(header.is_some()), skipped as u64, 0],
        );
        if let Some(h) = header {
            self.deliver(peer, sink, corrupt_envelope(peer, h.context, h.tag, skipped));
        }
    }

    /// The process readers take as `pid`, the peer the kernel named.
    fn lender_pid(&self, pid: i32) -> i32 {
        #[cfg(test)]
        if self.foreign.load(Ordering::Relaxed) {
            return i32::MAX; // above any pid_max: ESRCH
        }
        pid
    }

    /// Process `from`, if it keeps the cookie a `PullOffer`'s `payload`
    /// names at the address the offer gives.
    fn lender(&self, from: Option<i32>, payload: &[u8]) -> Option<i32> {
        let (at, cookie) = decode_value::<(u64, u64)>(payload).ok()?;
        let pid = from?;
        let mut found = [0u8; 8];
        read_remote(self.lender_pid(pid), at, &mut found).ok()?;
        (u64::from_le_bytes(found) == cookie).then_some(pid)
    }

    /// Handles a descriptor from `peer` on a stream whose lender is
    /// `lender`: the duplicate guard first, then the pull, the check and
    /// delivery. A descriptor on a stream we never accepted, or a damaged
    /// body, is `Corrupt`. Returns `false`, having delivered nothing, when
    /// the lender's memory cannot be read: the stream must go.
    fn pull_body(
        self: &Arc<Self>,
        peer: usize,
        frame: &Frame,
        lender: Option<i32>,
        sink: &mut Sink,
    ) -> bool {
        let described = Descriptor::parse(frame).and_then(|d| match lender {
            Some(pid) => Ok((d, pid)),
            None => Err(d.refused("descriptor on a stream that lends nothing")),
        });
        let (descriptor, pid) = match described {
            Ok(d) => d,
            Err(e) => {
                self.report_corrupt(peer, e, sink);
                return true;
            }
        };
        let lent = Event::Lent { seq: frame.seq };
        if !self.service(peer, lent).contains(&Action::Pull) {
            return true;
        }
        match descriptor.pull(self.lender_pid(pid), &self.spares) {
            Ok(values) => {
                let bytes = descriptor.body_len();
                if self.admits(peer, frame.seq, bytes) {
                    self.counters.bodies_pulled.fetch_add(1, Ordering::Relaxed);
                    self.deliver(peer, sink, data_envelope(peer, frame, bytes, Box::new(values)));
                } else {
                    self.spares.give(values);
                }
                true
            }
            // A body read after the frame was delivered through another
            // stream may have been reused: only a frame still owed is
            // damaged.
            Err(PullError::Corrupt(e)) => {
                if self.service(peer, lent).contains(&Action::Pull) {
                    self.report_corrupt(peer, e, sink);
                }
                true
            }
            Err(PullError::Failed(_)) => false,
        }
    }
}

/// Where the frames one holder of a read half handles go: the first one a
/// rank reading for itself waits for comes back to it, the rest to the
/// mailbox.
#[derive(Default)]
pub(super) struct Sink {
    /// A rank reads, not the stream's reader thread.
    rank: bool,
    /// The `(context, tag)` the rank waits for, on this stream.
    want: Option<(u32, i32)>,
    /// The stream read.
    generation: u64,
    got: Option<Envelope>,
}

/// The envelope a data frame's decoded `value` travels in.
fn data_envelope(peer: usize, frame: &Frame, bytes: usize, value: Box<dyn Any + Send>) -> Envelope {
    Envelope::new(peer, peer, frame.context, frame.tag, bytes, None, Payload::from(value))
}

/// A checksum-damaged envelope, so a receiver blocked on this `(context,
/// tag)` observes `RuntimeError::Corrupt`, mirroring the in-proc fault
/// plane's corrupt verdict.
fn corrupt_envelope(peer: usize, context: u32, tag: i32, bytes: usize) -> Envelope {
    let mut env = Envelope::new(peer, peer, context, tag, bytes, None, Payload::owned(()));
    env.corrupt();
    env
}
