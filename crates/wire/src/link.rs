//! Per-peer send state: sequencing, the resend ring, and fault injection.
//!
//! A [`LinkSender`] outlives any one socket. The sequence counter and the
//! ring of recently-encoded data frames persist across disconnects, which
//! is what makes session resume work: after a reconnect the peer's
//! `Hello(session, last_recv_seq)` tells us the highest data frame it saw,
//! and [`LinkSender::resend_since`] replays everything newer from the
//! ring. Control frames (heartbeat, hello, bye, fences and acks) are never
//! sequenced, never retained, and never faulted — they are the reliability
//! plane itself, exactly as the in-proc runtime disarms the fault plane
//! around its bootstrap and shutdown control traffic.
//!
//! A `LinkSender` makes no protocol decisions: it writes, replays, trims
//! and tears down as the link's machine ([`crate::peer::Link`]) says, to
//! any [`Conn`] — a Unix socket or a test's in-memory pipe.
//!
//! The ring holds the undelivered tail. The machine trims it to the
//! watermark the peer reports — in its acks and progress fences —
//! with [`LinkSender::trim_through`]; the ring is also capped at
//! [`RING_FRAMES`] frames and [`RING_BYTES`] bytes, so a stalled,
//! disconnected or one-way peer cannot grow it without bound. A trimmed or
//! evicted frame's buffer goes on a short free list, and the next data
//! frame is encoded into it: a bulk stream keeps writing into memory it
//! has already touched.
//!
//! A large `Vec<f64>` sent with [`LinkSender::send_values`] is never
//! encoded: the ring retains the vector itself between the frame's header
//! (with the value count) and its payload CRC, and every write of the
//! frame goes from the vector's memory to the socket. Once trimmed, the
//! vector goes to the node's [`SpareValues`] list, where its readers take
//! vectors for incoming bodies to land in. Every retained frame — bytes or
//! vector — is written by one `write_vectored` loop; a bit-flip fault
//! verdict damages a contiguous copy.
//!
//! On a stream whose receiver pulls ([`LinkSender::lend`], after it read
//! the cookie [`LinkSender::send_offer`] announced), a retained vector is
//! *lent* instead: the write is a descriptor frame naming the vector's
//! address, and the receiver copies the body out of this process's memory.
//! That holds for the first write and for every replay; the ring entry is
//! the same either way. A lent vector is read after the write, so it must
//! not be reused before the peer's watermark covers its frame, which is
//! after the pull: trimming to the watermark frees it, but the caps may
//! not. A lent vector the caps evict leaves the ring (it can no longer be
//! replayed) but stays held until the watermark covers it, and lent
//! vectors total at most [`RING_BYTES`]: past that, bodies are written
//! whole again, and a receiver that stopped reading blocks the socket as
//! before. So a link retains at most its ring — [`RING_FRAMES`] frames,
//! [`RING_BYTES`] bytes, the newest frame always kept — plus at most
//! [`RING_BYTES`] of evicted lent vectors: `2 × RING_BYTES`.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use crate::codec::{encode_value, WireCodec};
use crate::fault::{WireFaults, WireVerdict};
use crate::frame::{
    descriptor_frame, values_bytes, values_head, write_frame, CorruptHeader, Frame, FrameKind,
    SpareValues, BODY_IN_PLACE, HEADER_LEN, VALUES_IN_PLACE,
};

/// The byte stream a [`LinkSender`] writes to: a Unix socket, or any other
/// writer — a test's in-memory pipe.
pub trait Conn: Write + Send {
    /// Closes both directions, ending the peer's reads.
    fn close(&mut self);
}

impl Conn for UnixStream {
    fn close(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// Data frames retained for session-resume redelivery. A peer that falls
/// further behind than this cannot be resumed and will surface message
/// loss to the application's retry layer instead.
pub const RING_FRAMES: usize = 1024;

/// Encoded bytes retained per link, beside [`RING_FRAMES`]: the oldest
/// frames are evicted while either bound is exceeded (the newest frame is
/// always kept).
pub const RING_BYTES: usize = 64 << 20;

/// Trimmed frame buffers kept for reuse per link.
const FREE_BUFFERS: usize = 4;

/// One data frame the ring retains, clean.
enum Retained {
    /// The encoded frame.
    Encoded(Vec<u8>),
    /// A `Vec<f64>` frame: the header and value count, the values in their
    /// own vector, the payload CRC.
    Values { head: [u8; HEADER_LEN + 4], values: Vec<f64>, crc: [u8; 4] },
}

impl Retained {
    /// The frame's bytes in order.
    fn parts(&self) -> [&[u8]; 3] {
        match self {
            Retained::Encoded(bytes) => [bytes, &[], &[]],
            Retained::Values { head, values, crc } => [head, values_bytes(values), crc],
        }
    }

    /// The frame's length on the wire.
    fn len(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum()
    }
}

/// Outbound half of one peer link.
pub struct LinkSender {
    /// Current stream; `None` while disconnected.
    stream: Option<Box<dyn Conn>>,
    /// Our global rank (stamped as frame `src`).
    src: u32,
    /// Peer's global rank (fault-plane channel key).
    dst: u32,
    /// Next data sequence number to assign (first frame gets 1).
    next_seq: u64,
    /// Recently sent data frames, clean (pre-fault), seq-ordered. Shared
    /// with the write that sent them: retention copies no bytes.
    ring: VecDeque<(u64, Arc<Retained>)>,
    /// Frame bytes held by `ring`.
    ring_bytes: usize,
    /// Buffers of frames that left the ring, reused by the next encode.
    free: Vec<Vec<u8>>,
    /// Where vectors of frames that left the ring go.
    spares: Arc<SpareValues>,
    /// Where this process keeps its cookie, and the cookie, for
    /// [`LinkSender::send_offer`]; `None` offers nothing.
    offer: Option<(u64, u64)>,
    /// The current stream's receiver pulls: retained vectors are lent.
    lends: bool,
    /// Seqs of frames whose vector was lent and the watermark has not yet
    /// covered, with the vector's bytes.
    lent: Vec<(u64, usize)>,
    /// Lent frames the caps evicted from the ring, held until the
    /// watermark covers them.
    held: Vec<(u64, Arc<Retained>)>,
    /// Monotone send-attempt counter keying fault draws; retransmissions
    /// advance it so a retried frame gets a fresh fate.
    attempts: u64,
    /// Frame-layer fault policy for this link.
    faults: WireFaults,
    /// Whether faults currently apply (mirrors `Process::set_faults_armed`).
    armed: bool,
}

impl LinkSender {
    /// A disconnected sender for the `src → dst` link.
    pub fn new(src: u32, dst: u32, faults: WireFaults) -> Self {
        LinkSender {
            stream: None,
            src,
            dst,
            next_seq: 1,
            ring: VecDeque::new(),
            ring_bytes: 0,
            free: Vec::new(),
            spares: Arc::default(),
            offer: None,
            lends: false,
            lent: Vec::new(),
            held: Vec::new(),
            attempts: 0,
            faults,
            armed: true,
        }
    }

    /// Hands the vectors of trimmed `Vec<f64>` frames to `spares` — a list
    /// shared with the node's readers — instead of a list of its own.
    pub fn with_spares(mut self, spares: Arc<SpareValues>) -> Self {
        self.spares = spares;
        self
    }

    /// Announces the cookie `cookie`, kept at address `at` in this process,
    /// in every pull offer it sends.
    pub fn offering(mut self, at: u64, cookie: u64) -> Self {
        self.offer = Some((at, cookie));
        self
    }

    /// Attaches a fresh stream (connect or accept). Send state survives;
    /// bodies are written whole until the new stream's receiver pulls.
    pub fn attach(&mut self, stream: impl Conn + 'static) {
        self.stream = Some(Box::new(stream));
        self.lends = false;
    }

    /// Detaches the socket after an I/O failure; the ring keeps the
    /// unacknowledged tail for the next resume.
    pub(crate) fn detach(&mut self) {
        self.stream = None;
        self.lends = false;
    }

    /// Lends retained vectors on the current stream from now on: its
    /// receiver accepted our offer.
    pub fn lend(&mut self) {
        self.lends = self.stream.is_some();
    }

    /// Whether retained vectors are lent on the current stream.
    #[cfg(test)]
    pub(crate) fn lends(&self) -> bool {
        self.lends
    }

    /// Bytes of lent vectors the watermark has not covered yet, in the ring
    /// or held past it.
    pub fn lent_bytes(&self) -> usize {
        self.lent.iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Bytes of lent vectors the caps evicted and the watermark has not
    /// covered yet.
    pub fn held_bytes(&self) -> usize {
        self.held.iter().map(|(_, frame)| frame.len()).sum()
    }

    /// Whether a socket is currently attached.
    pub(crate) fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Shuts down the attached stream (both directions), unblocking the
    /// peer's reader, and detaches.
    pub(crate) fn shutdown(&mut self) {
        self.lends = false;
        if let Some(mut s) = self.stream.take() {
            s.close();
        }
    }

    /// Arms or disarms fault injection on this link.
    pub(crate) fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Highest sequence number assigned so far.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Frames and bytes currently retained for resume.
    pub fn retained(&self) -> (usize, usize) {
        (self.ring.len(), self.ring_bytes)
    }

    /// Sends one application message: assigns the next sequence number,
    /// encodes the frame into a reused buffer — `encode` appends the
    /// payload after the header and returns its codec tag — retains the
    /// clean encoding in the ring, then writes it through the fault plane.
    /// Returns `None`, assigning and sending nothing, when `encode`
    /// declines; else the write's outcome with the assigned sequence
    /// number. A failed write leaves the frame in the ring.
    pub fn send_data(
        &mut self,
        context: u32,
        tag: i32,
        encode: impl FnOnce(&mut Vec<u8>) -> Option<u32>,
    ) -> Option<io::Result<u64>> {
        let seq = self.next_seq;
        let mut bytes = match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            // Frames on one link tend to repeat their size: a fresh buffer
            // starts at the last encoded frame's, so encoding it grows
            // nothing.
            None => Vec::with_capacity(match self.ring.back().map(|(_, f)| &**f) {
                Some(Retained::Encoded(last)) => last.len(),
                _ => 0,
            }),
        };
        if write_frame(&mut bytes, FrameKind::Data, self.src, context, tag, seq, encode).is_none() {
            self.free.push(bytes);
            return None;
        }
        Some(self.retain_and_write(Retained::Encoded(bytes)))
    }

    /// Sends `values` as one application message under codec tag `codec`
    /// — the tag of `Vec<f64>` — and returns the write's outcome with the
    /// assigned sequence number, as [`LinkSender::send_data`] does. A body
    /// of at least [`BODY_IN_PLACE`] bytes is not encoded: the ring keeps
    /// the vector, and the frame is written from its memory. The bytes on
    /// the wire are the codec's either way.
    pub fn send_values(
        &mut self,
        context: u32,
        tag: i32,
        codec: u32,
        values: Vec<f64>,
    ) -> io::Result<u64> {
        if !VALUES_IN_PLACE || 4 + 8 * values.len() < BODY_IN_PLACE {
            let encode = |out: &mut Vec<u8>| {
                values.encode(out);
                Some(codec)
            };
            return self.send_data(context, tag, encode).expect("the encoder never declines");
        }
        let route = CorruptHeader { src: self.src, context, tag, seq: self.next_seq };
        let (head, crc) = values_head(route, codec, &values);
        self.retain_and_write(Retained::Values { head, values, crc })
    }

    /// Assigns the next sequence number to `frame` (built for it), retains
    /// it in the ring, and writes it through the fault plane.
    fn retain_and_write(&mut self, frame: Retained) -> io::Result<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = Arc::new(frame);
        self.ring_bytes += frame.len();
        self.ring.push_back((seq, Arc::clone(&frame)));
        while self.ring.len() > 1 && (self.ring.len() > RING_FRAMES || self.ring_bytes > RING_BYTES)
        {
            // A lent vector may not be read yet: it is held, not reused.
            let Some((seq, frame)) = self.pop_oldest() else { break };
            if self.lent.iter().any(|&(s, _)| s == seq) {
                self.held.push((seq, frame));
            } else {
                self.recycle(frame);
            }
        }
        self.write_retained(seq, &frame).map(|()| seq)
    }

    /// Replays every retained data frame with `seq > last_recv` (session
    /// resume). Replays go through the fault plane with fresh draws.
    pub(crate) fn resend_since(&mut self, last_recv: u64) -> io::Result<usize> {
        let pending: Vec<(u64, Arc<Retained>)> = self
            .ring
            .iter()
            .filter(|(seq, _)| *seq > last_recv)
            .map(|(seq, frame)| (*seq, Arc::clone(frame)))
            .collect();
        for (seq, frame) in &pending {
            self.write_retained(*seq, frame)?;
        }
        Ok(pending.len())
    }

    /// Forgets every retained frame with `seq <= watermark`: the peer's
    /// ack or progress fence proves it delivered them, so no resume or
    /// repair can ask for them again, and no pull can read a lent vector
    /// of theirs any more.
    pub(crate) fn trim_through(&mut self, watermark: u64) {
        self.lent.retain(|&(seq, _)| seq > watermark);
        // Held frames are older than any in the ring: oldest first.
        let (covered, held): (Vec<_>, _) =
            std::mem::take(&mut self.held).into_iter().partition(|(seq, _)| *seq <= watermark);
        self.held = held;
        for (_, frame) in covered {
            self.recycle(frame);
        }
        while self.ring.front().is_some_and(|(seq, _)| *seq <= watermark) {
            let Some((_, frame)) = self.pop_oldest() else { break };
            self.recycle(frame);
        }
    }

    /// Takes the oldest retained frame out of the ring.
    fn pop_oldest(&mut self) -> Option<(u64, Arc<Retained>)> {
        let (seq, frame) = self.ring.pop_front()?;
        self.ring_bytes -= frame.len();
        Some((seq, frame))
    }

    /// Keeps the buffer of a frame no pull can read any more — or its
    /// vector, on the spare list — for reuse when no write still shares it.
    fn recycle(&mut self, frame: Arc<Retained>) {
        match Arc::try_unwrap(frame) {
            Ok(Retained::Encoded(buf)) if self.free.len() < FREE_BUFFERS => self.free.push(buf),
            Ok(Retained::Values { values, .. }) => self.spares.give(values),
            _ => {}
        }
    }

    /// Announces where the peer's reader may find this process's cookie
    /// ([`FrameKind::PullOffer`]), if this sender has one to offer.
    pub(crate) fn send_offer(&mut self) -> io::Result<()> {
        match self.offer {
            Some((at, cookie)) => self.send_pair(FrameKind::PullOffer, at, cookie),
            None => Ok(()),
        }
    }

    /// Sends a control frame: unsequenced, unretained, never faulted.
    pub(crate) fn send_control(&mut self, kind: FrameKind) -> io::Result<()> {
        let frame = Frame::control(kind, self.src);
        self.write_clean(&frame.encode())
    }

    /// Sends a control frame whose payload is the pair `(a, b)`: a `Hello`
    /// (session, highest data seq received) or a progress fence (fence
    /// seq, delivered watermark; fence seq 0 makes it an ack).
    pub(crate) fn send_pair(&mut self, kind: FrameKind, a: u64, b: u64) -> io::Result<()> {
        let mut frame = Frame::control(kind, self.src);
        frame.payload = encode_value(&(a, b));
        self.write_clean(&frame.encode())
    }

    /// Drops every retained data frame while keeping the sequence counter
    /// monotone. Used when the rank behind this link is replaced by a fresh
    /// process (spare-process join): the new peer starts a new session with
    /// `last_recv_seq == 0`, and replaying the old occupant's frames at it
    /// would deliver another rank's traffic. Nor can the old occupant pull
    /// a lent vector any more, so those are reused too.
    pub(crate) fn clear_ring(&mut self) {
        while let Some((_, frame)) = self.pop_oldest() {
            self.recycle(frame);
        }
        self.lent.clear();
        for (_, frame) in std::mem::take(&mut self.held) {
            self.recycle(frame);
        }
    }

    fn write_clean(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_parts([bytes, &[], &[]])
    }

    /// Writes the concatenation of `parts` with as many `writev` calls as
    /// the socket needs.
    fn write_parts(&mut self, parts: [&[u8]; 3]) -> io::Result<()> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "link detached"))?;
        let mut slices = parts.map(IoSlice::new);
        let mut left = &mut slices[..];
        IoSlice::advance_slices(&mut left, 0);
        while !left.is_empty() {
            match stream.write_vectored(left) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Writes retained frame `seq`: a descriptor lending its vector when
    /// the stream's receiver pulls and the lent bytes stay within
    /// [`RING_BYTES`], else the frame itself.
    fn write_retained(&mut self, seq: u64, frame: &Retained) -> io::Result<()> {
        if let Retained::Values { head, values, crc } = frame {
            if self.lends_vector(seq, 8 * values.len()) {
                let descriptor = descriptor_frame(head, values, *crc);
                return self.write_through_faults([&descriptor, &[], &[]]);
            }
        }
        self.write_through_faults(frame.parts())
    }

    /// Whether frame `seq`'s vector of `bytes` may be lent on this stream,
    /// recording it as lent if so.
    fn lends_vector(&mut self, seq: u64, bytes: usize) -> bool {
        if !self.lends {
            return false;
        }
        if self.lent.iter().any(|&(s, _)| s == seq) {
            return true;
        }
        if self.lent_bytes() + bytes > RING_BYTES {
            return false;
        }
        self.lent.push((seq, bytes));
        true
    }

    fn write_through_faults(&mut self, parts: [&[u8]; 3]) -> io::Result<()> {
        if self.armed {
            let attempt = self.attempts;
            self.attempts += 1;
            let len = parts.iter().map(|p| p.len()).sum();
            match self.faults.judge(self.src, self.dst, attempt, len) {
                WireVerdict::Deliver => {}
                WireVerdict::Drop => return Ok(()), // "lost in flight"
                WireVerdict::FlipBit(bit) => {
                    // Damage a copy: the ring's frame must stay clean for
                    // the resend that repairs this one.
                    let mut damaged = parts.concat();
                    damaged[bit / 8] ^= 1 << (bit % 8);
                    return self.write_clean(&damaged);
                }
                WireVerdict::Delay(d) => std::thread::sleep(d),
            }
        }
        self.write_parts(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameError, FrameReader};
    use std::io::Read;

    /// The encoded frame `frame` retains.
    fn encoded(frame: &Retained) -> &Vec<u8> {
        match frame {
            Retained::Encoded(bytes) => bytes,
            Retained::Values { .. } => panic!("a vector frame has no encoded buffer"),
        }
    }

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socketpair")
    }

    /// Sends `payload` as-is under codec tag `codec`.
    fn send(s: &mut LinkSender, ctx: u32, tag: i32, codec: u32, payload: &[u8]) -> io::Result<u64> {
        let encode = |out: &mut Vec<u8>| {
            out.extend_from_slice(payload);
            Some(codec)
        };
        s.send_data(ctx, tag, encode).expect("the encoder never declines")
    }

    fn drain(rx: &mut UnixStream, reader: &mut FrameReader) -> Vec<Result<Frame, FrameError>> {
        rx.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 4096];
        let mut out = Vec::new();
        loop {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => reader.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("read: {e}"),
            }
        }
        while let Some(r) = reader.next() {
            out.push(r);
        }
        out
    }

    #[test]
    fn data_frames_are_sequenced_from_one() {
        let (tx, mut rx) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx);
        assert_eq!(send(&mut s, 5, 9, 1, &[]).unwrap(), 1);
        assert_eq!(send(&mut s, 5, 9, 1, &[0xab]).unwrap(), 2);
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        let seqs: Vec<u64> = got.iter().map(|r| r.as_ref().unwrap().seq).collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn resume_replays_exactly_the_unseen_tail() {
        let (tx, mut rx) = pair();
        let mut s = LinkSender::new(2, 3, WireFaults::none());
        s.attach(tx);
        for i in 0..5u8 {
            send(&mut s, 1, 1, 1, &[i]).unwrap();
        }
        let mut fr = FrameReader::new();
        drain(&mut rx, &mut fr); // receiver saw 1..=5, pretend it saw 3
        let replayed = s.resend_since(3).unwrap();
        assert_eq!(replayed, 2);
        let got = drain(&mut rx, &mut fr);
        let seqs: Vec<u64> = got.iter().map(|r| r.as_ref().unwrap().seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn send_state_survives_reattach() {
        let (tx1, rx1) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx1);
        send(&mut s, 1, 1, 1, &[1]).unwrap();
        drop(rx1);
        s.detach();
        assert!(!s.is_connected());
        let (tx2, mut rx2) = pair();
        s.attach(tx2);
        assert_eq!(send(&mut s, 1, 1, 1, &[2]).unwrap(), 2, "sequence continues");
        assert_eq!(s.resend_since(0).unwrap(), 2, "ring retained both frames");
        let mut fr = FrameReader::new();
        let got = drain(&mut rx2, &mut fr);
        assert_eq!(got.len(), 3); // the live send of seq 2 plus the two replays
    }

    #[test]
    fn dropped_frames_vanish_but_stay_in_the_ring() {
        let (tx, mut rx) = pair();
        // drop everything
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        send(&mut s, 1, 1, 1, &[7]).unwrap();
        let mut fr = FrameReader::new();
        assert!(drain(&mut rx, &mut fr).is_empty(), "frame was 'lost in flight'");
        s.set_armed(false);
        assert_eq!(s.resend_since(0).unwrap(), 1, "the ring still holds it");
        let got = drain(&mut rx, &mut fr);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_ok());
    }

    #[test]
    fn corrupted_frames_fail_crc_at_the_receiver() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 5, corrupt: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        send(&mut s, 1, 1, 1, &[1, 2, 3, 4]).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert!(
            got.iter().all(|r| matches!(r, Err(FrameError::Corrupt { .. }))),
            "a flipped bit must never decode as a clean frame: {got:?}"
        );
    }

    #[test]
    fn corrupt_verdict_never_damages_the_retained_frame() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 5, corrupt: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        let payload: Vec<u8> = (0..64).collect();
        send(&mut s, 3, 4, 1, &payload).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert!(!got.is_empty(), "the damaged frame was written");
        assert!(got.iter().all(|r| matches!(r, Err(FrameError::Corrupt { .. }))), "{got:?}");
        s.set_armed(false);
        assert_eq!(s.resend_since(0).unwrap(), 1);
        let clean: Vec<Frame> =
            drain(&mut rx, &mut fr).into_iter().filter_map(Result::ok).collect();
        assert_eq!(clean.len(), 1, "the resend repairs the damaged delivery");
        assert_eq!((clean[0].seq, &clean[0].payload), (1, &payload), "the ring kept it intact");
    }

    #[test]
    fn fence_watermark_trims_the_ring() {
        let (tx, mut rx) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx);
        for i in 0..5u8 {
            send(&mut s, 1, 1, 1, &[i]).unwrap();
        }
        let mut fr = FrameReader::new();
        drain(&mut rx, &mut fr);
        s.trim_through(3);
        assert_eq!(s.resend_since(0).unwrap(), 2, "frames the peer delivered are gone");
        let seqs: Vec<u64> =
            drain(&mut rx, &mut fr).iter().map(|r| r.as_ref().unwrap().seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        s.trim_through(2);
        assert_eq!(s.resend_since(0).unwrap(), 2, "a stale watermark trims nothing more");
    }

    #[test]
    fn control_frames_bypass_faults() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(4, 1, faults);
        s.attach(tx);
        s.send_control(FrameKind::Heartbeat).unwrap();
        s.send_pair(FrameKind::Hello, 0xfeed, 12).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert_eq!(got.len(), 2, "control plane is exempt from injected loss");
        assert_eq!(got[0].as_ref().unwrap().kind, FrameKind::Heartbeat);
        let hello = got[1].as_ref().unwrap();
        assert_eq!(hello.kind, FrameKind::Hello);
        assert_eq!(crate::codec::decode_value::<(u64, u64)>(&hello.payload).unwrap(), (0xfeed, 12));
    }

    #[test]
    fn fences_bypass_faults_and_carry_watermarks() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(2, 1, faults);
        s.attach(tx);
        s.send_pair(FrameKind::ProgressFence, 7, 41).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert_eq!(got.len(), 1, "fences are control plane: exempt from injected loss");
        let fence = got[0].as_ref().unwrap();
        assert_eq!(fence.kind, FrameKind::ProgressFence);
        assert_eq!(fence.src, 2);
        assert_eq!(crate::codec::decode_value::<(u64, u64)>(&fence.payload).unwrap(), (7, 41));
    }

    #[test]
    fn clear_ring_forgets_frames_but_keeps_sequence_monotone() {
        let (tx, _rx) = pair();
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        for i in 0..3u8 {
            send(&mut s, 1, 1, 1, &[i]).unwrap();
        }
        s.clear_ring();
        assert_eq!(s.resend_since(0).unwrap(), 0, "nothing left to replay");
        assert_eq!(send(&mut s, 1, 1, 1, &[9]).unwrap(), 4, "seq continues past cleared frames");
    }

    #[test]
    fn ring_is_bounded() {
        let (tx, _rx) = pair();
        // Drop every write so the unread socketpair never backpressures
        // the test; the ring fills regardless of delivery.
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        for i in 0..(RING_FRAMES as u64 + 10) {
            send(&mut s, 1, 1, 1, &[(i & 0xff) as u8]).unwrap();
        }
        assert_eq!(s.resend_since(0).unwrap(), RING_FRAMES, "old frames were evicted");
    }

    #[test]
    fn ring_is_bounded_in_bytes() {
        let (tx, _rx) = pair();
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let mut s = LinkSender::new(0, 1, faults);
        s.attach(tx);
        let payload = vec![0x5a; 4 << 20];
        let frame_len = HEADER_LEN + payload.len() + 4;
        for _ in 0..20 {
            send(&mut s, 1, 1, 1, &payload).unwrap();
            assert!(s.ring_bytes <= RING_BYTES, "{} bytes retained", s.ring_bytes);
        }
        let kept = RING_BYTES / frame_len;
        assert_eq!(s.ring_bytes, kept * frame_len);
        assert_eq!(s.resend_since(0).unwrap(), kept, "the oldest frames were evicted");
        assert_eq!(s.ring.front().map(|(seq, _)| *seq), Some(21 - kept as u64));
    }

    #[test]
    fn trimmed_frames_lend_their_buffer_to_the_next_send() {
        let (tx, mut rx) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx);
        send(&mut s, 1, 1, 1, &[1; 512]).unwrap();
        let first_buf = encoded(&s.ring[0].1).as_ptr();
        s.trim_through(1);
        send(&mut s, 1, 1, 1, &[2; 512]).unwrap();
        assert_eq!(
            encoded(&s.ring[0].1).as_ptr(),
            first_buf,
            "seq 2 was encoded into seq 1's allocation"
        );
        let mut fr = FrameReader::new();
        let got: Vec<Frame> = drain(&mut rx, &mut fr).into_iter().map(Result::unwrap).collect();
        assert_eq!(got.iter().map(|f| (f.seq, f.payload[0])).collect::<Vec<_>>(), [(1, 1), (2, 2)]);
    }

    #[test]
    fn a_frame_shared_with_a_write_is_not_reused() {
        let (tx, _rx) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx);
        send(&mut s, 1, 1, 1, &[1; 512]).unwrap();
        // A write still holding the frame (as `resend_since` does while it
        // replays) keeps its buffer out of the free list.
        let in_flight = Arc::clone(&s.ring[0].1);
        s.trim_through(1);
        send(&mut s, 1, 1, 1, &[2; 512]).unwrap();
        assert_ne!(
            encoded(&s.ring[0].1).as_ptr(),
            encoded(&in_flight).as_ptr(),
            "a shared frame was overwritten"
        );
        assert_eq!(encoded(&in_flight)[HEADER_LEN], 1, "the in-flight frame is intact");
    }

    #[test]
    fn lent_vectors_stay_within_the_bound_and_out_of_the_spares_until_covered() {
        use std::collections::HashSet;
        let (tx, _rx) = pair();
        // A stalled receiver: every write is dropped, so the unread socket
        // never blocks the test, and no watermark ever arrives.
        let faults = WireFaults { seed: 1, drop: 1.0, ..WireFaults::none() };
        let spares = Arc::new(SpareValues::new());
        let mut s = LinkSender::new(0, 1, faults).with_spares(Arc::clone(&spares));
        s.attach(tx);
        s.lend();
        let len = 1 << 17; // 1 MiB of values, zero pages until written
        let mut lent = HashSet::new();
        for _ in 0..3 * RING_BYTES / (8 * len) {
            let values = vec![0.0; len];
            let at = values.as_ptr() as usize;
            let before = s.lent_bytes();
            s.send_values(1, 1, 15, values).unwrap();
            if s.lent_bytes() > before {
                lent.insert(at);
            }
            assert!(s.ring_bytes <= RING_BYTES, "{} ring bytes", s.ring_bytes);
            assert!(s.lent_bytes() <= RING_BYTES, "{} lent bytes", s.lent_bytes());
            assert!(s.ring_bytes + s.held_bytes() <= 2 * RING_BYTES);
            while let Some(v) = spares.take(0) {
                assert!(!lent.contains(&(v.as_ptr() as usize)), "a lent vector was reused");
            }
        }
        assert_eq!(lent.len(), RING_BYTES / (8 * len), "lending stops at RING_BYTES");
        assert!(s.held_bytes() > 0, "the caps evicted lent frames");
        // Once the watermark covers them, lent vectors are reused.
        s.trim_through(s.last_seq());
        assert_eq!((s.lent_bytes(), s.held_bytes(), s.retained()), (0, 0, (0, 0)));
        let mut back = 0;
        while let Some(v) = spares.take(0) {
            back += usize::from(lent.contains(&(v.as_ptr() as usize)));
        }
        assert!(back > 0, "no covered lent vector reached the spares");
    }

    #[test]
    fn a_lending_stream_writes_descriptors_and_a_new_one_streams() {
        use crate::frame::{Descriptor, DESCRIPTOR_CODEC, DESCRIPTOR_LEN};
        let (tx, mut rx) = pair();
        let mut s = LinkSender::new(0, 1, WireFaults::none());
        s.attach(tx);
        let values: Vec<f64> = (0..BODY_IN_PLACE / 8).map(|k| k as f64 - 0.25).collect();
        let want = values.clone();
        s.lend();
        assert!(s.lends());
        s.send_values(2, 3, 15, values).unwrap();
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        let frame = got[0].as_ref().unwrap();
        assert_eq!((frame.codec, frame.seq), (DESCRIPTOR_CODEC, 1));
        assert_eq!(HEADER_LEN + frame.payload.len() + 4, DESCRIPTOR_LEN);
        let d = Descriptor::parse(frame).unwrap();
        let pulled = d.pull(std::process::id() as i32, &SpareValues::new()).unwrap();
        assert!(pulled == want, "the pull read other values");
        // A new stream streams until its receiver accepts again, replays
        // included.
        let (tx2, mut rx2) = pair();
        s.attach(tx2);
        assert!(!s.lends());
        assert_eq!(s.resend_since(0).unwrap(), 1);
        let got = drain(&mut rx2, &mut FrameReader::new());
        assert_eq!(got[0].as_ref().unwrap().codec, 15);
        assert_eq!(s.lent_bytes(), 8 * want.len(), "still lent until covered");
        s.trim_through(1);
        assert_eq!(s.lent_bytes(), 0);
    }

    #[test]
    fn vector_frames_resend_clean_and_trim_into_the_spares() {
        let (tx, mut rx) = pair();
        let faults = WireFaults { seed: 5, corrupt: 1.0, ..WireFaults::none() };
        let spares = Arc::new(SpareValues::new());
        let mut s = LinkSender::new(0, 1, faults).with_spares(Arc::clone(&spares));
        s.attach(tx);
        let values: Vec<f64> = (0..BODY_IN_PLACE / 8).map(|k| k as f64 * 0.5 - 3.0).collect();
        let (want, at) = (values.clone(), values.as_ptr());
        assert_eq!(s.send_values(3, 4, 15, values).unwrap(), 1);
        let mut fr = FrameReader::new();
        let got = drain(&mut rx, &mut fr);
        assert!(!got.is_empty(), "the damaged frame was written");
        assert!(got.iter().all(|r| matches!(r, Err(FrameError::Corrupt { .. }))), "{got:?}");
        s.set_armed(false);
        assert_eq!(s.resend_since(0).unwrap(), 1);
        let clean: Vec<Frame> =
            drain(&mut rx, &mut fr).into_iter().filter_map(Result::ok).collect();
        assert_eq!(clean.len(), 1, "the resend repairs the damaged delivery");
        let back: Vec<f64> = crate::codec::decode_value(&clean[0].payload).unwrap();
        assert!(back == want, "the ring kept the vector intact");
        s.trim_through(1);
        assert_eq!(
            spares.take(want.len()).map(|v| v.as_ptr()),
            Some(at),
            "trimmed into the spares"
        );
    }
}
