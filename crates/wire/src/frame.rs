//! Length-prefixed framing with per-frame CRCs and magic-based resync.
//!
//! A byte stream has no message boundaries, so the wire transport frames
//! every message:
//!
//! ```text
//! offset  size  field
//! 0       4     MAGIC  b"MxN1"
//! 4       1     kind   (Data | Heartbeat | Hello | Bye | ProgressFence |
//!                      PullOffer | PullAccept)
//! 5       3     reserved (zero)
//! 8       4     src    sender's global rank
//! 12      4     context
//! 16      4     tag    (i32)
//! 20      8     seq    per-link data sequence number
//! 28      4     codec  payload-type tag (see CodecRegistry)
//! 32      4     payload_len
//! 36      4     header CRC-32C over bytes 0..36
//! 40      n     payload bytes
//! 40+n    4     payload CRC-32C
//! ```
//!
//! Both checks are [`crc32`]: CRC-32C, on the SSE4.2 instruction where
//! the CPU has it and a slice-by-8 table elsewhere, and long bodies folded
//! with 512-bit carry-less multiplies where the CPU has those.
//!
//! Two CRCs, not one: the header CRC lets the reader trust `payload_len`
//! before committing to read that many bytes (a corrupt length would
//! otherwise desynchronize the stream or allocate unboundedly), and the
//! payload CRC detects damage to the bytes themselves. When either check
//! fails the [`FrameReader`] *resynchronizes* by scanning for the next
//! `MAGIC`, so one damaged frame costs one frame — never the rest of the
//! stream, and never a panic.
//!
//! Bulk frames are written and read without a staging copy. A sender
//! encodes the payload straight after the header it has already written
//! and patches `payload_len` and both CRCs afterwards (`write_frame`).
//! A reader that pulls from a socket with [`FrameReader::read_from`]
//! reads the rest of any frame whose intact header announces at least
//! [`BODY_IN_PLACE`] payload bytes straight into a body buffer, which
//! becomes the decoded frame's `payload`; handing that `Vec` back with
//! [`FrameReader::recycle`] reuses it for the next large body. The checks
//! and their outcomes are those of [`FrameReader::feed`] and
//! [`FrameReader::next`] on the same bytes.
//!
//! `Vec<f64>` bodies skip the codec altogether. Its encoding is
//! `[u32 count][f64 LE …]`, so on a little-endian host the values part of
//! the payload *is* the vector's memory: a sender writes
//! `[header + count, values, CRC]` from the vector itself
//! (`values_head` builds the first and last part), and a reader told the
//! codec tag by [`FrameReader::land_values`] reads such a body from the
//! socket into a vector taken from a [`SpareValues`] list, checks the
//! payload CRC over count and values as one CRC
//! ([`crate::crc::crc32_continue`]), and yields the vector itself as an
//! [`Arrival::Values`]. A vector whose frame fails its check goes back to
//! the list. The bytes on the wire are the codec's either way; big-endian
//! hosts always take the codec path.
//!
//! A `Vec<f64>` body may also stay in the sender's memory: a *descriptor*
//! is a Data frame under [`DESCRIPTOR_CODEC`] whose payload names the
//! values' count and address and the body's CRC (`descriptor_frame`).
//! [`Descriptor::parse`] bounds the count by [`MAX_PAYLOAD`] before any
//! allocation, and [`Descriptor::pull`] copies the body out of the sender
//! process with `process_vm_readv` into a vector of exactly that count and
//! checks it as a landed body is checked. Which streams carry descriptors
//! is decided by a probe, [`FrameKind::PullOffer`] answered by
//! [`FrameKind::PullAccept`] (see [`LinkSender`](crate::LinkSender) and [`WireNode`](crate::WireNode)).

use std::io::{self, IoSliceMut, Read};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::codec::encode_value;
use crate::crc::{crc32, crc32_continue};

/// Frame delimiter; also the resync scan target after corruption.
pub const MAGIC: [u8; 4] = *b"MxN1";

/// Fixed frame header size, including the header CRC.
pub const HEADER_LEN: usize = 40;

/// Upper bound on a single frame's payload; a "length" beyond this is
/// treated as header corruption rather than honored.
pub const MAX_PAYLOAD: usize = 1 << 26; // 64 MiB

/// Payload length from which [`FrameReader::read_from`] reads a frame's
/// body straight from the stream into its own buffer instead of through
/// the caller's scratch buffer and the reader's byte queue.
pub const BODY_IN_PLACE: usize = 64 * 1024;

/// Whether `Vec<f64>` bodies move between vectors and the socket as they
/// are: their wire encoding is little-endian.
pub(crate) const VALUES_IN_PLACE: bool = cfg!(target_endian = "little");

/// Codec tag of a descriptor: a Data frame whose `Vec<f64>` body stays in
/// the sender's memory for the receiver to pull. Its payload is the value
/// count (`u32`), the address of the values (`u64`) and the CRC-32C of the
/// body as the codec encodes it (`u32`), all little-endian. The
/// [`crate::codec::CodecRegistry`] refuses to register it.
pub const DESCRIPTOR_CODEC: u32 = u32::MAX;

/// Payload bytes of a descriptor.
const DESCRIPTOR_PAYLOAD: usize = 16;

/// A descriptor frame's length on the wire.
pub(crate) const DESCRIPTOR_LEN: usize = HEADER_LEN + DESCRIPTOR_PAYLOAD + 4;

/// Vectors a [`SpareValues`] list keeps at most.
pub const SPARE_VALUES: usize = 8;

/// Bytes of vector capacity a [`SpareValues`] list keeps at most.
pub const SPARE_BYTES: usize = 16 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// An application message: codec-encoded payload destined for a
    /// mailbox `(context, tag)` bucket.
    Data = 1,
    /// Link-level liveness beacon; carries no payload.
    Heartbeat = 2,
    /// Connection/session handshake. Payload is `(session, last_recv_seq)`
    /// — the receiver retransmits every retained data frame with a higher
    /// sequence number (session resume after reconnect).
    Hello = 3,
    /// Orderly goodbye: the peer is leaving on purpose, not crashing.
    Bye = 4,
    /// End-to-end progress fence. Payload is `(fence_seq, watermark)` where
    /// `watermark` is the highest data sequence number the *sender* has
    /// delivered from the receiver — i.e. proof of how far the receiver's
    /// outbound stream has actually progressed. Heartbeats only prove the
    /// socket is alive; fences prove the application on the far side is
    /// still consuming (a SIGSTOP'd peer keeps accepting connections but
    /// its watermark freezes). A fence with `fence_seq = 0` is an *ack*:
    /// periodic fences number from 1, and an ack only reports delivery —
    /// it is never read as a NACK or as grounds to readmit a peer.
    ProgressFence = 5,
    /// Lent-body probe. Payload is `(address, cookie)`: where this process
    /// keeps its per-session cookie, and the cookie. A receiver that reads
    /// the cookie at that address in the memory of the process the kernel
    /// names as the socket's peer answers with [`FrameKind::PullAccept`].
    PullOffer = 6,
    /// Answer to a [`FrameKind::PullOffer`] on the same stream: the
    /// receiver pulls `Vec<f64>` bodies, so the sender may write them on
    /// this stream as descriptors ([`DESCRIPTOR_CODEC`]). Payload-free.
    PullAccept = 7,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Data),
            2 => Some(FrameKind::Heartbeat),
            3 => Some(FrameKind::Hello),
            4 => Some(FrameKind::Bye),
            5 => Some(FrameKind::ProgressFence),
            6 => Some(FrameKind::PullOffer),
            7 => Some(FrameKind::PullAccept),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender's global rank.
    pub src: u32,
    /// Destination mailbox context (Data frames).
    pub context: u32,
    /// Destination mailbox tag (Data frames).
    pub tag: i32,
    /// Per-link data sequence number (0 for control frames).
    pub seq: u64,
    /// Codec tag of the payload encoding.
    pub codec: u32,
    /// Encoded payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free control frame.
    pub fn control(kind: FrameKind, src: u32) -> Self {
        Frame { kind, src, context: 0, tag: 0, seq: 0, codec: 0, payload: Vec::new() }
    }

    /// Serializes the frame, stamping both CRCs.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len() + 4);
        let (kind, src, context, tag, seq) =
            (self.kind, self.src, self.context, self.tag, self.seq);
        write_frame(&mut out, kind, src, context, tag, seq, |out| {
            out.extend_from_slice(&self.payload);
            Some(self.codec)
        });
        out
    }
}

/// Appends one frame to `out` whose payload is written in place: after
/// the header, `payload` appends the payload bytes and returns their codec
/// tag; the header, with `payload_len` and both CRCs, is filled in
/// afterwards. When `payload` returns `None`, `out` is cut back to its old
/// length and `None` is returned.
pub(crate) fn write_frame(
    out: &mut Vec<u8>,
    kind: FrameKind,
    src: u32,
    context: u32,
    tag: i32,
    seq: u64,
    payload: impl FnOnce(&mut Vec<u8>) -> Option<u32>,
) -> Option<()> {
    let start = out.len();
    let body = start + HEADER_LEN;
    out.resize(body, 0);
    let Some(codec) = payload(out) else {
        out.truncate(start);
        return None;
    };
    let route = CorruptHeader { src, context, tag, seq };
    let head = header_bytes(kind, route, codec, out.len() - body);
    out[start..body].copy_from_slice(&head);
    let pcrc = crc32(&out[body..]);
    out.extend_from_slice(&pcrc.to_le_bytes());
    Some(())
}

/// A frame header, its CRC included.
fn header_bytes(kind: FrameKind, route: CorruptHeader, codec: u32, len: usize) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4] = kind as u8;
    h[8..12].copy_from_slice(&route.src.to_le_bytes());
    h[12..16].copy_from_slice(&route.context.to_le_bytes());
    h[16..20].copy_from_slice(&route.tag.to_le_bytes());
    h[20..28].copy_from_slice(&route.seq.to_le_bytes());
    h[28..32].copy_from_slice(&codec.to_le_bytes());
    h[32..36].copy_from_slice(&(len as u32).to_le_bytes());
    let hcrc = crc32(&h[..36]);
    h[36..].copy_from_slice(&hcrc.to_le_bytes());
    h
}

/// The parts of a Data frame carrying `values` under codec tag `codec`
/// that are not the values themselves: the header with the `u32` count
/// after it, and the payload CRC. Written as `[head, values as bytes,
/// crc]` they are the bytes `write_frame` produces for the codec's
/// encoding of `values` on a little-endian host.
pub(crate) fn values_head(
    route: CorruptHeader,
    codec: u32,
    values: &[f64],
) -> ([u8; HEADER_LEN + 4], [u8; 4]) {
    let count = (values.len() as u32).to_le_bytes();
    let mut head = [0u8; HEADER_LEN + 4];
    head[..HEADER_LEN].copy_from_slice(&header_bytes(
        FrameKind::Data,
        route,
        codec,
        4 + 8 * values.len(),
    ));
    head[HEADER_LEN..].copy_from_slice(&count);
    let reg = crc32_continue(crc32_continue(!0, &count), values_bytes(values));
    (head, (!reg).to_le_bytes())
}

/// The routing fields of the frame header `h` starts with.
fn route_of(h: &[u8]) -> CorruptHeader {
    CorruptHeader {
        src: read_u32(&h[8..12]),
        context: read_u32(&h[12..16]),
        tag: read_u32(&h[16..20]) as i32,
        seq: read_u64(&h[20..28]),
    }
}

/// The descriptor frame standing for the `Vec<f64>` frame whose parts
/// `values_head` built (`head`, `crc`) around `values`: same route, codec
/// [`DESCRIPTOR_CODEC`], and the count, the address of `values` and the
/// body CRC as payload.
pub(crate) fn descriptor_frame(
    head: &[u8; HEADER_LEN + 4],
    values: &[f64],
    crc: [u8; 4],
) -> [u8; DESCRIPTOR_LEN] {
    let mut out = [0u8; DESCRIPTOR_LEN];
    let route = route_of(head);
    out[..HEADER_LEN].copy_from_slice(&header_bytes(
        FrameKind::Data,
        route,
        DESCRIPTOR_CODEC,
        DESCRIPTOR_PAYLOAD,
    ));
    let payload = &mut out[HEADER_LEN..HEADER_LEN + DESCRIPTOR_PAYLOAD];
    payload[..4].copy_from_slice(&head[HEADER_LEN..]);
    payload[4..12].copy_from_slice(&(values.as_ptr() as u64).to_le_bytes());
    payload[12..].copy_from_slice(&crc);
    let pcrc = crc32(payload);
    out[HEADER_LEN + DESCRIPTOR_PAYLOAD..].copy_from_slice(&pcrc.to_le_bytes());
    out
}

/// An intact descriptor: where the sender keeps a `Vec<f64>` body, how
/// many values it holds, and the CRC the body must have. Every field is
/// hostile until the pulled body matches that CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    route: CorruptHeader,
    count: usize,
    addr: u64,
    crc: u32,
    /// The descriptor frame's length on the wire.
    frame_len: usize,
}

/// Why a descriptor's body did not arrive.
#[derive(Debug)]
pub enum PullError {
    /// The body was read but fails its CRC: reported like a damaged
    /// streamed body.
    Corrupt(FrameError),
    /// The sender's memory could not be read (`EFAULT`, `ESRCH`, `EPERM`):
    /// nothing is delivered, and the stream must be dropped so that the
    /// reconnect probes again and the resume replays the frame.
    Failed(io::Error),
}

impl Descriptor {
    /// Reads the descriptor an intact Data frame under [`DESCRIPTOR_CODEC`]
    /// carries. A payload of the wrong length, or a count whose body would
    /// pass [`MAX_PAYLOAD`], is `Corrupt` with the frame's route; nothing
    /// is allocated.
    pub fn parse(frame: &Frame) -> Result<Descriptor, FrameError> {
        let route = CorruptHeader {
            src: frame.src,
            context: frame.context,
            tag: frame.tag,
            seq: frame.seq,
        };
        let frame_len = HEADER_LEN + frame.payload.len() + 4;
        let corrupt =
            |reason| FrameError::Corrupt { skipped: frame_len, header: Some(route), reason };
        let p = &frame.payload;
        if frame.kind != FrameKind::Data || frame.codec != DESCRIPTOR_CODEC {
            return Err(corrupt("not a descriptor"));
        }
        if p.len() != DESCRIPTOR_PAYLOAD {
            return Err(corrupt("descriptor of the wrong length"));
        }
        let count = read_u32(&p[..4]) as usize;
        if count > (MAX_PAYLOAD - 4) / 8 {
            return Err(corrupt("descriptor count past MAX_PAYLOAD"));
        }
        Ok(Descriptor {
            route,
            count,
            addr: read_u64(&p[4..12]),
            crc: read_u32(&p[12..]),
            frame_len,
        })
    }

    /// Values the body holds.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The body's length as the codec encodes it: what a streamed frame
    /// would carry as payload.
    pub fn body_len(&self) -> usize {
        4 + 8 * self.count
    }

    /// Reads the body out of process `pid` into a vector from `spares` (or
    /// a fresh one) of exactly [`Descriptor::count`] values, and checks it
    /// against the descriptor's CRC over count and values. On any error
    /// the vector goes back to `spares`.
    pub fn pull(&self, pid: i32, spares: &SpareValues) -> Result<Vec<f64>, PullError> {
        let mut values = spares.take(self.count).unwrap_or_else(|| Vec::with_capacity(self.count));
        values.resize(self.count, 0.0);
        if let Err(e) = read_remote(pid, self.addr, values_bytes_mut(&mut values)) {
            spares.give(values);
            return Err(PullError::Failed(e));
        }
        let count = (self.count as u32).to_le_bytes();
        let reg = crc32_continue(crc32_continue(!0, &count), values_bytes(&values));
        if !reg != self.crc {
            spares.give(values);
            return Err(PullError::Corrupt(self.refused("damaged pulled body")));
        }
        Ok(values)
    }

    /// The routable corruption report refusing this descriptor.
    pub(crate) fn refused(&self, reason: &'static str) -> FrameError {
        FrameError::Corrupt { skipped: self.frame_len, header: Some(self.route), reason }
    }
}

/// `struct iovec`.
#[cfg(target_os = "linux")]
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn process_vm_readv(
        pid: i32,
        local: *const IoVec,
        local_count: usize,
        remote: *const IoVec,
        remote_count: usize,
        flags: usize,
    ) -> isize;
}

/// Copies `out.len()` bytes at `addr` in process `pid`'s memory into
/// `out`, looping on partial reads. The kernel checks that this process
/// may read `pid`'s memory and that every remote byte is mapped; `addr` is
/// never dereferenced here. Elsewhere than on Linux it always fails.
pub(crate) fn read_remote(pid: i32, addr: u64, out: &mut [u8]) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let mut done = 0;
        while done < out.len() {
            let at = addr.checked_add(done as u64).and_then(|at| usize::try_from(at).ok());
            let at = at.ok_or(io::ErrorKind::InvalidInput)?;
            let local = IoVec { base: out[done..].as_mut_ptr(), len: out.len() - done };
            let remote = IoVec { base: at as *mut u8, len: out.len() - done };
            // SAFETY: the one local iovec covers the unread tail of `out`,
            // which this call borrows mutably, so the kernel writes only
            // memory we own. The remote iovec is only an address the kernel
            // checks against `pid`'s mappings; it is never dereferenced here.
            let n = unsafe { process_vm_readv(pid, &local, 1, &remote, 1, 0) };
            match n {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n if n > 0 => done += n as usize,
                _ => {
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (pid, addr, out);
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// The memory of `values` as bytes: their wire encoding on a
/// little-endian host.
pub(crate) fn values_bytes(values: &[f64]) -> &[u8] {
    // SAFETY: `f64` has no padding and `u8` no alignment or validity
    // requirement; the view covers exactly the slice's bytes and borrows it.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), 8 * values.len()) }
}

/// [`values_bytes`], writable: every byte pattern is a valid `f64`.
fn values_bytes_mut(values: &mut [f64]) -> &mut [u8] {
    // SAFETY: as for `values_bytes`; any bytes written form valid `f64`s,
    // and the view borrows the slice mutably for its whole life.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<u8>(), 8 * values.len()) }
}

/// Spare `Vec<f64>` allocations for bodies to land in, shared by every
/// reader and link of one node: a link hands back a vector the peer has
/// acknowledged, a reader takes one for the next body and returns it when
/// the frame fails its check. Holds at most [`SPARE_VALUES`] vectors and
/// [`SPARE_BYTES`] bytes of capacity; a vector beyond either bound, or too
/// small to hold a landed body, is dropped.
#[derive(Default)]
pub struct SpareValues {
    list: Mutex<Vec<Vec<f64>>>,
}

impl SpareValues {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps `values` for a later body, within the bounds.
    pub fn give(&self, values: Vec<f64>) {
        let bytes = 8 * values.capacity();
        if bytes < BODY_IN_PLACE {
            return;
        }
        let mut list = self.list.lock();
        if list.len() < SPARE_VALUES && Self::bytes_of(&list) + bytes <= SPARE_BYTES {
            list.push(values);
        }
    }

    /// The smallest kept vector that holds `len` values without growing,
    /// if any: a large spare stays for the next large body.
    pub(crate) fn take(&self, len: usize) -> Option<Vec<f64>> {
        let mut list = self.list.lock();
        let fits = list.iter().enumerate().filter(|(_, v)| v.capacity() >= len);
        let (i, _) = fits.min_by_key(|(_, v)| v.capacity())?;
        Some(list.swap_remove(i))
    }

    /// Vectors kept now.
    pub fn len(&self) -> usize {
        self.list.lock().len()
    }

    /// Whether no vector is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of capacity kept now.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        Self::bytes_of(&self.list.lock())
    }

    fn bytes_of(list: &[Vec<f64>]) -> usize {
        list.iter().map(|v| 8 * v.capacity()).sum()
    }
}

/// A header that passed its CRC: what a frame claims before its payload
/// is read.
#[derive(Clone, Copy)]
struct Header {
    kind: FrameKind,
    route: CorruptHeader,
    codec: u32,
    payload_len: usize,
}

impl Header {
    /// Parses the first [`HEADER_LEN`] bytes of `b` (which start with
    /// `MAGIC`), or `None` if the header CRC, the kind or the length is bad.
    fn parse(b: &[u8]) -> Option<Header> {
        let payload_len = read_u32(&b[32..36]) as usize;
        if crc32(&b[..36]) != read_u32(&b[36..40]) || payload_len > MAX_PAYLOAD {
            return None;
        }
        Some(Header {
            kind: FrameKind::from_u8(b[4])?,
            route: route_of(b),
            codec: read_u32(&b[28..32]),
            payload_len,
        })
    }

    /// Length of the whole frame on the wire.
    fn total(&self) -> usize {
        HEADER_LEN + self.payload_len + 4
    }

    /// Checks `body` (payload then payload CRC): `Ok` when the payload
    /// CRC matches, else the routable corruption report.
    fn finish(self, body: &[u8]) -> Result<(), FrameError> {
        let (payload, stored) = body.split_at(self.payload_len);
        self.check(crc32(payload), stored)
    }

    /// `Ok` when `crc`, the payload's CRC, matches the `stored` one, else
    /// the routable corruption report.
    fn check(self, crc: u32, stored: &[u8]) -> Result<(), FrameError> {
        if crc == read_u32(stored) {
            return Ok(());
        }
        // Header was sound, so the whole (length-delimited) frame can be
        // discarded in one step: the stream stays in sync.
        Err(self.corrupt("damaged frame payload"))
    }

    fn corrupt(self, reason: &'static str) -> FrameError {
        FrameError::Corrupt { skipped: self.total(), header: Some(self.route), reason }
    }

    fn frame(self, payload: Vec<u8>) -> Frame {
        let CorruptHeader { src, context, tag, seq } = self.route;
        Frame { kind: self.kind, src, context, tag, seq, codec: self.codec, payload }
    }
}

/// Routing metadata recovered from an intact header whose *payload* CRC
/// failed — enough to tell the destination mailbox "something for you was
/// damaged" so the receiver observes `Corrupt` instead of silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptHeader {
    /// Sender's global rank.
    pub src: u32,
    /// Destination context.
    pub context: u32,
    /// Destination tag.
    pub tag: i32,
    /// Data sequence number.
    pub seq: u64,
}

/// A frame-level integrity failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Bytes were damaged. `skipped` counts the bytes discarded while
    /// resynchronizing; `header` is present when the header itself was
    /// intact (payload-CRC failure), letting the caller surface a
    /// routable corruption error.
    Corrupt {
        /// Bytes discarded to get back in sync.
        skipped: usize,
        /// The intact header, if only the payload was damaged.
        header: Option<CorruptHeader>,
        /// Which check failed.
        reason: &'static str,
    },
}

/// What [`FrameReader::next_arrival`] yields for an intact frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// A frame with its payload bytes.
    Frame(Frame),
    /// A Data frame whose `Vec<f64>` body landed in a vector: the frame
    /// (its `payload` empty) and the decoded values.
    Values(Frame, Vec<f64>),
}

/// Incremental frame decoder over an arbitrary byte-chunk stream.
///
/// Feed it whatever `read` returned; it buffers partial frames and yields
/// complete ones. All corruption — bad magic, damaged headers, damaged
/// payloads, truncation mid-stream — surfaces as [`FrameError::Corrupt`]
/// followed by successful resync on the next intact frame.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// A large frame whose header has left `buf`: its payload and payload
    /// CRC are read straight into the body buffer.
    body: Option<Body>,
    /// A delivered large payload handed back for the next body.
    spare: Vec<u8>,
    /// The `Vec<f64>` codec tag and where landed bodies take their vectors
    /// from, once [`FrameReader::land_values`] enabled landing.
    landing: Option<(u32, Arc<SpareValues>)>,
}

/// The frame [`FrameReader::read_from`] is reading in place.
struct Body {
    header: Header,
    /// Where the payload and payload CRC go, `payload_len + 4` bytes.
    store: Store,
    /// How many of those bytes have arrived.
    filled: usize,
}

enum Store {
    /// Payload then payload CRC.
    Bytes(Vec<u8>),
    /// A `Vec<f64>` body: the count, the values, the payload CRC.
    Values { count: [u8; 4], values: Vec<f64>, crc: [u8; 4] },
}

impl Store {
    /// The body's bytes in order, as up to three slices.
    fn parts(&mut self) -> [&mut [u8]; 3] {
        match self {
            Store::Bytes(bytes) => [bytes, &mut [], &mut []],
            Store::Values { count, values, crc } => [count, values_bytes_mut(values), crc],
        }
    }

    /// The body's bytes from offset `from` on, empty parts left out.
    fn tail(&mut self, mut from: usize) -> impl Iterator<Item = &mut [u8]> {
        self.parts().into_iter().filter_map(move |part| {
            if from >= part.len() {
                from -= part.len();
                return None;
            }
            Some(&mut part[std::mem::take(&mut from)..])
        })
    }
}

impl Body {
    /// Copies `bytes` into the body after what has arrived.
    fn fill_from(&mut self, mut bytes: &[u8]) {
        let filled = self.filled;
        for part in self.store.tail(filled) {
            let n = part.len().min(bytes.len());
            part[..n].copy_from_slice(&bytes[..n]);
            self.filled += n;
            bytes = &bytes[n..];
        }
    }

    /// One read from `src` into the rest of the body.
    fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        let filled = self.filled;
        let mut iov = [&mut [][..], &mut [], &mut []].map(IoSliceMut::new);
        let mut k = 0;
        for part in self.store.tail(filled) {
            iov[k] = IoSliceMut::new(part);
            k += 1;
        }
        let n = src.read_vectored(&mut iov[..k])?;
        self.filled += n;
        Ok(n)
    }

    fn complete(&self) -> bool {
        self.filled == self.header.payload_len + 4
    }
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lands large `Vec<f64>` bodies in vectors: from now on, a Data frame
    /// whose intact header names codec tag `codec` and announces at least
    /// [`BODY_IN_PLACE`] bytes is read by [`FrameReader::read_from`] into
    /// a vector taken from `spares` (or a fresh one) and yielded by
    /// [`FrameReader::next_arrival`] as [`Arrival::Values`]. A no-op on a
    /// big-endian host, where the codec decodes every body.
    pub fn land_values(&mut self, codec: u32, spares: Arc<SpareValues>) {
        if VALUES_IN_PLACE {
            self.landing = Some((codec, spares));
        }
    }

    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Makes one `read` call on `src` and takes in what it returned: into
    /// the body buffer while a large frame's body is pending, else through
    /// `scratch` into the byte queue, as [`FrameReader::feed`] would.
    /// Returns the byte count `read` returned; 0 means end of stream.
    pub fn read_from(&mut self, src: &mut impl Read, scratch: &mut [u8]) -> io::Result<usize> {
        if self.body.is_none() {
            self.start_body();
        }
        if let Some(body) = self.body.as_mut().filter(|b| !b.complete()) {
            return body.read_from(src);
        }
        let n = src.read(scratch)?;
        self.feed(&scratch[..n]);
        Ok(n)
    }

    /// Hands back a delivered frame's payload so the next large body can
    /// be read into its allocation. Buffers too small to hold a large body
    /// are dropped.
    pub fn recycle(&mut self, payload: Vec<u8>) {
        if payload.capacity() >= BODY_IN_PLACE {
            self.spare = payload;
        }
    }

    /// Moves a large frame whose intact header starts the byte queue, and
    /// whose body has not fully arrived, into a body buffer: a vector when
    /// it is a `Vec<f64>` body to land, else bytes.
    fn start_body(&mut self) {
        let b = &self.buf;
        if b.len() < HEADER_LEN
            || b[..4] != MAGIC
            || (read_u32(&b[32..36]) as usize) < BODY_IN_PLACE
        {
            return;
        }
        let Some(header) = Header::parse(b) else { return };
        if b.len() >= header.total() {
            return;
        }
        let values = self.landing.as_ref().filter(|(codec, _)| {
            header.kind == FrameKind::Data
                && header.codec == *codec
                && (header.payload_len - 4) % 8 == 0
        });
        let store = match values {
            Some((_, spares)) => {
                // A spare keeps its length, so only values it never held
                // are zeroed; every byte is overwritten, by the copy below
                // or by a read, before the body counts as complete.
                let len = (header.payload_len - 4) / 8;
                let mut values = spares.take(len).unwrap_or_else(|| Vec::with_capacity(len));
                values.resize(len, 0.0);
                Store::Values { count: [0; 4], values, crc: [0; 4] }
            }
            None => {
                let mut bytes = std::mem::take(&mut self.spare);
                bytes.resize(header.payload_len + 4, 0);
                Store::Bytes(bytes)
            }
        };
        let mut body = Body { header, store, filled: 0 };
        body.fill_from(&self.buf[HEADER_LEN..]);
        self.buf.clear();
        self.body = Some(body);
    }

    /// Yields the pending body once it is complete.
    fn finish_body(&mut self) -> Option<Result<Arrival, FrameError>> {
        let Body { header, store, .. } = self.body.take()?;
        Some(match store {
            Store::Bytes(mut bytes) => match header.finish(&bytes) {
                Ok(()) => {
                    bytes.truncate(header.payload_len);
                    Ok(Arrival::Frame(header.frame(bytes)))
                }
                Err(e) => {
                    self.spare = bytes;
                    Err(e)
                }
            },
            Store::Values { count, values, crc } => {
                let reg = crc32_continue(crc32_continue(!0, &count), values_bytes(&values));
                let checked = header.check(!reg, &crc).and_then(|()| {
                    // Intact bytes, but not a `Vec<f64>` encoding: the
                    // count disagrees with the length the header vouched
                    // for, which the codec would reject too.
                    let agrees = read_u32(&count) as usize == values.len();
                    agrees.then_some(()).ok_or(header.corrupt("value count disagrees with length"))
                });
                match checked {
                    Ok(()) => Ok(Arrival::Values(header.frame(Vec::new()), values)),
                    Err(e) => {
                        if let Some((_, spares)) = &self.landing {
                            spares.give(values);
                        }
                        Err(e)
                    }
                }
            }
        })
    }

    /// Scans to the next `MAGIC`, returning how many bytes were dropped.
    /// Keeps a possible magic prefix at the tail so a magic split across
    /// two `feed`s is not lost.
    fn resync(&mut self) -> usize {
        let n = self.buf.len();
        let mut i = 1; // byte 0 is known-bad when resync is called
        while i < n {
            let window = &self.buf[i..(i + 4).min(n)];
            if MAGIC.starts_with(window) || window == MAGIC {
                break;
            }
            i += 1;
        }
        self.buf.drain(..i);
        i
    }

    /// Pulls the next complete frame, a corruption report, or `None` when
    /// more bytes are needed. A landed `Vec<f64>` body comes out encoded,
    /// as the codec would have written it, and its vector goes back to the
    /// spare list; a reader that lands bodies is drained with
    /// [`FrameReader::next_arrival`] instead.
    #[allow(clippy::should_implement_trait)] // pull-style API, deliberately not an Iterator
    pub fn next(&mut self) -> Option<Result<Frame, FrameError>> {
        Some(self.next_arrival()?.map(|arrival| match arrival {
            Arrival::Frame(frame) => frame,
            Arrival::Values(mut frame, values) => {
                frame.payload = encode_value(&values);
                if let Some((_, spares)) = &self.landing {
                    spares.give(values);
                }
                frame
            }
        }))
    }

    /// Pulls the next complete frame — or landed `Vec<f64>` body — a
    /// corruption report, or `None` when more bytes are needed.
    pub fn next_arrival(&mut self) -> Option<Result<Arrival, FrameError>> {
        if let Some(body) = &self.body {
            return if body.complete() { self.finish_body() } else { None };
        }
        if self.buf.len() < 4 {
            // A partial magic prefix stays buffered; junk is dropped.
            if !MAGIC.starts_with(&self.buf) {
                let skipped = self.resync();
                if skipped > 0 {
                    return Some(Err(FrameError::Corrupt {
                        skipped,
                        header: None,
                        reason: "garbage before frame magic",
                    }));
                }
            }
            return None;
        }
        if self.buf[..4] != MAGIC {
            let skipped = self.resync();
            return Some(Err(FrameError::Corrupt {
                skipped,
                header: None,
                reason: "garbage before frame magic",
            }));
        }
        if self.buf.len() < HEADER_LEN {
            return None;
        }
        let Some(header) = Header::parse(&self.buf) else {
            // The "magic" was a lie (or the header was hit): drop one
            // byte and rescan so a real frame hiding behind it is found.
            self.buf.drain(..1);
            let skipped = 1 + self.resync();
            return Some(Err(FrameError::Corrupt {
                skipped,
                header: None,
                reason: "damaged frame header",
            }));
        };
        let total = header.total();
        if self.buf.len() < total {
            return None;
        }
        let result = header.finish(&self.buf[HEADER_LEN..total]).map(|()| {
            Arrival::Frame(
                header.frame(self.buf[HEADER_LEN..HEADER_LEN + header.payload_len].to_vec()),
            )
        });
        self.buf.drain(..total);
        Some(result)
    }
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4-byte slice"))
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame(seq: u64, payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 2,
            context: 7,
            tag: 0x5252,
            seq,
            codec: 15,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_through_reader() {
        let f = data_frame(9, b"hello");
        let mut r = FrameReader::new();
        r.feed(&f.encode());
        assert_eq!(r.next(), Some(Ok(f)));
        assert_eq!(r.next(), None);
        assert!(r.buf.is_empty() && r.body.is_none(), "nothing stays buffered");
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let frames: Vec<Frame> = (0..3).map(|i| data_frame(i, &[i as u8; 5])).collect();
        let bytes: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for b in bytes {
            r.feed(&[b]);
            while let Some(res) = r.next() {
                got.push(res.unwrap());
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn payload_bit_flip_reports_corrupt_with_header_and_resyncs() {
        let a = data_frame(1, b"aaaa");
        let b = data_frame(2, b"bbbb");
        let mut bytes = a.encode();
        bytes[HEADER_LEN + 1] ^= 0x10; // damage a payload byte of `a`
        bytes.extend_from_slice(&b.encode());
        let mut r = FrameReader::new();
        r.feed(&bytes);
        match r.next() {
            Some(Err(FrameError::Corrupt { header: Some(h), reason, .. })) => {
                assert_eq!(h.seq, 1);
                assert_eq!(h.context, 7);
                assert_eq!(reason, "damaged frame payload");
            }
            other => panic!("expected payload corruption, got {other:?}"),
        }
        assert_eq!(r.next(), Some(Ok(b)), "stream resynced on the very next frame");
    }

    #[test]
    fn header_bit_flip_resyncs_to_next_frame() {
        let a = data_frame(1, b"aaaa");
        let b = data_frame(2, b"bbbb");
        let mut bytes = a.encode();
        bytes[20] ^= 0x01; // damage seq inside the protected header
        bytes.extend_from_slice(&b.encode());
        let mut r = FrameReader::new();
        r.feed(&bytes);
        let mut corrupt = 0;
        let mut good = Vec::new();
        while let Some(res) = r.next() {
            match res {
                Ok(f) => good.push(f),
                Err(FrameError::Corrupt { .. }) => corrupt += 1,
            }
        }
        assert!(corrupt >= 1, "header damage must be reported");
        assert_eq!(good, vec![b], "the frame after the damaged one survives");
    }

    #[test]
    fn leading_garbage_is_skipped() {
        let f = data_frame(3, b"x");
        let mut r = FrameReader::new();
        r.feed(b"NOISEnoiseNOISE");
        r.feed(&f.encode());
        let mut good = None;
        while let Some(res) = r.next() {
            if let Ok(frame) = res {
                good = Some(frame);
            }
        }
        assert_eq!(good, Some(f));
    }

    #[test]
    fn absurd_length_is_header_corruption_not_allocation() {
        let f = data_frame(1, b"ok");
        let mut bytes = f.encode();
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes()); // forge payload_len
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert!(matches!(r.next(), Some(Err(FrameError::Corrupt { .. }))));
    }

    #[test]
    fn truncated_final_frame_stays_pending_not_corrupt() {
        let f = data_frame(1, b"pppp");
        let bytes = f.encode();
        let mut r = FrameReader::new();
        r.feed(&bytes[..bytes.len() - 3]);
        assert_eq!(r.next(), None, "incomplete frame waits for more bytes");
        r.feed(&bytes[bytes.len() - 3..]);
        assert_eq!(r.next(), Some(Ok(f)));
    }

    #[test]
    fn spares_are_taken_best_fit() {
        let spares = SpareValues::new();
        let kb = |n: usize| n * 1024 / 8;
        for len in [kb(4096), kb(64), kb(1024), kb(256)] {
            spares.give(Vec::with_capacity(len));
        }
        let caps = |v: Option<Vec<f64>>| v.map(|v| v.capacity() / kb(1));
        // Each body takes the smallest spare that holds it, so the 4 MiB
        // one is still there for the 4 MiB body at the end.
        assert_eq!(caps(spares.take(kb(64))), Some(64));
        assert_eq!(caps(spares.take(kb(65))), Some(256));
        assert_eq!(caps(spares.take(kb(200))), Some(1024));
        assert_eq!(caps(spares.take(kb(4096))), Some(4096));
        assert!(spares.take(1).is_none(), "every spare was taken");
    }

    #[test]
    fn control_frames_are_payload_free() {
        let hb = Frame::control(FrameKind::Heartbeat, 4);
        let mut r = FrameReader::new();
        r.feed(&hb.encode());
        let got = r.next().unwrap().unwrap();
        assert_eq!(got.kind, FrameKind::Heartbeat);
        assert_eq!(got.src, 4);
        assert!(got.payload.is_empty());
    }
}
