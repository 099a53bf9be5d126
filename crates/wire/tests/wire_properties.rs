//! Property tests for the wire format: whatever the bytes do, the reader
//! never panics, never yields a damaged frame as clean, and never loses
//! sync with the stream that follows.

use std::io::{self, Read};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use proptest::prelude::*;

use mxn_wire::codec::{decode_value, encode_value};
use mxn_wire::frame::{
    Arrival, Descriptor, Frame, FrameError, FrameKind, FrameReader, PullError, SpareValues,
    BODY_IN_PLACE, DESCRIPTOR_CODEC, HEADER_LEN, MAX_PAYLOAD,
};
use mxn_wire::{crc32, LinkSender, WireFaults};

/// CRC-32C one bit at a time, straight from the polynomial: shares no
/// table or instruction with the library's paths.
fn crc32c_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82f6_3b78 } else { crc >> 1 };
        }
    }
    !crc
}

/// Strategy: an arbitrary data frame with a small payload.
fn data_frame() -> impl Strategy<Value = Frame> {
    (
        (0u32..64, 0u32..1 << 20, -1000i32..=1000),
        (1u64..1 << 40, 0u32..32),
        proptest::collection::vec(0u8..=255, 0..96),
    )
        .prop_map(|((src, context, tag), (seq, codec), payload)| Frame {
            kind: FrameKind::Data,
            src,
            context,
            tag,
            seq,
            codec,
            payload,
        })
}

/// Feeds `bytes` to `reader` in chunks of `chunk` and drains every result.
fn feed_chunked(
    reader: &mut FrameReader,
    bytes: &[u8],
    chunk: usize,
) -> Vec<Result<Frame, FrameError>> {
    let mut out = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        reader.feed(piece);
        while let Some(r) = reader.next() {
            out.push(r);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity, no matter how the bytes are
    /// chunked on the way in.
    #[test]
    fn frame_roundtrip_any_chunking(frame_and_chunk in (data_frame(), 1usize..80)) {
        let (frame, chunk) = frame_and_chunk;
        let bytes = frame.encode();
        let mut reader = FrameReader::new();
        let got = feed_chunked(&mut reader, &bytes, chunk);
        prop_assert_eq!(got.len(), 1);
        match &got[0] {
            Ok(f) => {
                prop_assert_eq!(f, &frame);
            }
            Err(e) => return Err(TestCaseError::fail(format!("clean frame rejected: {e:?}"))),
        }
    }

    /// A single flipped bit anywhere in the frame is always caught by one
    /// of the CRCs — the damaged frame NEVER decodes as clean — and a
    /// clean frame following the damage is still delivered (no desync).
    #[test]
    fn single_bit_flip_is_caught_and_resynced(fb in (data_frame(), 0u64..1 << 32)) {
        let (frame, flip_draw) = fb;
        let mut bytes = frame.encode();
        let bit = (flip_draw as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);

        let follower = Frame {
            kind: FrameKind::Data,
            src: 9,
            context: 77,
            tag: 5,
            seq: frame.seq + 1,
            codec: 3,
            payload: vec![0xAA, 0xBB],
        };
        bytes.extend_from_slice(&follower.encode());

        let mut reader = FrameReader::new();
        let got = feed_chunked(&mut reader, &bytes, 17);
        // Exactly one clean frame comes out: the follower. The damaged
        // frame surfaces only as Err(Corrupt).
        let clean: Vec<&Frame> = got.iter().filter_map(|r| r.as_ref().ok()).collect();
        prop_assert_eq!(clean.len(), 1);
        prop_assert_eq!(clean[0], &follower);
        prop_assert!(
            got.iter().any(|r| matches!(r, Err(FrameError::Corrupt { .. }))),
            "the flipped bit went unreported"
        );
    }

    /// Truncation never panics, never fabricates a frame, and the reader
    /// recovers when a clean frame follows the truncated wreckage.
    #[test]
    fn truncation_is_detected_not_desynced(ft in (data_frame(), 0u64..1 << 32)) {
        let (frame, cut_draw) = ft;
        let full = frame.encode();
        let cut = 1 + (cut_draw as usize) % (full.len() - 1);
        let mut bytes = full[..cut].to_vec();
        let follower = Frame::control(FrameKind::Heartbeat, 3);
        bytes.extend_from_slice(&follower.encode());

        let mut reader = FrameReader::new();
        let got = feed_chunked(&mut reader, &bytes, 11);
        let clean: Vec<&Frame> = got.iter().filter_map(|r| r.as_ref().ok()).collect();
        // The truncated prefix must never decode; only the follower may
        // come out clean (it can be swallowed into the truncated frame's
        // claimed payload only if the cut fell before the length field was
        // committed — but then the header CRC rejects the splice).
        for f in &clean {
            prop_assert_eq!(*f, &follower);
        }
        prop_assert!(clean.len() <= 1);
    }

    /// Arbitrary garbage between frames: the reader never panics and the
    /// real frames on both sides still come through.
    #[test]
    fn garbage_between_frames_never_desyncs(g in (data_frame(), proptest::collection::vec(0u8..=255, 1..128), 1usize..40)) {
        let (frame, garbage, chunk) = g;
        let mut bytes = frame.encode();
        bytes.extend_from_slice(&garbage);
        let follower = Frame {
            kind: FrameKind::Data,
            src: 1,
            context: 2,
            tag: 3,
            seq: 4,
            codec: 5,
            payload: vec![6],
        };
        bytes.extend_from_slice(&follower.encode());

        let mut reader = FrameReader::new();
        let got = feed_chunked(&mut reader, &bytes, chunk);
        let clean: Vec<&Frame> = got.iter().filter_map(|r| r.as_ref().ok()).collect();
        prop_assert!(clean.len() >= 2, "real frames lost around garbage: {got:?}");
        prop_assert_eq!(clean[0], &frame);
        prop_assert_eq!(*clean.last().unwrap(), &follower);
    }

    /// The frame checksum is CRC-32C whichever path computes it, at any
    /// length and any start alignment.
    #[test]
    fn crc32_matches_the_bitwise_oracle(
        sb in (proptest::collection::vec(0u8..=255, 0..600), 0usize..8)
    ) {
        let (bytes, start) = sb;
        let s = &bytes[start.min(bytes.len())..];
        prop_assert_eq!(crc32(s), crc32c_bitwise(s));
    }

    /// Codec round-trip for the workhorse payload types.
    #[test]
    fn codec_roundtrip_vecs(v in proptest::collection::vec(0.0f64..1e9, 0..64)) {
        let bytes = encode_value(&v);
        let back: Vec<f64> = decode_value(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn codec_roundtrip_strings(pair in (proptest::collection::vec(0u32..0xd7ff, 0..32), 0u64..u64::MAX)) {
        let (chars, n) = pair;
        let s: String = chars.into_iter().filter_map(char::from_u32).collect();
        let bytes = encode_value(&(s.clone(), n));
        let back: (String, u64) = decode_value(&bytes).unwrap();
        prop_assert_eq!(back, (s, n));
    }

    /// Decoding arbitrary bytes as any registered shape must error
    /// gracefully, never panic, never over-allocate.
    #[test]
    fn codec_decode_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = decode_value::<Vec<f64>>(&bytes);
        let _ = decode_value::<Vec<u64>>(&bytes);
        let _ = decode_value::<String>(&bytes);
        let _ = decode_value::<(u64, u64)>(&bytes);
        let _ = decode_value::<Vec<(usize, f64)>>(&bytes);
        let _ = decode_value::<Option<u32>>(&bytes);
    }
}

/// A stream that returns `bytes` in pieces never crossing a cut point,
/// and records every piece it returned.
struct CutStream<'a> {
    bytes: &'a [u8],
    cuts: Vec<usize>,
    pos: usize,
    pieces: Vec<Range<usize>>,
}

impl Read for CutStream<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let end = self.cuts.iter().copied().find(|&c| c > self.pos).unwrap_or(self.bytes.len());
        let n = out.len().min(end - self.pos);
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pieces.push(self.pos..self.pos + n);
        self.pos += n;
        Ok(n)
    }
}

/// Data frame `i` of a test stream: a small or a [`BODY_IN_PLACE`]-sized
/// payload of `len` extra bytes, filled from `fill`.
fn mixed_frame(i: usize, large: bool, len: usize, fill: u64) -> Frame {
    let len = if large { BODY_IN_PLACE + len } else { len % 96 };
    let mut x = fill;
    let payload = (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect();
    let seq = i as u64 + 1;
    Frame { kind: FrameKind::Data, src: 3, context: 11, tag: i as i32, seq, codec: 15, payload }
}

/// Reads `stream` to its end the way a node's reader does: drain every
/// frame, then one `read_from`, handing each delivered payload back.
fn read_like_a_node(
    stream: &mut CutStream<'_>,
    scratch_len: usize,
) -> Vec<Result<Frame, FrameError>> {
    let mut reader = FrameReader::new();
    let mut scratch = vec![0u8; scratch_len];
    let mut out = Vec::new();
    loop {
        while let Some(r) = reader.next() {
            if let Ok(frame) = &r {
                reader.recycle(frame.payload.clone());
            }
            out.push(r);
        }
        if reader.read_from(stream, &mut scratch).expect("reads from memory") == 0 {
            return out;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frames whose bodies are read in place come out exactly as `feed`
    /// and `next` yield them from the same pieces of the same stream —
    /// intact frames in order, a payload flip as `Corrupt` with the
    /// routable header, and the stream resynced on the next frame.
    #[test]
    fn in_place_bodies_match_feed_and_next(
        shape in proptest::collection::vec((0u8..2, 0usize..2000, 0u64..u64::MAX), 1..6),
        cut_draws in proptest::collection::vec(0u64..u64::MAX, 0..12),
        flip_draw in (0u8..2, 0u64..u64::MAX),
        scratch_len in prop_oneof![Just(64 * 1024), 1usize..5000],
    ) {
        let frames: Vec<Frame> = shape
            .iter()
            .enumerate()
            .map(|(i, &(large, len, fill))| mixed_frame(i, large == 1, len, fill))
            .collect();
        let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        let mut bytes = encoded.concat();
        // Which frame the flip hit, and whether it spared the header.
        let mut damaged = None;
        if let (1, draw) = flip_draw {
            let bit = (draw as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let mut start = 0;
            for (i, e) in encoded.iter().enumerate() {
                if bit / 8 < start + e.len() {
                    damaged = Some((i, bit / 8 - start >= HEADER_LEN));
                    break;
                }
                start += e.len();
            }
        }
        let mut cuts: Vec<usize> = cut_draws.iter().map(|&c| c as usize % bytes.len()).collect();
        cuts.sort_unstable();

        let mut stream = CutStream { bytes: &bytes, cuts, pos: 0, pieces: Vec::new() };
        let got = read_like_a_node(&mut stream, scratch_len);
        let mut reader = FrameReader::new();
        let mut want = Vec::new();
        for piece in &stream.pieces {
            reader.feed(&bytes[piece.clone()]);
            while let Some(r) = reader.next() {
                want.push(r);
            }
        }
        // Compared whole, but not printed: payloads run to 64 KiB.
        prop_assert!(got == want, "the body path and feed/next disagree");

        let clean: Vec<&Frame> = got.iter().filter_map(|r| r.as_ref().ok()).collect();
        let spared: Vec<&Frame> =
            frames.iter().enumerate().filter(|(i, _)| damaged.map(|d| d.0) != Some(*i)).map(|(_, f)| f).collect();
        prop_assert!(clean == spared, "intact frames lost or reordered");
        if let Some((i, true)) = damaged {
            let reported = got.iter().any(|r| matches!(
                r,
                Err(FrameError::Corrupt { header: Some(h), skipped, .. })
                    if h.seq == frames[i].seq && *skipped == encoded[i].len()
            ));
            prop_assert!(reported, "payload damage to frame {} went unreported", i);
        }
    }
}

/// `len` values from `seed`, with NaNs carrying payloads, `-0.0` and
/// infinities at positions drawn from `specials`.
fn values(len: usize, seed: u64, specials: &[u64]) -> Vec<f64> {
    let mut x = seed | 1;
    let mut v: Vec<f64> = (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f64::from_bits(x)
        })
        .collect();
    let odd = [
        -0.0,
        f64::from_bits(0x7ff8_dead_beef_0001),
        f64::from_bits(0xfff0_0000_0000_0001),
        f64::INFINITY,
    ];
    for (k, &at) in specials.iter().enumerate() {
        if len > 0 {
            v[at as usize % len] = odd[k % odd.len()];
        }
    }
    v
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything a reader that lands values yields from `stream`, read the
/// way a node reads.
fn land_like_a_node(
    stream: &mut CutStream<'_>,
    spares: &Arc<SpareValues>,
) -> Vec<Result<Arrival, FrameError>> {
    let mut reader = FrameReader::new();
    reader.land_values(VALUES_CODEC, Arc::clone(spares));
    let mut scratch = vec![0u8; 64 * 1024];
    let mut out = Vec::new();
    loop {
        while let Some(r) = reader.next_arrival() {
            out.push(r);
        }
        if reader.read_from(stream, &mut scratch).expect("reads from memory") == 0 {
            return out;
        }
    }
}

/// The `Vec<f64>` tag in `CodecRegistry::with_defaults`.
const VALUES_CODEC: u32 = 15;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A `Vec<f64>` sent from its own memory puts the codec path's bytes
    /// on the wire; a reader that lands it yields the same values, bit for
    /// bit, and the same route as `feed`/`next` and `decode_value` under
    /// any read cuts; a payload flip is `Corrupt` with the header and the
    /// vector goes back to the spares; a count that disagrees with the
    /// length is `Corrupt` too.
    #[test]
    fn vector_frames_match_the_codec_path(
        len in prop_oneof![8180usize..8200, 0usize..40, 8192usize..20_000],
        seed in 0u64..u64::MAX,
        specials in proptest::collection::vec(0u64..u64::MAX, 0..6),
        route in (0u32..1 << 20, -1000i32..=1000),
        cut_draws in proptest::collection::vec(0u64..u64::MAX, 0..10),
        flip_draw in 0u64..u64::MAX,
        count_skew in 1u32..u32::MAX,
    ) {
        let (ctx, tag) = route;
        let vals = values(len, seed, &specials);
        let codec_frame = Frame {
            kind: FrameKind::Data,
            src: 4,
            context: ctx,
            tag,
            seq: 1,
            codec: VALUES_CODEC,
            payload: encode_value(&vals),
        };
        let want_bytes = codec_frame.encode();

        // The vector path's bytes, as the socket carried them.
        let (tx, mut rx) = UnixStream::pair().expect("socketpair");
        let mut link = LinkSender::new(4, 5, WireFaults::none());
        link.attach(tx);
        let writer = std::thread::spawn(move || {
            let seq = link.send_values(ctx, tag, VALUES_CODEC, vals).expect("write");
            drop(link);
            seq
        });
        let mut wrote = Vec::new();
        rx.read_to_end(&mut wrote).expect("read the frame");
        prop_assert_eq!(writer.join().expect("writer"), 1);
        prop_assert!(wrote == want_bytes, "the vector path wrote other bytes than the codec");
        let vals = decode_value::<Vec<f64>>(&codec_frame.payload).expect("the codec's own bytes");

        // Landing under random cuts versus feed/next + decode_value.
        let mut cuts: Vec<usize> = cut_draws.iter().map(|&c| c as usize % wrote.len()).collect();
        cuts.sort_unstable();
        let spares = Arc::new(SpareValues::new());
        let mut stream = CutStream { bytes: &wrote, cuts: cuts.clone(), pos: 0, pieces: Vec::new() };
        let got = land_like_a_node(&mut stream, &spares);
        let mut reader = FrameReader::new();
        for piece in &stream.pieces {
            reader.feed(&wrote[piece.clone()]);
        }
        let fed = reader.next().expect("a whole frame").expect("an intact frame");
        prop_assert_eq!(got.len(), 1);
        let landed = 4 + 8 * len >= BODY_IN_PLACE;
        match &got[0] {
            Ok(Arrival::Values(frame, v)) if landed => {
                prop_assert_eq!((frame.src, frame.context, frame.tag, frame.seq), (fed.src, fed.context, fed.tag, fed.seq));
                prop_assert!(frame.payload.is_empty());
                prop_assert!(bits(v) == bits(&vals), "landed values differ");
            }
            Ok(Arrival::Frame(frame)) if !landed => prop_assert!(*frame == fed, "small frames decode as before"),
            other => return Err(TestCaseError::fail(format!("landed {landed}: {:?}", other.as_ref().map(|_| ())))),
        }

        if landed {
            // A flipped payload bit (count, values or CRC).
            let mut damaged = wrote.clone();
            let bit = HEADER_LEN * 8 + (flip_draw as usize) % ((wrote.len() - HEADER_LEN) * 8);
            damaged[bit / 8] ^= 1 << (bit % 8);
            let spares = Arc::new(SpareValues::new());
            let mut stream = CutStream { bytes: &damaged, cuts: cuts.clone(), pos: 0, pieces: Vec::new() };
            let got = land_like_a_node(&mut stream, &spares);
            let corrupt = matches!(
                &got[..],
                [Err(FrameError::Corrupt { header: Some(h), skipped, .. })] if h.seq == 1 && *skipped == wrote.len()
            );
            prop_assert!(corrupt, "a flipped payload bit was not reported with its header");
            prop_assert_eq!(spares.len(), 1, "the damaged frame's vector went back to the spares");

            // A count that disagrees with the length, under a valid CRC.
            let mut payload = codec_frame.payload.clone();
            let count = (len as u32).wrapping_add(count_skew);
            payload[..4].copy_from_slice(&count.to_le_bytes());
            let forged = Frame { payload, ..codec_frame.clone() };
            let bytes = forged.encode();
            let mut stream = CutStream { bytes: &bytes, cuts, pos: 0, pieces: Vec::new() };
            let got = land_like_a_node(&mut stream, &spares);
            let corrupt = matches!(&got[..], [Err(FrameError::Corrupt { header: Some(h), .. })] if h.seq == 1);
            prop_assert!(corrupt, "a bad count prefix was delivered");
            prop_assert!(decode_value::<Vec<f64>>(&forged.payload).is_err(), "the codec rejects it too");
        }
    }
}

/// This process's pid: every test here lends and pulls within it.
fn own_pid() -> i32 {
    std::process::id() as i32
}

/// The one frame `link` wrote to `rx`, whole.
fn next_frame(rx: &mut UnixStream) -> Frame {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(r) = reader.next() {
            return r.expect("an intact frame");
        }
        let n = rx.read(&mut buf).expect("read");
        assert!(n > 0, "the stream ended before a whole frame");
        reader.feed(&buf[..n]);
    }
}

/// A descriptor frame with `payload` under `route` seq 1.
fn descriptor(payload: Vec<u8>) -> Frame {
    Frame {
        kind: FrameKind::Data,
        src: 4,
        context: 7,
        tag: 3,
        seq: 1,
        codec: DESCRIPTOR_CODEC,
        payload,
    }
}

/// A descriptor payload: count, address, body CRC.
fn described(count: u32, addr: u64, crc: u32) -> Vec<u8> {
    let mut p = count.to_le_bytes().to_vec();
    p.extend_from_slice(&addr.to_le_bytes());
    p.extend_from_slice(&crc.to_le_bytes());
    p
}

/// What a hostile descriptor may come to: a routable `Corrupt`, or a failed
/// read that drops the stream. Never a delivered body.
fn refused(frame: &Frame) -> Result<&'static str, String> {
    let d = match Descriptor::parse(frame) {
        Err(FrameError::Corrupt { header: Some(h), .. }) if h.seq == frame.seq => {
            return Ok("corrupt")
        }
        Err(e) => return Err(format!("unroutable refusal {e:?}")),
        Ok(d) => d,
    };
    if 4 + 8 * d.count() > MAX_PAYLOAD {
        return Err(format!("a count of {} passed", d.count()));
    }
    match d.pull(own_pid(), &SpareValues::new()) {
        Err(PullError::Corrupt(FrameError::Corrupt { header: Some(h), .. }))
            if h.seq == frame.seq =>
        {
            Ok("corrupt")
        }
        Err(PullError::Failed(_)) => Ok("failed"),
        Err(PullError::Corrupt(e)) => Err(format!("unroutable refusal {e:?}")),
        Ok(v) => Err(format!("a hostile descriptor delivered {} values", v.len())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A `Vec<f64>` lent on a pulling stream and the same vector written
    /// whole land bit-identical, with the same route, at every length that
    /// lends.
    #[test]
    fn pulled_and_streamed_bodies_land_bit_identical(
        len in prop_oneof![8192usize..8200, 8192usize..40_000],
        seed in 0u64..u64::MAX,
        specials in proptest::collection::vec(0u64..u64::MAX, 0..6),
        route in (0u32..1 << 20, -1000i32..=1000),
    ) {
        let (ctx, tag) = route;
        let vals = values(len, seed, &specials);
        prop_assert!(4 + 8 * len >= BODY_IN_PLACE);

        // Written whole, landed as a node lands it.
        let (tx, mut rx) = UnixStream::pair().expect("socketpair");
        let mut link = LinkSender::new(4, 5, WireFaults::none());
        link.attach(tx);
        let whole = vals.clone();
        let writer = std::thread::spawn(move || {
            link.send_values(ctx, tag, VALUES_CODEC, whole).expect("write");
        });
        let mut wrote = Vec::new();
        rx.read_to_end(&mut wrote).expect("read the frame");
        writer.join().expect("writer");
        let mut stream = CutStream { bytes: &wrote, cuts: Vec::new(), pos: 0, pieces: Vec::new() };
        let landed = land_like_a_node(&mut stream, &Arc::new(SpareValues::new()));
        let Some(Ok(Arrival::Values(streamed, streamed_values))) = landed.into_iter().next() else {
            return Err(TestCaseError::fail("the streamed body did not land".into()));
        };

        // Lent: a descriptor on the wire, the body pulled from the ring.
        let (tx, mut rx) = UnixStream::pair().expect("socketpair");
        let mut lender = LinkSender::new(4, 5, WireFaults::none());
        lender.attach(tx);
        lender.lend();
        lender.send_values(ctx, tag, VALUES_CODEC, vals.clone()).expect("write");
        let frame = next_frame(&mut rx);
        prop_assert_eq!(frame.codec, DESCRIPTOR_CODEC);
        prop_assert_eq!(frame.payload.len(), 16, "a descriptor carries no body");
        let d = Descriptor::parse(&frame).expect("an intact descriptor");
        prop_assert_eq!(d.body_len(), 4 + 8 * len);
        let pulled = d.pull(own_pid(), &SpareValues::new()).expect("the pull");
        drop(lender);

        prop_assert_eq!(
            (frame.src, frame.context, frame.tag, frame.seq),
            (streamed.src, streamed.context, streamed.tag, streamed.seq)
        );
        prop_assert!(bits(&pulled) == bits(&streamed_values), "pulled and streamed bodies differ");
        prop_assert!(bits(&pulled) == bits(&vals), "the pulled body differs from the vector sent");
    }

    /// Descriptors of arbitrary bytes — any count, address and CRC, or a
    /// payload of the wrong length — are refused as `Corrupt` or a failed
    /// read, never delivered, never a panic, and never allocate past
    /// `MAX_PAYLOAD`.
    #[test]
    fn hostile_descriptors_are_refused(
        count in prop_oneof![0u32..20_000, 0u32..u32::MAX],
        addr in prop_oneof![0u64..4096, 0u64..u64::MAX, 0xffff_8000_0000_0000u64..u64::MAX],
        crc in 0u32..u32::MAX,
        extra in proptest::collection::vec(0u8..=255, 0..3),
        shorten in 0usize..2,
    ) {
        let mut payload = described(count, addr, crc);
        payload.extend_from_slice(&extra);
        payload.truncate(payload.len() - shorten);
        let wrong_length = payload.len() != 16;
        let frame = descriptor(payload);
        let verdict = refused(&frame).map_err(TestCaseError::fail)?;
        if wrong_length || 4 + 8 * count as usize > MAX_PAYLOAD {
            prop_assert_eq!(verdict, "corrupt");
        }
    }
}

#[test]
fn descriptors_with_a_wrong_address_or_count_are_refused() {
    let vals = values(9000, 5, &[1, 2]);
    let (tx, mut rx) = UnixStream::pair().expect("socketpair");
    let mut lender = LinkSender::new(4, 5, WireFaults::none());
    lender.attach(tx);
    lender.lend();
    lender.send_values(7, 3, VALUES_CODEC, vals.clone()).expect("write");
    let good = next_frame(&mut rx);
    let p = &good.payload;
    let (count, addr) = (9000u32, u64::from_le_bytes(p[4..12].try_into().unwrap()));
    let crc = u32::from_le_bytes(p[12..].try_into().unwrap());
    assert!(Descriptor::parse(&good).unwrap().pull(own_pid(), &SpareValues::new()).is_ok());

    // An unmapped address: the read fails, nothing is delivered.
    assert_eq!(refused(&descriptor(described(count, 8, crc))), Ok("failed"));
    // Mapped memory holding other values: the body fails its CRC.
    let other = values(9000, 6, &[]);
    let elsewhere = other.as_ptr() as u64;
    assert_eq!(refused(&descriptor(described(count, elsewhere, crc))), Ok("corrupt"));
    // The right address off by one value: the body fails its CRC.
    assert_eq!(refused(&descriptor(described(count, addr + 8, crc))), Ok("corrupt"));
    // Counts that disagree with the vector's length: fewer values, or more
    // (read past its end: other bytes or an unmapped page).
    for wrong in [0, 1, count - 1, count + 1, count + (1 << 20)] {
        let verdict = refused(&descriptor(described(wrong, addr, crc)));
        assert!(matches!(verdict, Ok("corrupt" | "failed")), "count {wrong}: {verdict:?}");
    }
    // Counts at and past `MAX_PAYLOAD`: refused before any allocation.
    let most = ((MAX_PAYLOAD - 4) / 8) as u32;
    for past in [most + 1, u32::MAX] {
        assert_eq!(refused(&descriptor(described(past, addr, crc))), Ok("corrupt"), "count {past}");
    }
    assert!(Descriptor::parse(&descriptor(described(most, addr, crc))).is_ok());
    // A descriptor payload of the wrong length.
    let mut long = described(count, addr, crc);
    long.push(0);
    assert_eq!(refused(&descriptor(long)), Ok("corrupt"));
    drop(lender);
}
