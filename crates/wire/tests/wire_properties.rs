//! Property tests for the wire format: whatever the bytes do, the reader
//! never panics, never yields a damaged frame as clean, and never loses
//! sync with the stream that follows.

use proptest::prelude::*;

use mxn_wire::codec::{decode_value, encode_value};
use mxn_wire::crc32;
use mxn_wire::frame::{Frame, FrameError, FrameKind, FrameReader};

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
