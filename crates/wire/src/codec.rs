//! Byte serialization for payloads that cross a process boundary.
//!
//! In-proc, payloads travel as `Box<dyn Any>` — ownership transfer through
//! shared memory, no bytes ever produced. Across processes that is
//! impossible, so every type that crosses the wire implements [`WireCodec`]:
//! a small, explicit, little-endian encoding with *total* decoding — every
//! byte string either decodes or returns a [`CodecError`], never a panic.
//! That totality is what the frame layer's corruption story rests on: a
//! damaged payload that somehow passes CRC still cannot crash the decoder.
//!
//! A [`CodecRegistry`] maps concrete Rust types to stable numeric tags so
//! the type-erased send path (a `Payload`, one owned `Box<dyn Any>`) can
//! find the encoder at runtime and the receiver can find the decoder from
//! the tag in the frame header. Every payload is owned, in-proc as on the
//! wire, so anything the in-proc runtime sends the wire can encode once
//! its type is registered.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;

use mxn_runtime::JoinOffer;

use crate::frame::DESCRIPTOR_CODEC;

/// Why a byte string failed to decode.
///
/// Decoders must be total: any input produces `Ok` or one of these — a
/// panic in a decoder is a crash vector a remote peer could trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// No decoder is registered for this payload tag.
    BadTag {
        /// The unknown tag.
        tag: u32,
    },
    /// The value decoded but bytes were left over — a framing/codec
    /// mismatch (e.g. tag collision between two types).
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
    /// The bytes were structurally well-formed but semantically invalid
    /// (e.g. a string that is not UTF-8).
    Invalid {
        /// What was invalid.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated payload: needed {needed} more bytes, have {have}")
            }
            CodecError::BadTag { tag } => write!(f, "no codec registered for payload tag {tag}"),
            CodecError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete value")
            }
            CodecError::Invalid { what } => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Takes `n` bytes off the front of `input`, or reports truncation.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::Truncated { needed: n, have: input.len() });
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// A type that can serialize itself to wire bytes and decode itself back.
///
/// Encodings are little-endian and length-prefixed where variable-sized;
/// `decode` consumes exactly the bytes `encode` produced and must never
/// panic on arbitrary input.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value off the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let n = std::mem::size_of::<$t>();
                let bytes = take(input, n)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned n bytes")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl WireCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let v = u64::decode(input)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid { what: "usize out of range" })
    }
}

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(u8::decode(input)? != 0)
    }
}

impl WireCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Invalid { what: "string is not UTF-8" })
    }
}

/// Moves `v` into the type it already is: `U == T`, checked by the caller
/// through `TypeId`.
fn same_type<U: Any, T: Any>(v: U) -> T {
    *(Box::new(v) as Box<dyn Any>).downcast::<T>().expect("caller checked U == T")
}

impl<T: WireCodec + Any> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        // Bulk fast paths for byte and f64 vectors (the coupling field
        // type): element-wise encoding costs a call and a capacity check
        // per element, which dominates large-payload wire bandwidth.
        let any = self as &dyn Any;
        if let Some(bytes) = any.downcast_ref::<Vec<u8>>() {
            out.extend_from_slice(bytes);
            return;
        }
        if let Some(values) = any.downcast_ref::<Vec<f64>>() {
            // Converted through a small stack block, so `out` is written
            // once — no zero fill first, no per-element capacity check.
            out.reserve(8 * values.len());
            let mut block = [0u8; 1024];
            for chunk in values.chunks(block.len() / 8) {
                let bytes = &mut block[..8 * chunk.len()];
                for (dst, v) in bytes.chunks_exact_mut(8).zip(chunk) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(bytes);
            }
            return;
        }
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let count = u32::decode(input)? as usize;
        if TypeId::of::<T>() == TypeId::of::<u8>() {
            return Ok(same_type(take(input, count)?.to_vec()));
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // The whole body is taken before anything is allocated, so a
            // corrupt count fails on `Truncated` exactly as below.
            let len = count
                .checked_mul(8)
                .ok_or(CodecError::Truncated { needed: usize::MAX, have: input.len() })?;
            let values: Vec<f64> = take(input, len)?
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect();
            return Ok(same_type(values));
        }
        // No speculative reservation: a corrupt count must hit `Truncated`
        // while decoding elements, not allocate gigabytes up front.
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(None),
            _ => Ok(Some(T::decode(input)?)),
        }
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec> WireCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

/// The spare-process join offer: its scalars, then each group as a `u32`
/// count of `u64` ranks.
impl WireCodec for JoinOffer {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.side, self.local_rank, self.context).encode(out);
        (self.attempt, self.epoch).encode(out);
        let groups = [&self.local_group, &self.remote_group, &self.old_local_group];
        for group in groups.into_iter().chain([&self.old_remote_group, &self.participants]) {
            group.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (side, local_rank, context) = WireCodec::decode(input)?;
        let (attempt, epoch) = WireCodec::decode(input)?;
        let mut group = || Vec::<usize>::decode(input);
        Ok(JoinOffer {
            side,
            local_rank,
            context,
            attempt,
            epoch,
            local_group: group()?,
            remote_group: group()?,
            old_local_group: group()?,
            old_remote_group: group()?,
            participants: group()?,
        })
    }
}

/// Encodes `value` into a fresh buffer.
pub fn encode_value<T: WireCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a complete value from `bytes`, rejecting leftovers.
pub fn decode_value<T: WireCodec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut input = bytes;
    let v = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(CodecError::Trailing { extra: input.len() });
    }
    Ok(v)
}

type EncodeFn = fn(&dyn Any, &mut Vec<u8>) -> bool;
type DecodeFn = fn(&[u8]) -> Result<Box<dyn Any + Send>, CodecError>;

/// Runtime mapping between concrete payload types and wire tags.
///
/// The send path holds a type-erased `Box<dyn Any>`; the registry finds
/// the encoder by `TypeId` and stamps the tag into the frame header so the
/// receiver can find the matching decoder. Both processes must register
/// the same `(tag, type)` pairs — the tag is the cross-process name of the
/// type, exactly as CORBA-style IDL gives remote methods numeric ids.
#[derive(Default)]
pub struct CodecRegistry {
    by_type: HashMap<TypeId, (u32, EncodeFn)>,
    by_tag: HashMap<u32, DecodeFn>,
}

impl CodecRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A registry preloaded with the scalar and vector types the coupling
    /// and PRMI layers send.
    pub fn with_defaults() -> Self {
        let mut r = Self::new();
        r.register::<()>(1);
        r.register::<bool>(2);
        r.register::<u8>(3);
        r.register::<u32>(4);
        r.register::<u64>(5);
        r.register::<i32>(6);
        r.register::<i64>(7);
        r.register::<f32>(8);
        r.register::<f64>(9);
        r.register::<usize>(10);
        r.register::<String>(11);
        r.register::<Vec<u8>>(12);
        r.register::<Vec<u32>>(13);
        r.register::<Vec<u64>>(14);
        r.register::<Vec<f64>>(15);
        r.register::<Vec<usize>>(16);
        r.register::<(u64, u64)>(17);
        r.register::<(u64, f64)>(18);
        r.register::<Vec<(usize, f64)>>(19);
        r
    }

    /// Registers `T` under `tag`. Panics if either the tag or the type is
    /// already taken — tag collisions are configuration bugs, and failing
    /// at registration is the only place they are locally detectable — or
    /// if `tag` is [`DESCRIPTOR_CODEC`], which names lent bodies.
    pub(crate) fn register<T: WireCodec + Any + Send>(&mut self, tag: u32) {
        assert_ne!(tag, DESCRIPTOR_CODEC, "payload tag {tag} is reserved for descriptors");
        let enc: EncodeFn = |any, out| match any.downcast_ref::<T>() {
            Some(v) => {
                v.encode(out);
                true
            }
            None => false,
        };
        let dec: DecodeFn = |bytes| decode_value::<T>(bytes).map(|v| Box::new(v) as _);
        assert!(
            self.by_type.insert(TypeId::of::<T>(), (tag, enc)).is_none(),
            "type registered twice in CodecRegistry"
        );
        assert!(self.by_tag.insert(tag, dec).is_none(), "payload tag {tag} registered twice");
    }

    /// Appends the encoding of a type-erased payload to `out` and returns
    /// its tag, or returns `None` having written nothing if the concrete
    /// type was never registered.
    pub(crate) fn encode_any_into(&self, value: &dyn Any, out: &mut Vec<u8>) -> Option<u32> {
        let (tag, enc) = self.by_type.get(&value.type_id())?;
        let matched = enc(value, out);
        debug_assert!(matched, "TypeId lookup and downcast must agree");
        matched.then_some(*tag)
    }

    /// Decodes payload bytes under `tag` back into a type-erased box.
    pub(crate) fn decode_any(
        &self,
        tag: u32,
        bytes: &[u8],
    ) -> Result<Box<dyn Any + Send>, CodecError> {
        let dec = self.by_tag.get(&tag).ok_or(CodecError::BadTag { tag })?;
        dec(bytes)
    }

    /// The wire tag `T` is registered under, if any.
    pub(crate) fn tag_of<T: Any>(&self) -> Option<u32> {
        self.by_type.get(&TypeId::of::<T>()).map(|(tag, _)| *tag)
    }

    /// The wire tag `value`'s type is registered under, if any.
    pub(crate) fn tag_of_value(&self, value: &dyn Any) -> Option<u32> {
        self.by_type.get(&value.type_id()).map(|(tag, _)| *tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_value(&v);
        assert_eq!(decode_value::<T>(&bytes).unwrap(), v);
    }

    #[test]
    #[should_panic(expected = "reserved for descriptors")]
    fn the_descriptor_tag_is_never_handed_out() {
        CodecRegistry::new().register::<u64>(DESCRIPTOR_CODEC);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-7i32);
        roundtrip(3.25f64);
        roundtrip(true);
        roundtrip(());
        roundtrip(usize::MAX);
    }

    #[test]
    fn compound_roundtrips() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(vec![1.0f64, -2.5, f64::INFINITY]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(vec![(3usize, 1.5f64)]));
        roundtrip((1u64, 2u64, String::from("x")));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode_value(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r = decode_value::<Vec<u64>>(&bytes[..cut]);
            assert!(matches!(r, Err(CodecError::Truncated { .. })), "cut={cut}: {r:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_value(&5u32);
        bytes.push(0);
        assert_eq!(decode_value::<u32>(&bytes), Err(CodecError::Trailing { extra: 1 }));
    }

    #[test]
    fn huge_length_prefix_does_not_allocate() {
        // A corrupt count of u32::MAX elements must fail fast on truncation.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        assert!(matches!(decode_value::<Vec<u64>>(&bytes), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn f64_vectors_roundtrip_bit_exact() {
        let nan_payload = f64::from_bits(0x7ff8_dead_beef_0001);
        let values =
            vec![-0.0, 0.0, f64::NAN, -f64::NAN, nan_payload, f64::MIN_POSITIVE / 2.0, 1e300];
        for v in [values, Vec::new(), vec![2.5]] {
            let bytes = encode_value(&v);
            assert_eq!(bytes.len(), 4 + 8 * v.len());
            let back = decode_value::<Vec<f64>>(&bytes).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&v));
        }
    }

    #[test]
    fn huge_f64_count_is_truncated_before_allocating() {
        // The bulk path takes `count * 8` bytes in one step, so the error
        // names the whole claimed body: nothing was decoded or reserved.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode_value::<Vec<f64>>(&bytes),
            Err(CodecError::Truncated { needed: u32::MAX as usize * 8, have: 16 })
        );
    }

    #[test]
    fn non_utf8_string_is_invalid() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_value::<String>(&bytes),
            Err(CodecError::Invalid { what: "string is not UTF-8" })
        );
    }

    #[test]
    fn registry_roundtrips_type_erased() {
        let reg = CodecRegistry::with_defaults();
        let value: Box<dyn Any + Send> = Box::new(vec![1.5f64, 2.5]);
        let mut bytes = Vec::new();
        let tag = reg.encode_any_into(value.as_ref(), &mut bytes).unwrap();
        let back = reg.decode_any(tag, &bytes).unwrap();
        assert_eq!(*back.downcast::<Vec<f64>>().unwrap(), vec![1.5, 2.5]);
    }

    #[test]
    fn registry_rejects_unknown_type_and_tag() {
        let reg = CodecRegistry::with_defaults();
        struct Opaque;
        assert!(reg.encode_any_into(&Opaque, &mut Vec::new()).is_none());
        assert_eq!(reg.decode_any(0xdead, &[]).unwrap_err(), CodecError::BadTag { tag: 0xdead });
    }

    #[test]
    fn encode_any_into_appends_after_existing_bytes() {
        let reg = CodecRegistry::with_defaults();
        let values: Vec<f64> = (0..1500).map(|i| f64::from(i) * 0.5 - 7.0).collect();
        let mut out = b"header".to_vec();
        let tag = reg.encode_any_into(&values, &mut out).unwrap();
        assert_eq!(&out[..6], b"header", "bytes already there are kept");
        assert_eq!(&out[6..], &encode_value(&values)[..]);
        let back = reg.decode_any(tag, &out[6..]).unwrap();
        assert_eq!(*back.downcast::<Vec<f64>>().unwrap(), values);
    }

    #[test]
    fn encode_any_into_writes_nothing_for_an_unregistered_type() {
        let reg = CodecRegistry::with_defaults();
        struct Opaque;
        let mut out = b"header".to_vec();
        assert_eq!(reg.encode_any_into(&Opaque, &mut out), None);
        assert_eq!(out, b"header");
    }

    #[test]
    fn join_offer_roundtrips_and_rejects_damage() {
        let offer = JoinOffer {
            side: 1,
            local_rank: 2,
            context: 0x40,
            attempt: 3,
            epoch: 7,
            local_group: vec![0, 1, 5],
            remote_group: vec![2, 3],
            old_local_group: vec![0, 1],
            old_remote_group: vec![2, 3],
            participants: vec![0, 1, 2, 3, 5],
        };
        let bytes = encode_value(&offer);
        let decode = |b: &[u8]| decode_value::<JoinOffer>(b).ok();
        assert_eq!(decode(&bytes), Some(offer.clone()));
        // Truncation at every prefix length decodes to None, never panics.
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage is rejected (total decode, no silent slack).
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode(&long), None);
        // A forged group length cannot drive allocation.
        let mut forged = bytes;
        let group_len_off = 8 + 8 + 4 + 8 + 8;
        forged[group_len_off..group_len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&forged), None);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_tag_panics_at_registration() {
        let mut reg = CodecRegistry::new();
        reg.register::<u32>(1);
        reg.register::<u64>(1);
    }
}
