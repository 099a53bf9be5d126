//! Message envelopes, payload representations and matching patterns.

use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// Tag value ranges reserved by the runtime itself.
///
/// User code may use any non-negative tag below [`COLLECTIVE_TAG_BASE`];
/// collective operations stamp their traffic with tags at or above it so that
/// point-to-point traffic on the same communicator context can never match a
/// collective's internal messages.
pub(crate) const COLLECTIVE_TAG_BASE: i32 = i32::MAX - (1 << 24);

/// Source-rank pattern for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match messages from exactly this (communicator-local) rank.
    Rank(usize),
    /// Match messages from any rank (`MPI_ANY_SOURCE`).
    Any,
}

impl Src {
    /// Does this pattern accept a message from `rank`?
    pub(crate) fn matches(&self, rank: usize) -> bool {
        match self {
            Src::Rank(r) => *r == rank,
            Src::Any => true,
        }
    }
}

impl From<usize> for Src {
    fn from(r: usize) -> Self {
        Src::Rank(r)
    }
}

/// Tag pattern for a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Match messages with exactly this tag.
    Value(i32),
    /// Match messages with any tag (`MPI_ANY_TAG`).
    Any,
}

impl Tag {}

impl From<i32> for Tag {
    fn from(t: i32) -> Self {
        Tag::Value(t)
    }
}

/// Copy-on-write unwrap of a shared payload into an owned box; the flag is
/// `true` when a deep clone was required (other handles still live).
pub(crate) type UnwrapShared = fn(Arc<dyn Any + Send + Sync>) -> (Box<dyn Any + Send>, bool);

/// A message payload in flight.
///
/// Payloads travel as type-erased values because all ranks share one address
/// space; the typed façade lives in [`crate::Comm`]. Point-to-point sends move
/// the value ([`Payload::Owned`]); multicast paths post one `Arc`-shared
/// allocation to many mailboxes ([`Payload::Shared`]) so a p-rank broadcast
/// performs O(1) payload allocations instead of O(p) deep copies.
pub enum Payload {
    /// A uniquely-owned value, moved from sender to receiver.
    Owned(Box<dyn Any + Send>),
    /// One allocation shared among many receivers. `unwrap_value` is captured
    /// at construction (where the concrete type is known) and performs the
    /// copy-on-write unwrap: zero-copy when this handle is the last one,
    /// a single deep clone otherwise.
    Shared {
        /// The shared value.
        value: Arc<dyn Any + Send + Sync>,
        /// Copy-on-write unwrap of `value`, captured where `T` is known.
        unwrap_value: UnwrapShared,
    },
}

impl Payload {
    /// Wraps a value for single-receiver delivery.
    pub fn owned<T: Any + Send>(value: T) -> Self {
        Payload::Owned(Box::new(value))
    }

    /// Wraps an `Arc` handle for shared delivery to one of many receivers.
    pub fn shared<T: Any + Send + Sync + Clone>(value: Arc<T>) -> Self {
        Payload::Shared {
            value,
            unwrap_value: |any| {
                let arc =
                    any.downcast::<T>().expect("unwrap_value is captured with the payload type");
                match Arc::try_unwrap(arc) {
                    Ok(v) => (Box::new(v), false),
                    Err(arc) => (Box::new((*arc).clone()), true),
                }
            },
        }
    }

    /// Another handle to the same payload: O(1) for shared payloads, `None`
    /// for owned ones (the caller must supply its own replication strategy).
    pub(crate) fn another_handle(&self) -> Option<Payload> {
        match self {
            Payload::Owned(_) => None,
            Payload::Shared { value, unwrap_value } => {
                Some(Payload::Shared { value: Arc::clone(value), unwrap_value: *unwrap_value })
            }
        }
    }

    /// Extracts the value as owned `T`. Shared payloads unwrap copy-on-write;
    /// the flag reports whether a deep clone happened. On type mismatch the
    /// payload is returned unchanged.
    pub fn into_owned<T: Any>(self) -> Result<(T, bool), Payload> {
        match self {
            Payload::Owned(b) => match b.downcast::<T>() {
                Ok(v) => Ok((*v, false)),
                Err(b) => Err(Payload::Owned(b)),
            },
            Payload::Shared { value, unwrap_value } => {
                if !(*value).is::<T>() {
                    return Err(Payload::Shared { value, unwrap_value });
                }
                let (boxed, cloned) = unwrap_value(value);
                let v = boxed.downcast::<T>().expect("unwrap_value preserves the payload type");
                Ok((*v, cloned))
            }
        }
    }

    /// Extracts the value as `Arc<T>` without copying the payload. Owned
    /// payloads are moved into a fresh `Arc`; the flag reports whether that
    /// (O(1), pointer-sized) promotion happened. On type mismatch the payload
    /// is returned unchanged.
    pub(crate) fn into_shared<T: Any + Send + Sync>(self) -> Result<(Arc<T>, bool), Payload> {
        match self {
            Payload::Owned(b) => match b.downcast::<T>() {
                Ok(v) => Ok((Arc::new(*v), true)),
                Err(b) => Err(Payload::Owned(b)),
            },
            Payload::Shared { value, unwrap_value } => match value.downcast::<T>() {
                Ok(arc) => Ok((arc, false)),
                Err(value) => Err(Payload::Shared { value, unwrap_value }),
            },
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Owned(_) => f.write_str("Payload::Owned"),
            Payload::Shared { value, .. } => {
                write!(f, "Payload::Shared(handles={})", Arc::strong_count(value))
            }
        }
    }
}

/// A message in flight: routing metadata plus the type-erased payload.
pub struct Envelope {
    /// Global (world) rank of the sender.
    pub src_global: usize,
    /// Communicator-local rank of the sender, as seen by the receiver's
    /// communicator.
    pub src_local: usize,
    /// Communicator context the message belongs to.
    pub context: u32,
    /// User or collective tag.
    pub tag: i32,
    /// Monotone per-mailbox arrival sequence, used for FIFO matching.
    pub seq: u64,
    /// Wire size the payload reported at send time.
    pub bytes: usize,
    /// Integrity checksum over the envelope metadata, stamped at send time.
    /// The fault plane damages it to model payload truncation/corruption;
    /// receivers detect the damage via [`Envelope::verify`].
    pub checksum: u64,
    /// Under a network model: the instant the message becomes visible to
    /// receives. `None` = immediately deliverable.
    pub deliver_at: Option<Instant>,
    /// The payload itself.
    pub payload: Payload,
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("src_global", &self.src_global)
            .field("src_local", &self.src_local)
            .field("context", &self.context)
            .field("tag", &self.tag)
            .field("seq", &self.seq)
            .field("bytes", &self.bytes)
            .field("checksum", &self.checksum)
            .finish_non_exhaustive()
    }
}

impl Envelope {
    /// Builds an envelope with a freshly computed checksum (`seq` is
    /// assigned by the destination mailbox on push).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        src_global: usize,
        src_local: usize,
        context: u32,
        tag: i32,
        bytes: usize,
        deliver_at: Option<Instant>,
        payload: Payload,
    ) -> Self {
        let checksum = Self::expected_checksum(src_global, context, tag, bytes);
        Envelope {
            src_global,
            src_local,
            context,
            tag,
            seq: 0,
            bytes,
            checksum,
            deliver_at,
            payload,
        }
    }

    /// The checksum a well-formed envelope with these fields must carry.
    pub(crate) fn expected_checksum(
        src_global: usize,
        context: u32,
        tag: i32,
        bytes: usize,
    ) -> u64 {
        // splitmix64-style mix of the metadata words.
        let mut h = (src_global as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ ((context as u64) << 32 | (tag as u32 as u64))
            ^ (bytes as u64).rotate_left(17);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// Whether the envelope's checksum matches its metadata.
    pub fn verify(&self) -> bool {
        self.checksum
            == Self::expected_checksum(self.src_global, self.context, self.tag, self.bytes)
    }

    /// Damages the checksum to model in-flight payload corruption or
    /// truncation; [`Envelope::verify`] will fail afterwards.
    pub fn corrupt(&mut self) {
        self.checksum ^= 0xdead_beef_dead_beef;
    }
}

/// Metadata about a matched but not yet received message, as returned by
/// probe operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageInfo {
    /// Communicator-local rank of the sender.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
    /// Wire size of the payload in bytes.
    pub bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src_local: usize, context: u32, tag: i32) -> Envelope {
        Envelope::new(src_local, src_local, context, tag, 0, None, Payload::owned(()))
    }

    #[test]
    fn src_matching() {
        assert!(Src::Any.matches(3));
        assert!(Src::Rank(3).matches(3));
        assert!(!Src::Rank(3).matches(4));
        assert_eq!(Src::from(5usize), Src::Rank(5));
    }

    #[test]
    fn tag_converts_from_i32() {
        assert_eq!(Tag::from(9), Tag::Value(9));
    }

    #[test]
    fn collective_tags_do_not_collide_with_small_user_tags() {
        const { assert!(COLLECTIVE_TAG_BASE > 1 << 20) }
    }

    #[test]
    fn fresh_envelope_verifies() {
        assert!(env(1, 2, 3).verify());
    }

    #[test]
    fn corruption_is_detected() {
        let mut e = env(1, 2, 3);
        e.corrupt();
        assert!(!e.verify());
        e.corrupt();
        assert!(e.verify(), "corruption is an involution on the checksum");
    }

    #[test]
    fn owned_payload_roundtrips_without_clone() {
        let p = Payload::owned(vec![1u32, 2, 3]);
        assert!(!matches!(p, Payload::Shared { .. }));
        let (v, cloned) = p.into_owned::<Vec<u32>>().unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert!(!cloned);
    }

    #[test]
    fn shared_payload_last_handle_unwraps_without_clone() {
        let p = Payload::shared(Arc::new(String::from("hi")));
        let (v, cloned) = p.into_owned::<String>().unwrap();
        assert_eq!(v, "hi");
        assert!(!cloned, "sole handle must unwrap in place");
    }

    #[test]
    fn shared_payload_clones_only_while_other_handles_live() {
        let arc = Arc::new(vec![9u64; 4]);
        let p = Payload::shared(Arc::clone(&arc));
        let (v, cloned) = p.into_owned::<Vec<u64>>().unwrap();
        assert_eq!(v, *arc);
        assert!(cloned, "a live outside handle forces a copy-on-write clone");
    }

    #[test]
    fn shared_payload_into_shared_is_zero_copy() {
        let arc = Arc::new(vec![1.0f64; 8]);
        let p = Payload::shared(Arc::clone(&arc));
        let (got, promoted) = p.into_shared::<Vec<f64>>().unwrap();
        assert!(Arc::ptr_eq(&got, &arc));
        assert!(!promoted);
        let (promoted_arc, promoted) = Payload::owned(7u32).into_shared::<u32>().unwrap();
        assert_eq!(*promoted_arc, 7);
        assert!(promoted, "owned payloads are promoted into a fresh Arc");
    }

    #[test]
    fn payload_type_mismatch_returns_payload() {
        let p = Payload::shared(Arc::new(1u8));
        let p = p.into_owned::<u16>().unwrap_err();
        let (v, _) = p.into_owned::<u8>().unwrap();
        assert_eq!(v, 1, "mismatch must hand the payload back intact");
        assert!(Payload::owned(1u8).into_shared::<u16>().is_err());
    }

    #[test]
    fn another_handle_shares_the_allocation() {
        let p = Payload::shared(Arc::new(5i64));
        let dup = p.another_handle().expect("shared payloads replicate in O(1)");
        let (a, _) = p.into_owned::<i64>().unwrap();
        let (b, _) = dup.into_owned::<i64>().unwrap();
        assert_eq!((a, b), (5, 5));
        assert!(Payload::owned(5i64).another_handle().is_none());
    }

    #[test]
    fn checksum_depends_on_metadata() {
        let a = Envelope::expected_checksum(0, 0, 0, 0);
        assert_ne!(a, Envelope::expected_checksum(1, 0, 0, 0));
        assert_ne!(a, Envelope::expected_checksum(0, 1, 0, 0));
        assert_ne!(a, Envelope::expected_checksum(0, 0, 1, 0));
        assert_ne!(a, Envelope::expected_checksum(0, 0, 0, 1));
    }
}
