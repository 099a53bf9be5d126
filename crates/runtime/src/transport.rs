//! The transport seam: where envelopes leave the sender's hands.
//!
//! Everything above this layer — communicators, collectives, the fault
//! plane, RMI serve loops — speaks [`Envelope`]s. Everything below it is a
//! delivery mechanism. [`Transport`] is the boundary: an object that accepts
//! a fully-formed envelope addressed to a destination rank and gets it into
//! that rank's [`Mailbox`], by whatever means.
//!
//! Two implementations exist:
//!
//! * [`InProcTransport`] (here): ranks are threads, delivery is a mutex-
//!   guarded push into the destination's mailbox. Payloads move or share an
//!   `Arc` — zero serialization, zero copies. This is the fast path every
//!   [`crate::World`] uses, and [`crate::shared::WorldShared`] stores it as
//!   a concrete field (no dynamic dispatch on the hot path).
//! * `UdsTransport` (in the `mxn-wire` crate): ranks are OS processes,
//!   delivery is a length-prefixed CRC-checked frame over a Unix-domain
//!   socket, and a reader thread on the far side pushes the decoded
//!   envelope into a local mailbox. Payloads must be byte-encodable
//!   (`Payload::Shared` handles cannot cross a process boundary).
//!
//! The trait deliberately sits *below* the fault plane and the network
//! model: `WorldShared::send_envelope` applies verdicts and delivery clocks
//! first, then hands the surviving envelope to the transport. A wire
//! transport injects its own frame-level faults (bit flips on real bytes)
//! instead, which is the point: the same judgement, different physics.

use crate::envelope::Envelope;
use crate::error::Result;
use crate::fault::Liveness;
use crate::mailbox::Mailbox;
use crate::membership::Revocations;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A delivery mechanism for envelopes.
///
/// Implementations must be usable from every rank concurrently, must
/// preserve per-`(src, dst)` send order for envelopes they deliver, and
/// must make delivered envelopes visible through the destination's mailbox
/// (waking its blocked receivers). They are *not* responsible for fault
/// verdicts, traffic accounting, or revocation checks — the caller has
/// already applied those.
pub trait Transport: Send + Sync {
    /// A short static label ("inproc", "uds") for stats and traces.
    fn kind(&self) -> &'static str;

    /// Number of ranks this transport can address *right now* (the
    /// current membership).
    fn size(&self) -> usize;

    /// Upper bound on ranks this transport could ever address. Equal to
    /// [`Transport::size`] for fixed-membership transports; elastic
    /// transports (a wire mesh with parked spare capacity) report the
    /// preallocated ceiling so callers can size rank-indexed tables once.
    fn capacity(&self) -> usize {
        self.size()
    }

    /// Delivers one envelope to `dst`'s mailbox.
    fn deliver(&self, dst: usize, env: Envelope) -> Result<()>;

    /// Delivers two envelopes to `dst` atomically with respect to other
    /// deliveries (used by the fault plane's duplicate verdict, so the
    /// duplicate and the original land adjacently).
    fn deliver_pair(&self, dst: usize, first: Envelope, second: Envelope) -> Result<()>;

    /// Wakes every receiver blocked on any mailbox this transport feeds
    /// (abort, revocation, and death propagation).
    fn wake_all(&self);
}

/// The in-process transport: one mailbox per rank, delivery by moving the
/// envelope under the destination's bucket lock. This is the zero-copy path
/// the benchmarks gate — `deliver` is exactly the `mailbox.push` the
/// runtime always did.
pub struct InProcTransport {
    mailboxes: Vec<Mailbox>,
}

impl InProcTransport {
    /// One mailbox per rank, all sharing the world's abort flag, liveness
    /// registry and revocation table.
    pub(crate) fn new(
        n: usize,
        abort: Arc<AtomicBool>,
        liveness: Arc<Liveness>,
        revocations: Arc<Revocations>,
    ) -> Self {
        let mailboxes = (0..n)
            .map(|_| Mailbox::new(abort.clone(), liveness.clone(), revocations.clone()))
            .collect();
        InProcTransport { mailboxes }
    }

    /// Direct access to a rank's mailbox (receive side needs matching,
    /// probing and blocking — richer than the deliver-only trait surface).
    pub(crate) fn mailbox(&self, rank: usize) -> &Mailbox {
        &self.mailboxes[rank]
    }
}

impl Transport for InProcTransport {
    fn kind(&self) -> &'static str {
        "inproc"
    }

    fn size(&self) -> usize {
        self.mailboxes.len()
    }

    fn deliver(&self, dst: usize, env: Envelope) -> Result<()> {
        self.mailboxes[dst].push(env);
        Ok(())
    }

    fn deliver_pair(&self, dst: usize, first: Envelope, second: Envelope) -> Result<()> {
        self.mailboxes[dst].post_many([first, second]);
        Ok(())
    }

    fn wake_all(&self) {
        for m in &self.mailboxes {
            m.wake_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{Payload, Src, Tag};

    fn transport(n: usize) -> InProcTransport {
        InProcTransport::new(
            n,
            Arc::new(AtomicBool::new(false)),
            Arc::new(Liveness::new(n)),
            Arc::new(Revocations::new()),
        )
    }

    fn env(src: usize, tag: i32, v: u32) -> Envelope {
        Envelope::new(src, src, 0, tag, 4, None, Payload::owned(v))
    }

    #[test]
    fn deliver_lands_in_destination_mailbox() {
        let t = transport(2);
        t.deliver(1, env(0, 7, 42)).unwrap();
        let got = t.mailbox(1).try_take(0, Src::Rank(0), Tag::Value(7)).unwrap();
        assert_eq!(got.payload.into_owned::<u32>().unwrap().0, 42);
        assert_eq!(t.kind(), "inproc");
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn deliver_pair_is_adjacent_and_ordered() {
        let t = transport(2);
        t.deliver_pair(1, env(0, 7, 1), env(0, 7, 2)).unwrap();
        assert_eq!(t.mailbox(1).len(), 2);
        let a = t.mailbox(1).try_take(0, Src::Any, Tag::Any).unwrap();
        let b = t.mailbox(1).try_take(0, Src::Any, Tag::Any).unwrap();
        assert_eq!(a.payload.into_owned::<u32>().unwrap().0, 1);
        assert_eq!(b.payload.into_owned::<u32>().unwrap().0, 2);
    }

    #[test]
    fn trait_object_delivery_matches_concrete() {
        // The wire crate holds the transport as `dyn Transport`; the seam
        // must behave identically through the vtable.
        let t = transport(3);
        let dyn_t: &dyn Transport = &t;
        dyn_t.deliver(2, env(1, 9, 7)).unwrap();
        dyn_t.wake_all();
        assert_eq!(t.mailbox(2).len(), 1);
    }
}
