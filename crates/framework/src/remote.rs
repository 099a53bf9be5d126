//! Distributed-framework ports: the values RMI carries over an
//! inter-communicator.
//!
//! "In contrast, components in a distributed framework each run in
//! different sets of processes … port invocations become a refined form of
//! Remote Method Invocation" (paper §2.1, Figure 2 right). This module
//! holds what every invocation protocol shares — marshalled payloads, the
//! service trait a provider implements, typed NACK payloads and the
//! retry [`CallPolicy`] — plus a minimal port-name directory. The wire
//! protocols themselves (serial RMI, collective and subset PRMI) and their
//! one caller and one serve loop live in the `mxn-prmi` crate.

use std::any::Any;
use std::time::Duration;

use mxn_runtime::{splitmix64, unit, MsgSize};

use crate::error::{FrameworkError, Result};

/// Re-creates a marshalled value: how a payload built with
/// [`AnyPayload::replicable`] is copied for fan-out and replayed from
/// dedup caches.
pub type Replicator = std::sync::Arc<dyn Fn() -> AnyPayload + Send + Sync>;

/// A type-erased argument or result with explicit wire-size accounting.
///
/// The wrapped value is `Sync` so envelopes carrying payloads (requests,
/// responses) can travel as shared multicast envelopes — one allocation
/// fanned out to every rank of a parallel component.
pub struct AnyPayload {
    value: Box<dyn Any + Send + Sync>,
    bytes: usize,
    /// Present on payloads built with [`AnyPayload::replicable`]: lets the
    /// PRMI layer duplicate the marshalled value for ghost invocations and
    /// ghost return values.
    replicator: Option<Replicator>,
}

impl AnyPayload {
    /// Wraps a value, capturing its wire size.
    pub fn new<T: Any + Send + Sync + MsgSize>(value: T) -> Self {
        let bytes = value.msg_size();
        AnyPayload { value: Box::new(value), bytes, replicator: None }
    }

    /// Wraps a clonable value so the payload can be duplicated — required
    /// for collective-call results that may fan out as ghost return values
    /// (more callers than providers).
    pub fn replicable<T: Any + Send + Sync + MsgSize + Clone>(value: T) -> Self {
        let proto = value.clone();
        let bytes = value.msg_size();
        AnyPayload {
            value: Box::new(value),
            bytes,
            replicator: Some(std::sync::Arc::new(move || AnyPayload::replicable(proto.clone()))),
        }
    }

    /// Returns the payload's replicator, if it was built with
    /// [`AnyPayload::replicable`].
    pub fn take_replicator(&self) -> Option<Replicator> {
        self.replicator.clone()
    }

    /// Duplicates the payload, if it was built with
    /// [`AnyPayload::replicable`]. The copy is itself replicable.
    pub fn replicate(&self) -> Option<AnyPayload> {
        self.replicator.as_ref().map(|rep| rep())
    }

    /// Wire size of the wrapped value.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether the wrapped value is a `T` (peek without consuming — used by
    /// callers to recognize typed NACK payloads like [`MethodNotFound`]
    /// before committing to a downcast).
    pub fn is<T: 'static>(&self) -> bool {
        self.value.is::<T>()
    }

    /// Recovers the wrapped value.
    pub fn downcast<T: 'static>(self) -> Result<T> {
        self.value.downcast::<T>().map(|b| *b).map_err(|_| FrameworkError::PortDowncast {
            port: "<rmi payload>".to_string(),
            requested: std::any::type_name::<T>(),
        })
    }
}

impl MsgSize for AnyPayload {
    fn msg_size(&self) -> usize {
        self.bytes
    }
}

/// Typed NACK payload a server returns when a request names a method id the
/// service does not implement. Callers recognize it with
/// [`AnyPayload::is`] and surface a typed `MethodNotFound` error instead of
/// a downcast error — and the provider keeps serving instead of unwinding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodNotFound {
    /// The unknown method id the client asked for.
    pub method: u32,
}

impl MsgSize for MethodNotFound {
    fn msg_size(&self) -> usize {
        4
    }
}

/// Why an [`Overloaded`] NACK shed the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Admission control refused the request outright: the shard's
    /// in-flight budget was exhausted when the request arrived.
    AdmissionFull,
    /// The request was admitted but aged out of the shard queue before an
    /// executor reached it (`ServePolicy::queue_deadline`).
    QueueDeadline,
}

/// Typed NACK payload a server returns when admission control sheds a
/// request instead of queueing it unboundedly. Carries the shard's load at
/// shed time so the client's [`CallPolicy`] can scale its retry backoff
/// with *observed* load rather than guessing — a depth-1 blip and a
/// thousand-deep pileup warrant very different pauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    /// The shard's in-flight requests (queued plus executing) at the
    /// moment the request was shed — the count admission control compares
    /// with its budget, never less than the queue length.
    pub queue_depth: u32,
    /// Whether the request was refused at admission or expired in queue.
    pub reason: ShedReason,
}

impl MsgSize for Overloaded {
    fn msg_size(&self) -> usize {
        4 + 1
    }
}

/// Outcome of one [`RemoteService::dispatch`].
///
/// `Reply` carries the marshalled result (dropped for one-way methods);
/// `MethodNotFound` tells the serve loop to NACK the caller with a typed
/// [`MethodNotFound`] payload. A misbehaving client can therefore never
/// take down a provider: an unknown method id is an answered error, not a
/// panic in the serve loop.
pub enum Dispatch {
    /// The method executed; here is its marshalled result.
    Reply(AnyPayload),
    /// The service does not implement the requested method id.
    MethodNotFound,
}

impl From<AnyPayload> for Dispatch {
    fn from(p: AnyPayload) -> Self {
        Dispatch::Reply(p)
    }
}

/// A provides-port implementation servable over RMI: dispatch by method id.
pub trait RemoteService: Send + Sync {
    /// Handles one invocation. One-way methods still return a payload; it
    /// is dropped by the server. Return [`Dispatch::MethodNotFound`] for
    /// method ids the service does not implement — never panic.
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch;

    /// Dispatches a batch of same-method invocations in one call — how the
    /// serving plane and batched collective calls let a service amortize
    /// per-invocation overhead (shared lock acquisition, vectorized math,
    /// one allocation for N results). Must return exactly `args.len()`
    /// outcomes, position-aligned: **result `i` answers argument `i`**.
    /// The default dispatches item by item.
    fn dispatch_batch(&self, method: u32, args: Vec<AnyPayload>) -> Vec<Dispatch> {
        args.into_iter().map(|arg| self.dispatch(method, arg)).collect()
    }
}

// Pinned by the out-of-tree benchmark: `benchmark/src/prmi.rs` is the sole
// user of this marker (it writes `impl BatchService for Xor {}`); batching
// is `RemoteService::dispatch_batch`.
#[doc(hidden)]
pub trait BatchService: RemoteService {}

/// Failure policy of one invocation over a lossy or failing transport:
/// `deadline` bounds every wait for a reply, a serial call retransmits
/// under one idempotency token up to `max_retries` times with doubling
/// `backoff`, and a collective call with `recover` heals and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallPolicy {
    /// How long one attempt waits for the response before retrying.
    pub deadline: Duration,
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Pause before the first retry; doubles on each further retry.
    pub backoff: Duration,
    /// Deterministic jitter seed for the retry pauses. `None` sleeps the
    /// exact `backoff` schedule; `Some(seed)` draws each pause uniformly
    /// from `[backoff/2, backoff)` using the seed and the attempt number,
    /// so replaying the same seed (typically `Process::fault_seed()`)
    /// replays the same pauses while distinct ranks decorrelate.
    pub jitter: Option<u64>,
    /// Whether collective PRMI calls made under this policy may heal the
    /// intercommunicator (revoke, shrink to survivors) and retry the same
    /// call sequence after a failed commit vote. Only the collective
    /// protocol can heal: other invocations reject a recovering policy.
    pub recover: bool,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy {
            deadline: Duration::from_millis(200),
            max_retries: 3,
            backoff: Duration::from_millis(5),
            jitter: None,
            recover: false,
        }
    }
}

impl CallPolicy {
    /// Returns this policy with the jitter seed set (builder style). Pass
    /// `Process::fault_seed()` to tie retry pacing to the fault plane's
    /// replayable RNG.
    pub fn seeded(mut self, seed: Option<u64>) -> Self {
        self.jitter = seed;
        self
    }

    /// Returns this policy with collective-call recovery enabled.
    pub fn recovering(mut self) -> Self {
        self.recover = true;
        self
    }

    /// The pause before retry `attempt` (0-based) given the doubled `base`
    /// backoff for that attempt: `base` exactly without a jitter seed,
    /// otherwise a deterministic draw from `[base/2, base)`.
    pub fn retry_pause(&self, base: Duration, attempt: u32) -> Duration {
        match self.jitter {
            None => base,
            Some(seed) => {
                let draw = unit(splitmix64(seed ^ (u64::from(attempt) + 1)));
                let half = base.as_secs_f64() / 2.0;
                Duration::from_secs_f64(half + half * draw)
            }
        }
    }

    /// Load-scaling factor for a backoff pause given the queue depth an
    /// [`Overloaded`] NACK reported: `1 + ⌊log₂(depth + 1)⌋`, capped at
    /// 16×. Logarithmic so the pause tracks the *order of magnitude* of
    /// the pileup (depth 1 → 2×, depth 1000 → 10×) without any single
    /// client stalling for minutes; purely arithmetic, so the same
    /// observed depth always yields the same factor (determinism is
    /// preserved end to end — the jitter draw stays seeded).
    pub fn load_factor(queue_depth: u32) -> u32 {
        (u32::BITS - queue_depth.saturating_add(1).leading_zeros()).min(16)
    }

    /// The pause before retry `attempt` when the previous attempt was shed
    /// with an [`Overloaded`] NACK carrying `queue_depth`: the base backoff
    /// stretched by [`CallPolicy::load_factor`], then jittered exactly as
    /// [`CallPolicy::retry_pause`].
    pub fn retry_pause_loaded(&self, base: Duration, attempt: u32, queue_depth: u32) -> Duration {
        self.retry_pause(base.saturating_mul(Self::load_factor(queue_depth)), attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter service: method 0 = add(delta) -> new total,
    /// method 1 = reset.
    struct Counter(parking_lot::Mutex<i64>);
    impl RemoteService for Counter {
        fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
            match method {
                0 => {
                    let delta: i64 = arg.downcast().unwrap();
                    let mut v = self.0.lock();
                    *v += delta;
                    AnyPayload::new(*v).into()
                }
                1 => {
                    *self.0.lock() = 0;
                    AnyPayload::new(()).into()
                }
                _ => Dispatch::MethodNotFound,
            }
        }
    }

    #[test]
    fn payload_type_confusion_is_detected() {
        let p = AnyPayload::new(3.5f64);
        assert_eq!(p.bytes(), 8);
        assert!(p.downcast::<String>().is_err());
    }

    #[test]
    fn unseeded_policy_keeps_exact_backoff() {
        let policy = CallPolicy::default();
        let base = Duration::from_millis(40);
        assert_eq!(policy.retry_pause(base, 0), base);
        assert_eq!(policy.retry_pause(base, 7), base);
    }

    #[test]
    fn seeded_jitter_is_deterministic_and_bounded() {
        let a = CallPolicy::default().seeded(Some(0xfeed));
        let b = CallPolicy::default().seeded(Some(0xfeed));
        let c = CallPolicy::default().seeded(Some(0xbeef));
        let base = Duration::from_millis(40);
        let mut diverged = false;
        for attempt in 0..8 {
            let pa = a.retry_pause(base, attempt);
            assert_eq!(pa, b.retry_pause(base, attempt), "same seed replays the same pauses");
            assert!(pa >= base / 2 && pa < base, "pause {pa:?} outside [base/2, base)");
            diverged |= pa != c.retry_pause(base, attempt);
        }
        assert!(diverged, "distinct seeds should decorrelate");
    }

    #[test]
    fn seeded_jitter_varies_across_attempts() {
        let policy = CallPolicy::default().seeded(Some(1));
        let base = Duration::from_millis(64);
        let pauses: Vec<Duration> = (0..4).map(|i| policy.retry_pause(base, i)).collect();
        assert!(pauses.windows(2).any(|w| w[0] != w[1]), "{pauses:?}");
    }

    #[test]
    fn load_factor_tracks_order_of_magnitude() {
        assert_eq!(CallPolicy::load_factor(0), 1);
        assert_eq!(CallPolicy::load_factor(1), 2);
        assert_eq!(CallPolicy::load_factor(3), 3);
        assert_eq!(CallPolicy::load_factor(7), 4);
        assert_eq!(CallPolicy::load_factor(1000), 10);
        assert_eq!(CallPolicy::load_factor(u32::MAX), 16, "factor is capped");
    }

    #[test]
    fn loaded_pause_scales_with_depth_and_stays_deterministic() {
        let policy = CallPolicy::default().seeded(Some(0xfeed));
        let base = Duration::from_millis(8);
        for attempt in 0..4 {
            let calm = policy.retry_pause_loaded(base, attempt, 0);
            let deep = policy.retry_pause_loaded(base, attempt, 1 << 12);
            assert_eq!(calm, policy.retry_pause(base, attempt), "depth 0 is the plain schedule");
            assert!(deep > calm, "observed load must stretch the pause");
            assert_eq!(
                deep,
                policy.retry_pause_loaded(base, attempt, 1 << 12),
                "same depth + seed replays the same pause"
            );
            // Jitter bounds hold around the scaled base.
            let scaled = base * CallPolicy::load_factor(1 << 12);
            assert!(deep >= scaled / 2 && deep < scaled);
        }
    }

    #[test]
    fn batch_service_default_matches_item_dispatch() {
        let svc = Counter(parking_lot::Mutex::new(0));
        let outs =
            svc.dispatch_batch(0, (1..=4).map(|d| AnyPayload::new(d as i64)).collect::<Vec<_>>());
        assert_eq!(outs.len(), 4);
        let totals: Vec<i64> = outs
            .into_iter()
            .map(|d| match d {
                Dispatch::Reply(p) => p.downcast::<i64>().unwrap(),
                Dispatch::MethodNotFound => panic!("known method"),
            })
            .collect();
        assert_eq!(totals, vec![1, 3, 6, 10], "position i answers argument i, in order");
        let outs = svc.dispatch_batch(99, vec![AnyPayload::new(1i64)]);
        assert!(matches!(outs[0], Dispatch::MethodNotFound));
    }

    #[test]
    fn overloaded_nack_payload_is_recognizable() {
        let p = AnyPayload::replicable(Overloaded {
            queue_depth: 37,
            reason: ShedReason::AdmissionFull,
        });
        assert_eq!(p.bytes(), 5);
        assert!(p.is::<Overloaded>());
        let copy = p.replicate().expect("replicable");
        let shed: Overloaded = copy.downcast().unwrap();
        assert_eq!(shed.queue_depth, 37);
        assert_eq!(shed.reason, ShedReason::AdmissionFull);
    }
}
