//! Independent (one-to-one) invocations: the serial RMI protocol.
//!
//! "Independent invocations are provided for normal serial function call
//! semantics" (paper §4.2) — and Damevski's model pairs each caller process
//! with one callee process. A caller sends one [`RmiRequest`] to one
//! provider rank; the provider's loop answers requests from any remote
//! rank, executes each idempotency token at most once, and NACKs
//! undecodable requests instead of unwinding.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mxn_framework::{AnyPayload, Dispatch, MethodNotFound, RemoteService, Replicator};
use mxn_runtime::{InterComm, MsgSize, RuntimeError, Src};

use crate::error::{PrmiError, Result};
use crate::invocation::{
    no_reply, reply, Endpoint, Invocation, ServeStats, Target, METHOD_SHUTDOWN,
};

/// Tag carrying RMI requests.
pub(crate) const RMI_REQ_TAG: i32 = 0x524d; // "RM"
/// Tag carrying RMI responses.
pub(crate) const RMI_RESP_TAG: i32 = 0x5252; // "RR"
/// `call_id` of a NACK response: the server received a request it could not
/// decode (corrupt or mistyped) and is asking the sender to retry.
pub(crate) const NACK_CALL_ID: u64 = u64::MAX;

/// How often a blocked server re-checks client liveness, so a client that
/// dies without sending its shutdown does not wedge the serve loop.
const SERVE_LIVENESS_POLL: Duration = Duration::from_millis(25);

/// Process-wide idempotency-token source. Token 0 means "no token": the
/// server only deduplicates requests that carry a non-zero token, so plain
/// (unretried) calls never pay for or collide in the dedup table.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// An RMI request envelope.
pub(crate) struct RmiRequest {
    /// Method selector on the remote port.
    pub method: u32,
    /// Client-side correlation id.
    pub call_id: u64,
    /// Idempotency token: non-zero on policy-governed (retryable) calls.
    /// Requests with the same `(sender, token)` pair are executed at most
    /// once by the server; 0 disables deduplication.
    pub token: u64,
    /// One-way methods expect no response (paper §2.4).
    pub oneway: bool,
    /// The marshalled argument.
    pub arg: AnyPayload,
}

impl MsgSize for RmiRequest {
    fn msg_size(&self) -> usize {
        4 + 8 + 8 + 1 + self.arg.msg_size()
    }
}

/// An RMI response envelope.
pub(crate) struct RmiResponse {
    /// Correlates with [`RmiRequest::call_id`].
    pub call_id: u64,
    /// The marshalled return value.
    pub result: AnyPayload,
}

impl MsgSize for RmiResponse {
    fn msg_size(&self) -> usize {
        8 + self.result.msg_size()
    }
}

/// Caller body of a serial call. Without a policy it blocks for the reply.
/// Under a `CallPolicy` it retransmits the request with one idempotency
/// token until a response arrives, the provider dies, or the attempts run
/// out: a provider that already executed the call (but whose response was
/// lost) re-sends the cached result instead of dispatching again —
/// exactly-once execution, at-least-once delivery, provided the service
/// builds its results with [`AnyPayload::replicable`]. An `Overloaded` shed
/// is retried after a pause scaled by the depth it reported; a
/// `MethodNotFound` NACK is authoritative and fails fast.
pub(crate) fn call<A, R>(ep: &mut Endpoint, ic: &InterComm, inv: Invocation<'_, A>) -> Result<R>
where
    A: Send + Sync + MsgSize + Clone + 'static,
    R: 'static,
{
    let Invocation { target: Target::Independent(provider), method, arg, oneway, policy, .. } = inv
    else {
        unreachable!("Endpoint::call dispatches on the target")
    };
    let call_id = ep.next_call;
    ep.next_call += 1;
    let _span = mxn_trace::span(
        mxn_trace::EventId::RmiCall,
        [method as u64, call_id, provider as u64, u64::from(oneway)],
    );
    let retrying = policy.is_some() && !oneway;
    let token = if retrying { NEXT_TOKEN.fetch_add(1, Ordering::Relaxed) } else { 0 };
    let policy = policy.unwrap_or_default();
    let attempts = if retrying { policy.max_retries + 1 } else { 1 };
    let mut backoff = policy.backoff;
    // Queue depth of the most recent `Overloaded` shed, when the last
    // failure was a shed rather than a timeout.
    let mut shed_depth: Option<u32> = None;
    let mut arg = Some(arg);
    for attempt in 0..attempts {
        let attempt_arg = if attempt + 1 < attempts { arg.clone() } else { arg.take() };
        let arg = AnyPayload::new(attempt_arg.expect("one argument per attempt"));
        // A dead provider fails the send fast.
        ic.send(provider, RMI_REQ_TAG, RmiRequest { method, call_id, token, oneway, arg })?;
        if oneway {
            return no_reply();
        }
        let deadline = retrying.then(|| Instant::now() + policy.deadline);
        shed_depth = None;
        loop {
            let got = match deadline {
                None => ic.recv::<RmiResponse>(provider, RMI_RESP_TAG),
                Some(d) => ic.recv_timeout(
                    provider,
                    RMI_RESP_TAG,
                    d.saturating_duration_since(Instant::now()),
                ),
            };
            match got {
                Ok(resp) if resp.call_id == call_id => match reply(method, resp.result) {
                    Err(PrmiError::Overloaded { queue_depth, .. }) if retrying => {
                        shed_depth = Some(queue_depth);
                        break;
                    }
                    done => return done,
                },
                // A stale duplicate of an earlier call, or a NACK asking
                // for a retransmission: keep draining.
                Ok(_) => continue,
                // A response corrupted in flight: the retransmission will
                // fetch the provider's cached copy.
                Err(RuntimeError::Corrupt { .. }) if retrying => continue,
                Err(RuntimeError::Timeout { .. }) if retrying => break,
                Err(e) => return Err(e.into()),
            }
        }
        std::thread::sleep(match shed_depth {
            Some(depth) => policy.retry_pause_loaded(backoff, attempt, depth),
            None => policy.retry_pause(backoff, attempt),
        });
        backoff = backoff.saturating_mul(2);
    }
    Err(match shed_depth {
        Some(queue_depth) => PrmiError::Overloaded { method, queue_depth },
        None => PrmiError::RetriesExhausted { method, attempts },
    })
}

/// Tells every provider rank this caller rank is done (a serial loop exits
/// once every remote rank has done so).
pub(crate) fn shutdown(ic: &InterComm) -> Result<()> {
    for provider in 0..ic.remote_size() {
        let arg = AnyPayload::new(());
        let req =
            RmiRequest { method: METHOD_SHUTDOWN, call_id: u64::MAX, token: 0, oneway: true, arg };
        ic.send(provider, RMI_REQ_TAG, req)?;
    }
    Ok(())
}

/// A provider rank's serial loop body: handle requests from any remote
/// rank until every remote rank has sent a shutdown. It is robust to a
/// lossy or failing client side:
///
/// * Requests carrying a non-zero idempotency token are executed **at most
///   once** per `(client, token)`; a retransmission re-sends the cached
///   response (when the first response's payload was built with
///   [`AnyPayload::replicable`]) instead of re-dispatching.
/// * A request that cannot be decoded (corrupted in flight, or not an
///   [`RmiRequest`]) is answered with a NACK response ([`NACK_CALL_ID`])
///   rather than unwinding the server.
/// * A client rank that dies without sending its shutdown is detected via
///   the liveness registry and counted as shut down, so the loop still
///   terminates.
pub(crate) fn serve_loop(ic: &InterComm, service: &dyn RemoteService) -> Result<ServeStats> {
    // A response aimed at a client that just died is dropped silently (the
    // death is folded into `shut` at the next idle poll); a PeerDead caused
    // by the *server's own* scheduled death still propagates.
    let send_response = |dst: usize, resp: RmiResponse| -> Result<()> {
        match ic.send(dst, RMI_RESP_TAG, resp) {
            Err(RuntimeError::PeerDead { .. }) if ic.is_remote_dead(dst) => Ok(()),
            other => Ok(other?),
        }
    };
    let mut stats = ServeStats::default();
    let mut shut: HashSet<usize> = HashSet::new();
    // (client remote-rank, token) -> replicator of the cached response, for
    // two-way results built with `AnyPayload::replicable`. Entries live for
    // the duration of the serve loop (one coupling episode).
    let mut seen: HashMap<(usize, u64), Option<Replicator>> = HashMap::new();
    while shut.len() < ic.remote_size() {
        let (req, info) = match ic.recv_timeout_with_info::<RmiRequest>(
            Src::Any,
            RMI_REQ_TAG,
            SERVE_LIVENESS_POLL,
        ) {
            Ok(v) => v,
            Err(RuntimeError::Timeout { .. }) | Err(RuntimeError::PeerDead { .. }) => {
                // Idle: fold ranks that died shutdown-less into `shut`.
                for r in 0..ic.remote_size() {
                    if ic.is_remote_dead(r) && shut.insert(r) {
                        stats.dead_clients += 1;
                    }
                }
                continue;
            }
            Err(RuntimeError::Corrupt { src, .. })
            | Err(RuntimeError::TypeMismatch { src, .. }) => {
                stats.nacks += 1;
                let nack = RmiResponse { call_id: NACK_CALL_ID, result: AnyPayload::new(()) };
                send_response(src, nack)?;
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        if req.method == METHOD_SHUTDOWN {
            shut.insert(info.src);
            continue;
        }
        if req.token != 0 {
            if let Some(cached) = seen.get(&(info.src, req.token)) {
                stats.duplicate_requests += 1;
                if let (false, Some(replicate)) = (req.oneway, cached) {
                    let resp = RmiResponse { call_id: req.call_id, result: replicate() };
                    send_response(info.src, resp)?;
                }
                continue;
            }
        }
        let result = match service.dispatch(req.method, req.arg) {
            Dispatch::Reply(p) => {
                stats.calls += 1;
                stats.oneway_calls += u64::from(req.oneway);
                p
            }
            Dispatch::MethodNotFound => {
                stats.method_not_found += 1;
                // Replicable so a retransmission re-fetches the same NACK
                // from the dedup cache.
                AnyPayload::replicable(MethodNotFound { method: req.method })
            }
        };
        mxn_trace::emit_instant(
            mxn_trace::EventId::RmiServe,
            [req.method as u64, req.call_id, info.src as u64, u64::from(req.oneway)],
        );
        if req.token != 0 {
            seen.insert((info.src, req.token), result.take_replicator());
        }
        if !req.oneway {
            send_response(info.src, RmiResponse { call_id: req.call_id, result })?;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, ServeOpts};
    use mxn_framework::CallPolicy;
    use mxn_runtime::Universe;

    struct Echo;
    impl RemoteService for Echo {
        fn dispatch(&self, _method: u32, arg: AnyPayload) -> Dispatch {
            let v: u64 = arg.downcast().unwrap();
            AnyPayload::new(v + 1).into()
        }
    }

    /// A counter service: method 0 = add(delta) -> new total,
    /// method 1 (one-way) = reset.
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
    fn one_to_one_pairing_acts_like_serial_calls() {
        Universe::run(&[4, 4], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let provider = ic.local_rank() % ic.remote_size();
                // Each caller rank talks to its paired provider rank only.
                assert_eq!(provider, ctx.comm.rank());
                let mut ep = Endpoint::default();
                let inv = Invocation::independent(provider, 0, ctx.comm.rank() as u64);
                let r: u64 = ep.call(ic, inv).unwrap();
                assert_eq!(r, ctx.comm.rank() as u64 + 1);
                ep.shutdown(ic, ServeOpts::independent()).unwrap();
            } else {
                let stats = serve(ctx.intercomm(0), &Echo, ServeOpts::independent()).unwrap();
                assert_eq!(stats.calls, 1, "exactly one paired caller");
            }
        });
    }

    #[test]
    fn call_response_roundtrip() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                assert_eq!(ep.call::<i64, i64>(ic, Invocation::independent(0, 0, 5)).unwrap(), 5);
                assert_eq!(ep.call::<i64, i64>(ic, Invocation::independent(0, 0, 7)).unwrap(), 12);
                ep.shutdown(ic, ServeOpts::independent()).unwrap();
            } else {
                let svc = Counter(parking_lot::Mutex::new(0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
                assert_eq!(stats.calls, 2);
                assert_eq!(stats.oneway_calls, 0);
            }
        });
    }

    #[test]
    fn oneway_does_not_block() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                ep.call::<i64, i64>(ic, Invocation::independent(0, 0, 100)).unwrap();
                // Reset, fire-and-forget.
                ep.call::<i64, ()>(ic, Invocation::independent(0, 1, 0).oneway()).unwrap();
                // A later two-way call observes the reset (FIFO ordering).
                assert_eq!(ep.call::<i64, i64>(ic, Invocation::independent(0, 0, 1)).unwrap(), 1);
                ep.shutdown(ic, ServeOpts::independent()).unwrap();
            } else {
                let svc = Counter(parking_lot::Mutex::new(0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
                assert_eq!(stats.oneway_calls, 1);
            }
        });
    }

    #[test]
    fn many_clients_one_server() {
        Universe::run(&[3, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                for _ in 0..4 {
                    ep.call::<i64, i64>(ic, Invocation::independent(0, 0, 1)).unwrap();
                }
                ep.shutdown(ic, ServeOpts::independent()).unwrap();
            } else {
                let svc = Counter(parking_lot::Mutex::new(0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
                assert_eq!(stats.calls, 12);
                assert_eq!(*svc.0.lock(), 12);
            }
        });
    }

    #[test]
    fn one_to_one_pairing_spreads_clients() {
        Universe::run(&[4, 2], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let provider = ic.local_rank() % ic.remote_size();
                assert_eq!(provider, ctx.comm.rank() % 2);
                let mut ep = Endpoint::default();
                ep.call::<i64, i64>(ic, Invocation::independent(provider, 0, 1)).unwrap();
                ep.shutdown(ic, ServeOpts::independent()).unwrap();
            } else {
                let svc = Counter(parking_lot::Mutex::new(0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
                assert_eq!(stats.calls, 2, "each provider gets its paired callers");
            }
        });
    }

    #[test]
    fn unknown_method_is_nacked_not_fatal() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                // Unknown method: a typed error, and the server survives.
                let e = ep.call::<i64, i64>(ic, Invocation::independent(0, 99, 5)).unwrap_err();
                assert!(matches!(e, PrmiError::MethodNotFound { method: 99 }), "{e}");
                // Policy-governed calls fail fast instead of burning retries.
                let inv = Invocation::independent(0, 7, 1).policy(CallPolicy::default());
                let e = ep.call::<i64, i64>(ic, inv);
                assert!(matches!(e, Err(PrmiError::MethodNotFound { method: 7 })));
                // The port still works afterwards.
                assert_eq!(ep.call::<i64, i64>(ic, Invocation::independent(0, 0, 5)).unwrap(), 5);
                ep.shutdown(ic, ServeOpts::independent()).unwrap();
            } else {
                let svc = Counter(parking_lot::Mutex::new(0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::independent()).unwrap();
                assert_eq!(stats.method_not_found, 2);
                assert_eq!(stats.calls, 1, "unknown methods are not counted as calls");
            }
        });
    }
}
