//! Collective (all-to-all) parallel remote method invocation.
//!
//! SciRun2's PRMI model (paper §4.2): "the methods of a parallel component
//! can be specified to be independent (one-to-one) or collective
//! (all-to-all) … Collective calls are capable of supporting differing
//! numbers of processes on the uses and provides side of the call by
//! creating ghost invocations and/or return values. The user of a
//! collective method must guarantee that all participating caller processes
//! make the invocation. The system guarantees that all callee processes
//! receive the call, and that all callers will receive a return value."
//!
//! ## The M↔N mapping
//!
//! With M callers and N providers:
//! * provider `j` executes the request sent by caller `j % M` — when
//!   `M < N`, callers replicate their request to several providers
//!   (*ghost invocations*);
//! * caller `k` receives its return value from provider `k % N` — when
//!   `M > N`, providers send their result to several callers (*ghost
//!   return values*).
//!
//! Every provider executes exactly once per collective call, and every
//! caller gets exactly one return value, for any M and N.

use std::any::Any;
use std::time::{Duration, Instant};

use mxn_framework::{AnyPayload, Dispatch, MethodNotFound, RemoteService, Replicator};
use mxn_runtime::{InterComm, MsgSize, RuntimeError};
use mxn_schedule::Redist;

use crate::error::{PrmiError, Result};
use crate::invocation::{
    await_reply, no_reply, reply, serve, Endpoint, Invocation, ServeOpts, ServeStats,
    METHOD_SHUTDOWN,
};
use crate::parallel_args::{array_tag, ArrayStage};

/// Tag carrying collective requests.
pub(crate) const COLL_REQ_TAG: i32 = 0x434d; // "CM"
/// Tag carrying collective responses.
pub(crate) const COLL_RESP_TAG: i32 = 0x4352; // "CR"
/// How often a recovering serve loop re-checks participant liveness while
/// blocked waiting for its owner caller's request.
const COLL_LIVENESS_POLL: Duration = Duration::from_millis(25);

/// A collective invocation envelope.
pub struct CollReq {
    /// Method selector.
    pub method: u32,
    /// Per-endpoint collective sequence number (callers stay in lock-step).
    pub call_seq: u64,
    /// Recovery epoch the call was issued under. Every heal (revoke +
    /// shrink to survivors) advances the epoch on both sides in lock-step;
    /// a recovering serve loop fences on it, discarding stragglers from an
    /// aborted pre-heal attempt instead of dispatching them.
    pub epoch: u64,
    /// Number of caller ranks (lets the provider compute ghost returns).
    pub num_callers: usize,
    /// One-way calls produce no responses.
    pub oneway: bool,
    /// The simple argument (must be equal across callers; see
    /// [`Invocation::checked`]).
    pub arg: AnyPayload,
}

impl MsgSize for CollReq {
    fn msg_size(&self) -> usize {
        4 + 8 + 8 + 8 + 1 + self.arg.msg_size()
    }
}

impl Clone for CollReq {
    /// Ghost-invocation fan-out clones a request when a shared multicast
    /// envelope must be unwrapped while other receivers still hold it.
    /// Collective requests always carry replicable args (the caller wraps
    /// them with [`AnyPayload::replicable`]), so this cannot fail in
    /// practice.
    fn clone(&self) -> Self {
        CollReq {
            method: self.method,
            call_seq: self.call_seq,
            epoch: self.epoch,
            num_callers: self.num_callers,
            oneway: self.oneway,
            arg: self.arg.replicate().expect("collective request args are replicable"),
        }
    }
}

/// A collective response envelope.
pub struct CollResp {
    /// Correlates with [`CollReq::call_seq`].
    pub call_seq: u64,
    /// The (replicated) return value.
    pub result: AnyPayload,
}

impl MsgSize for CollResp {
    fn msg_size(&self) -> usize {
        8 + self.result.msg_size()
    }
}

impl Clone for CollResp {
    /// See [`CollReq::clone`]; ghost returns are multicast and must carry a
    /// replicable result (enforced by the serve loop).
    fn clone(&self) -> Self {
        CollResp {
            call_seq: self.call_seq,
            result: self.result.replicate().expect("ghost return results are replicable"),
        }
    }
}

/// A per-method request batch travelling as **one** [`CollReq`]: the
/// serving plane's shard executors coalesce admitted client calls into
/// these, so a full batch costs one collective invocation — one envelope,
/// one serve-loop wakeup, one reply — instead of one per client call.
///
/// Items are `(request id, marshalled argument)` pairs in admission order.
/// The id is opaque to PRMI (the plane packs a connection/sequence pair
/// into it) and comes back verbatim on the matching
/// [`CollBatchResult`] item, which is how replies are demultiplexed.
pub struct CollBatch {
    /// `(plane-assigned request id, argument)`, in admission order.
    pub items: Vec<(u64, AnyPayload)>,
}

impl MsgSize for CollBatch {
    fn msg_size(&self) -> usize {
        items_size(&self.items)
    }
}

impl Clone for CollBatch {
    /// Ghost-invocation fan-out (N providers > M callers) replicates the
    /// whole batch; requires every item built with
    /// [`AnyPayload::replicable`], like any collective argument.
    fn clone(&self) -> Self {
        CollBatch { items: replicate_items(&self.items) }
    }
}

/// Position-aligned results for one [`CollBatch`]: item `i` answers batch
/// item `i` and carries the same request id. Per-item failures travel as
/// typed payloads ([`MethodNotFound`], `Overloaded`) rather than failing
/// the whole batch.
pub struct CollBatchResult {
    /// `(request id, marshalled result-or-NACK)`, batch order.
    pub items: Vec<(u64, AnyPayload)>,
}

impl MsgSize for CollBatchResult {
    fn msg_size(&self) -> usize {
        items_size(&self.items)
    }
}

impl Clone for CollBatchResult {
    /// Ghost-return fan-out (M callers > N providers) replicates the batch
    /// results; requires the service to build them replicable.
    fn clone(&self) -> Self {
        CollBatchResult { items: replicate_items(&self.items) }
    }
}

fn items_size(items: &[(u64, AnyPayload)]) -> usize {
    8 + items.iter().map(|(_, a)| 8 + a.msg_size()).sum::<usize>()
}

fn replicate_items(items: &[(u64, AnyPayload)]) -> Vec<(u64, AnyPayload)> {
    let copy = |a: &AnyPayload| a.replicate().expect("fanned-out batch items are replicable");
    items.iter().map(|(id, a)| (*id, copy(a))).collect()
}

/// Providers that caller `k` must send the request to.
pub fn providers_of(k: usize, m: usize, n: usize) -> Vec<usize> {
    (0..n).filter(|j| j % m == k).collect()
}

/// Callers that provider `j` must send the result to.
pub fn respondents_of(j: usize, m: usize, n: usize) -> Vec<usize> {
    (0..m).filter(|k| k % n == j).collect()
}

/// Caller body of every collective invocation: plain, one-way, checked,
/// batched, parallel-argument and recovering calls differ only in the
/// fields of `inv`.
///
/// Under a recovering policy each attempt ends in a collective commit vote
/// over the intercommunicator: a caller votes yes only if it holds its
/// return value and observed no participant death. The outcome is the
/// same agreed value on every survivor, so either *all* callers accept
/// their results (and the sequence number advances) or *all* roll the
/// attempt back, heal the connection — revoke, shrink to the survivor set,
/// bump the epoch — and retry the *same* sequence number after a
/// `CallPolicy` backoff pause. Providers deduplicate by sequence number, so
/// a retried call is never executed twice.
pub(crate) fn call<A, R>(ep: &mut Endpoint, ic: &InterComm, inv: Invocation<'_, A>) -> Result<R>
where
    A: Send + Sync + MsgSize + Clone + 'static,
    R: 'static,
{
    let Invocation { method, arg, oneway, policy, array, ret, .. } = inv;
    let Endpoint { call_seq, epoch, healed, .. } = ep;
    let recover = policy.filter(|p| p.recover && !oneway);
    // The span's last argument: the one-way flag, or a batch's length.
    let shape = match oneway {
        true => 1,
        false => (&arg as &dyn Any).downcast_ref::<CollBatch>().map_or(0, |b| b.items.len() as u64),
    };
    let seq = *call_seq;
    let retries = recover.map_or(0, |p| p.max_retries);
    let mut backoff = recover.map_or(Duration::ZERO, |p| p.backoff);
    let mut arg = Some(arg);
    for attempt in 0..=retries {
        let _span = mxn_trace::span(
            mxn_trace::EventId::PrmiCall,
            match recover {
                None => [method as u64, seq, ic.remote_size() as u64, shape],
                Some(_) => [method as u64, seq, *epoch, u64::from(attempt)],
            },
        );
        let this_arg = if attempt < retries { arg.clone() } else { arg.take() };
        let this_arg = this_arg.expect("one argument per attempt");
        let cur = healed.as_ref().unwrap_or(ic);
        let sent = multicast_request(cur, method, seq, *epoch, oneway, this_arg);
        let responder = cur.local_rank() % cur.remote_size();
        let Some(recover) = recover else {
            *call_seq += 1;
            sent?;
            if oneway {
                return no_reply();
            }
            if let Some((caller, callee, local)) = array {
                Redist::between(caller, callee).send(cur, local, array_tag(seq))?;
            }
            // The reply comes first: a provider that NACKs an unknown method
            // sends no parallel return, so waiting on the array plane first
            // would hang. Messages buffer eagerly, so draining the parallel
            // return afterwards loses nothing.
            let resp: CollResp = await_reply(cur, responder, COLL_RESP_TAG, policy, method)?;
            if resp.call_seq != seq {
                return Err(PrmiError::Protocol {
                    detail: format!("response seq {} for call {seq}", resp.call_seq),
                });
            }
            let result = reply(method, resp.result)?;
            if let Some((callee, caller, local)) = ret {
                Redist::between(callee, caller).recv_into(cur, local, array_tag(seq) + 1)?;
            }
            return Ok(result);
        };
        // A send failure (the provider died mid-multicast) is not fatal: it
        // becomes this caller's 'no' vote.
        let got = match sent {
            Err(_) => None,
            Ok(()) => {
                let deadline = Instant::now() + recover.deadline;
                loop {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match cur.recv_timeout::<CollResp>(responder, COLL_RESP_TAG, remaining) {
                        Ok(resp) if resp.call_seq == seq => break Some(resp.result),
                        // A replay for an earlier sequence, or a corrupted
                        // reply: keep draining until the deadline.
                        Ok(_) | Err(RuntimeError::Corrupt { .. }) => continue,
                        Err(RuntimeError::Timeout { .. } | RuntimeError::PeerDead { .. }) => {
                            break None
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        };
        let ok = got.is_some() && cur.any_dead().is_none();
        if cur.agree_all(ok)? {
            *call_seq = seq + 1;
            // A committed NACK is a successful round: every caller got the
            // same typed MethodNotFound, and no heal is needed.
            return reply(method, got.expect("a unanimous commit means every result is in"));
        }
        let next = heal_intercomm(cur, *epoch)?;
        *healed = Some(next);
        *epoch += 1;
        if attempt < retries {
            std::thread::sleep(recover.retry_pause(backoff, attempt));
            backoff = backoff.saturating_mul(2);
        }
    }
    Err(PrmiError::RetriesExhausted { method, attempts: retries + 1 })
}

/// Sends this caller's request to the providers it owns. Ghost invocations
/// (N > M) fan one request out to several providers as a single shared
/// multicast envelope, so the argument is marshalled once.
fn multicast_request<A: Send + Sync + MsgSize + 'static + Clone>(
    ic: &InterComm,
    method: u32,
    seq: u64,
    epoch: u64,
    oneway: bool,
    arg: A,
) -> Result<()> {
    let (m, n) = (ic.local_size(), ic.remote_size());
    let providers = providers_of(ic.local_rank(), m, n);
    let arg = AnyPayload::replicable(arg);
    let req = CollReq { method, call_seq: seq, epoch, num_callers: m, oneway, arg };
    Ok(ic.multicast(&providers, COLL_REQ_TAG, req)?)
}

/// Collective shutdown: each provider stops after the request from its
/// owner caller.
pub(crate) fn shutdown(ep: &mut Endpoint, ic: &InterComm) -> Result<()> {
    let seq = ep.call_seq;
    ep.call_seq += 1;
    multicast_request(ep.current(ic), METHOD_SHUTDOWN, seq, ep.epoch, true, ())
}

/// What a collective loop executes requests with.
pub(crate) enum Exec<'a> {
    /// A service: plain requests through `dispatch`, [`CollBatch`]
    /// arguments through one `dispatch_batch` per batch.
    Service(&'a dyn RemoteService),
    /// A parallel service behind the array stage (parallel arguments).
    Array(ArrayStage<'a>),
}

/// The loop body of every collective provider rank: receive from the owner
/// caller → execute once → send the (ghost) return values, until the
/// shutdown.
///
/// With `recovering`, every two-way call ends in a commit vote. On an
/// aborted attempt (a participant died, or a delivery failed) the loop
/// heals the intercommunicator — revoke, shrink to the survivors, bump the
/// epoch — and keeps serving on the healed connection. The last result is
/// cached by sequence number, so the callers' retry of an aborted sequence
/// replays it instead of executing the method again (exactly-once), which
/// is why recovering results must be built with [`AnyPayload::replicable`].
/// One-way calls never vote.
pub(crate) fn serve_loop(ic: &InterComm, exec: Exec<'_>, recovering: bool) -> Result<ServeStats> {
    let mut healed: Option<InterComm> = None;
    let mut epoch = 0u64;
    let mut cached: Option<(u64, Replicator)> = None;
    let mut stats = ServeStats::default();
    loop {
        let cur = healed.as_ref().unwrap_or(ic);
        let (n, j) = (cur.local_size(), cur.local_rank());
        // Provider j's requests always come from its owner caller j % M.
        let owner = j % cur.remote_size();
        let req = match recovering {
            false => Some(cur.recv::<CollReq>(owner, COLL_REQ_TAG)?),
            true => recv_fenced(cur, owner, epoch)?,
        };
        if req.as_ref().is_some_and(|r| r.method == METHOD_SHUTDOWN) {
            return Ok(stats);
        }
        let ok = match req {
            None => false,
            Some(r) => {
                let (seq, oneway) = (r.call_seq, r.oneway);
                let respondents = respondents_of(j, r.num_callers, n);
                let result = match &cached {
                    Some((cached_seq, replay)) if *cached_seq == seq => replay(),
                    _ => {
                        let fanout = recovering || respondents.len() > 1;
                        let result = execute(cur, &exec, r, fanout, &mut stats)?;
                        if oneway {
                            continue;
                        }
                        if recovering {
                            let replay = result.take_replicator().ok_or(PrmiError::Protocol {
                                detail: "recovering results must be AnyPayload::replicable".into(),
                            })?;
                            cached = Some((seq, replay));
                        }
                        result
                    }
                };
                stats.ghost_returns += respondents.len().saturating_sub(1) as u64;
                let sent = send_replicated(cur, &respondents, seq, result);
                if !recovering {
                    sent?;
                    continue;
                }
                sent.is_ok() && cur.any_dead().is_none()
            }
        };
        if !cur.agree_all(ok)? {
            let next = heal_intercomm(cur, epoch)?;
            healed = Some(next);
            epoch += 1;
        }
    }
}

/// A recovering loop's receive. It polls liveness while it waits, so a
/// death anywhere lets this rank join the abort vote (`None`) even when its
/// own request never arrives (e.g. its owner is the one that died), and it
/// fences on the epoch: a straggler from an aborted pre-heal attempt is
/// dropped, never dispatched.
fn recv_fenced(cur: &InterComm, owner: usize, epoch: u64) -> Result<Option<CollReq>> {
    loop {
        match cur.recv_timeout::<CollReq>(owner, COLL_REQ_TAG, COLL_LIVENESS_POLL) {
            Ok(r) if r.method == METHOD_SHUTDOWN || r.epoch == epoch => return Ok(Some(r)),
            Ok(_) => {}
            Err(RuntimeError::Timeout { .. }) if cur.any_dead().is_none() => {}
            Err(
                RuntimeError::Timeout { .. }
                | RuntimeError::PeerDead { .. }
                | RuntimeError::Corrupt { .. },
            ) => return Ok(None),
            Err(e) => return Err(e.into()),
        }
    }
}

/// Executes one request once — a whole [`CollBatch`] through one
/// `dispatch_batch`, or one method — then emits its `PrmiServe` instant and
/// counts it. Unknown methods come back as typed [`MethodNotFound`]
/// payloads (per item inside a batch, so one bad request never poisons its
/// batch-mates). The result is replicable when `fanout` needs copies.
fn execute(
    cur: &InterComm,
    exec: &Exec<'_>,
    req: CollReq,
    fanout: bool,
    stats: &mut ServeStats,
) -> Result<AnyPayload> {
    let CollReq { method, call_seq, num_callers, oneway, arg, .. } = req;
    // Replicable so the NACK fans out as ghost returns too.
    let nack = || AnyPayload::replicable(MethodNotFound { method });
    let (result, items, found, shape) = match exec {
        Exec::Service(service) if arg.is::<CollBatch>() => {
            let batch: CollBatch = arg.downcast()?;
            let (ids, args): (Vec<u64>, Vec<AnyPayload>) = batch.items.into_iter().unzip();
            let outs = service.dispatch_batch(method, args);
            assert_eq!(outs.len(), ids.len(), "dispatch_batch must answer every batch item");
            let mut found = 0;
            let items: Vec<(u64, AnyPayload)> = ids
                .into_iter()
                .zip(outs)
                .map(|(id, d)| match d {
                    Dispatch::Reply(p) => {
                        found += 1;
                        (id, p)
                    }
                    Dispatch::MethodNotFound => (id, nack()),
                })
                .collect();
            let n = items.len() as u64;
            // Only a fan-out needs the replicable wrapper (and pays its one
            // up-front deep copy); a single respondent gets the results as is.
            let result = CollBatchResult { items };
            let result =
                if fanout { AnyPayload::replicable(result) } else { AnyPayload::new(result) };
            (result, n, found, n)
        }
        _ => {
            let dispatched = match exec {
                Exec::Service(service) => service.dispatch(method, arg),
                Exec::Array(stage) => stage.run(cur, call_seq, method, arg)?,
            };
            match dispatched {
                Dispatch::Reply(p) => (p, 1, 1, u64::from(oneway)),
                Dispatch::MethodNotFound => (nack(), 1, 0, u64::from(oneway)),
            }
        }
    };
    mxn_trace::emit_instant(
        mxn_trace::EventId::PrmiServe,
        [method as u64, call_seq, num_callers as u64, shape],
    );
    stats.calls += found;
    stats.method_not_found += items - found;
    if oneway {
        stats.oneway_calls += found;
    }
    Ok(result)
}

/// Revokes `ic` and shrinks it to the survivor set. Both sides of a
/// recovering collective call run this in lock-step after a failed commit
/// vote, so their epochs (and hence the request fence) stay aligned.
fn heal_intercomm(ic: &InterComm, epoch: u64) -> Result<InterComm> {
    ic.revoke();
    let (healed, report) = ic.shrink_with_report()?;
    mxn_trace::emit_instant(
        mxn_trace::EventId::Heal,
        [
            epoch + 1,
            report.local_survivors.len() as u64,
            report.remote_survivors.len() as u64,
            1, // PRMI control plane (the M×N data plane stamps 0 here)
        ],
    );
    Ok(healed)
}

/// Sends `result` to every respondent. A single respondent receives the
/// value directly; ghost returns (fewer providers than callers) go out as
/// one shared multicast envelope — the result is marshalled once, and each
/// caller unwraps it copy-on-write. `AnyPayload` is not clonable in
/// general, so the fan-out path requires results wrapped with
/// [`AnyPayload::replicable`].
fn send_replicated(ic: &InterComm, to: &[usize], call_seq: u64, result: AnyPayload) -> Result<()> {
    let resp = CollResp { call_seq, result };
    match to {
        [] => {}
        [one] => ic.send(*one, COLL_RESP_TAG, resp)?,
        _ if resp.result.take_replicator().is_none() => {
            let detail = "ghost returns need an AnyPayload::replicable result".into();
            return Err(PrmiError::Protocol { detail });
        }
        _ => ic.multicast(to, COLL_RESP_TAG, resp)?,
    }
    Ok(())
}

// Pinned by the out-of-tree benchmark: `benchmark/src/prmi.rs` is the sole
// caller of this shim. The collective loop always recognises batches.
#[doc(hidden)]
pub fn collective_serve_batched(ic: &InterComm, service: &dyn RemoteService) -> Result<ServeStats> {
    serve(ic, service, ServeOpts::collective())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::{Endpoint, Invocation};
    use crate::PrmiError;
    use mxn_framework::CallPolicy;
    use mxn_runtime::Universe;

    /// Service: method 0 = sum += arg, return new sum (replicable);
    /// method 1 (one-way) = multiply state.
    struct Accum(parking_lot::Mutex<f64>);
    impl RemoteService for Accum {
        fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
            match method {
                0 => {
                    let v: f64 = arg.downcast().unwrap();
                    let mut s = self.0.lock();
                    *s += v;
                    AnyPayload::replicable(*s).into()
                }
                1 => {
                    let v: f64 = arg.downcast().unwrap();
                    *self.0.lock() *= v;
                    AnyPayload::new(()).into()
                }
                _ => Dispatch::MethodNotFound,
            }
        }
    }

    fn run_collective(m: usize, n: usize) {
        Universe::run(&[m, n], move |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                // Every caller gets a reply; each provider executed once.
                let r: f64 = ep.call(ic, Invocation::collective(0, 2.5f64)).unwrap();
                assert_eq!(r, 2.5);
                let r2: f64 = ep.call(ic, Invocation::collective(0, 1.5f64)).unwrap();
                assert_eq!(r2, 4.0);
                assert_eq!(ep.calls(), 2);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.calls, 2, "each provider executes each call once");
                assert_eq!(*svc.0.lock(), 4.0);
            }
        });
    }

    #[test]
    fn m_equals_n() {
        run_collective(2, 2);
    }

    #[test]
    fn more_callers_than_providers_ghost_returns() {
        run_collective(5, 2);
    }

    #[test]
    fn more_providers_than_callers_ghost_invocations() {
        run_collective(2, 5);
    }

    #[test]
    fn serial_caller_parallel_provider() {
        run_collective(1, 4);
    }

    #[test]
    fn parallel_caller_serial_provider() {
        run_collective(4, 1);
    }

    #[test]
    fn mapping_covers_all_and_only_once() {
        for m in 1..7 {
            for n in 1..7 {
                // Every provider is owned by exactly one caller.
                let mut owned = vec![0usize; n];
                for k in 0..m {
                    for j in providers_of(k, m, n) {
                        owned[j] += 1;
                        assert_eq!(j % m, k);
                    }
                }
                assert!(owned.iter().all(|&c| c == 1), "m={m} n={n}: {owned:?}");
                // Every caller gets exactly one return.
                let mut returned = vec![0usize; m];
                for j in 0..n {
                    for k in respondents_of(j, m, n) {
                        returned[k] += 1;
                        assert_eq!(k % n, j);
                    }
                }
                assert!(returned.iter().all(|&c| c == 1), "m={m} n={n}: {returned:?}");
            }
        }
    }

    #[test]
    fn oneway_collective_updates_state_without_reply() {
        Universe::run(&[3, 2], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let r: f64 = ep.call(ic, Invocation::collective(0, 10.0f64)).unwrap();
                assert_eq!(r, 10.0);
                ep.call::<_, ()>(ic, Invocation::collective(1, 3.0f64).oneway()).unwrap();
                // FIFO per provider: the next two-way call observes the
                // one-way's effect.
                let r2: f64 = ep.call(ic, Invocation::collective(0, 0.0f64)).unwrap();
                assert_eq!(r2, 30.0);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.oneway_calls, 1);
            }
        });
    }

    #[test]
    fn checked_call_catches_divergent_simple_args() {
        Universe::run(&[3, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                // Each rank passes a different value: the check must fail on
                // every rank, before anything is sent.
                let bad = ctx.comm.rank() as f64;
                let r: Result<f64> = ep.call(ic, Invocation::collective(0, bad).checked(&ctx.comm));
                assert!(matches!(r, Err(PrmiError::SimpleArgMismatch { method: 0 })));
                // A consistent value passes.
                let ok: f64 =
                    ep.call(ic, Invocation::collective(0, 7.0f64).checked(&ctx.comm)).unwrap();
                assert_eq!(ok, 7.0);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.calls, 1, "the failed check never reached the provider");
            }
        });
    }

    #[test]
    fn recovering_call_over_healthy_universe() {
        Universe::run(&[2, 3], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let policy = CallPolicy::default().recovering();
                let r: f64 = ep.call(ic, Invocation::collective(0, 2.0f64).policy(policy)).unwrap();
                assert_eq!(r, 2.0);
                let r2: f64 =
                    ep.call(ic, Invocation::collective(0, 3.0f64).policy(policy)).unwrap();
                assert_eq!(r2, 5.0);
                assert_eq!(ep.epoch(), 0, "no failure, no heal");
                assert_eq!(ep.calls(), 2);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats =
                    serve(ctx.intercomm(0), &svc, ServeOpts::collective().recovering()).unwrap();
                assert_eq!(stats.calls, 2);
                assert_eq!(*svc.0.lock(), 5.0);
            }
        });
    }

    #[test]
    fn recovering_call_heals_after_caller_death() {
        // Three callers, two providers. Caller 2 dies between calls; the
        // second collective call aborts (all survivors roll back on the
        // commit vote), the connection heals to a 2×2 coupling, and the
        // retried sequence completes — with each provider executing each
        // method exactly once thanks to the sequence-number dedup.
        Universe::run(&[3, 2], |p, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let policy = CallPolicy {
                    deadline: Duration::from_millis(100),
                    max_retries: 4,
                    backoff: Duration::from_millis(2),
                    jitter: Some(7),
                    recover: true,
                };
                let r: f64 = ep.call(ic, Invocation::collective(0, 2.5f64).policy(policy)).unwrap();
                assert_eq!(r, 2.5);
                if ctx.comm.rank() == 2 {
                    p.kill_rank(p.rank());
                    return;
                }
                while !p.is_dead(2) {
                    std::thread::yield_now();
                }
                let r2: f64 =
                    ep.call(ic, Invocation::collective(0, 1.5f64).policy(policy)).unwrap();
                assert_eq!(r2, 4.0);
                assert!(ep.epoch() >= 1, "the failure forced at least one heal");
                assert_eq!(ep.calls(), 2);
                assert_eq!(ep.current(ic).local_size(), 2, "healed to the survivor set");
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats =
                    serve(ctx.intercomm(0), &svc, ServeOpts::collective().recovering()).unwrap();
                assert_eq!(stats.calls, 2, "aborted attempts replay the cached result");
                assert_eq!(*svc.0.lock(), 4.0, "each call executed exactly once per provider");
            }
        });
    }

    #[test]
    fn unknown_method_nacks_across_ghost_fanout() {
        // 4 callers, 1 provider: the NACK itself must fan out as ghost
        // returns, and the provider keeps serving afterwards.
        Universe::run(&[4, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let e = ep.call::<f64, f64>(ic, Invocation::collective(42, 1.0)).unwrap_err();
                assert!(matches!(e, PrmiError::MethodNotFound { method: 42 }), "{e}");
                let r: f64 = ep.call(ic, Invocation::collective(0, 2.0f64)).unwrap();
                assert_eq!(r, 2.0);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.method_not_found, 1);
                assert_eq!(stats.calls, 1);
            }
        });
    }

    #[test]
    fn unknown_method_commits_under_recovery_without_healing() {
        // The NACK is a *successful* protocol round: the commit vote passes,
        // the sequence advances, and no heal is triggered.
        Universe::run(&[2, 2], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let policy = CallPolicy::default().recovering();
                let e = ep
                    .call::<f64, f64>(ic, Invocation::collective(9, 1.0).policy(policy))
                    .unwrap_err();
                assert!(matches!(e, PrmiError::MethodNotFound { method: 9 }), "{e}");
                assert_eq!(ep.epoch(), 0, "a NACK is not a failure: no heal");
                let r: f64 = ep.call(ic, Invocation::collective(0, 3.0f64).policy(policy)).unwrap();
                assert_eq!(r, 3.0);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats =
                    serve(ctx.intercomm(0), &svc, ServeOpts::collective().recovering()).unwrap();
                assert_eq!(stats.method_not_found, 1);
                assert_eq!(stats.calls, 1);
            }
        });
    }

    #[test]
    fn batched_call_roundtrips_and_demuxes_by_id() {
        Universe::run(&[1, 2], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                // Ids are arbitrary and non-contiguous: replies must carry
                // them back verbatim, in batch order.
                let items = vec![
                    (700u64, AnyPayload::replicable(1.0f64)),
                    (13u64, AnyPayload::replicable(2.0f64)),
                    (9_999u64, AnyPayload::replicable(0.5f64)),
                ];
                let results = ep
                    .call::<_, CollBatchResult>(ic, Invocation::collective(0, CollBatch { items }))
                    .map(|r| r.items)
                    .unwrap();
                let got: Vec<(u64, f64)> =
                    results.into_iter().map(|(id, p)| (id, p.downcast().unwrap())).collect();
                // Running sums, dispatched in admission order.
                assert_eq!(got, vec![(700, 1.0), (13, 3.0), (9_999, 3.5)]);
                assert_eq!(ep.calls(), 1, "a whole batch is one collective call");
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.calls, 3, "every batch item dispatched");
                assert_eq!(*svc.0.lock(), 3.5);
            }
        });
    }

    #[test]
    fn batched_unknown_method_nacks_per_item() {
        Universe::run(&[1, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let items = vec![
                    (1u64, AnyPayload::replicable(2.0f64)),
                    (2u64, AnyPayload::replicable(3.0f64)),
                ];
                // Unknown method: each item carries a typed NACK, and the
                // provider keeps serving.
                let results = ep
                    .call::<_, CollBatchResult>(ic, Invocation::collective(42, CollBatch { items }))
                    .map(|r| r.items)
                    .unwrap();
                assert!(results.iter().all(|(_, p)| p.is::<MethodNotFound>()));
                let ok = ep
                    .call::<_, CollBatchResult>(
                        ic,
                        Invocation::collective(
                            0,
                            CollBatch { items: vec![(5u64, AnyPayload::replicable(4.0f64))] },
                        ),
                    )
                    .map(|r| r.items)
                    .unwrap();
                assert!(!ok[0].1.is::<MethodNotFound>());
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.method_not_found, 2);
                assert_eq!(stats.calls, 1);
            }
        });
    }

    #[test]
    fn batched_serve_still_fields_plain_collective_calls() {
        Universe::run(&[2, 2], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let r: f64 = ep.call(ic, Invocation::collective(0, 2.5f64)).unwrap();
                assert_eq!(r, 2.5);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.calls, 1);
            }
        });
    }

    #[test]
    fn ghost_return_counting() {
        Universe::run(&[4, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let _: f64 = ep.call(ic, Invocation::collective(0, 1.0f64)).unwrap();
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Accum(parking_lot::Mutex::new(0.0));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                // One provider, four callers: three ghost returns.
                assert_eq!(stats.ghost_returns, 3);
            }
        });
    }
}
