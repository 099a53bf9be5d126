//! The sharded serving plane: many client endpoints, few executors.
//!
//! ```text
//!  client ──send──▶ ingress (caller thread)          shard executor pool
//!                     │ park while conn full  ┌──────────────────────────┐
//!                     │ admission check       │ drain ≤ max_batch        │
//!                     └─▶ shard queue ───────▶│ split into method runs   │
//!                         (hash of conn)      │ backend.dispatch_batch   │
//!                                             │ post_many reply batches  │
//!  client ◀──recv── reply mailbox ◀───────────┴──────────────────────────┘
//! ```
//!
//! Three invariants the rest of the crate (and the property tests) lean on:
//!
//! 1. **Per-connection FIFO.** A connection hashes to exactly one shard,
//!    the shard drains its queue in arrival order, and batching groups
//!    only *consecutive* same-method requests — so replies for a
//!    connection always come back in the order its requests were sent,
//!    whatever `max_batch` is. Batched and unbatched planes produce the
//!    same reply streams.
//! 2. **Blocking is per-connection.** Cooperative backpressure parks the
//!    *calling* thread of a connection whose in-flight window is full
//!    (for the wire front that is the connection's own reader thread);
//!    the shard executors never block on a slow client.
//! 3. **Every admitted request is answered exactly once** — with a result,
//!    a typed `MethodNotFound` NACK, or a typed `Overloaded` NACK carrying
//!    the shard's in-flight count (queued plus executing) at shed time.
//!
//! Reply delivery reuses the runtime's [`Mailbox`]: each dispatch run
//! posts one envelope per connection via [`Mailbox::post_many`] (one lock
//! acquisition, coalesced wakeups), and receivers block on the same
//! condvar machinery every collective in the repo already uses.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mxn_framework::{AnyPayload, Dispatch, ShedReason};
use mxn_runtime::{
    splitmix64, Envelope, Liveness, Mailbox, Payload, Revocations, RuntimeError, Src, Tag,
};
use mxn_trace::{EventId, TraceHandle};
use parking_lot::{Condvar, Mutex};

use crate::backend::PlaneBackend;

/// Tag replies travel under in the plane's reply mailbox (one bucket per
/// connection: the envelope context is the connection id).
const REPLY_TAG: i32 = 0;

/// Tuning knobs for a [`ServingPlane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Executor shards. Connections hash onto these; each shard is one
    /// thread draining one bounded queue.
    pub shards: usize,
    /// Bound on each shard's queue of admitted-but-undispatched requests.
    /// Arrivals beyond it are shed with a typed `Overloaded` NACK.
    pub shard_queue: usize,
    /// Most requests one dispatch run may carry. `1` disables batching
    /// (every request is its own run) without changing observable reply
    /// order.
    pub max_batch: usize,
    /// Per-shard bound on admitted-but-unanswered requests (queued plus
    /// in dispatch). The admission controller sheds above it.
    pub inflight_budget: usize,
    /// Per-connection in-flight window. A connection with this many
    /// unanswered requests has its caller (reader) parked until replies
    /// drain — cooperative backpressure that never blocks a shard.
    pub client_queue: usize,
    /// If set, requests older than this when an executor reaches them are
    /// shed (`ShedReason::QueueDeadline`) instead of dispatched.
    pub queue_deadline: Option<Duration>,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            shards: 4,
            shard_queue: 4096,
            max_batch: 64,
            inflight_budget: 8192,
            client_queue: 256,
            queue_deadline: None,
        }
    }
}

impl ServePolicy {
    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "a plane needs at least one shard");
        self.shards = shards;
        self
    }
    /// Sets the per-shard queue bound.
    pub fn with_shard_queue(mut self, cap: usize) -> Self {
        self.shard_queue = cap.max(1);
        self
    }
    /// Sets the dispatch batch bound.
    pub fn with_max_batch(mut self, cap: usize) -> Self {
        self.max_batch = cap.max(1);
        self
    }
    /// Sets the per-shard in-flight budget.
    pub fn with_inflight_budget(mut self, cap: usize) -> Self {
        self.inflight_budget = cap.max(1);
        self
    }
    /// Sets the per-connection in-flight window.
    pub fn with_client_queue(mut self, cap: usize) -> Self {
        self.client_queue = cap.max(1);
        self
    }
    /// Sets the queue-age shed deadline.
    pub fn with_queue_deadline(mut self, deadline: Duration) -> Self {
        self.queue_deadline = Some(deadline);
        self
    }
}

/// What the plane answered for one request.
pub enum ServeOutcome {
    /// The method executed; here is its marshalled result.
    Reply(AnyPayload),
    /// The backend does not implement the method.
    MethodNotFound {
        /// The unknown method id.
        method: u32,
    },
    /// Admission control or the queue deadline shed the request.
    Overloaded {
        /// The shard's in-flight requests (queued plus executing) at shed
        /// time.
        queue_depth: u32,
        /// Refused at admission, or expired in queue.
        reason: ShedReason,
    },
}

impl std::fmt::Debug for ServeOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeOutcome::Reply(p) => write!(f, "Reply({} bytes)", p.bytes()),
            ServeOutcome::MethodNotFound { method } => {
                write!(f, "MethodNotFound({method})")
            }
            ServeOutcome::Overloaded { queue_depth, reason } => {
                write!(f, "Overloaded(depth {queue_depth}, {reason:?})")
            }
        }
    }
}

/// One reply as delivered to a client: the request's sequence id plus its
/// outcome. Per-connection reply order equals request order.
#[derive(Debug)]
pub struct PlaneReply {
    /// The id the sender assigned the request.
    pub seq: u64,
    /// What happened.
    pub outcome: ServeOutcome,
}

/// Batch of replies for one connection — the mailbox payload unit. An
/// empty batch is the close sentinel.
struct ReplyBatch {
    items: Vec<PlaneReply>,
}

/// Errors surfaced to plane clients.
#[derive(Debug)]
pub enum ServeError {
    /// The plane (or this connection) shut down.
    Closed,
    /// Typed NACK: unknown method.
    MethodNotFound {
        /// The unknown method id.
        method: u32,
    },
    /// Typed NACK: the request was shed under load.
    Overloaded {
        /// The shard's in-flight requests (queued plus executing) at shed
        /// time.
        queue_depth: u32,
        /// Why the request was shed.
        reason: ShedReason,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "serving plane closed"),
            ServeError::MethodNotFound { method } => {
                write!(f, "serving plane: unknown method {method}")
            }
            ServeError::Overloaded { queue_depth, reason } => {
                write!(
                    f,
                    "serving plane shed request under load (queue depth {queue_depth}, {reason:?})"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One queued request.
struct PlaneReq {
    conn: u64,
    seq: u64,
    method: u32,
    arg: AnyPayload,
    enqueued: Instant,
}

/// Per-shard monotone counters (atomics; snapshot via [`ShardStats`]).
#[derive(Default)]
struct ShardCounters {
    enqueued: AtomicU64,
    batches: AtomicU64,
    batched_items: AtomicU64,
    replies: AtomicU64,
    shed_admission: AtomicU64,
    shed_deadline: AtomicU64,
    parks: AtomicU64,
    queue_peak: AtomicU64,
    batch_peak: AtomicU64,
}

impl ShardCounters {
    fn snapshot(&self) -> ShardStats {
        ShardStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_items: self.batched_items.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            shed_admission: self.shed_admission.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            batch_peak: self.batch_peak.load(Ordering::Relaxed),
        }
    }
}

/// One shard's counters, `WorldStats`-style: plain numbers, cheap to
/// snapshot, safe to diff across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests admitted onto the shard queue.
    pub enqueued: u64,
    /// Dispatch runs executed.
    pub batches: u64,
    /// Requests dispatched inside those runs.
    pub batched_items: u64,
    /// Reply items posted (results and NACKs).
    pub replies: u64,
    /// Requests shed at admission (`ShedReason::AdmissionFull`).
    pub shed_admission: u64,
    /// Requests shed by queue age (`ShedReason::QueueDeadline`).
    pub shed_deadline: u64,
    /// Times a caller was parked on its connection's in-flight window.
    pub parks: u64,
    /// Deepest queue observed at enqueue time.
    pub queue_peak: u64,
    /// Largest dispatch run observed.
    pub batch_peak: u64,
}

impl ShardStats {
    /// Field-wise sum (peaks take the max).
    fn absorb(&mut self, o: &ShardStats) {
        self.enqueued += o.enqueued;
        self.batches += o.batches;
        self.batched_items += o.batched_items;
        self.replies += o.replies;
        self.shed_admission += o.shed_admission;
        self.shed_deadline += o.shed_deadline;
        self.parks += o.parks;
        self.queue_peak = self.queue_peak.max(o.queue_peak);
        self.batch_peak = self.batch_peak.max(o.batch_peak);
    }
}

/// A whole plane's counters.
#[derive(Debug, Clone, Default)]
pub struct PlaneStats {
    /// Per-shard snapshots, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Connections ever opened.
    pub conns_opened: u64,
    /// Connections closed.
    pub conns_closed: u64,
}

impl PlaneStats {
    /// Sum over shards (peaks take the max).
    pub fn totals(&self) -> ShardStats {
        let mut t = ShardStats::default();
        for s in &self.per_shard {
            t.absorb(s);
        }
        t
    }
}

/// Per-connection control block.
struct ConnCtl {
    shard: usize,
    /// Unanswered requests on this connection (reserved at ingress,
    /// released when the reply posts).
    inflight: Mutex<u64>,
    cond: Condvar,
}

struct ShardState {
    queue: Mutex<VecDeque<PlaneReq>>,
    cond: Condvar,
    /// Admitted-but-unanswered requests (queue + in dispatch).
    inflight: AtomicU64,
    stats: ShardCounters,
}

struct PlaneShared {
    policy: ServePolicy,
    closed: AtomicBool,
    abort: Arc<AtomicBool>,
    mailbox: Mailbox,
    conns: Mutex<HashMap<u64, Arc<ConnCtl>>>,
    next_conn: AtomicU64,
    shards: Vec<ShardState>,
    conns_opened: AtomicU64,
    conns_closed: AtomicU64,
}

impl PlaneShared {
    /// Posts one reply batch for `conn`. Envelope context = connection id,
    /// so each connection is its own FIFO mailbox bucket.
    fn reply_envelope(&self, shard: usize, conn: u64, items: Vec<PlaneReply>) -> Envelope {
        let bytes: usize = items
            .iter()
            .map(|r| match &r.outcome {
                ServeOutcome::Reply(p) => p.bytes(),
                _ => 8,
            })
            .sum();
        Envelope::new(
            shard,
            shard,
            conn as u32,
            REPLY_TAG,
            bytes,
            None,
            Payload::owned(ReplyBatch { items }),
        )
    }

    /// Releases reply slots: shard budget and the per-connection window
    /// (waking parked callers).
    fn release(&self, shard: &ShardState, conn: &Arc<ConnCtl>, n: u64) {
        shard.inflight.fetch_sub(n, Ordering::AcqRel);
        let mut inflight = conn.inflight.lock();
        *inflight -= n;
        conn.cond.notify_all();
    }

    fn ctl(&self, conn: u64) -> Option<Arc<ConnCtl>> {
        self.conns.lock().get(&conn).cloned()
    }

    /// The ingress path: park (backpressure) → admit or shed → enqueue.
    /// Runs on the *caller's* thread; blocking here is the designed
    /// per-connection backpressure.
    fn ingress(&self, conn: u64, seq: u64, method: u32, arg: AnyPayload) -> Result<(), ServeError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(ServeError::Closed);
        }
        let ctl = self.ctl(conn).ok_or(ServeError::Closed)?;
        let shard = &self.shards[ctl.shard];
        // Reserve a reply slot in the connection window, parking while full.
        {
            let mut inflight = ctl.inflight.lock();
            if *inflight >= self.policy.client_queue as u64 {
                shard.stats.parks.fetch_add(1, Ordering::Relaxed);
                mxn_trace::emit_instant(
                    EventId::ServePark,
                    [conn, *inflight, self.policy.client_queue as u64, 0],
                );
                while *inflight >= self.policy.client_queue as u64 {
                    if self.closed.load(Ordering::Acquire) {
                        return Err(ServeError::Closed);
                    }
                    ctl.cond.wait(&mut inflight);
                }
            }
            *inflight += 1;
        }
        // Admission control: bounded queue, bounded in-flight budget. A
        // shed reports the in-flight count (queued plus executing), which
        // is what trips the budget and never less than the queue length —
        // the queue alone reads 0 or 1 once the executor has drained it
        // into a running batch.
        let mut q = shard.queue.lock();
        let depth = q.len() as u64;
        let inflight = shard.inflight.load(Ordering::Acquire);
        if depth >= self.policy.shard_queue as u64 || inflight >= self.policy.inflight_budget as u64
        {
            drop(q);
            {
                let mut inflight = ctl.inflight.lock();
                *inflight -= 1;
                ctl.cond.notify_all();
            }
            shard.stats.shed_admission.fetch_add(1, Ordering::Relaxed);
            shard.stats.replies.fetch_add(1, Ordering::Relaxed);
            mxn_trace::emit_instant(EventId::ServeOverload, [ctl.shard as u64, conn, inflight, 0]);
            let outcome = ServeOutcome::Overloaded {
                queue_depth: inflight as u32,
                reason: ShedReason::AdmissionFull,
            };
            self.mailbox.push(self.reply_envelope(
                ctl.shard,
                conn,
                vec![PlaneReply { seq, outcome }],
            ));
            return Ok(());
        }
        shard.inflight.fetch_add(1, Ordering::AcqRel);
        q.push_back(PlaneReq { conn, seq, method, arg, enqueued: Instant::now() });
        shard.stats.queue_peak.fetch_max(depth + 1, Ordering::Relaxed);
        drop(q);
        shard.cond.notify_one();
        shard.stats.enqueued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Detaches a connection: further sends fail, the receiver wakes with
    /// `Closed` once queued replies drain.
    fn close_conn(&self, conn: u64) {
        let removed = self.conns.lock().remove(&conn);
        if let Some(ctl) = removed {
            self.conns_closed.fetch_add(1, Ordering::Relaxed);
            ctl.cond.notify_all();
            mxn_trace::emit_instant(EventId::ServeConn, [conn, ctl.shard as u64, 0, 0]);
            // Close sentinel: an empty batch.
            self.mailbox.push(self.reply_envelope(ctl.shard, conn, Vec::new()));
        }
    }

    /// One shard executor: drain → deadline-shed → method runs → dispatch
    /// → batched reply delivery.
    fn shard_loop(self: &Arc<Self>, idx: usize, backend: &mut dyn PlaneBackend) {
        let shard = &self.shards[idx];
        loop {
            let (drained, depth_left) = {
                let mut q = shard.queue.lock();
                while q.is_empty() {
                    if self.closed.load(Ordering::Acquire) {
                        return;
                    }
                    shard.cond.wait(&mut q);
                }
                let take = q.len().min(self.policy.max_batch);
                let drained: Vec<PlaneReq> = q.drain(..take).collect();
                (drained, q.len() as u64)
            };
            // Queue-deadline sheds happen before dispatch, preserving the
            // order of the survivors.
            let mut live = Vec::with_capacity(drained.len());
            for req in drained {
                let expired =
                    self.policy.queue_deadline.is_some_and(|d| req.enqueued.elapsed() > d);
                if expired {
                    shard.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
                    shard.stats.replies.fetch_add(1, Ordering::Relaxed);
                    let inflight = shard.inflight.load(Ordering::Acquire);
                    mxn_trace::emit_instant(
                        EventId::ServeOverload,
                        [idx as u64, req.conn, inflight, 1],
                    );
                    let outcome = ServeOutcome::Overloaded {
                        queue_depth: inflight as u32,
                        reason: ShedReason::QueueDeadline,
                    };
                    let env = self.reply_envelope(
                        idx,
                        req.conn,
                        vec![PlaneReply { seq: req.seq, outcome }],
                    );
                    self.mailbox.push(env);
                    if let Some(ctl) = self.ctl(req.conn) {
                        self.release(shard, &ctl, 1);
                    } else {
                        shard.inflight.fetch_sub(1, Ordering::AcqRel);
                    }
                } else {
                    live.push(req);
                }
            }
            // Maximal runs of consecutive same-method requests: batching
            // that cannot reorder anything.
            let mut live = VecDeque::from(live);
            while let Some(front) = live.front() {
                let method = front.method;
                let mut run = Vec::new();
                while live.front().is_some_and(|r| r.method == method) {
                    run.push(live.pop_front().expect("front just checked"));
                }
                self.dispatch_run(idx, shard, method, run, depth_left, backend);
            }
        }
    }

    fn dispatch_run(
        self: &Arc<Self>,
        idx: usize,
        shard: &ShardState,
        method: u32,
        run: Vec<PlaneReq>,
        depth_left: u64,
        backend: &mut dyn PlaneBackend,
    ) {
        let len = run.len() as u64;
        let _span =
            mxn_trace::span(EventId::ServeBatch, [idx as u64, method as u64, len, depth_left]);
        shard.stats.batches.fetch_add(1, Ordering::Relaxed);
        shard.stats.batched_items.fetch_add(len, Ordering::Relaxed);
        shard.stats.batch_peak.fetch_max(len, Ordering::Relaxed);

        let mut conns = Vec::with_capacity(run.len());
        let mut seqs = Vec::with_capacity(run.len());
        let mut args = Vec::with_capacity(run.len());
        for req in run {
            conns.push(req.conn);
            seqs.push(req.seq);
            args.push(req.arg);
        }
        let outs = backend.dispatch_batch(method, args);
        assert_eq!(outs.len(), conns.len(), "backend broke the batch contract for method {method}");

        // Group replies per connection, preserving run order within each,
        // and deliver the whole run through one post_many.
        let mut per_conn: Vec<(u64, Vec<PlaneReply>)> = Vec::new();
        for ((conn, seq), out) in conns.iter().zip(&seqs).zip(outs) {
            let outcome = match out {
                Dispatch::Reply(p) => ServeOutcome::Reply(p),
                Dispatch::MethodNotFound => ServeOutcome::MethodNotFound { method },
            };
            let reply = PlaneReply { seq: *seq, outcome };
            match per_conn.iter_mut().find(|(c, _)| c == conn) {
                Some((_, items)) => items.push(reply),
                None => per_conn.push((*conn, vec![reply])),
            }
        }
        shard.stats.replies.fetch_add(len, Ordering::Relaxed);
        let counts: Vec<(u64, u64)> =
            per_conn.iter().map(|(c, items)| (*c, items.len() as u64)).collect();
        let envs: Vec<Envelope> = per_conn
            .into_iter()
            .map(|(conn, items)| self.reply_envelope(idx, conn, items))
            .collect();
        self.mailbox.post_many(envs);
        for (conn, n) in counts {
            if let Some(ctl) = self.ctl(conn) {
                self.release(shard, &ctl, n);
            } else {
                shard.inflight.fetch_sub(n, Ordering::AcqRel);
            }
        }
    }
}

/// Sending half of a plane connection. Single-owner by design: the wire
/// front gives it to the connection's reader thread.
pub(crate) struct PlaneSender {
    shared: Arc<PlaneShared>,
    conn: u64,
    next_seq: u64,
    closed: bool,
}

impl PlaneSender {
    /// Submits a request under an auto-assigned sequence id (returned).
    /// May park the calling thread (backpressure); never blocks a shard.
    pub(crate) fn send(&mut self, method: u32, arg: AnyPayload) -> Result<u64, ServeError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shared.ingress(self.conn, seq, method, arg)?;
        Ok(seq)
    }

    /// Submits a request under a caller-chosen sequence id (the wire front
    /// passes the client's own call id through).
    pub(crate) fn send_tagged(
        &mut self,
        seq: u64,
        method: u32,
        arg: AnyPayload,
    ) -> Result<(), ServeError> {
        self.shared.ingress(self.conn, seq, method, arg)
    }

    /// Closes the connection: pending replies still drain, then the
    /// receiver observes `Closed`.
    pub(crate) fn close(mut self) {
        self.close_inner();
    }

    fn close_inner(&mut self) {
        if !self.closed {
            self.closed = true;
            self.shared.close_conn(self.conn);
        }
    }
}

impl Drop for PlaneSender {
    fn drop(&mut self) {
        self.close_inner();
    }
}

/// Receiving half of a plane connection.
pub(crate) struct PlaneReceiver {
    shared: Arc<PlaneShared>,
    conn: u64,
    buffer: VecDeque<PlaneReply>,
}

impl PlaneReceiver {
    /// Blocks for the next reply on this connection. Replies arrive in
    /// request order.
    pub(crate) fn recv(&mut self) -> Result<PlaneReply, ServeError> {
        loop {
            if let Some(r) = self.buffer.pop_front() {
                return Ok(r);
            }
            let env = self
                .shared
                .mailbox
                .take(self.conn as u32, Src::Any, Tag::Value(REPLY_TAG), &[])
                .map_err(|e| match e {
                    RuntimeError::Aborted => ServeError::Closed,
                    other => panic!("plane reply mailbox failed: {other}"),
                })?;
            let (batch, _) = env
                .payload
                .into_owned::<ReplyBatch>()
                .unwrap_or_else(|_| panic!("foreign payload in plane reply bucket"));
            if batch.items.is_empty() {
                return Err(ServeError::Closed); // close sentinel
            }
            self.buffer.extend(batch.items);
        }
    }

    /// Non-blocking receive: `Ok(None)` when no reply has been delivered
    /// yet. Ordering and close semantics match [`PlaneReceiver::recv`].
    pub(crate) fn try_recv(&mut self) -> Result<Option<PlaneReply>, ServeError> {
        loop {
            if let Some(r) = self.buffer.pop_front() {
                return Ok(Some(r));
            }
            let Some(env) =
                self.shared.mailbox.try_take(self.conn as u32, Src::Any, Tag::Value(REPLY_TAG))
            else {
                return Ok(None);
            };
            let (batch, _) = env
                .payload
                .into_owned::<ReplyBatch>()
                .unwrap_or_else(|_| panic!("foreign payload in plane reply bucket"));
            if batch.items.is_empty() {
                return Err(ServeError::Closed); // close sentinel
            }
            self.buffer.extend(batch.items);
        }
    }
}

/// A full-duplex plane connection: a sending and a receiving half plus
/// call conveniences.
pub struct PlaneClient {
    sender: PlaneSender,
    receiver: PlaneReceiver,
}

impl PlaneClient {
    /// Pipelined submit under an auto-assigned sequence id (returned). May
    /// park the calling thread (backpressure); never blocks a shard.
    pub fn send(&mut self, method: u32, arg: AnyPayload) -> Result<u64, ServeError> {
        self.sender.send(method, arg)
    }

    /// Blocks for the next reply on this connection. Replies arrive in
    /// request order.
    pub fn recv(&mut self) -> Result<PlaneReply, ServeError> {
        self.receiver.recv()
    }

    /// Non-blocking receive: `Ok(None)` when no reply has been delivered
    /// yet. Ordering and close semantics match [`PlaneClient::recv`].
    pub fn try_recv(&mut self) -> Result<Option<PlaneReply>, ServeError> {
        self.receiver.try_recv()
    }

    /// One request, one reply. Must not be interleaved with pipelined
    /// `send`s — the next reply is assumed to answer this call.
    pub fn call(&mut self, method: u32, arg: AnyPayload) -> Result<AnyPayload, ServeError> {
        let seq = self.sender.send(method, arg)?;
        let reply = self.receiver.recv()?;
        assert_eq!(reply.seq, seq, "call() interleaved with pipelined sends");
        match reply.outcome {
            ServeOutcome::Reply(p) => Ok(p),
            ServeOutcome::MethodNotFound { method } => Err(ServeError::MethodNotFound { method }),
            ServeOutcome::Overloaded { queue_depth, reason } => {
                Err(ServeError::Overloaded { queue_depth, reason })
            }
        }
    }

    /// Splits into independently-owned halves.
    pub(crate) fn split(self) -> (PlaneSender, PlaneReceiver) {
        (self.sender, self.receiver)
    }
}

/// Cheap handle for opening connections and reading counters from any
/// thread.
#[derive(Clone)]
pub struct PlaneHandle {
    shared: Arc<PlaneShared>,
}

impl PlaneHandle {
    /// Opens a new connection.
    pub fn client(&self) -> PlaneClient {
        let conn = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        assert!(conn < u32::MAX as u64, "connection ids exhausted the context space");
        let shard = (splitmix64(conn ^ 0x5e7e_517e) % self.shared.shards.len() as u64) as usize;
        let ctl = Arc::new(ConnCtl { shard, inflight: Mutex::new(0), cond: Condvar::new() });
        self.shared.conns.lock().insert(conn, ctl);
        self.shared.conns_opened.fetch_add(1, Ordering::Relaxed);
        mxn_trace::emit_instant(EventId::ServeConn, [conn, shard as u64, 1, 0]);
        PlaneClient {
            sender: PlaneSender {
                shared: Arc::clone(&self.shared),
                conn,
                next_seq: 0,
                closed: false,
            },
            receiver: PlaneReceiver {
                shared: Arc::clone(&self.shared),
                conn,
                buffer: VecDeque::new(),
            },
        }
    }

    /// Snapshot of every shard's counters.
    pub(crate) fn stats(&self) -> PlaneStats {
        PlaneStats {
            per_shard: self.shared.shards.iter().map(|s| s.stats.snapshot()).collect(),
            conns_opened: self.shared.conns_opened.load(Ordering::Relaxed),
            conns_closed: self.shared.conns_closed.load(Ordering::Relaxed),
        }
    }
}

/// The sharded serving plane. See the module docs for the dataflow.
pub struct ServingPlane {
    shared: Arc<PlaneShared>,
    executors: Vec<JoinHandle<()>>,
}

impl ServingPlane {
    /// Starts a plane: `factory(shard)` builds each shard's backend (the
    /// backend moves onto the shard's executor thread).
    pub fn new(
        policy: ServePolicy,
        factory: impl FnMut(usize) -> Box<dyn PlaneBackend>,
    ) -> ServingPlane {
        Self::new_traced(policy, Vec::new(), factory)
    }

    /// Like [`ServingPlane::new`], with a trace recorder installed on each
    /// shard thread (`handles[shard % handles.len()]`), so `ServeBatch` /
    /// `ServeOverload` spans land in a collectable trace.
    pub fn new_traced(
        policy: ServePolicy,
        handles: Vec<TraceHandle>,
        mut factory: impl FnMut(usize) -> Box<dyn PlaneBackend>,
    ) -> ServingPlane {
        assert!(policy.shards > 0, "a plane needs at least one shard");
        let abort = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(PlaneShared {
            policy,
            closed: AtomicBool::new(false),
            abort: Arc::clone(&abort),
            mailbox: Mailbox::new(abort, Arc::new(Liveness::new(0)), Arc::new(Revocations::new())),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            shards: (0..policy.shards)
                .map(|_| ShardState {
                    queue: Mutex::new(VecDeque::new()),
                    cond: Condvar::new(),
                    inflight: AtomicU64::new(0),
                    stats: ShardCounters::default(),
                })
                .collect(),
            conns_opened: AtomicU64::new(0),
            conns_closed: AtomicU64::new(0),
        });
        let executors = (0..policy.shards)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                let mut backend = factory(idx);
                let handle = (!handles.is_empty()).then(|| handles[idx % handles.len()].clone());
                std::thread::Builder::new()
                    .name(format!("serve-shard-{idx}"))
                    .spawn(move || {
                        let _guard = handle.as_ref().map(|h| h.install());
                        shared.shard_loop(idx, backend.as_mut());
                        backend.shutdown();
                    })
                    .expect("spawn shard executor")
            })
            .collect();
        ServingPlane { shared, executors }
    }

    /// A cheap cloneable handle (open connections, read stats).
    pub fn handle(&self) -> PlaneHandle {
        PlaneHandle { shared: Arc::clone(&self.shared) }
    }

    /// Opens a new connection (convenience for [`PlaneHandle::client`]).
    pub fn client(&self) -> PlaneClient {
        self.handle().client()
    }

    /// Snapshot of the plane's counters.
    pub fn stats(&self) -> PlaneStats {
        self.handle().stats()
    }

    /// Drains queued work, stops the executors, wakes every blocked
    /// client, and returns the final counters.
    pub fn shutdown(mut self) -> PlaneStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> PlaneStats {
        self.shared.closed.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            // Executors drain to empty before observing `closed`.
            shard.cond.notify_all();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
        // Unblock parked senders and waiting receivers.
        for ctl in self.shared.conns.lock().values() {
            ctl.cond.notify_all();
        }
        self.shared.abort.store(true, Ordering::Release);
        self.shared.mailbox.wake_all();
        self.handle().stats()
    }
}

impl Drop for ServingPlane {
    fn drop(&mut self) {
        if !self.shared.closed.load(Ordering::Acquire) {
            self.shutdown_inner();
        }
    }
}
