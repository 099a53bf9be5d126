//! The `prmi_serve_uds` workload: 64-byte PRMI calls from two UDS client
//! connections through `WireFront` → `ServingPlane` → `PrmiBackend` to a
//! provider rank running `collective_serve_batched`.
//!
//! Callers block for replies, so the loop is closed. In the *closed* phase
//! every connection makes one synchronous call after the other and times
//! each; the *peak* phase pipelines windows of [`WINDOW`] calls per
//! connection. The traced pass replaces the closed phase by a *solo* phase,
//! whose calls are split layer by layer by [`Stamps`], and a *paced* phase:
//! one synchronous call per connection every [`PACE`] on a fixed schedule,
//! each timed from when it was due.
//!
//! The whole bring-up runs on one CPU ([`OneCpu`]).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mxn_framework::{AnyPayload, BatchService, Dispatch, RemoteService};
use mxn_prmi::collective_serve_batched;
use mxn_runtime::{InterComm, World};
use mxn_serve::{
    BatchReply, PlaneBackend, PrmiBackend, ServePolicy, ServingPlane, ShardStats, WireFront,
};
use mxn_wire::{decode_value, encode_value, MuxClient, MuxResponse, MuxStatus};

use crate::couple::SocketDir;
use crate::gen::{prmi_key, prmi_payload, prmi_reply};
use crate::host::OneCpu;
use crate::spans::{Recorder, Span, OP_SPAN};
use crate::stats::due_time_latency;

/// Client connections, one thread each. Part of the workload definition.
pub const CONNS: usize = 2;
/// Gap between two due times of one connection: 2 × 2000 = 4000 calls/s,
/// about 2 % of what the seed sustains at peak on the reference box, so
/// the paced phase measures latency, not queueing.
pub const PACE: Duration = Duration::from_micros(500);
/// Calls each connection keeps in flight in the peak phase.
pub const WINDOW: usize = 32;
/// Checked warm-up calls per connection, part of `setup_s`.
const WARMUP_CALLS: u64 = 200;
/// Wire codec tag the benchmark gives `Vec<u8>` arguments and replies.
const TAG_BYTES: u32 = 12;

/// Method 0 answers its argument XOR a seeded key.
struct Xor {
    key: u8,
}

impl RemoteService for Xor {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        match (method, arg.downcast::<Vec<u8>>()) {
            (0, Ok(bytes)) => AnyPayload::new(prmi_reply(&bytes, self.key)).into(),
            _ => Dispatch::MethodNotFound,
        }
    }
}
impl BatchService for Xor {}

#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Untimed synchronous calls after the warm-up.
    pub settle: Duration,
    /// Connection 0 alone, synchronous calls split by [`Stamps`] (traced
    /// bring-ups only).
    pub solo: Duration,
    /// Every connection, synchronous calls back to back.
    pub closed: Duration,
    pub paced: Duration,
    pub peak: Duration,
}

/// What the paced phase measured.
#[derive(Debug, Default)]
pub struct Paced {
    /// Latency of each call from its due time, ms.
    pub ms: Vec<f64>,
    /// How late the generator sent each call, µs.
    pub late_us: Vec<f64>,
    /// First start to last end over the connections.
    pub secs: f64,
    /// A traced bring-up records every other call, so the recorded and the
    /// unrecorded calls of one phase give the tracing overhead: latencies
    /// (ms) of the recorded ones here, of the others in `unrecorded_ms`.
    pub recorded_ms: Vec<f64>,
    pub unrecorded_ms: Vec<f64>,
}

#[derive(Debug, Default)]
pub struct PrmiRun {
    pub setup_s: f64,
    /// Latency of each call of the closed phase, ms.
    pub closed_ms: Vec<f64>,
    pub paced: Paced,
    /// One entry per solo call: the whole call, the part of it inside the
    /// plane, and the part of that inside the PRMI backend, µs.
    pub nest: Vec<[f64; 3]>,
    pub peak_calls: u64,
    pub peak_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Plane counters over the peak phase.
    pub plane: ShardStats,
    pub spans: Vec<Vec<Span>>,
}

/// When the call in flight crossed each layer boundary inside the server,
/// stamped by the benchmark's own code there: the front's decode closure
/// (off the wire, about to enter the plane), a wrapper around the shard's
/// `PrmiBackend` (batch in, batch out) and the front's encode closure (out
/// of the plane, about to go on the wire). With one synchronous caller the
/// stamps all belong to the call that just returned, so its layers are
/// timed inside that call, on the threads that carry it: the nest
/// call ⊇ plane ⊇ backend holds for every sample.
pub struct Stamps {
    epoch: Instant,
    arrived: AtomicU64,
    backend_in: AtomicU64,
    backend_out: AtomicU64,
    replied: AtomicU64,
}

impl Stamps {
    /// `epoch` is the run's common epoch, so stamps and spans share a clock.
    fn new(epoch: Instant) -> Arc<Stamps> {
        let zero = || AtomicU64::new(0);
        Arc::new(Stamps {
            epoch,
            arrived: zero(),
            backend_in: zero(),
            backend_out: zero(),
            replied: zero(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn mark(&self, slot: &AtomicU64) {
        slot.store(self.now_ns(), Ordering::SeqCst);
    }
}

/// A `PrmiBackend` that stamps when each batch enters and leaves it.
struct StampedBackend {
    inner: PrmiBackend,
    stamps: Arc<Stamps>,
}

impl PlaneBackend for StampedBackend {
    fn dispatch_batch(&mut self, method: u32, args: Vec<AnyPayload>) -> Vec<BatchReply> {
        self.stamps.mark(&self.stamps.backend_in);
        let replies = self.inner.dispatch_batch(method, args);
        self.stamps.mark(&self.stamps.backend_out);
        replies
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[derive(Default)]
struct ConnOut {
    closed_ms: Vec<f64>,
    paced: Paced,
    nest: Vec<[f64; 3]>,
    peak_calls: u64,
    peak_span: Option<(Instant, Instant)>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
}

/// One client connection and its reply oracle.
struct Conn {
    client: MuxClient,
    id: u64,
    seed: u64,
    key: u8,
    /// Calls made so far; also the op id of the next call's spans.
    next: u64,
    out: ConnOut,
}

impl Conn {
    fn arg(&mut self) -> Vec<u8> {
        self.next += 1;
        prmi_payload(self.seed, self.id, self.next - 1)
    }

    fn judge(&mut self, arg: &[u8], resp: &MuxResponse) {
        self.out.attempted += 1;
        let ok = resp.status == MuxStatus::Ok
            && decode_value::<Vec<u8>>(&resp.payload)
                .is_ok_and(|got| got == prmi_reply(arg, self.key));
        self.out.failed += u64::from(!ok);
    }

    fn call(&mut self) {
        let arg = self.arg();
        let resp = self.client.call(0, TAG_BYTES, encode_value(&arg)).expect("mux call");
        self.judge(&arg, &resp);
    }

    fn sync_for(&mut self, limit: Duration) {
        let began = Instant::now();
        while began.elapsed() < limit {
            self.call();
        }
    }

    /// Synchronous calls, each timed from before its argument is made to
    /// when its reply is in; the oracle check is outside, as in `paced`.
    fn closed(&mut self, limit: Duration) {
        let began = Instant::now();
        loop {
            let sent = Instant::now();
            if sent.duration_since(began) >= limit {
                return;
            }
            let arg = self.arg();
            let resp = self.client.call(0, TAG_BYTES, encode_value(&arg)).expect("mux call");
            self.out.closed_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            self.judge(&arg, &resp);
        }
    }

    /// Synchronous calls with the server to itself. Each becomes one sample
    /// of the nest and, in the trace, a `bench.op` whose `wire.mux.call`
    /// holds the plane's span, which holds the backend's.
    fn solo(&mut self, limit: Duration, stamps: &Stamps, rec: &mut Recorder) {
        let began = Instant::now();
        let load = |slot: &AtomicU64| slot.load(Ordering::SeqCst);
        while began.elapsed() < limit {
            let op = self.next;
            rec.enter(OP_SPAN, op);
            let arg = self.arg();
            rec.enter("wire.mux.call", op);
            let sent = stamps.now_ns();
            let resp = self.client.call(0, TAG_BYTES, encode_value(&arg)).expect("mux call");
            let done = stamps.now_ns();
            let (arrived, replied) = (load(&stamps.arrived), load(&stamps.replied));
            let (b_in, b_out) = (load(&stamps.backend_in), load(&stamps.backend_out));
            rec.enter_at("serve.prmi_call", op, arrived);
            rec.enter_at("prmi.call", op, b_in);
            rec.exit_at(b_out);
            rec.exit_at(replied);
            rec.exit();
            self.judge(&arg, &resp);
            rec.exit();
            let us = |from: u64, to: u64| (to - from) as f64 / 1e3;
            self.out.nest.push([us(sent, done), us(arrived, replied), us(b_in, b_out)]);
        }
    }

    /// One synchronous call per [`PACE`], on a schedule fixed at `start`:
    /// a slow call does not move later due times, it makes them late.
    fn paced(&mut self, limit: Duration, traced: bool, rec: &mut Recorder) -> Paced {
        let start = Instant::now();
        let offset = PACE * self.id as u32 / CONNS as u32;
        let secs = |t: Instant| t.duration_since(start).as_secs_f64();
        let mut out = Paced::default();
        for k in 0u32.. {
            let due = start + offset + PACE * k;
            if due.duration_since(start) >= limit {
                break;
            }
            wait_until(due);
            let record = traced && k % 2 == 0;
            rec.set_enabled(record);
            let sent = Instant::now();
            let op = self.next;
            rec.enter(OP_SPAN, op);
            let arg = self.arg();
            let resp = rec.scope("wire.mux.call", op, || {
                self.client.call(0, TAG_BYTES, encode_value(&arg)).expect("mux call")
            });
            let done = Instant::now();
            self.judge(&arg, &resp);
            rec.exit();
            let (lat, late) = due_time_latency(secs(due), secs(sent), secs(done));
            out.ms.push(lat * 1e3);
            out.late_us.push(late * 1e6);
            if traced {
                let half = if record { &mut out.recorded_ms } else { &mut out.unrecorded_ms };
                half.push(lat * 1e3);
            }
        }
        rec.set_enabled(traced);
        out.secs = start.elapsed().as_secs_f64();
        out
    }

    /// Windows of [`WINDOW`] pipelined calls until `limit` has passed.
    fn peak(&mut self, limit: Duration) {
        let began = Instant::now();
        let mut args = Vec::with_capacity(WINDOW);
        while began.elapsed() < limit {
            args.clear();
            for _ in 0..WINDOW {
                let arg = self.arg();
                self.client.send(0, TAG_BYTES, encode_value(&arg), false).expect("mux send");
                args.push(arg);
            }
            for arg in &args {
                let resp = self.client.recv().expect("mux recv");
                self.judge(arg, &resp);
            }
            self.out.peak_calls += WINDOW as u64;
        }
        self.out.peak_span = Some((began, Instant::now()));
    }
}

/// Sleeps until shortly before `due`, then yields: a plain sleep overshoots
/// by the timer slack, and spinning would take a core from the server.
fn wait_until(due: Instant) {
    const SLACK: Duration = Duration::from_micros(120);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SLACK {
            std::thread::sleep(left - SLACK);
        } else {
            std::thread::yield_now();
        }
    }
}

fn bind_front(sock: &Path, plane: &ServingPlane, stamps: Option<Arc<Stamps>>) -> WireFront {
    let on_reply = stamps.clone();
    WireFront::bind(
        sock,
        plane.handle(),
        // The PRMI bridge fans arguments out, so they must be replicable.
        Box::new(move |codec, bytes| {
            if let Some(s) = &stamps {
                s.mark(&s.arrived);
            }
            (codec == TAG_BYTES)
                .then(|| decode_value::<Vec<u8>>(bytes).ok().map(AnyPayload::replicable))
                .flatten()
        }),
        Box::new(move |reply| {
            if let Some(s) = &on_reply {
                s.mark(&s.replied);
            }
            reply.downcast::<Vec<u8>>().ok().map(|v| (TAG_BYTES, encode_value(&v)))
        }),
    )
    .expect("bind the wire front")
}

fn shard_delta(now: &ShardStats, before: &ShardStats) -> ShardStats {
    ShardStats {
        enqueued: now.enqueued - before.enqueued,
        batches: now.batches - before.batches,
        batched_items: now.batched_items - before.batched_items,
        replies: now.replies - before.replies,
        shed_admission: now.shed_admission - before.shed_admission,
        shed_deadline: now.shed_deadline - before.shed_deadline,
        parks: now.parks - before.parks,
        queue_peak: now.queue_peak,
        batch_peak: now.batch_peak,
    }
}

/// A 2-rank world whose rank 0 runs `caller` against the provider loop on
/// rank 1; the caller must shut the providers down before it returns.
fn with_provider<R: Send>(key: u8, caller: impl Fn(InterComm) -> R + Send + Sync) -> R {
    World::run(2, |p| {
        let me = p.world().rank();
        let (_local, ic) = InterComm::create(p.world(), me).expect("split caller from provider");
        if me == 0 {
            Some(caller(ic))
        } else {
            collective_serve_batched(&ic, &Xor { key }).expect("provider serve loop");
            None
        }
    })
    .swap_remove(0)
    .expect("rank 0 carries the result")
}

fn prmi_plane(ic: InterComm, stamps: Option<Arc<Stamps>>) -> ServingPlane {
    let mut ic = Some(ic);
    // Shutting this plane down also stops the provider loop.
    ServingPlane::new(ServePolicy::default().with_shards(1).with_max_batch(32), move |_| {
        let inner = PrmiBackend::new(ic.take().expect("a single shard"));
        match stamps.clone() {
            Some(stamps) => Box::new(StampedBackend { inner, stamps }),
            None => Box::new(inner),
        }
    })
}

/// One bring-up of the workload. A traced one stamps every call inside the
/// server, runs the solo phase and records every other paced call.
pub fn run(seed: u64, phases: Phases, traced: bool, epoch: Instant) -> PrmiRun {
    let _one_cpu = OneCpu::pin();
    let t0 = Instant::now();
    let dir = SocketDir::new("prmi_serve_uds");
    let sock = dir.0.join("front.sock");
    let key = prmi_key(seed);
    let barrier = Barrier::new(CONNS + 1);
    let stamps = traced.then(|| Stamps::new(epoch));
    let (outs, setup_done, plane_stats) = with_provider(key, |ic| {
        let plane = prmi_plane(ic, stamps.clone());
        let front = bind_front(&sock, &plane, stamps.clone());
        let result = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNS as u64)
                .map(|id| {
                    let (sock, barrier, stamps) = (&sock, &barrier, stamps.as_deref());
                    s.spawn(move || {
                        let client = MuxClient::connect(sock).expect("connect to the front");
                        let mut c =
                            Conn { client, id, seed, key, next: 0, out: ConnOut::default() };
                        let mut rec = Recorder::new(epoch, id as u32, traced);
                        for _ in 0..WARMUP_CALLS {
                            c.call();
                        }
                        barrier.wait(); // set-up ends
                        c.sync_for(phases.settle);
                        barrier.wait();
                        if let (0, Some(stamps)) = (id, stamps) {
                            c.solo(phases.solo, stamps, &mut rec);
                        }
                        barrier.wait();
                        c.closed(phases.closed);
                        barrier.wait();
                        c.out.paced = c.paced(phases.paced, traced, &mut rec);
                        barrier.wait(); // plane counters snapshot
                        barrier.wait();
                        c.peak(phases.peak);
                        barrier.wait();
                        c.out.spans = rec.finish();
                        c.out
                    })
                })
                .collect();
            barrier.wait();
            let setup_done = Instant::now();
            for _ in 0..4 {
                barrier.wait();
            }
            let before = plane.stats().totals();
            barrier.wait();
            barrier.wait();
            let plane_stats = shard_delta(&plane.stats().totals(), &before);
            let outs: Vec<ConnOut> =
                handles.into_iter().map(|h| h.join().expect("client thread")).collect();
            (outs, setup_done, plane_stats)
        });
        front.shutdown();
        plane.shutdown();
        result
    });

    let mut run = PrmiRun {
        setup_s: setup_done.duration_since(t0).as_secs_f64(),
        plane: plane_stats,
        ..PrmiRun::default()
    };
    let peak: Vec<(Instant, Instant)> = outs.iter().filter_map(|o| o.peak_span).collect();
    let first = peak.iter().map(|s| s.0).min();
    let last = peak.iter().map(|s| s.1).max();
    run.peak_s = first.zip(last).map_or(0.0, |(a, b)| b.duration_since(a).as_secs_f64());
    let merge = |into: &mut Paced, from: Paced| {
        into.ms.extend(from.ms);
        into.late_us.extend(from.late_us);
        into.secs = into.secs.max(from.secs);
        into.recorded_ms.extend(from.recorded_ms);
        into.unrecorded_ms.extend(from.unrecorded_ms);
    };
    for o in outs {
        run.closed_ms.extend(o.closed_ms);
        merge(&mut run.paced, o.paced);
        run.nest.extend(o.nest);
        run.peak_calls += o.peak_calls;
        run.attempted += o.attempted;
        run.failed += o.failed;
        run.spans.push(o.spans);
    }
    run
}
