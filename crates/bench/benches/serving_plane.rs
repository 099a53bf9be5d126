//! E22 — the sharded serving plane under thousand-client load.
//!
//! Cells:
//!
//! * **sustained** — 1024 simulated client connections (8 driver threads,
//!   pipelined 48-deep) against a 2-shard plane: sustained RMI calls/s
//!   and the per-call latency distribution. Headline target: ≥ 1M calls/s
//!   with bounded p99.
//! * **batched vs per-call** — a 64-byte-payload workload through a
//!   `PrmiBackend` plane at `max_batch = 128` vs `max_batch = 1`: the
//!   ratio is what batching buys when every dispatch run is one `CollReq`
//!   round through the provider's collective serve loop.
//! * **overload** — offered load far beyond a deliberately tiny admission
//!   budget, against an uncontended baseline on the *same* plane shape:
//!   admission control must shed (typed `Overloaded` NACKs) while holding
//!   the p99 of *served* requests within 10× of uncontended.
//! * **traced** — a short run with recorders on the shard executors,
//!   exported as a Chrome trace (`target/serving_trace.json`, "serve"
//!   category) for the CI artifact.
//!
//! Results land in `BENCH_serving.json` at the repo root. With
//! `MXN_ENFORCE_SERVING_BASELINE` set (the CI smoke job does), sustained
//! throughput must stay within 10% of the committed baseline and the
//! sustained p99 must stay bounded.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use mxn_bench::criterion_config;
use mxn_framework::{AnyPayload, Dispatch, RemoteService};
use mxn_prmi::{serve, ServeOpts};
use mxn_runtime::{InterComm, World};
use mxn_serve::{
    PlaneClient, PrmiBackend, ServeOutcome, ServePolicy, ServiceBackend, ServingPlane,
};
use mxn_trace::TraceCollector;

/// Method 0: answers the payload's length. 64-byte `Vec<u8>` arguments
/// make this the issue's "64B payload" workload.
struct Echo;

impl RemoteService for Echo {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        match method {
            0 => AnyPayload::new(arg.downcast::<Vec<u8>>().unwrap().len() as u64).into(),
            _ => Dispatch::MethodNotFound,
        }
    }
}

/// Echo with a per-item spin, modelling a method with real work — the
/// overload cell needs service time to exceed arrival time.
struct SpinEcho {
    per_item: Duration,
}

impl RemoteService for SpinEcho {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        let start = Instant::now();
        while start.elapsed() < self.per_item {
            std::hint::spin_loop();
        }
        match method {
            0 => AnyPayload::new(arg.downcast::<Vec<u8>>().unwrap().len() as u64).into(),
            _ => Dispatch::MethodNotFound,
        }
    }
}

fn echo_plane(policy: ServePolicy) -> ServingPlane {
    let svc: Arc<dyn RemoteService> = Arc::new(Echo);
    ServingPlane::new(policy, move |_| Box::new(ServiceBackend::new(Arc::clone(&svc))))
}

struct LoadResult {
    calls: u64,
    sheds: u64,
    elapsed: Duration,
    /// Per-served-call latencies, microseconds.
    latencies_us: Vec<f64>,
}

impl LoadResult {
    fn calls_per_sec(&self) -> f64 {
        self.calls as f64 / self.elapsed.as_secs_f64()
    }
    fn p99_us(&self) -> f64 {
        percentile(&self.latencies_us, 0.99)
    }
}

fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

struct ClientState {
    client: PlaneClient,
    sent: usize,
    recvd: usize,
    stamps: std::collections::VecDeque<Instant>,
}

impl ClientState {
    fn absorb(&mut self, reply: mxn_serve::PlaneReply, latencies: &mut Vec<f64>, sheds: &mut u64) {
        let issued = self.stamps.pop_front().expect("stamp per request");
        match reply.outcome {
            ServeOutcome::Reply(_) => latencies.push(issued.elapsed().as_secs_f64() * 1e6),
            ServeOutcome::Overloaded { .. } => *sheds += 1,
            ServeOutcome::MethodNotFound { method } => {
                panic!("unexpected MethodNotFound({method})")
            }
        }
        self.recvd += 1;
    }
}

/// Drives `clients` pipelined connections (spread over `drivers` threads,
/// round-robin within each driver, `window`-deep per connection) for
/// `per_client` requests each. Returns totals and the latency sample.
///
/// Latency is send-to-receive per request; replies are FIFO per
/// connection, so pairing send stamps with receives positionally is exact.
/// Each pass drains everything already delivered (non-blocking), then tops
/// pipelines up; the driver only parks when no connection has anything
/// ready, so measured latency is delivery time, not round-robin lag.
///
/// `replicable` wraps arguments with [`AnyPayload::replicable`] — required
/// when the plane's backend fans batches out through a PRMI collective.
///
/// `pace` sleeps between driver passes, turning the closed loop into an
/// open(ish) arrival process: the overload cell uses it so oversubscribed
/// driver threads don't starve the shard of the CPU whose scheduling they
/// are measuring.
#[allow(clippy::too_many_arguments)]
fn run_load(
    plane: &ServingPlane,
    clients: usize,
    drivers: usize,
    window: usize,
    per_client: usize,
    payload: usize,
    replicable: bool,
    pace: Option<Duration>,
) -> LoadResult {
    assert_eq!(clients % drivers, 0, "clients must divide evenly over drivers");
    let per_driver = clients / drivers;
    let barrier = Arc::new(Barrier::new(drivers + 1));
    let handle = plane.handle();
    let threads: Vec<_> = (0..drivers)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let handle = handle.clone();
            std::thread::spawn(move || {
                let make_arg = move || {
                    if replicable {
                        AnyPayload::replicable(vec![7u8; payload])
                    } else {
                        AnyPayload::new(vec![7u8; payload])
                    }
                };
                let mut states: Vec<ClientState> = (0..per_driver)
                    .map(|_| ClientState {
                        client: handle.client(),
                        sent: 0,
                        recvd: 0,
                        stamps: std::collections::VecDeque::new(),
                    })
                    .collect();
                barrier.wait();
                let mut latencies = Vec::with_capacity(per_driver * per_client);
                let mut sheds = 0u64;
                loop {
                    let mut progressed = false;
                    let mut all_done = true;
                    for st in &mut states {
                        // Drain everything already delivered.
                        while st.recvd < st.sent {
                            match st.client.try_recv().unwrap() {
                                Some(reply) => {
                                    st.absorb(reply, &mut latencies, &mut sheds);
                                    progressed = true;
                                }
                                None => break,
                            }
                        }
                        // Top the pipeline up.
                        while st.sent < per_client && st.sent - st.recvd < window {
                            st.stamps.push_back(Instant::now());
                            st.client.send(0, make_arg()).unwrap();
                            st.sent += 1;
                            progressed = true;
                        }
                        if st.recvd < per_client {
                            all_done = false;
                        }
                    }
                    if all_done {
                        break;
                    }
                    if !progressed {
                        // Nothing ready anywhere: park on the first
                        // connection with an outstanding request.
                        let st = states
                            .iter_mut()
                            .find(|s| s.recvd < s.sent)
                            .expect("not done yet, so someone is outstanding");
                        let reply = st.client.recv().unwrap();
                        st.absorb(reply, &mut latencies, &mut sheds);
                    } else if let Some(pause) = pace {
                        std::thread::sleep(pause);
                    }
                }
                (latencies, sheds)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let mut latencies_us = Vec::new();
    let mut sheds = 0;
    for t in threads {
        let (lat, shed) = t.join().expect("driver thread");
        latencies_us.extend(lat);
        sheds += shed;
    }
    let elapsed = start.elapsed();
    LoadResult { calls: (clients * per_client) as u64, sheds, elapsed, latencies_us }
}

/// The committed sustained throughput, read before this run overwrites it.
fn committed_baseline(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"sustained_calls_per_sec\": ";
    let at = text.find(key)? + key.len();
    text[at..].split(|c: char| !(c.is_ascii_digit() || c == '.')).next()?.parse().ok()
}

fn bench(c: &mut Criterion) {
    // Criterion smoke cell: one small plane round-trip.
    let mut group = c.benchmark_group("serving_plane");
    group.bench_function("call_roundtrip", |b| {
        let plane = echo_plane(ServePolicy::default().with_shards(1));
        let mut client = plane.client();
        b.iter(|| {
            std::hint::black_box(client.call(0, AnyPayload::new(vec![7u8; 64])).unwrap());
        });
    });
    group.finish();

    let enforce = std::env::var_os("MXN_ENFORCE_SERVING_BASELINE").is_some();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    let baseline = committed_baseline(path);

    // --- sustained: 1024 clients, 8 drivers, 2 shards -----------------
    let policy = ServePolicy::default()
        .with_shards(2)
        .with_max_batch(128)
        .with_shard_queue(1 << 17)
        .with_inflight_budget(1 << 17)
        .with_client_queue(128);
    let plane = echo_plane(policy);
    // Warm-up: populate connections and fault in the paths.
    run_load(&plane, 64, 16, 16, 64, 64, false, None);
    let sustained = run_load(&plane, 1024, 8, 48, 1024, 64, false, None);
    let stats = plane.shutdown();
    let totals = stats.totals();
    assert_eq!(sustained.sheds, 0, "sustained cell must not shed");
    assert!(totals.batch_peak > 1, "sustained load must actually batch");
    println!(
        "sustained: {:.0} calls/s over {} conns (p50 {:.0}us p99 {:.0}us, batch peak {})",
        sustained.calls_per_sec(),
        stats.conns_opened,
        percentile(&sustained.latencies_us, 0.50),
        sustained.p99_us(),
        totals.batch_peak,
    );

    // --- batched vs per-call at 64B through the PRMI bridge -----------
    // What batching actually amortizes is the dispatch round: with a
    // `PrmiBackend`, every run is one `CollReq` through the collective
    // serve loop on the provider rank. `max_batch = 1` pays that round
    // per call; `max_batch = 128` pays it per run of up to 128.
    let prmi_cell = |max_batch: usize| -> LoadResult {
        let mut results = World::run(2, move |p| {
            let world = p.world();
            let me = world.rank();
            let (_local, ic) = InterComm::create(world, if me == 0 { 0 } else { 1 }).unwrap();
            if me == 0 {
                let mut ic = Some(ic);
                let plane = ServingPlane::new(
                    ServePolicy::default()
                        .with_shards(1)
                        .with_max_batch(max_batch)
                        .with_shard_queue(1 << 14)
                        .with_inflight_budget(1 << 15)
                        .with_client_queue(64),
                    move |_| Box::new(PrmiBackend::new(ic.take().expect("single shard"))),
                );
                let res = run_load(&plane, 128, 4, 64, 128, 64, true, None);
                plane.shutdown(); // releases the provider's serve loop
                Some(res)
            } else {
                serve(&ic, &Echo, ServeOpts::collective()).unwrap();
                None
            }
        });
        results.remove(0).expect("rank 0 carries the measurement")
    };
    let batched = prmi_cell(128);
    let percall = prmi_cell(1);
    let batch_speedup = batched.calls_per_sec() / percall.calls_per_sec();
    println!(
        "batched {:.0} calls/s vs per-call {:.0} calls/s through PRMI: {batch_speedup:.1}x",
        batched.calls_per_sec(),
        percall.calls_per_sec()
    );

    // --- overload: tiny admission budget, hot method ------------------
    let overload_shape = ServePolicy::default()
        .with_shards(1)
        .with_max_batch(16)
        .with_shard_queue(8)
        .with_inflight_budget(16)
        .with_client_queue(64);
    let spin_plane = |policy: ServePolicy| {
        let svc: Arc<dyn RemoteService> =
            Arc::new(SpinEcho { per_item: Duration::from_micros(20) });
        ServingPlane::new(policy, move |_| Box::new(ServiceBackend::new(Arc::clone(&svc))))
    };
    let plane = spin_plane(overload_shape);
    // Uncontended: a handful of callers, one in flight each.
    let uncontended = run_load(&plane, 8, 8, 1, 256, 64, false, None);
    // Overload: 128 pipelined clients, paced, against a 24-deep budget.
    let overloaded = run_load(&plane, 128, 4, 4, 128, 64, false, Some(Duration::from_micros(200)));
    let overload_stats = plane.shutdown();
    assert!(overloaded.sheds > 0, "overload cell must shed via Overloaded NACKs");
    let p99_ratio = overloaded.p99_us() / uncontended.p99_us();
    println!(
        "overload: p99 {:.0}us vs uncontended {:.0}us ({p99_ratio:.1}x), {} sheds of {} offered",
        overloaded.p99_us(),
        uncontended.p99_us(),
        overloaded.sheds,
        overloaded.calls,
    );

    // --- traced run for the CI artifact -------------------------------
    let collector = TraceCollector::new(2);
    let handles = vec![collector.handle(0), collector.handle(1)];
    let svc: Arc<dyn RemoteService> = Arc::new(Echo);
    let plane = ServingPlane::new_traced(
        ServePolicy::default().with_shards(2).with_max_batch(16),
        handles,
        move |_| Box::new(ServiceBackend::new(Arc::clone(&svc))),
    );
    run_load(&plane, 16, 4, 8, 64, 64, false, None);
    plane.shutdown();
    let trace = collector.finish();
    let batches = trace.aggregate().count(mxn_trace::EventId::ServeBatch);
    assert!(batches > 0, "traced run must record ServeBatch spans");
    let trace_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/serving_trace.json");
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target")).ok();
    std::fs::write(trace_path, trace.chrome_json()).expect("write serving trace");
    println!("traced run: {batches} ServeBatch spans -> {trace_path}");

    // --- gates --------------------------------------------------------
    if enforce {
        assert!(
            sustained.calls_per_sec() >= 1_000_000.0,
            "sustained throughput below 1M calls/s: {:.0}",
            sustained.calls_per_sec()
        );
        assert!(
            sustained.p99_us() <= 100_000.0,
            "sustained p99 unbounded: {:.0}us",
            sustained.p99_us()
        );
        assert!(
            batch_speedup >= 5.0,
            "batched dispatch under 5x over per-call: {batch_speedup:.1}x"
        );
        assert!(
            p99_ratio <= 10.0,
            "admission control failed to bound overload p99: {p99_ratio:.1}x uncontended"
        );
        if let Some(base) = baseline {
            let ratio = sustained.calls_per_sec() / base;
            assert!(
                ratio >= 0.9,
                "sustained throughput regressed below 90% of committed baseline: \
                 {:.0} vs {base:.0}",
                sustained.calls_per_sec()
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"serving_plane\",\n  \"sustained\": {{\"clients\": 1024, \"drivers\": 8, \"window\": 48, \"shards\": 2, \"payload_bytes\": 64, \"calls\": {}, \"sustained_calls_per_sec\": {:.0}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"batch_peak\": {}}},\n  \"batching\": {{\"payload_bytes\": 64, \"batched_calls_per_sec\": {:.0}, \"percall_calls_per_sec\": {:.0}, \"batched_speedup\": {:.2}}},\n  \"overload\": {{\"offered\": {}, \"sheds\": {}, \"shed_admission\": {}, \"served_p99_us\": {:.1}, \"uncontended_p99_us\": {:.1}, \"p99_ratio\": {:.2}}}\n}}\n",
        sustained.calls,
        sustained.calls_per_sec(),
        percentile(&sustained.latencies_us, 0.50),
        sustained.p99_us(),
        totals.batch_peak,
        batched.calls_per_sec(),
        percall.calls_per_sec(),
        batch_speedup,
        overloaded.calls,
        overloaded.sheds,
        overload_stats.totals().shed_admission,
        overloaded.p99_us(),
        uncontended.p99_us(),
        p99_ratio,
    );
    std::fs::write(path, json).expect("write BENCH_serving.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
