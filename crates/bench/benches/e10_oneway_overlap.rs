//! Experiment E10 — one-way methods overlap communication with the
//! caller's own computation.
//!
//! "In one-way methods the calling component continues execution
//! immediately, without waiting for the remote invocation to complete"
//! (§2.4). The workload: k pipeline stages, each = one remote call (2 ms
//! service) plus 2 ms of caller-side compute. Blocking calls serialize the
//! two (≈ k·4 ms); one-way calls overlap them (≈ k·2 ms + a final flush).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::time_universe;
use mxn_framework::{AnyPayload, Dispatch, RemoteService};
use mxn_prmi::{serve, Endpoint, Invocation, ServeOpts};

const SERVICE: Duration = Duration::from_millis(2);
const COMPUTE: Duration = Duration::from_millis(2);
const STAGES: usize = 6;

struct SlowService;
impl RemoteService for SlowService {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        if method != 9 {
            std::thread::sleep(SERVICE);
        }
        let v: f64 = arg.downcast().unwrap();
        AnyPayload::replicable(v).into()
    }
}

/// One measured session: k stages of (remote call + local compute), ending
/// with a cheap two-way "flush" call so the session includes the provider
/// finishing (FIFO guarantees it ran everything first).
fn run(oneway: bool, iters: u64) -> Duration {
    time_universe(&[1, 1], |ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ep = Endpoint::default();
            let start = Instant::now();
            for _ in 0..iters {
                for _ in 0..STAGES {
                    if oneway {
                        ep.call::<_, ()>(ic, Invocation::collective(1, 1.0f64).oneway()).unwrap();
                    } else {
                        let _: f64 = ep.call(ic, Invocation::collective(1, 1.0f64)).unwrap();
                    }
                    // The caller's own computation for this stage.
                    std::thread::sleep(COMPUTE);
                }
                // Flush: method 9 has no service time; its response proves
                // all earlier one-way work completed.
                let _: f64 = ep.call(ic, Invocation::collective(9, 0.0f64)).unwrap();
            }
            let d = start.elapsed();
            ep.shutdown(ic, ServeOpts::collective()).unwrap();
            d
        } else {
            serve(ctx.intercomm(0), &SlowService, ServeOpts::collective()).unwrap();
            Duration::ZERO
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_oneway_overlap");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.bench_with_input(BenchmarkId::new("blocking_pipeline", STAGES), &(), |b, _| {
        b.iter_custom(|iters| run(false, iters))
    });
    group.bench_with_input(BenchmarkId::new("oneway_pipeline", STAGES), &(), |b, _| {
        b.iter_custom(|iters| run(true, iters))
    });
    group.finish();

    println!(
        "\n--- E10: {STAGES} stages × ({:?} service + {:?} compute); blocking ≈ {:?}, \
         one-way ≈ {:?} (overlapped) ---",
        SERVICE,
        COMPUTE,
        (SERVICE + COMPUTE) * STAGES as u32,
        COMPUTE * STAGES as u32
    );
}

criterion_group! {
    name = benches;
    config = mxn_bench::criterion_config();
    targets = bench
}
criterion_main!(benches);
