//! Experiment E17 (extension) — cluster-shaped timing via the synthetic
//! network model.
//!
//! The thread-based runtime delivers messages instantly, so message
//! *counts* are reported but cost nothing. With the [`NetworkModel`]
//! (per-message latency + bandwidth), the structural advantages the paper
//! argues for become wall-clock effects on a single machine:
//!
//! * a redistribution's cost tracks its pairwise-message count × latency;
//! * the receiver-request protocol's extra request round now costs a full
//!   latency on top of every transfer (sharpening E7);
//! * schedule messages carry data only, so bandwidth, not chatter,
//!   bounds large transfers.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, field_value};
use mxn_dad::{Dad, Extents, LocalArray};
use mxn_linearize::{request_and_fill, serve_requests, ArrayOrder};
use mxn_runtime::{InterComm, NetworkModel, RunOpts, World};
use mxn_schedule::{RegionSchedule, TransferBuffers};

const M: usize = 2;
const N: usize = 3;

fn dads() -> (Dad, Dad) {
    let e = Extents::new([96, 32]);
    (Dad::block(e.clone(), &[M, 1]).unwrap(), Dad::block(e, &[1, N]).unwrap())
}

/// Runs `iters` transfers under `model`, with the chosen mechanism, and
/// returns the receivers' elapsed time.
fn run(model: NetworkModel, use_schedule: bool, iters: u64) -> Duration {
    let (src, dst) = dads();
    let opts = RunOpts { network: Some(model), ..RunOpts::default() };
    let durations = World::run_opts(M + N, opts, |p| {
        let world = p.world();
        let side = usize::from(p.rank() >= M);
        let (local_comm, ic) = InterComm::create(world, side).unwrap();
        let rank = local_comm.rank();
        if side == 0 {
            let local = LocalArray::from_fn(&src, rank, field_value);
            let sched = RegionSchedule::for_sender(&src, &dst, rank);
            for i in 0..iters {
                if use_schedule {
                    sched
                        .execute_send(&ic, &local, (i & 0xfff) as i32, &mut TransferBuffers::new())
                        .unwrap();
                } else {
                    serve_requests(&ic, &src, ArrayOrder::RowMajor, &local).unwrap();
                }
            }
            Duration::ZERO
        } else {
            let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
            let sched = RegionSchedule::for_receiver(&src, &dst, rank);
            let start = Instant::now();
            for i in 0..iters {
                if use_schedule {
                    sched
                        .execute_recv(
                            &ic,
                            &mut local,
                            (i & 0xfff) as i32,
                            &mut TransferBuffers::new(),
                        )
                        .unwrap();
                } else {
                    request_and_fill(&ic, &dst, ArrayOrder::RowMajor, &mut local).unwrap();
                }
            }
            start.elapsed()
        }
    })
    .results;
    durations.into_iter().max().unwrap()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_network_model");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    for (label, latency_us) in [("lat_0us", 0u64), ("lat_50us", 50), ("lat_200us", 200)] {
        let model = NetworkModel::latency_only(Duration::from_micros(latency_us));
        group.bench_with_input(BenchmarkId::new("schedule_transfer", label), &model, |b, &m| {
            b.iter_custom(|iters| run(m, true, iters))
        });
        group.bench_with_input(
            BenchmarkId::new("receiver_request_transfer", label),
            &model,
            |b, &m| b.iter_custom(|iters| run(m, false, iters)),
        );
    }

    // Bandwidth-bound regime: 200 MB/s link, fixed 10 µs latency.
    let bw = NetworkModel { latency: Duration::from_micros(10), bytes_per_sec: 200e6 };
    group.bench_with_input(BenchmarkId::new("schedule_transfer", "bw_200MBs"), &bw, |b, &m| {
        b.iter_custom(|iters| run(m, true, iters))
    });
    group.finish();

    println!(
        "\n--- E17: under latency, per-transfer cost ≈ (message rounds) × latency; the \
         receiver-request protocol pays one extra round per transfer ---"
    );
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
