//! Experiment E7 — receiver-request linearization vs precomputed schedule.
//!
//! The Indiana MPI-IO M×N device trades schedule computation for a small
//! per-transfer request round: "at the expense of this small communication
//! overhead, no communication schedule is required" (§2.2.1). This bench
//! finds the crossover: total time for k transfers under
//!
//! * the receiver-request protocol (no setup; 2 extra message rounds and
//!   per-element index translation every transfer), vs
//! * the precomputed region schedule (one-time build; data-only messages
//!   with row-run packing thereafter).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, field_value, time_universe};
use mxn_dad::{Dad, Extents, LocalArray};
use mxn_linearize::{request_and_fill, serve_requests, ArrayOrder};
use mxn_schedule::{RegionSchedule, TransferBuffers};

const M: usize = 3;
const N: usize = 4;

fn dads() -> (Dad, Dad) {
    let e = Extents::new([192, 64]);
    (Dad::block(e.clone(), &[M, 1]).unwrap(), Dad::block(e, &[1, N]).unwrap())
}

/// Time for `transfers` repeated couplings, including any setup, per the
/// chosen mechanism. One measured unit = the whole k-transfer session.
fn session(use_schedule: bool, transfers: usize, iters: u64) -> Duration {
    let (src, dst) = dads();
    time_universe(&[M, N], |ctx| {
        let rank = ctx.comm.rank();
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let local = LocalArray::from_fn(&src, rank, field_value);
            let start = Instant::now();
            for i in 0..iters {
                if use_schedule {
                    // Setup is part of the measured session.
                    let sched = RegionSchedule::for_sender(&src, &dst, rank);
                    for k in 0..transfers {
                        sched
                            .execute_send(
                                ic,
                                &local,
                                ((i as usize + k) & 0xfff) as i32,
                                &mut TransferBuffers::new(),
                            )
                            .unwrap();
                    }
                } else {
                    for _ in 0..transfers {
                        serve_requests(ic, &src, ArrayOrder::RowMajor, &local).unwrap();
                    }
                }
            }
            start.elapsed()
        } else {
            let ic = ctx.intercomm(0);
            let mut local: LocalArray<f64> = LocalArray::allocate(&dst, rank);
            let start = Instant::now();
            for i in 0..iters {
                if use_schedule {
                    let sched = RegionSchedule::for_receiver(&src, &dst, rank);
                    for k in 0..transfers {
                        sched
                            .execute_recv(
                                ic,
                                &mut local,
                                ((i as usize + k) & 0xfff) as i32,
                                &mut TransferBuffers::new(),
                            )
                            .unwrap();
                    }
                } else {
                    for _ in 0..transfers {
                        request_and_fill(ic, &dst, ArrayOrder::RowMajor, &mut local).unwrap();
                    }
                }
            }
            start.elapsed()
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_linearization_vs_schedule");
    for transfers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("receiver_request", transfers),
            &transfers,
            |b, &t| b.iter_custom(|iters| session(false, t, iters)),
        );
        group.bench_with_input(
            BenchmarkId::new("precomputed_schedule", transfers),
            &transfers,
            |b, &t| b.iter_custom(|iters| session(true, t, iters)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
