//! Experiment E14 — "the creation of communication schedules is not
//! serialized" (§3, scalability requirement).
//!
//! Schedules are built per rank from replicated compact descriptors, with
//! no coordinator and no communication — so on a real machine each of the
//! P processes pays only its own build. This bench measures:
//!
//! * `per_rank_build/P` — what one process actually computes (shrinks as
//!   1/P: fewer own patches, same peer scan);
//! * `centralized_build/P` — the anti-pattern the requirement rules out: a
//!   single data-management process building all P ranks' schedules
//!   (grows with the aggregate work).
//!
//! The ratio between the two curves is the scalability win; the absence of
//! any messaging during construction is checked explicitly at the end.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::criterion_config;
use mxn_dad::{AxisDist, Dad, Extents, Template};
use mxn_schedule::RegionSchedule;

fn layouts(p: usize) -> (Dad, Dad) {
    // Fragmented source (block-cyclic rows) against a block destination.
    let e = Extents::new([32768, 4]);
    let src = Dad::regular(
        Template::new(
            e.clone(),
            vec![AxisDist::BlockCyclic { block: 4, nprocs: p }, AxisDist::Collapsed],
        )
        .unwrap(),
    );
    let dst = Dad::block(e, &[p, 1]).unwrap();
    (src, dst)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_schedule_scaling");
    for p in [1usize, 2, 4, 8, 16, 32] {
        let (src, dst) = layouts(p);
        group.bench_with_input(BenchmarkId::new("per_rank_build", p), &p, |b, _| {
            b.iter(|| std::hint::black_box(RegionSchedule::for_sender(&src, &dst, 0)))
        });
        group.bench_with_input(BenchmarkId::new("centralized_build", p), &p, |b, &p| {
            b.iter_custom(|iters| {
                let start = Instant::now();
                for _ in 0..iters {
                    for r in 0..p {
                        std::hint::black_box(RegionSchedule::for_sender(&src, &dst, r));
                    }
                }
                start.elapsed()
            })
        });
    }
    group.finish();

    // Construction must be communication-free: build inside a world and
    // verify zero messages were sent.
    let stats = mxn_runtime::World::run_opts(4, mxn_runtime::RunOpts::default(), |proc| {
        let (src, dst) = layouts(4);
        std::hint::black_box(RegionSchedule::for_sender(&src, &dst, proc.rank()));
        std::hint::black_box(RegionSchedule::for_receiver(&src, &dst, proc.rank()));
    })
    .stats;
    assert_eq!(stats.total_messages(), 0, "schedule construction is communication-free");
    println!(
        "\n--- E14: schedule construction sent {} messages (expected 0) ---",
        stats.total_messages()
    );
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
