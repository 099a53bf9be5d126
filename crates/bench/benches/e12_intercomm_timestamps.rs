//! Experiment E12 — InterComm's separate coordination layer (§4.4).
//!
//! Measures the import path under different timestamp rules, and the
//! overlap benefit the paper claims ("hide the cost of data transfers
//! behind other program activities"): importing a version that is already
//! buffered costs only the transfer, while a version ahead of the
//! producer's frontier costs transfer *plus* the wait for the producer —
//! unless the producer is stepping anyway.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, time_universe};
use mxn_dad::{Dad, Extents, LocalArray};
use mxn_intercomm::{Exporter, Importer, MatchRule};

const N: usize = 8192;

fn dad() -> Dad {
    Dad::block(Extents::new([N]), &[1]).unwrap()
}

/// Importer repeatedly fetches already-buffered versions under `rule`.
fn run_buffered(rule: MatchRule, iters: u64) -> Duration {
    let d = dad();
    time_universe(&[1, 1], |ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ex = Exporter::new(d.clone(), d.clone(), 0, rule, 16);
            for t in 0..10 {
                let data = LocalArray::from_fn(&d, 0, |idx| idx[0] as f64 + t as f64);
                ex.export(ic, t as f64, &data).unwrap();
            }
            ex.close(ic).unwrap();
            ex.serve_until_answered(ic, iters).unwrap();
            Duration::ZERO
        } else {
            let ic = ctx.intercomm(0);
            let mut im = Importer::new(&d, &d, 0);
            let mut dst: LocalArray<f64> = LocalArray::allocate(&d, 0);
            let start = Instant::now();
            for i in 0..iters {
                let treq = 0.5 + (i % 9) as f64;
                im.import(ic, treq, &mut dst).unwrap();
            }
            start.elapsed()
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_intercomm_timestamps");
    for (name, rule) in [
        ("lower_bound", MatchRule::LowerBound),
        ("nearest", MatchRule::Nearest { tol: 0.6 }),
        ("regular_interval", MatchRule::RegularInterval { start: 0.0, every: 2.0 }),
    ] {
        group.bench_with_input(BenchmarkId::new("buffered_import", name), &rule, |b, &rule| {
            b.iter_custom(|iters| run_buffered(rule, iters))
        });
    }
    group.finish();

    // The overlap shape (reported, not criterion-sampled): an import ahead
    // of the frontier waits for the producer; one behind it does not.
    let d = dad();
    let waits = time_universe(&[1, 1], |ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ex = Exporter::new(d.clone(), d.clone(), 0, MatchRule::UpperBound, 16);
            for t in 0..6 {
                std::thread::sleep(Duration::from_millis(10)); // simulation step
                let data = LocalArray::from_fn(&d, 0, |idx| idx[0] as f64);
                ex.export(ic, t as f64, &data).unwrap();
            }
            ex.close(ic).unwrap();
            Duration::ZERO
        } else {
            let ic = ctx.intercomm(0);
            let mut im = Importer::new(&d, &d, 0);
            let mut dst: LocalArray<f64> = LocalArray::allocate(&d, 0);
            // Ask for t=5 immediately: must wait ~5 producer steps.
            let start = Instant::now();
            im.import(ic, 5.0, &mut dst).unwrap();
            let ahead = start.elapsed();
            // Ask for t=1 afterwards: already buffered, no wait.
            let start = Instant::now();
            im.import(ic, 1.0, &mut dst).unwrap();
            let behind = start.elapsed();
            println!(
                "\n--- E12 overlap: import ahead of frontier waited {ahead:?}; \
                 buffered import took {behind:?} ---"
            );
            ahead
        }
    });
    assert!(waits >= Duration::from_millis(30), "ahead-of-frontier import must wait");
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
