//! Experiment E13 — the DCA delivery barrier's cost (§4.3).
//!
//! "A barrier synchronization [is] required to ensure that the order of
//! invocation is preserved when different but intersecting sets of
//! processes make consecutive port calls … In other invocation schemes
//! where all processes must participate, the barrier is not required."
//!
//! Measures per-invocation latency through the DCA stub layer for the
//! all-participate (uniform, no barrier) scheme vs the mixed scheme
//! (barrier on every call), across component sizes, plus the mixed scheme
//! alternating intersecting subsets — the workload the barrier exists for.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, time_universe};
use mxn_dca::DcaPort;
use mxn_framework::{AnyPayload, Dispatch, RemoteService};
use mxn_prmi::{serve, ServeOpts};

struct Echo;
impl RemoteService for Echo {
    fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
        let v: f64 = arg.downcast().unwrap();
        AnyPayload::replicable(v).into()
    }
}

fn run_full(callers: usize, uniform: bool, iters: u64) -> Duration {
    time_universe(&[callers, 1], |ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let port =
                if uniform { DcaPort::uniform(0, callers) } else { DcaPort::new(0, callers) };
            let start = Instant::now();
            for _ in 0..iters {
                let _: f64 = port.invoke(ic, &ctx.comm, &ctx.comm, 1, 1.0f64).unwrap();
            }
            let d = start.elapsed();
            if ctx.comm.rank() == 0 {
                port.shutdown(ic).unwrap();
            }
            d
        } else {
            serve(ctx.intercomm(0), &Echo, ServeOpts::subset(Duration::from_secs(60))).unwrap();
            Duration::ZERO
        }
    })
}

/// The mixed workload: calls alternate between the full set and a proper
/// subset — the exact shape whose correctness needs the barrier.
fn run_intersecting(callers: usize, iters: u64) -> Duration {
    time_universe(&[callers, 1], |ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let port = DcaPort::new(0, callers);
            let sub_ranks: Vec<usize> = (0..callers - 1).collect();
            let sub = ctx.comm.subgroup(&sub_ranks).unwrap();
            let in_sub = ctx.comm.rank() < callers - 1;
            let start = Instant::now();
            for _ in 0..iters {
                let _: f64 = port.invoke(ic, &ctx.comm, &ctx.comm, 1, 1.0f64).unwrap();
                if in_sub {
                    let sub = sub.as_ref().unwrap();
                    let _: f64 = port.invoke(ic, &ctx.comm, sub, 2, 1.0f64).unwrap();
                }
            }
            let d = start.elapsed();
            if ctx.comm.rank() == 0 {
                port.shutdown(ic).unwrap();
            }
            d
        } else {
            serve(ctx.intercomm(0), &Echo, ServeOpts::subset(Duration::from_secs(60))).unwrap();
            Duration::ZERO
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_dca_barrier");
    for callers in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("uniform_no_barrier", callers),
            &callers,
            |b, &m| b.iter_custom(|iters| run_full(m, true, iters)),
        );
        group.bench_with_input(
            BenchmarkId::new("mixed_with_barrier", callers),
            &callers,
            |b, &m| b.iter_custom(|iters| run_full(m, false, iters)),
        );
    }
    group.bench_function("intersecting_subsets_4callers", |b| {
        b.iter_custom(|iters| run_intersecting(4, iters))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
