//! Experiment F5 — Figure 5: the cost of barrier-delayed delivery.
//!
//! The barrier before PRMI delivery removes the Figure 5 deadlock (see the
//! `prmi_deadlock` example and the `prmi_semantics` integration tests);
//! this bench measures what that safety costs per collective call, for
//! full-set and subset participation, across caller counts.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mxn_bench::{criterion_config, time_universe};
use mxn_framework::{AnyPayload, Dispatch, RemoteService};
use mxn_prmi::{serve, DeliveryPolicy, Endpoint, Invocation, ServeOpts};

struct Echo;
impl RemoteService for Echo {
    fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
        let v: f64 = arg.downcast().unwrap();
        AnyPayload::replicable(v).into()
    }
}

fn run(callers: usize, policy: DeliveryPolicy, iters: u64) -> Duration {
    time_universe(&[callers, 1], |ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let ranks: Vec<usize> = (0..callers).collect();
            let start = Instant::now();
            for _ in 0..iters {
                let _: f64 = Endpoint::default()
                    .call(
                        ic,
                        Invocation::subset(&ctx.comm, &ranks[..], 0, 1, 1.0f64).delivery(policy),
                    )
                    .unwrap();
            }
            let d = start.elapsed();
            if ctx.comm.rank() == 0 {
                Endpoint::default().shutdown(ic, ServeOpts::subset(Duration::ZERO)).unwrap();
            }
            d
        } else {
            serve(ctx.intercomm(0), &Echo, ServeOpts::subset(Duration::from_secs(30))).unwrap();
            Duration::ZERO
        }
    })
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f5_sync_barrier");
    for callers in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("eager_delivery", callers), &callers, |b, &m| {
            b.iter_custom(|iters| run(m, DeliveryPolicy::eager(), iters))
        });
        group.bench_with_input(BenchmarkId::new("barrier_delayed", callers), &callers, |b, &m| {
            b.iter_custom(|iters| run(m, DeliveryPolicy::safe(), iters))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
