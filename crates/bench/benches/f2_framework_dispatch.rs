//! Experiment F2 — Figure 2: direct-connected vs distributed frameworks.
//!
//! "In direct-connected frameworks … a port invocation then looks like a
//! refined form of library call … in a distributed framework, port
//! invocations become a refined form of Remote Method Invocation."
//! This bench quantifies that taxonomy: per-call latency of
//!
//! * a direct-connected port dispatch (dynamic call through the port),
//! * a distributed two-way RMI between two programs,
//! * a distributed one-way RMI (no response).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use mxn_bench::{criterion_config, time_universe};
use mxn_framework::{
    AnyPayload, Component, Dispatch, Framework, RemoteService, Result as FwResult, Services,
};
use mxn_prmi::{serve, Endpoint, Invocation, ServeOpts};

trait Compute: Send + Sync {
    fn compute(&self, x: f64) -> f64;
}

struct Doubler;
impl Compute for Doubler {
    fn compute(&self, x: f64) -> f64 {
        x * 2.0
    }
}

struct Provider;
impl Component for Provider {
    fn set_services(&mut self, s: &Services) -> FwResult<()> {
        let h: Arc<dyn Compute> = Arc::new(Doubler);
        s.add_provides_port("c", "bench.Compute", h)
    }
}

struct User {
    services: Option<Services>,
}
impl Component for User {
    fn set_services(&mut self, s: &Services) -> FwResult<()> {
        s.register_uses_port("c", "bench.Compute")?;
        self.services = Some(s.clone());
        Ok(())
    }
}

struct Echo;
impl RemoteService for Echo {
    fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
        let v: f64 = arg.downcast().unwrap();
        AnyPayload::new(v * 2.0).into()
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f2_framework_dispatch");

    // Direct-connected: library-call dispatch through the port.
    let fw = Framework::new();
    fw.add_component("provider", &mut Provider).unwrap();
    let mut user = User { services: None };
    fw.add_component("user", &mut user).unwrap();
    fw.connect("user", "c", "provider", "c").unwrap();
    let port: Arc<dyn Compute> = user.services.unwrap().get_port("c").unwrap();
    group.bench_function("direct_port_call", |b| {
        b.iter(|| std::hint::black_box(port.compute(std::hint::black_box(21.0))))
    });

    // Direct, including the port lookup each call (the un-cached pattern).
    let fw2 = Framework::new();
    fw2.add_component("provider", &mut Provider).unwrap();
    let mut user2 = User { services: None };
    fw2.add_component("user", &mut user2).unwrap();
    fw2.connect("user", "c", "provider", "c").unwrap();
    let services = user2.services.unwrap();
    group.bench_function("direct_port_call_with_lookup", |b| {
        b.iter(|| {
            let p: Arc<dyn Compute> = services.get_port("c").unwrap();
            std::hint::black_box(p.compute(21.0))
        })
    });

    // Distributed: two-way RMI between two 1-rank programs.
    group.bench_function("distributed_rmi_call", |b| {
        b.iter_custom(|iters| {
            time_universe(&[1, 1], |ctx| {
                if ctx.program == 0 {
                    let ic = ctx.intercomm(1);
                    let mut port = Endpoint::default();
                    let start = Instant::now();
                    for _ in 0..iters {
                        let _: f64 = port.call(ic, Invocation::independent(0, 0, 21.0f64)).unwrap();
                    }
                    let d = start.elapsed();
                    port.shutdown(ic, ServeOpts::independent()).unwrap();
                    d
                } else {
                    serve(ctx.intercomm(0), &Echo, ServeOpts::independent()).unwrap();
                    Duration::ZERO
                }
            })
        })
    });

    // Distributed: one-way RMI (caller does not wait). Measures the
    // caller-visible cost only; the provider drains in parallel.
    group.bench_function("distributed_oneway_call", |b| {
        b.iter_custom(|iters| {
            time_universe(&[1, 1], |ctx| {
                if ctx.program == 0 {
                    let ic = ctx.intercomm(1);
                    let mut port = Endpoint::default();
                    let start = Instant::now();
                    for _ in 0..iters {
                        let oneway = Invocation::independent(0, 0, 21.0f64).oneway();
                        port.call::<_, ()>(ic, oneway).unwrap();
                    }
                    let d = start.elapsed();
                    port.shutdown(ic, ServeOpts::independent()).unwrap();
                    d
                } else {
                    serve(ctx.intercomm(0), &Echo, ServeOpts::independent()).unwrap();
                    Duration::ZERO
                }
            })
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench
}
criterion_main!(benches);
