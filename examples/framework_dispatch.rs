//! Figure 2: a port call in a direct-connected framework against one in a
//! distributed framework.
//!
//! "In direct-connected frameworks … a port invocation then looks like a
//! refined form of library call … in a distributed framework, port
//! invocations become a refined form of Remote Method Invocation." The
//! example times four ways to make the same call and prints the table:
//! a cached port handle, a port looked up on every call, a two-way RMI
//! between two programs and a one-way RMI (caller side only).
//!
//! ```text
//! cargo run --release --example framework_dispatch
//! ```
//!
//! It exits non-zero unless a two-way RMI costs at least 100 cached port
//! calls. EXPERIMENTS.md F2 measured about 1 500; the bound leaves a
//! tenfold margin for noisy hosts and debug builds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mxn::framework::{
    AnyPayload, Component, Dispatch, Framework, RemoteService, Result as FwResult, Services,
};
use mxn::prmi::{serve, Endpoint, Invocation, ServeOpts};
use mxn::runtime::Universe;

const LOCAL_CALLS: u32 = 1_000_000;
const REMOTE_CALLS: u32 = 5_000;
const MIN_RATIO: f64 = 100.0;

trait Compute: Send + Sync {
    fn compute(&self, x: f64) -> f64;
}

struct Doubler;
impl Compute for Doubler {
    fn compute(&self, x: f64) -> f64 {
        x * 2.0
    }
}

impl Component for Doubler {
    fn set_services(&mut self, s: &Services) -> FwResult<()> {
        let port: Arc<dyn Compute> = Arc::new(Doubler);
        s.add_provides_port("c", "demo.Compute", port)
    }
}

impl RemoteService for Doubler {
    fn dispatch(&self, _method: u32, arg: AnyPayload) -> Dispatch {
        let v: f64 = arg.downcast().unwrap();
        AnyPayload::new(self.compute(v)).into()
    }
}

struct User(Option<Services>);
impl Component for User {
    fn set_services(&mut self, s: &Services) -> FwResult<()> {
        s.register_uses_port("c", "demo.Compute")?;
        self.0 = Some(s.clone());
        Ok(())
    }
}

/// Mean time per iteration of `f`.
fn per_call(calls: u32, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed() / calls
}

/// Mean caller-side time of a two-way or a one-way RMI to a provider
/// program of one rank.
fn remote(oneway: bool) -> Duration {
    let times = Universe::run(&[1, 1], |_, ctx| {
        if ctx.program == 1 {
            serve(ctx.intercomm(0), &Doubler, ServeOpts::independent()).unwrap();
            return Duration::ZERO;
        }
        let ic = ctx.intercomm(1);
        let mut port = Endpoint::default();
        let time = per_call(REMOTE_CALLS, || {
            let call = Invocation::independent(0, 0, 21.0f64);
            if oneway {
                port.call::<_, ()>(ic, call.oneway()).unwrap();
            } else {
                assert_eq!(port.call::<_, f64>(ic, call).unwrap(), 42.0);
            }
        });
        port.shutdown(ic, ServeOpts::independent()).unwrap();
        time
    });
    times[0]
}

fn main() {
    let fw = Framework::new();
    fw.add_component("provider", &mut Doubler).unwrap();
    let mut user = User(None);
    fw.add_component("user", &mut user).unwrap();
    fw.connect("user", "c", "provider", "c").unwrap();
    let services = user.0.unwrap();
    let port: Arc<dyn Compute> = services.get_port("c").unwrap();

    let direct = per_call(LOCAL_CALLS, || {
        black_box(port.compute(black_box(21.0)));
    });
    let lookup = per_call(LOCAL_CALLS / 10, || {
        let port: Arc<dyn Compute> = services.get_port("c").unwrap();
        black_box(port.compute(21.0));
    });
    let two_way = remote(false);
    let one_way = remote(true);

    println!("Figure 2: one port call, direct-connected vs distributed\n");
    println!("| dispatch | per call |");
    println!("|---|---|");
    for (name, time) in [
        ("direct port call (handle cached)", direct),
        ("direct port call incl. port lookup", lookup),
        ("distributed two-way RMI", two_way),
        ("distributed one-way RMI (caller side)", one_way),
    ] {
        println!("| {name} | {time:.1?} |");
    }
    // A cached call can time below the clock's resolution: count it as 1 ns.
    let ratio = two_way.as_secs_f64() / direct.as_secs_f64().max(1e-9);
    println!("\ntwo-way RMI / cached port call = {ratio:.0}× (must be ≥ {MIN_RATIO}×)");
    if ratio < MIN_RATIO {
        println!("SHAPE BROKEN: an RMI should cost orders of magnitude more than a library call");
        std::process::exit(1);
    }
}
