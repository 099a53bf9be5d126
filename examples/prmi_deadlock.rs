//! The Figure 5 synchronization problem, live.
//!
//! Three caller processes invoke collective methods on a remote serial
//! component with *intersecting* participant subsets:
//!
//! * process 0 calls method A with participants {0, 1, 2};
//! * processes 1 and 2 first call method B with participants {1, 2}, then
//!   join method A.
//!
//! With delivery on first arrival (the naive policy) the provider starts
//! servicing A, blocks for shares from 1 and 2 — which are stuck inside B —
//! and the system deadlocks. Delaying delivery with a barrier over the
//! participants (the paper's fix, used by DCA) makes the same program
//! complete.
//!
//! ```text
//! cargo run --example prmi_deadlock
//! ```

use std::time::Duration;

use mxn::framework::{AnyPayload, CallPolicy, Dispatch, RemoteService};
use mxn::prmi::{
    serve, Deadlock, DeliveryPolicy, Endpoint, Invocation, PrmiError, ServeOpts, ServeStats,
};
use mxn::runtime::{Comm, Universe};

struct Doubler;
impl RemoteService for Doubler {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        let v: f64 = arg.downcast().unwrap();
        AnyPayload::replicable(v * 2.0 + method as f64).into()
    }
}

fn run(policy: DeliveryPolicy) -> ServeStats {
    let outcome = Universe::run(&[3, 1], move |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let rank = ctx.comm.rank();
            let all = ctx.comm.subgroup(&[0, 1, 2]).unwrap().unwrap();
            let pair = ctx.comm.subgroup(&[1, 2]).unwrap();
            // A bounded wait turns a deadlocked delivery into an error.
            let bounded = CallPolicy { deadline: Duration::from_secs(2), ..CallPolicy::default() };
            let call = |comm: &Comm, ranks: &[usize], method: u32, arg: f64| {
                let inv = Invocation::subset(comm, ranks, 0, method, arg);
                Endpoint::default().call::<_, f64>(ic, inv.delivery(policy).policy(bounded))
            };
            if rank == 0 {
                // t1 in the figure: first to reach call A.
                match call(&all, &[0, 1, 2], 0, 10.0) {
                    Ok(v) => {
                        println!("  caller 0: method A returned {v}");
                        Endpoint::default()
                            .shutdown(ic, ServeOpts::subset(Duration::ZERO))
                            .unwrap();
                    }
                    Err(e) => println!("  caller 0: {e}"),
                }
            } else {
                std::thread::sleep(Duration::from_millis(50));
                let pair = pair.unwrap();
                let rb: Result<f64, PrmiError> = call(&pair, &[1, 2], 1, 20.0);
                match rb {
                    Ok(v) => {
                        if rank == 1 {
                            println!("  caller {rank}: method B returned {v}");
                        }
                        call(&all, &[0, 1, 2], 0, 10.0).unwrap();
                    }
                    Err(e) => {
                        if rank == 1 {
                            println!("  caller {rank}: {e}");
                        }
                    }
                }
            }
            None
        } else {
            let opts = ServeOpts::subset(Duration::from_millis(500));
            Some(serve(ctx.intercomm(0), &Doubler, opts).unwrap())
        }
    });
    outcome.into_iter().flatten().next().unwrap()
}

/// Prints both verdicts; exits non-zero unless eager delivery deadlocked
/// and barrier-delayed delivery completed both calls.
fn main() {
    println!("Figure 5: intersecting collective calls, two delivery policies\n");

    println!("deliver-on-first-arrival (no synchronization):");
    let eager = run(DeliveryPolicy::eager());
    let eager_ok = match eager.deadlock {
        Some(Deadlock { missing_rank, method }) => {
            println!(
                "  provider: DEADLOCK — servicing method {method}, share from rank \
                 {missing_rank} never arrived\n"
            );
            true
        }
        None => {
            println!("  provider: unexpected outcome {eager:?}\n");
            false
        }
    };

    println!("barrier-delayed delivery (the paper's fix):");
    let safe = run(DeliveryPolicy::safe());
    let safe_ok = safe.deadlock.is_none() && safe.calls == 2;
    match safe_ok {
        true => println!("  provider: completed all {} collective calls — no deadlock", safe.calls),
        false => println!("  provider: unexpected outcome {safe:?}"),
    }
    if !(eager_ok && safe_ok) {
        std::process::exit(1);
    }
}
