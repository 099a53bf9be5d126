//! PRMI semantics across the stack: invocation modes, M≠N pairings,
//! ordering guarantees, and the Figure 5 scenario driven through the DCA
//! stub layer.

use std::time::Duration;

use mxn::framework::{AnyPayload, Dispatch, RemoteService};
use mxn::prmi::{serve, Deadlock, DeliveryPolicy, Endpoint, Invocation, ServeOpts};
use mxn::runtime::Universe;

/// A stateful counter service: every dispatch appends the method id.
struct Recorder(parking_lot::Mutex<Vec<u32>>);

impl RemoteService for Recorder {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        self.0.lock().push(method);
        let v: f64 = arg.downcast().unwrap();
        AnyPayload::replicable(v + method as f64).into()
    }
}

/// Collective invocation ordering is preserved for every M×N pairing:
/// providers see the same call sequence the callers issued.
#[test]
fn collective_order_preserved_across_pairings() {
    for (m, n) in [(1, 3), (3, 1), (2, 2), (4, 3), (3, 5)] {
        Universe::run(&[m, n], move |_, ctx| {
            const CALLS: u32 = 6;
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                for method in 0..CALLS {
                    let r: f64 = ep.call(ic, Invocation::collective(method, 100.0f64)).unwrap();
                    assert_eq!(r, 100.0 + method as f64, "m={m} n={n} call {method}");
                }
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = Recorder(parking_lot::Mutex::new(Vec::new()));
                let stats = serve(ctx.intercomm(0), &svc, ServeOpts::collective()).unwrap();
                assert_eq!(stats.calls as u32, CALLS);
                // Each provider executed the calls in issue order.
                assert_eq!(*svc.0.lock(), (0..CALLS).collect::<Vec<u32>>());
            }
        });
    }
}

/// Figure 5 driven through the DCA stub layer: the mixed-participation
/// scheme's automatic barrier turns the deadlocking interleaving into a
/// completed run, while a hand-built eager caller deadlocks.
#[test]
fn figure5_through_dca_stubs() {
    use mxn::dca::DcaPort;

    // Safe run: stubs barrier everything.
    Universe::run(&[3, 1], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let port = DcaPort::new(0, 3);
            let rank = ctx.comm.rank();
            let all = ctx.comm.subgroup(&[0, 1, 2]).unwrap().unwrap();
            let pair = ctx.comm.subgroup(&[1, 2]).unwrap();
            if rank == 0 {
                let r: f64 = port.invoke(ic, &ctx.comm, &all, 0, 1.0f64).unwrap();
                assert_eq!(r, 1.0);
                port.shutdown(ic).unwrap();
            } else {
                std::thread::sleep(Duration::from_millis(20));
                let pair = pair.unwrap();
                let _: f64 = port.invoke(ic, &ctx.comm, &pair, 1, 1.0f64).unwrap();
                let _: f64 = port.invoke(ic, &ctx.comm, &all, 0, 1.0f64).unwrap();
            }
        } else {
            let svc = Recorder(parking_lot::Mutex::new(Vec::new()));
            let out =
                serve(ctx.intercomm(0), &svc, ServeOpts::subset(Duration::from_secs(5))).unwrap();
            assert_eq!((out.calls, out.deadlock), (2, None));
            // Delivery order respected the barrier: the pair's call (1)
            // was serviced before the full-set call (0).
            assert_eq!(*svc.0.lock(), vec![1, 0]);
        }
    });
}

/// The same interleaving with eager delivery deadlocks — and the server's
/// diagnostic names the rank whose share never arrived.
#[test]
fn figure5_eager_deadlock_diagnosed() {
    use mxn::framework::CallPolicy;
    use mxn::prmi::PrmiError;

    Universe::run(&[3, 1], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let rank = ctx.comm.rank();
            let all = ctx.comm.subgroup(&[0, 1, 2]).unwrap().unwrap();
            let pair = ctx.comm.subgroup(&[1, 2]).unwrap();
            let t = Duration::from_secs(2);
            let eager = DeliveryPolicy::eager();
            if rank == 0 {
                let r: Result<f64, _> = Endpoint::default().call(
                    ic,
                    Invocation::subset(&all, [0, 1, 2], 0, 0, 1.0f64)
                        .delivery(eager)
                        .policy(CallPolicy { deadline: t, ..CallPolicy::default() }),
                );
                assert!(matches!(r, Err(PrmiError::DeliveryDeadlock { .. })));
            } else {
                std::thread::sleep(Duration::from_millis(50));
                let pair = pair.unwrap();
                let r: Result<f64, _> = Endpoint::default().call(
                    ic,
                    Invocation::subset(&pair, [1, 2], 0, 1, 1.0f64)
                        .delivery(eager)
                        .policy(CallPolicy { deadline: t, ..CallPolicy::default() }),
                );
                assert!(matches!(r, Err(PrmiError::DeliveryDeadlock { .. })));
            }
        } else {
            let svc = Recorder(parking_lot::Mutex::new(Vec::new()));
            let out = serve(ctx.intercomm(0), &svc, ServeOpts::subset(Duration::from_millis(300)))
                .unwrap();
            match out.deadlock {
                Some(Deadlock { missing_rank, method }) => {
                    assert_eq!(out.calls, 0);
                    assert_eq!(method, 0, "stuck on the full-set call");
                    assert!(missing_rank == 1 || missing_rank == 2);
                }
                None => panic!("expected deadlock, got {out:?}"),
            }
        }
    });
}

/// One-way methods do not block the caller: total caller-side time for k
/// one-way calls is far below k service times.
#[test]
fn oneway_overlaps_service_time() {
    use std::time::Instant;

    struct Slow;
    impl RemoteService for Slow {
        fn dispatch(&self, _m: u32, arg: AnyPayload) -> Dispatch {
            std::thread::sleep(Duration::from_millis(20));
            arg.into()
        }
    }

    Universe::run(&[1, 1], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let mut ep = Endpoint::default();
            let start = Instant::now();
            for _ in 0..5 {
                ep.call::<_, ()>(ic, Invocation::collective(1, 0.0f64).oneway()).unwrap();
            }
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_millis(50),
                "one-way calls must not wait for the 5 × 20ms service time (took {elapsed:?})"
            );
            ep.shutdown(ic, ServeOpts::collective()).unwrap();
        } else {
            let svc = Recorder(parking_lot::Mutex::new(Vec::new()));
            let _ = serve(ctx.intercomm(0), &Slow, ServeOpts::collective()).unwrap();
            drop(svc);
        }
    });
}
