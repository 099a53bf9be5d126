//! The invocation-policy matrix: every participation kind × reply or
//! one-way × with or without a `CallPolicy` deadline, over M×N pairings,
//! through the one `Endpoint::call` and the one `serve` loop — plus the
//! combinations no protocol can carry, rejected before anything is sent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use mxn_dad::{Dad, Extents, LocalArray};
use mxn_framework::{AnyPayload, CallPolicy, Dispatch, RemoteService};
use mxn_prmi::{serve, Endpoint, Invocation, PrmiError, ServeOpts, ServeStats, METHOD_SHUTDOWN};
use mxn_runtime::{RuntimeError, Src, Tag, Universe};

/// The serial oracle every caller's result must equal.
fn oracle(method: u32, x: f64) -> f64 {
    x * 2.0 + f64::from(method)
}

/// A provider that evaluates the oracle and counts its executions.
struct Oracle(AtomicU64);

impl RemoteService for Oracle {
    fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
        self.0.fetch_add(1, Ordering::SeqCst);
        AnyPayload::replicable(oracle(method, arg.downcast().unwrap())).into()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Collective,
    Independent,
    Subset,
}

const CALLS: u32 = 3;

/// Runs one matrix cell and checks every caller's results and every
/// provider's execution counts.
fn cell(kind: Kind, oneway: bool, policy: Option<CallPolicy>, (m, n): (usize, usize)) {
    let what = format!("{kind:?} oneway={oneway} policy={} {m}x{n}", policy.is_some());
    let opts = match kind {
        Kind::Collective => ServeOpts::collective(),
        Kind::Independent => ServeOpts::independent(),
        Kind::Subset => ServeOpts::subset(Duration::from_secs(10)),
    };
    Universe::run(&[m, n], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let k = ctx.comm.rank();
            let all: Vec<usize> = (0..m).collect();
            let mut ep = Endpoint::default();
            for method in 0..CALLS {
                let x = 10.0 + f64::from(method);
                let inv = match kind {
                    Kind::Collective => Invocation::collective(method, x),
                    Kind::Independent => Invocation::independent(k % n, method, x),
                    // Subset calls rotate over the serial providers.
                    Kind::Subset => {
                        Invocation::subset(&ctx.comm, &all[..], method as usize % n, method, x)
                    }
                };
                let inv = match policy {
                    Some(p) => inv.policy(p),
                    None => inv,
                };
                if oneway {
                    ep.call::<f64, ()>(ic, inv.oneway()).unwrap();
                } else {
                    let got: f64 = ep.call(ic, inv).unwrap();
                    assert_eq!(got, oracle(method, x), "{what}: caller {k}, method {method}");
                }
            }
            if kind != Kind::Subset || k == 0 {
                ep.shutdown(ic, opts).unwrap();
            }
        } else {
            let j = ctx.comm.rank();
            let svc = Oracle(AtomicU64::new(0));
            let stats: ServeStats = serve(ctx.intercomm(0), &svc, opts).unwrap();
            let expected = match kind {
                Kind::Collective => u64::from(CALLS),
                Kind::Independent => {
                    u64::from(CALLS) * (0..m).filter(|k| k % n == j).count() as u64
                }
                Kind::Subset => (0..CALLS).filter(|c| *c as usize % n == j).count() as u64,
            };
            assert_eq!(stats.calls, expected, "{what}: provider {j} executions");
            assert_eq!(svc.0.load(Ordering::SeqCst), expected, "{what}: provider {j} dispatches");
            assert_eq!(stats.oneway_calls, if oneway { expected } else { 0 }, "{what}");
            assert_eq!((stats.method_not_found, stats.deadlock), (0, None), "{what}");
        }
    });
}

#[test]
fn every_policy_cell_matches_the_serial_oracle() {
    let deadline = CallPolicy { deadline: Duration::from_secs(10), ..CallPolicy::default() };
    for kind in [Kind::Collective, Kind::Independent, Kind::Subset] {
        for oneway in [false, true] {
            for policy in [None, Some(deadline)] {
                for pairing in [(1, 3), (3, 1), (2, 2)] {
                    cell(kind, oneway, policy, pairing);
                }
            }
        }
    }
}

#[test]
fn invalid_combinations_are_rejected_before_sending() {
    Universe::run(&[2, 1], |_, ctx| {
        if ctx.program == 0 {
            let ic = ctx.intercomm(1);
            let dad = Dad::block(Extents::new([4]), &[2]).unwrap();
            let local = LocalArray::from_fn(&dad, ctx.comm.rank(), |i| i[0] as f64);
            let mut result = LocalArray::allocate(&dad, ctx.comm.rank());
            let recovering = CallPolicy::default().recovering();
            let mut ep = Endpoint::default();
            let rejected = |r: mxn_prmi::Result<f64>| {
                assert!(matches!(r, Err(PrmiError::Protocol { .. })), "{:?}", r.err());
            };
            // Only the collective protocol can recover.
            rejected(ep.call(ic, Invocation::independent(0, 0, 1.0).policy(recovering)));
            let sub = Invocation::subset(&ctx.comm, [0, 1], 0, 0, 1.0).policy(recovering);
            rejected(ep.call(ic, sub));
            // Parallel arguments ride only on collective calls.
            rejected(ep.call(ic, Invocation::independent(0, 0, 1.0).array(&dad, &dad, &local)));
            let sub = Invocation::subset(&ctx.comm, [0, 1], 0, 0, 1.0).array(&dad, &dad, &local);
            rejected(ep.call(ic, sub));
            // A parallel return needs a reply to ride on.
            let inv = Invocation::collective(0, 1.0)
                .array(&dad, &dad, &local)
                .array_ret(&dad, &dad, &mut result)
                .oneway();
            let r = ep.call::<f64, ()>(ic, inv);
            assert!(matches!(r, Err(PrmiError::Protocol { .. })), "{:?}", r.err());
            // Reserved method ids.
            rejected(ep.call(ic, Invocation::collective(METHOD_SHUTDOWN, 1.0)));
            rejected(ep.call(ic, Invocation::subset(&ctx.comm, [0, 1], 0, 0x7ff, 1.0)));
            assert_eq!(ep.calls(), 0, "no rejected call took a sequence number");
            // The connection is untouched: a valid call still works.
            let r: f64 = ep.call(ic, Invocation::collective(1, 1.0)).unwrap();
            assert_eq!(r, oracle(1, 1.0));
            ep.shutdown(ic, ServeOpts::collective()).unwrap();
        } else {
            let ic = ctx.intercomm(0);
            let svc = Oracle(AtomicU64::new(0));
            let stats = serve(ic, &svc, ServeOpts::collective()).unwrap();
            assert_eq!(stats.calls, 1, "only the valid call was executed");
            // Nothing else was ever sent, on any tag.
            let stray = ic.recv_timeout::<()>(Src::Any, Tag::Any, Duration::from_millis(100));
            assert!(matches!(stray, Err(RuntimeError::Timeout { .. })), "stray message: {stray:?}");
        }
    });
}
