//! Parallel (distributed-array) arguments and return values.
//!
//! "A parallel argument represents a data array or structure that is
//! decomposed among a set of parallel component processes. Such parallel
//! argument values must be gathered and transferred, and possibly
//! redistributed according to the corresponding M×N layout" (paper §2.4).
//!
//! A call with a parallel argument is a collective call
//! ([`crate::Invocation::array`]) whose envelope is followed by a
//! schedule-driven redistribution of the array on a per-call tag. The
//! callee-side layout problem ("the application does not have the
//! opportunity to set the layout prior to the call") is solved the first of
//! the two ways the paper describes: the provider specifies the expected
//! layout **before** the call, via [`ParallelPortSpec`] registered with the
//! serve loop.

use mxn_dad::{Dad, LocalArray};
use mxn_framework::{AnyPayload, Dispatch};
use mxn_runtime::InterComm;
use mxn_schedule::Redist;

use crate::collective::{serve_loop, Exec};
use crate::error::Result;
use crate::invocation::ServeStats;

const ARRAY_TAG_BASE: i32 = 0x5000;

pub(crate) fn array_tag(call_seq: u64) -> i32 {
    ARRAY_TAG_BASE + (call_seq % 0x4000) as i32
}

/// The callee's declared layouts for one parallel method: the input array
/// layout it expects and (optionally) the output array layout it returns.
pub struct ParallelPortSpec {
    /// Layout the provider component wants input data delivered in.
    pub input: Dad,
    /// Layout of the provider's parallel return value, if the method
    /// returns one.
    pub output: Option<Dad>,
}

/// A service method over parallel data: receives its local portion of the
/// redistributed input and produces its local portion of the output.
pub trait ParallelService: Send + Sync {
    /// The layouts this provider expects, per method id. `None` means the
    /// method id is not implemented: the serve loop NACKs the callers with
    /// a typed [`MethodNotFound`](mxn_framework::MethodNotFound) (without
    /// touching the array plane) and never calls
    /// [`ParallelService::execute`] for it.
    fn spec(&self, method: u32) -> Option<ParallelPortSpec>;

    /// Executes the method on this rank's portion. `input` is this rank's
    /// patch set of the redistributed argument. Returns `(simple_result,
    /// parallel_result)`; the latter must match `spec(method).output`.
    fn execute(
        &self,
        method: u32,
        simple_arg: AnyPayload,
        input: LocalArray<f64>,
    ) -> (AnyPayload, Option<LocalArray<f64>>);
}

/// The array stage of a collective loop serving a [`ParallelService`].
pub(crate) struct ArrayStage<'a> {
    caller: &'a Dad,
    result: Option<&'a Dad>,
    service: &'a dyn ParallelService,
}

impl ArrayStage<'_> {
    /// Executes call `seq`: receives this rank's portion of the
    /// redistributed input, executes, and sends back the parallel return if
    /// one is declared. An unknown method never touches the array plane:
    /// the callers' already-sent patches stay unmatched in the mailbox, and
    /// per-call tags keep them from colliding with later calls.
    pub(crate) fn run(
        &self,
        ic: &InterComm,
        seq: u64,
        method: u32,
        arg: AnyPayload,
    ) -> Result<Dispatch> {
        let Some(spec) = self.service.spec(method) else { return Ok(Dispatch::MethodNotFound) };
        let input = Redist::between(self.caller, &spec.input).recv(ic, array_tag(seq))?;
        let (simple, parallel) = self.service.execute(method, arg, input);
        if let (Some(out_dad), Some(out), Some(res_dad)) =
            (spec.output.as_ref(), parallel.as_ref(), self.result)
        {
            Redist::between(out_dad, res_dad).send(ic, out, array_tag(seq) + 1)?;
        }
        Ok(Dispatch::Reply(simple))
    }
}

/// Provider-side serve loop for parallel-argument methods: the collective
/// loop with an array stage. The provider declares layouts *before* calls
/// arrive (via [`ParallelService::spec`]), resolving the callee-side layout
/// problem of §2.4. `caller_dad` is the callers' input decomposition and
/// `caller_result_dad` their parallel-return layout (agreed in the port
/// contract).
pub fn parallel_serve(
    ic: &InterComm,
    caller_dad: &Dad,
    caller_result_dad: Option<&Dad>,
    service: &dyn ParallelService,
) -> Result<ServeStats> {
    let stage = ArrayStage { caller: caller_dad, result: caller_result_dad, service };
    serve_loop(ic, Exec::Array(stage), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{CollReq, CollResp, COLL_REQ_TAG, COLL_RESP_TAG};
    use crate::{Endpoint, Invocation, PrmiError, ServeOpts};
    use mxn_dad::Extents;
    use mxn_runtime::Universe;

    /// A parallel "norm" service: method 0 computes the global sum of the
    /// input array (via its own local comm) and returns it; method 1 also
    /// returns the array scaled by the simple argument.
    struct NormService {
        input_dad: Dad,
        output_dad: Dad,
        partial_sums: std::sync::Arc<parking_lot::Mutex<Vec<f64>>>,
    }

    impl ParallelService for NormService {
        fn spec(&self, method: u32) -> Option<ParallelPortSpec> {
            (method <= 1).then(|| ParallelPortSpec {
                input: self.input_dad.clone(),
                output: (method == 1).then(|| self.output_dad.clone()),
            })
        }

        fn execute(
            &self,
            method: u32,
            simple_arg: AnyPayload,
            input: LocalArray<f64>,
        ) -> (AnyPayload, Option<LocalArray<f64>>) {
            let scale: f64 = simple_arg.downcast().unwrap();
            let local_sum: f64 = input.iter().map(|(_, &v)| v).sum();
            self.partial_sums.lock().push(local_sum);
            match method {
                0 => (AnyPayload::replicable(local_sum), None),
                1 => {
                    let mut out = input;
                    for i in 0..out.num_patches() {
                        let (_, buf) = out.patch_mut(i);
                        for v in buf {
                            *v *= scale;
                        }
                    }
                    (AnyPayload::replicable(local_sum), Some(out))
                }
                _ => unreachable!("parallel_serve gates unknown methods via spec()"),
            }
        }
    }

    #[test]
    fn parallel_argument_is_redistributed_into_declared_layout() {
        // 3 callers hold row blocks; 2 providers declared column blocks.
        Universe::run(&[3, 2], |_, ctx| {
            let e = Extents::new([6, 6]);
            let caller_dad = Dad::block(e.clone(), &[3, 1]).unwrap();
            let callee_dad = Dad::block(e, &[1, 2]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                    (idx[0] * 6 + idx[1]) as f64
                });
                // Provider's reply is its LOCAL partial sum; with ghost
                // returns, caller k hears from provider k % 2.
                let r: f64 = ep
                    .call(
                        ic,
                        Invocation::collective(0, 1.0f64).array(&caller_dad, &callee_dad, &local),
                    )
                    .unwrap();
                // Column block sums of 0..35 grid: left cols {0,1,2} sum,
                // right cols {3,4,5} sum.
                let left: f64 =
                    (0..6).flat_map(|i| (0..3).map(move |j| i * 6 + j)).sum::<usize>() as f64;
                let right: f64 =
                    (0..6).flat_map(|i| (3..6).map(move |j| i * 6 + j)).sum::<usize>() as f64;
                let expect = if ctx.comm.rank() % 2 == 0 { left } else { right };
                assert_eq!(r, expect);
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = NormService {
                    input_dad: callee_dad.clone(),
                    output_dad: callee_dad.clone(),
                    partial_sums: Default::default(),
                };
                let calls =
                    parallel_serve(ctx.intercomm(0), &caller_dad, None, &svc).unwrap().calls;
                assert_eq!(calls, 1);
            }
        });
    }

    #[test]
    fn parallel_return_value_comes_back_redistributed() {
        Universe::run(&[2, 2], |_, ctx| {
            let e = Extents::new([4, 4]);
            let caller_dad = Dad::block(e.clone(), &[2, 1]).unwrap();
            let callee_dad = Dad::block(e, &[1, 2]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                    (idx[0] * 4 + idx[1]) as f64
                });
                let mut result: LocalArray<f64> =
                    LocalArray::allocate(&caller_dad, ctx.comm.rank());
                let inv = Invocation::collective(1, 10.0f64)
                    .array(&caller_dad, &callee_dad, &local)
                    .array_ret(&callee_dad, &caller_dad, &mut result);
                let _sum: f64 = ep.call(ic, inv).unwrap();
                // The provider scaled by 10 and the result came back in the
                // caller's row-block layout.
                for (idx, &v) in result.iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as f64 * 10.0, "at {idx:?}");
                }
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = NormService {
                    input_dad: callee_dad.clone(),
                    output_dad: callee_dad.clone(),
                    partial_sums: Default::default(),
                };
                parallel_serve(ctx.intercomm(0), &caller_dad, Some(&caller_dad), &svc).unwrap();
            }
        });
    }

    #[test]
    fn unknown_parallel_method_nacks_without_touching_array_plane() {
        Universe::run(&[2, 2], |_, ctx| {
            let e = Extents::new([4, 4]);
            let caller_dad = Dad::block(e.clone(), &[2, 1]).unwrap();
            let callee_dad = Dad::block(e, &[1, 2]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                    (idx[0] * 4 + idx[1]) as f64
                });
                // Unknown method with a declared parallel return: the call
                // must fail with a typed error, not hang on the array plane.
                let mut result: LocalArray<f64> =
                    LocalArray::allocate(&caller_dad, ctx.comm.rank());
                let inv = Invocation::collective(77, 1.0)
                    .array(&caller_dad, &callee_dad, &local)
                    .array_ret(&callee_dad, &caller_dad, &mut result);
                let err = ep.call::<f64, f64>(ic, inv).unwrap_err();
                assert!(matches!(err, PrmiError::MethodNotFound { method: 77 }), "{err}");
                // Input-only variant NACKs too, and the service survives.
                let inv = Invocation::collective(8, 1.0).array(&caller_dad, &callee_dad, &local);
                let err = ep.call::<f64, f64>(ic, inv).unwrap_err();
                assert!(matches!(err, PrmiError::MethodNotFound { method: 8 }), "{err}");
                let sum: f64 = ep
                    .call(
                        ic,
                        Invocation::collective(0, 1.0f64).array(&caller_dad, &callee_dad, &local),
                    )
                    .unwrap();
                assert!(sum.is_finite());
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = NormService {
                    input_dad: callee_dad.clone(),
                    output_dad: callee_dad.clone(),
                    partial_sums: Default::default(),
                };
                let calls = parallel_serve(ctx.intercomm(0), &caller_dad, Some(&caller_dad), &svc)
                    .unwrap()
                    .calls;
                assert_eq!(calls, 1, "NACKed requests are not dispatched");
            }
        });
    }

    #[test]
    fn repeated_parallel_calls_stay_in_sequence() {
        Universe::run(&[2, 1], |_, ctx| {
            let e = Extents::new([4]);
            let caller_dad = Dad::block(e.clone(), &[2]).unwrap();
            let callee_dad = Dad::block(e, &[1]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let mut ep = Endpoint::default();
                for step in 0..5 {
                    let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                        (idx[0] + step) as f64
                    });
                    let inv =
                        Invocation::collective(0, 1.0f64).array(&caller_dad, &callee_dad, &local);
                    let sum: f64 = ep.call(ic, inv).unwrap();
                    let expect: f64 = (0..4).map(|i| (i + step) as f64).sum();
                    assert_eq!(sum, expect, "step {step}");
                }
                ep.shutdown(ic, ServeOpts::collective()).unwrap();
            } else {
                let svc = NormService {
                    input_dad: callee_dad.clone(),
                    output_dad: callee_dad.clone(),
                    partial_sums: Default::default(),
                };
                let calls =
                    parallel_serve(ctx.intercomm(0), &caller_dad, None, &svc).unwrap().calls;
                assert_eq!(calls, 5);
            }
        });
    }

    /// A reply is accepted only for the call it answers: a provider that
    /// answers with a stale sequence number is a protocol error, not a
    /// result.
    #[test]
    fn array_call_rejects_a_reply_for_another_call() {
        Universe::run(&[1, 1], |_, ctx| {
            let e = Extents::new([4]);
            let dad = Dad::block(e, &[1]).unwrap();
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let local = LocalArray::from_fn(&dad, 0, |idx| idx[0] as f64);
                let inv = Invocation::collective(0, 1.0f64).array(&dad, &dad, &local);
                let err = Endpoint::default().call::<f64, f64>(ic, inv).unwrap_err();
                assert!(matches!(err, PrmiError::Protocol { .. }), "{err}");
            } else {
                // A hand-rolled provider: takes the call and its array, then
                // answers as if for a different call.
                let ic = ctx.intercomm(0);
                let req: CollReq = ic.recv(0, COLL_REQ_TAG).unwrap();
                let _: LocalArray<f64> =
                    Redist::between(&dad, &dad).recv(ic, array_tag(req.call_seq)).unwrap();
                let stale =
                    CollResp { call_seq: req.call_seq + 7, result: AnyPayload::new(0.0f64) };
                ic.send(0, COLL_RESP_TAG, stale).unwrap();
            }
        });
    }
}
