//! Parallel (distributed-array) arguments and return values.
//!
//! "A parallel argument represents a data array or structure that is
//! decomposed among a set of parallel component processes. Such parallel
//! argument values must be gathered and transferred, and possibly
//! redistributed according to the corresponding M×N layout" (paper §2.4).
//!
//! A call with a parallel argument is a collective call (see
//! [`crate::collective`]) whose envelope is followed by a schedule-driven
//! redistribution of the array on a per-call tag. The callee-side layout
//! problem ("the application does not have the opportunity to set the
//! layout prior to the call") is solved the first of the two ways the paper
//! describes: the provider specifies the expected layout **before** the
//! call, via [`ParallelPortSpec`] registered with the serve loop.

use mxn_dad::{Dad, LocalArray};
use mxn_framework::{AnyPayload, MethodNotFound};
use mxn_runtime::{InterComm, MsgSize};
use mxn_schedule::{Redist, RegionSchedule, TransferBuffers};

use crate::collective::{
    providers_of, respondents_of, CollReq, CollResp, COLL_REQ_TAG, COLL_RESP_TAG, METHOD_SHUTDOWN,
};
use crate::error::{PrmiError, Result};

const ARRAY_TAG_BASE: i32 = 0x5000;

fn array_tag(call_seq: u64) -> i32 {
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
    /// a typed [`MethodNotFound`] (without touching the array plane) and
    /// never calls [`ParallelService::execute`] for it.
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

/// Caller-side endpoint for collective calls carrying a parallel argument.
pub struct ParallelEndpoint {
    call_seq: u64,
}

impl Default for ParallelEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelEndpoint {
    /// Creates an endpoint; all caller ranks must make identical call
    /// sequences.
    pub fn new() -> Self {
        ParallelEndpoint { call_seq: 0 }
    }

    /// Collective call with a parallel input argument; returns the simple
    /// result. `caller_dad` describes the callers' decomposition of the
    /// array, `callee_dad` the layout the provider declared for this
    /// method (both sides must agree on it out of band or via the port
    /// specification).
    #[allow(clippy::too_many_arguments)]
    pub fn call_with_array<A, R>(
        &mut self,
        ic: &InterComm,
        method: u32,
        simple_arg: A,
        caller_dad: &Dad,
        callee_dad: &Dad,
        local: &LocalArray<f64>,
    ) -> Result<R>
    where
        A: Send + Sync + MsgSize + 'static + Clone,
        R: 'static,
    {
        let seq = self.begin_call(ic, method, simple_arg)?;
        // Redistribute the parallel argument (all caller ranks take part,
        // independent of the invocation-envelope mapping).
        Redist::between(caller_dad, callee_dad)
            .send(ic, local, array_tag(seq))
            .map_err(PrmiError::Runtime)?;
        // Await the simple return value.
        let responder = ic.local_rank() % ic.remote_size();
        let resp: CollResp = ic.recv(responder, COLL_RESP_TAG).map_err(PrmiError::Runtime)?;
        if resp.result.is::<MethodNotFound>() {
            return Err(PrmiError::MethodNotFound { method });
        }
        resp.result.downcast::<R>().map_err(PrmiError::from)
    }

    /// Collective call with parallel input **and** parallel output: the
    /// provider's parallel return value is redistributed back into
    /// `result_dad`/`result_local` (pre-allocated by the caller).
    #[allow(clippy::too_many_arguments)]
    pub fn call_with_array_ret<A, R>(
        &mut self,
        ic: &InterComm,
        method: u32,
        simple_arg: A,
        caller_dad: &Dad,
        callee_dad: &Dad,
        local: &LocalArray<f64>,
        callee_out_dad: &Dad,
        result_dad: &Dad,
        result_local: &mut LocalArray<f64>,
    ) -> Result<R>
    where
        A: Send + Sync + MsgSize + 'static + Clone,
        R: 'static,
    {
        let seq = self.begin_call(ic, method, simple_arg)?;
        Redist::between(caller_dad, callee_dad)
            .send(ic, local, array_tag(seq))
            .map_err(PrmiError::Runtime)?;
        // Await the simple return *first*: a provider that NACKs an unknown
        // method sends no parallel return, so blocking on the array plane
        // before seeing the response would hang forever. Messages buffer
        // eagerly in the mailbox, so taking the response before draining
        // the (earlier-sent) array patches loses nothing.
        let responder = ic.local_rank() % ic.remote_size();
        let resp: CollResp = ic.recv(responder, COLL_RESP_TAG).map_err(PrmiError::Runtime)?;
        if resp.result.is::<MethodNotFound>() {
            return Err(PrmiError::MethodNotFound { method });
        }
        // Receive the redistributed parallel return.
        let rsched = RegionSchedule::for_receiver(callee_out_dad, result_dad, ic.local_rank());
        rsched
            .execute_recv(ic, result_local, array_tag(seq) + 1, &mut TransferBuffers::new())
            .map_err(PrmiError::Runtime)?;
        resp.result.downcast::<R>().map_err(PrmiError::from)
    }

    fn begin_call<A>(&mut self, ic: &InterComm, method: u32, simple_arg: A) -> Result<u64>
    where
        A: Send + Sync + MsgSize + 'static + Clone,
    {
        assert_ne!(method, METHOD_SHUTDOWN);
        let (m, n) = (ic.local_size(), ic.remote_size());
        let k = ic.local_rank();
        let seq = self.call_seq;
        self.call_seq += 1;
        // One shared multicast envelope covers every ghost invocation.
        ic.multicast(
            &providers_of(k, m, n),
            COLL_REQ_TAG,
            CollReq {
                method,
                call_seq: seq,
                epoch: 0,
                num_callers: m,
                oneway: false,
                arg: AnyPayload::replicable(simple_arg),
            },
        )
        .map_err(PrmiError::Runtime)?;
        Ok(seq)
    }

    /// Collective shutdown of a parallel-service loop.
    pub fn shutdown(&mut self, ic: &InterComm) -> Result<()> {
        let (m, n) = (ic.local_size(), ic.remote_size());
        let k = ic.local_rank();
        ic.multicast(
            &providers_of(k, m, n),
            COLL_REQ_TAG,
            CollReq {
                method: METHOD_SHUTDOWN,
                call_seq: self.call_seq,
                epoch: 0,
                num_callers: m,
                oneway: true,
                arg: AnyPayload::replicable(()),
            },
        )
        .map_err(PrmiError::Runtime)?;
        Ok(())
    }
}

/// Provider-side serve loop for parallel-argument methods. The provider
/// declares layouts *before* calls arrive (via [`ParallelService::spec`]),
/// resolving the callee-side layout problem of §2.4. `caller_dad` is the
/// callers' input decomposition (agreed in the port contract).
pub fn parallel_serve(
    ic: &InterComm,
    caller_dad: &Dad,
    caller_result_dad: Option<&Dad>,
    service: &dyn ParallelService,
) -> Result<u64> {
    let (n, j) = (ic.local_size(), ic.local_rank());
    let owner = j % ic.remote_size();
    let mut calls = 0u64;
    loop {
        let req: CollReq = ic.recv(owner, COLL_REQ_TAG).map_err(PrmiError::Runtime)?;
        if req.method == METHOD_SHUTDOWN {
            return Ok(calls);
        }
        let m = req.num_callers;
        let Some(spec) = service.spec(req.method) else {
            // Unknown method: NACK every respondent with a typed payload
            // and keep serving. The callers' already-sent array patches
            // stay unmatched in the mailbox — they are never dispatched,
            // and per-call tags keep them from colliding with later calls.
            let respondents = respondents_of(j, m, n);
            for &k in &respondents {
                ic.send(
                    k,
                    COLL_RESP_TAG,
                    CollResp {
                        call_seq: req.call_seq,
                        result: AnyPayload::replicable(MethodNotFound { method: req.method }),
                    },
                )
                .map_err(PrmiError::Runtime)?;
            }
            continue;
        };
        // Receive this rank's portion of the redistributed input.
        let input = Redist::between(caller_dad, &spec.input)
            .recv(ic, array_tag(req.call_seq))
            .map_err(PrmiError::Runtime)?;
        let (simple, parallel) = service.execute(req.method, req.arg, input);
        calls += 1;
        // Send back the parallel return, if declared.
        if let (Some(out_dad), Some(out_local), Some(res_dad)) =
            (spec.output.as_ref(), parallel.as_ref(), caller_result_dad)
        {
            Redist::between(out_dad, res_dad)
                .send(ic, out_local, array_tag(req.call_seq) + 1)
                .map_err(PrmiError::Runtime)?;
        }
        // Simple return with ghost replication.
        let respondents = respondents_of(j, m, n);
        match respondents.len() {
            0 => {}
            1 => {
                ic.send(
                    respondents[0],
                    COLL_RESP_TAG,
                    CollResp { call_seq: req.call_seq, result: simple },
                )
                .map_err(PrmiError::Runtime)?;
            }
            _ => {
                let rep = simple.take_replicator().ok_or_else(|| PrmiError::Protocol {
                    detail: "ghost returns need AnyPayload::replicable".into(),
                })?;
                for &k in &respondents {
                    ic.send(k, COLL_RESP_TAG, CollResp { call_seq: req.call_seq, result: rep() })
                        .map_err(PrmiError::Runtime)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let mut ep = ParallelEndpoint::new();
                let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                    (idx[0] * 6 + idx[1]) as f64
                });
                // Provider's reply is its LOCAL partial sum; with ghost
                // returns, caller k hears from provider k % 2.
                let r: f64 =
                    ep.call_with_array(ic, 0, 1.0f64, &caller_dad, &callee_dad, &local).unwrap();
                // Column block sums of 0..35 grid: left cols {0,1,2} sum,
                // right cols {3,4,5} sum.
                let left: f64 =
                    (0..6).flat_map(|i| (0..3).map(move |j| i * 6 + j)).sum::<usize>() as f64;
                let right: f64 =
                    (0..6).flat_map(|i| (3..6).map(move |j| i * 6 + j)).sum::<usize>() as f64;
                let expect = if ctx.comm.rank() % 2 == 0 { left } else { right };
                assert_eq!(r, expect);
                ep.shutdown(ic).unwrap();
            } else {
                let svc = NormService {
                    input_dad: callee_dad.clone(),
                    output_dad: callee_dad.clone(),
                    partial_sums: Default::default(),
                };
                let calls = parallel_serve(ctx.intercomm(0), &caller_dad, None, &svc).unwrap();
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
                let mut ep = ParallelEndpoint::new();
                let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                    (idx[0] * 4 + idx[1]) as f64
                });
                let mut result: LocalArray<f64> =
                    LocalArray::allocate(&caller_dad, ctx.comm.rank());
                let _sum: f64 = ep
                    .call_with_array_ret(
                        ic,
                        1,
                        10.0f64,
                        &caller_dad,
                        &callee_dad,
                        &local,
                        &callee_dad,
                        &caller_dad,
                        &mut result,
                    )
                    .unwrap();
                // The provider scaled by 10 and the result came back in the
                // caller's row-block layout.
                for (idx, &v) in result.iter() {
                    assert_eq!(v, (idx[0] * 4 + idx[1]) as f64 * 10.0, "at {idx:?}");
                }
                ep.shutdown(ic).unwrap();
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
                let mut ep = ParallelEndpoint::new();
                let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                    (idx[0] * 4 + idx[1]) as f64
                });
                // Unknown method with a declared parallel return: the call
                // must fail with a typed error, not hang on the array plane.
                let mut result: LocalArray<f64> =
                    LocalArray::allocate(&caller_dad, ctx.comm.rank());
                let err = ep
                    .call_with_array_ret::<f64, f64>(
                        ic,
                        77,
                        1.0,
                        &caller_dad,
                        &callee_dad,
                        &local,
                        &callee_dad,
                        &caller_dad,
                        &mut result,
                    )
                    .unwrap_err();
                assert!(matches!(err, PrmiError::MethodNotFound { method: 77 }), "{err}");
                // Input-only variant NACKs too, and the service survives.
                let err = ep
                    .call_with_array::<f64, f64>(ic, 8, 1.0, &caller_dad, &callee_dad, &local)
                    .unwrap_err();
                assert!(matches!(err, PrmiError::MethodNotFound { method: 8 }), "{err}");
                let sum: f64 =
                    ep.call_with_array(ic, 0, 1.0f64, &caller_dad, &callee_dad, &local).unwrap();
                assert!(sum.is_finite());
                ep.shutdown(ic).unwrap();
            } else {
                let svc = NormService {
                    input_dad: callee_dad.clone(),
                    output_dad: callee_dad.clone(),
                    partial_sums: Default::default(),
                };
                let calls =
                    parallel_serve(ctx.intercomm(0), &caller_dad, Some(&caller_dad), &svc).unwrap();
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
                let mut ep = ParallelEndpoint::new();
                for step in 0..5 {
                    let local = LocalArray::from_fn(&caller_dad, ctx.comm.rank(), |idx| {
                        (idx[0] + step) as f64
                    });
                    let sum: f64 = ep
                        .call_with_array(ic, 0, 1.0f64, &caller_dad, &callee_dad, &local)
                        .unwrap();
                    let expect: f64 = (0..4).map(|i| (i + step) as f64).sum();
                    assert_eq!(sum, expect, "step {step}");
                }
                ep.shutdown(ic).unwrap();
            } else {
                let svc = NormService {
                    input_dad: callee_dad.clone(),
                    output_dad: callee_dad.clone(),
                    partial_sums: Default::default(),
                };
                let calls = parallel_serve(ctx.intercomm(0), &caller_dad, None, &svc).unwrap();
                assert_eq!(calls, 5);
            }
        });
    }
}
