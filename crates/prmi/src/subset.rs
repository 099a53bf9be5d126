//! Subset participation and the Figure 5 synchronization problem.
//!
//! When only a subset of a parallel component's processes participates in a
//! collective call, and consecutive calls are made by *intersecting* sets
//! in different orders, delivering a call "as soon as one process reaches
//! the calling point" deadlocks: the provider blocks waiting for the
//! remaining shares of the first call while the other processes are blocked
//! inside a different call it cannot begin to service (paper Figure 5).
//!
//! "The solution is to delay PRMI delivery until all processes are ready"
//! — a barrier over the participant set before any share is sent
//! ([`DeliveryPolicy::barrier_before_delivery`], the DCA approach of §4.3,
//! and the default of [`crate::Invocation::subset`]).
//! Both behaviours are implemented so experiment F5 can demonstrate the
//! deadlock (detected by timeout) and measure the barrier's cost.

use std::time::Duration;

use mxn_framework::{AnyPayload, Dispatch, MethodNotFound, RemoteService};
use mxn_runtime::{InterComm, MsgSize, RuntimeError, Src, Tag};

use crate::error::{PrmiError, Result};
use crate::invocation::{await_reply, no_reply, reply, Deadlock, Invocation, ServeStats, Target};

const SUBSET_REQ_BASE: i32 = 0x6000;
const SUBSET_RESP_BASE: i32 = 0x6800;
/// Reserved method id ending a subset serve loop. Invocations of it, or of
/// any id above it (which would land in the response band), are rejected
/// before anything is sent.
pub(crate) const METHOD_SHUTDOWN: u32 = 0x7ff;

fn req_tag(method: u32) -> i32 {
    SUBSET_REQ_BASE + method as i32
}

fn resp_tag(method: u32) -> i32 {
    SUBSET_RESP_BASE + method as i32
}

/// How a caller-side collective delivery is synchronized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryPolicy {
    /// Barrier over the participant set before sending shares. `true` is
    /// the safe (DCA) behaviour; `false` reproduces the Figure 5 deadlock.
    pub barrier_before_delivery: bool,
}

impl DeliveryPolicy {
    /// The safe policy (delivery delayed until all participants arrive).
    pub fn safe() -> Self {
        DeliveryPolicy { barrier_before_delivery: true }
    }

    /// The unsafe policy (deliver on first arrival).
    pub fn eager() -> Self {
        DeliveryPolicy { barrier_before_delivery: false }
    }
}

/// One participant's share of a subset collective call.
pub struct SubsetShare {
    /// Program-local rank of this caller.
    pub caller: usize,
    /// Program-local ranks of every participant (identical in all shares).
    pub participants: Vec<usize>,
    /// One-way calls produce no responses (paper §2.4).
    pub oneway: bool,
    /// The (simple) argument; the provider uses the first share's copy.
    pub arg: AnyPayload,
}

impl MsgSize for SubsetShare {
    fn msg_size(&self) -> usize {
        8 + self.participants.len() * 8 + 1 + self.arg.msg_size()
    }
}

/// Caller body of a subset call: the delivery barrier, this rank's share,
/// and — unless one-way — the provider's reply, bounded by the policy's
/// deadline so the Figure 5 deadlock is detected rather than hung.
pub(crate) fn call<A, R>(ic: &InterComm, inv: Invocation<'_, A>) -> Result<R>
where
    A: Send + Sync + MsgSize + 'static,
    R: 'static,
{
    let Invocation {
        target: Target::Subset { participants, ranks, provider },
        method,
        arg,
        oneway,
        policy,
        delivery,
        ..
    } = inv
    else {
        unreachable!("Endpoint::call dispatches on the target")
    };
    let _span = mxn_trace::span(
        mxn_trace::EventId::PrmiCall,
        [method as u64, provider as u64, ranks.len() as u64, u64::from(oneway)],
    );
    if delivery.unwrap_or(DeliveryPolicy::safe()).barrier_before_delivery {
        participants.barrier()?;
        mxn_trace::emit_instant(
            mxn_trace::EventId::DcaBarrier,
            [participants.size() as u64, method as u64, 0, 0],
        );
    }
    let caller = ic.local_rank();
    let share = SubsetShare { caller, participants: ranks, oneway, arg: AnyPayload::new(arg) };
    ic.send(provider, req_tag(method), share)?;
    if oneway {
        return no_reply();
    }
    let resp: AnyPayload = await_reply(ic, provider, resp_tag(method), policy, method)?;
    reply(method, resp)
}

/// Ends every subset serve loop on the far side of `ic` (sent by one
/// caller rank).
pub(crate) fn shutdown(ic: &InterComm) -> Result<()> {
    for provider in 0..ic.remote_size() {
        let share = SubsetShare {
            caller: ic.local_rank(),
            participants: vec![],
            oneway: true,
            arg: AnyPayload::new(()),
        };
        ic.send(provider, req_tag(METHOD_SHUTDOWN), share)?;
    }
    Ok(())
}

/// A serial provider rank's loop body for subset calls.
///
/// Delivery is on *first arrival*: the provider starts servicing whichever
/// call's share reaches it first, then blocks for the remaining
/// participants' shares — exactly the semantics that make Figure 5
/// deadlock when callers use [`DeliveryPolicy::eager`]. `share_timeout`
/// bounds that blocking so the deadlock is detected (and reported in
/// [`ServeStats::deadlock`]) rather than hung.
pub(crate) fn serve_loop(
    ic: &InterComm,
    service: &dyn RemoteService,
    share_timeout: Duration,
) -> Result<ServeStats> {
    let mut stats = ServeStats::default();
    loop {
        // The first share of the next call, any method, any caller: shares
        // use a contiguous tag band, so Tag::Any plus the band keeps
        // matching simple while preserving per-method selectivity later.
        let (first, info) = ic.recv_with_info::<SubsetShare>(Src::Any, Tag::Any)?;
        debug_assert!(
            (SUBSET_REQ_BASE..SUBSET_RESP_BASE).contains(&info.tag),
            "share tag within the subset request band"
        );
        let method = (info.tag - SUBSET_REQ_BASE) as u32;
        if method == METHOD_SHUTDOWN {
            return Ok(stats);
        }
        // Collect the remaining participants' shares of this same call.
        for &p in &first.participants {
            if p == first.caller {
                continue;
            }
            match ic.recv_timeout::<SubsetShare>(p, req_tag(method), share_timeout) {
                Ok(_) => {}
                Err(RuntimeError::Timeout { .. }) => {
                    stats.deadlock = Some(Deadlock { missing_rank: p, method });
                    return Ok(stats);
                }
                Err(e) => return Err(e.into()),
            }
        }
        // All shares in: execute once, respond to every participant
        // (one-way calls skip the response phase).
        let SubsetShare { caller, participants, oneway, arg } = first;
        let result = match service.dispatch(method, arg) {
            Dispatch::Reply(p) => {
                stats.calls += 1;
                stats.oneway_calls += u64::from(oneway);
                p
            }
            Dispatch::MethodNotFound => {
                stats.method_not_found += 1;
                AnyPayload::replicable(MethodNotFound { method })
            }
        };
        mxn_trace::emit_instant(
            mxn_trace::EventId::PrmiServe,
            [method as u64, caller as u64, participants.len() as u64, u64::from(oneway)],
        );
        if oneway {
            continue;
        }
        match participants.len() {
            1 => ic.send(caller, resp_tag(method), result)?,
            _ => {
                let rep = result.take_replicator().ok_or_else(|| PrmiError::Protocol {
                    detail: "subset results need AnyPayload::replicable".into(),
                })?;
                for &p in &participants {
                    ic.send(p, resp_tag(method), rep())?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, Endpoint, Invocation, ServeOpts};
    use mxn_framework::CallPolicy;
    use mxn_runtime::Universe;

    /// Echo service doubling an f64.
    struct Doubler;
    impl RemoteService for Doubler {
        fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
            let v: f64 = arg.downcast().unwrap();
            AnyPayload::replicable(v * 2.0 + method as f64).into()
        }
    }

    #[test]
    fn full_set_call_works_with_either_policy() {
        for policy in [DeliveryPolicy::safe(), DeliveryPolicy::eager()] {
            Universe::run(&[3, 1], move |_, ctx| {
                if ctx.program == 0 {
                    let ic = ctx.intercomm(1);
                    let all = [0, 1, 2];
                    let r: f64 = Endpoint::default()
                        .call(
                            ic,
                            Invocation::subset(&ctx.comm, all, 0, 1, 10.0f64).delivery(policy),
                        )
                        .unwrap();
                    assert_eq!(r, 21.0);
                    if ctx.comm.rank() == 0 {
                        Endpoint::default()
                            .shutdown(ic, ServeOpts::subset(Duration::ZERO))
                            .unwrap();
                    }
                } else {
                    let out = serve(
                        ctx.intercomm(0),
                        &Doubler,
                        ServeOpts::subset(Duration::from_secs(5)),
                    )
                    .unwrap();
                    assert_eq!((out.calls, out.deadlock), (1, None));
                }
            });
        }
    }

    /// The Figure 5 scenario. Caller ranks: 0 calls method A with
    /// participants {0,1,2}; ranks 1,2 first call method B with
    /// participants {1,2}, then join method A.
    fn figure5(policy: DeliveryPolicy) -> ServeStats {
        let outcomes = Universe::run(&[3, 1], move |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let rank = ctx.comm.rank();
                let all = ctx.comm.subgroup(&[0, 1, 2]).unwrap().unwrap();
                let pair = ctx.comm.subgroup(&[1, 2]).unwrap();
                let t = Duration::from_secs(2);
                if rank == 0 {
                    // Reaches call A first (t1 in the figure).
                    let r: Result<f64> = Endpoint::default().call(
                        ic,
                        Invocation::subset(&all, [0, 1, 2], 0, 0, 1.0f64)
                            .delivery(policy)
                            .policy(CallPolicy { deadline: t, ..CallPolicy::default() }),
                    );
                    if policy.barrier_before_delivery {
                        assert_eq!(r.unwrap(), 2.0);
                        Endpoint::default()
                            .shutdown(ic, ServeOpts::subset(Duration::ZERO))
                            .unwrap();
                    } else {
                        assert!(matches!(r, Err(PrmiError::DeliveryDeadlock { .. })));
                    }
                } else {
                    // Delay so rank 0's share arrives first (deterministic).
                    std::thread::sleep(Duration::from_millis(50));
                    let pair = pair.unwrap();
                    let rb: Result<f64> = Endpoint::default().call(
                        ic,
                        Invocation::subset(&pair, [1, 2], 0, 1, 5.0f64)
                            .delivery(policy)
                            .policy(CallPolicy { deadline: t, ..CallPolicy::default() }),
                    );
                    if policy.barrier_before_delivery {
                        assert_eq!(rb.unwrap(), 11.0);
                        let _ra: f64 = Endpoint::default()
                            .call(
                                ic,
                                Invocation::subset(&all, [0, 1, 2], 0, 0, 1.0f64)
                                    .delivery(policy)
                                    .policy(CallPolicy { deadline: t, ..CallPolicy::default() }),
                            )
                            .unwrap();
                    } else {
                        // Call B's response never comes: the server is stuck
                        // collecting call A's shares (the figure's deadlock).
                        assert!(matches!(rb, Err(PrmiError::DeliveryDeadlock { .. })));
                    }
                }
                None
            } else {
                Some(
                    serve(
                        ctx.intercomm(0),
                        &Doubler,
                        ServeOpts::subset(Duration::from_millis(300)),
                    )
                    .unwrap(),
                )
            }
        });
        outcomes.into_iter().flatten().next().unwrap()
    }

    #[test]
    fn figure5_eager_policy_deadlocks() {
        let out = figure5(DeliveryPolicy::eager());
        match out.deadlock {
            Some(Deadlock { method, .. }) => {
                assert_eq!(out.calls, 0, "first call never completes");
                assert_eq!(method, 0, "stuck collecting call A's shares");
            }
            None => panic!("expected deadlock, got {out:?}"),
        }
    }

    #[test]
    fn figure5_barrier_policy_completes() {
        let out = figure5(DeliveryPolicy::safe());
        assert_eq!((out.calls, out.deadlock), (2, None));
    }
}
