//! The DCA stub layer: communicator-carrying port invocations.
//!
//! "The stub generator that parses the SIDL source files automatically adds
//! an extra argument to all port methods, of type MPI_Comm, that is used to
//! communicate to the framework which processes participate in the parallel
//! remote method invocation … it is used to perform a barrier
//! synchronization, required to ensure that the order of invocation is
//! preserved when different but intersecting sets of processes make
//! consecutive port calls … In other invocation schemes where all processes
//! must participate, the barrier is not required." (paper §4.3)
//!
//! [`DcaPort`] is the Rust analogue of a generated stub: every invocation
//! takes the participation communicator as its trailing argument, and the
//! stub inserts the delivery barrier exactly when the participant set is a
//! proper subset of the component's processes.

use std::time::Duration;

use mxn_runtime::{Comm, InterComm, MsgSize};

use mxn_prmi::{DeliveryPolicy, Endpoint, Invocation, Result, ServeOpts};

/// Maps a participation communicator's members to program-local ranks,
/// given the program communicator (both share global world ranks).
pub(crate) fn program_local_ranks(program: &Comm, participants: &Comm) -> Vec<usize> {
    let local = |g: &usize| program.group().iter().position(|pg| pg == g);
    let member = |g| local(g).expect("participant is a member of the program");
    participants.group().iter().map(member).collect()
}

/// A generated-stub-style port handle: one remote serial provider rank,
/// invoked with a trailing participation communicator.
///
/// The delivery barrier is a property of the port's *invocation scheme*,
/// not of a single call: "in other invocation schemes where all processes
/// must participate, the barrier is not required" (§4.3). A port declared
/// [`DcaPort::uniform`] promises every call is all-participate and skips
/// barriers entirely; the default (mixed) scheme barriers every call,
/// because even an all-participate call can deadlock against a concurrent
/// subset call (the Figure 5 interleaving).
pub struct DcaPort {
    provider: usize,
    program_size: usize,
    uniform: bool,
}

impl DcaPort {
    /// Creates a stub for the general (mixed-participation) scheme:
    /// every invocation is barrier-synchronized. `program_size` is the
    /// caller component's full process count.
    pub fn new(provider: usize, program_size: usize) -> Self {
        DcaPort { provider, program_size, uniform: false }
    }

    /// Creates a stub for the all-participate scheme: the caller promises
    /// every invocation involves the whole component, so calls are
    /// delivered in order without barriers.
    pub fn uniform(provider: usize, program_size: usize) -> Self {
        DcaPort { provider, program_size, uniform: true }
    }

    /// The policy the stub generator would emit for this participant set.
    ///
    /// # Panics
    /// If a uniform port is invoked with a proper participant subset (a
    /// broken promise the generated stub can check cheaply).
    pub(crate) fn policy_for(&self, participants: &Comm) -> DeliveryPolicy {
        if self.uniform {
            assert_eq!(
                participants.size(),
                self.program_size,
                "uniform DCA port invoked with a participant subset"
            );
            DeliveryPolicy::eager()
        } else {
            DeliveryPolicy::safe()
        }
    }

    /// The invocation the stub generator emits for `method` called by
    /// `participants` — the DCA calling convention, with the participation
    /// communicator as the (conceptually trailing) extra argument: a subset
    /// call to this port's provider under the port's barrier rule. Add
    /// `.oneway()` or `.policy(..)` and run it with [`Endpoint::call`].
    pub fn invocation<'a, A>(
        &self,
        program: &Comm,
        participants: &'a Comm,
        method: u32,
        arg: A,
    ) -> Invocation<'a, A> {
        let ranks = program_local_ranks(program, participants);
        Invocation::subset(participants, ranks, self.provider, method, arg)
            .delivery(self.policy_for(participants))
    }

    /// Invokes two-way `method` through [`DcaPort::invocation`].
    pub fn invoke<A, R>(
        &self,
        ic: &InterComm,
        program: &Comm,
        participants: &Comm,
        method: u32,
        arg: A,
    ) -> Result<R>
    where
        A: Send + Sync + MsgSize + Clone + 'static,
        R: 'static,
    {
        Endpoint::default().call(ic, self.invocation(program, participants, method, arg))
    }

    /// Ends the provider's serve loop (one caller rank sends this).
    pub fn shutdown(&self, ic: &InterComm) -> Result<()> {
        Endpoint::default().shutdown(ic, ServeOpts::subset(Duration::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_framework::{AnyPayload, Dispatch, RemoteService};
    use mxn_prmi::{serve, PrmiError};
    use mxn_runtime::Universe;

    struct AddTen;
    impl RemoteService for AddTen {
        fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
            let v: f64 = arg.downcast().unwrap();
            AnyPayload::replicable(v + 10.0 + method as f64).into()
        }
    }

    #[test]
    fn full_participation_skips_barrier_and_works() {
        Universe::run(&[3, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let port = DcaPort::uniform(0, 3);
                assert_eq!(port.policy_for(&ctx.comm), DeliveryPolicy::eager());
                let r: f64 = port.invoke(ic, &ctx.comm, &ctx.comm, 1, 5.0f64).unwrap();
                assert_eq!(r, 16.0);
                if ctx.comm.rank() == 0 {
                    port.shutdown(ic).unwrap();
                }
            } else {
                let out =
                    serve(ctx.intercomm(0), &AddTen, ServeOpts::subset(Duration::from_secs(5)))
                        .unwrap();
                assert_eq!((out.calls, out.deadlock), (1, None));
            }
        });
    }

    #[test]
    fn subset_participation_gets_the_barrier() {
        Universe::run(&[4, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let port = DcaPort::new(0, 4);
                let sub = ctx.comm.subgroup(&[1, 3]).unwrap();
                if let Some(sub) = sub {
                    assert_eq!(port.policy_for(&sub), DeliveryPolicy::safe());
                    assert_eq!(program_local_ranks(&ctx.comm, &sub), vec![1, 3]);
                    let r: f64 = port.invoke(ic, &ctx.comm, &sub, 0, 1.0f64).unwrap();
                    assert_eq!(r, 11.0);
                    if sub.rank() == 0 {
                        port.shutdown(ic).unwrap();
                    }
                }
            } else {
                let out =
                    serve(ctx.intercomm(0), &AddTen, ServeOpts::subset(Duration::from_secs(5)))
                        .unwrap();
                assert_eq!((out.calls, out.deadlock), (1, None));
            }
        });
    }

    #[test]
    fn intersecting_subsets_complete_thanks_to_stub_barrier() {
        // The Figure 5 shape, but driven through DCA stubs, which insert
        // the barrier automatically: must complete.
        Universe::run(&[3, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let port = DcaPort::new(0, 3);
                let rank = ctx.comm.rank();
                let all = ctx.comm.subgroup(&[0, 1, 2]).unwrap().unwrap();
                let pair = ctx.comm.subgroup(&[1, 2]).unwrap();
                if rank == 0 {
                    let r: f64 = port.invoke(ic, &ctx.comm, &all, 0, 1.0f64).unwrap();
                    assert_eq!(r, 11.0);
                    port.shutdown(ic).unwrap();
                } else {
                    std::thread::sleep(Duration::from_millis(30));
                    let pair = pair.unwrap();
                    let rb: f64 = port.invoke(ic, &ctx.comm, &pair, 1, 2.0f64).unwrap();
                    assert_eq!(rb, 13.0);
                    let _ra: f64 = port.invoke(ic, &ctx.comm, &all, 0, 1.0f64).unwrap();
                }
            } else {
                let out =
                    serve(ctx.intercomm(0), &AddTen, ServeOpts::subset(Duration::from_secs(5)))
                        .unwrap();
                assert_eq!((out.calls, out.deadlock), (2, None));
            }
        });
    }

    #[test]
    fn oneway_invocation_returns_immediately() {
        Universe::run(&[2, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let port = DcaPort::new(0, 2);
                let oneway = port.invocation(&ctx.comm, &ctx.comm, 2, 4.0f64).oneway();
                Endpoint::default().call::<_, ()>(ic, oneway).unwrap();
                // A later two-way call is serviced after the one-way.
                let r: f64 = port.invoke(ic, &ctx.comm, &ctx.comm, 0, 0.0f64).unwrap();
                assert_eq!(r, 10.0);
                if ctx.comm.rank() == 0 {
                    port.shutdown(ic).unwrap();
                }
            } else {
                let out = serve(
                    ctx.intercomm(0),
                    &OneWayAware,
                    ServeOpts::subset(Duration::from_secs(5)),
                )
                .unwrap();
                // Both the one-way and the two-way call were serviced.
                assert_eq!((out.calls, out.deadlock), (2, None));
            }
        });

        struct OneWayAware;
        impl RemoteService for OneWayAware {
            fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
                let v: f64 = arg.downcast().unwrap();
                AnyPayload::replicable(v + 10.0 + if method == 2 { 100.0 } else { 0.0 }).into()
            }
        }
    }

    /// Method ids the subset protocol reserves (the shutdown id 0x7ff) or
    /// cannot carry (0x800 and up land in the response band) are rejected
    /// before anything is sent, one-way or not, and the provider keeps
    /// serving.
    #[test]
    fn reserved_and_out_of_range_methods_are_rejected() {
        Universe::run(&[2, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let port = DcaPort::new(0, 2);
                for method in [0x7ff, 0x800, 0x1234] {
                    let oneway = port.invocation(&ctx.comm, &ctx.comm, method, 1.0f64).oneway();
                    let r = Endpoint::default().call::<_, ()>(ic, oneway);
                    assert!(matches!(r, Err(PrmiError::Protocol { .. })), "one-way {method:#x}");
                    let r: Result<f64> = port.invoke(ic, &ctx.comm, &ctx.comm, method, 1.0f64);
                    assert!(matches!(r, Err(PrmiError::Protocol { .. })), "two-way {method:#x}");
                }
                let r: f64 = port.invoke(ic, &ctx.comm, &ctx.comm, 0, 1.0f64).unwrap();
                assert_eq!(r, 11.0, "the provider is still serving");
                if ctx.comm.rank() == 0 {
                    port.shutdown(ic).unwrap();
                }
            } else {
                let out =
                    serve(ctx.intercomm(0), &AddTen, ServeOpts::subset(Duration::from_secs(5)))
                        .unwrap();
                assert_eq!((out.calls, out.deadlock), (1, None));
            }
        });
    }
}
