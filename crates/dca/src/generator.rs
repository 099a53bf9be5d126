//! The SIDL-driven stub generator.
//!
//! "The stub generator that parses the SIDL source files automatically
//! adds an extra argument to all port methods, of type MPI_Comm … Also,
//! parallel arguments are identified in the SIDL file with the special
//! keyword 'parallel'." (paper §4.3)
//!
//! [`GeneratedStub`] is the product of that generator for one interface:
//! methods are dispatched **by name** against the parsed
//! [`InterfaceSpec`], and each call is checked against the declaration
//! before anything is sent — collective methods demand full
//! participation, independent methods a single participant, and the
//! caller's result type must match the declared return (`()` exactly for
//! `void`, which includes every one-way method, invoked fire-and-forget).
//! The declared method ids become the wire-level selectors automatically.

use std::any::TypeId;

use mxn_framework::{InterfaceSpec, InvocationMode, MethodSpec, SidlType};
use mxn_runtime::{Comm, InterComm, MsgSize};

use mxn_prmi::{Endpoint, PrmiError, Result};

use crate::stub::DcaPort;

/// A stub "generated" from a SIDL interface declaration.
pub struct GeneratedStub {
    spec: InterfaceSpec,
    port: DcaPort,
    program_size: usize,
}

impl GeneratedStub {
    /// Builds the stub for `spec`, targeting remote provider rank
    /// `provider`, within a caller component of `program_size` processes.
    pub fn new(spec: InterfaceSpec, provider: usize, program_size: usize) -> Self {
        GeneratedStub { spec, port: DcaPort::new(provider, program_size), program_size }
    }

    /// The interface this stub implements.
    pub fn spec(&self) -> &InterfaceSpec {
        &self.spec
    }

    fn method(&self, name: &str) -> Result<&MethodSpec> {
        self.spec.method(name).ok_or_else(|| PrmiError::Protocol {
            detail: format!("interface `{}` has no method `{name}`", self.spec.name),
        })
    }

    fn check_mode(&self, m: &MethodSpec, participants: &Comm) -> Result<()> {
        let needed = match m.mode {
            InvocationMode::Collective => self.program_size,
            InvocationMode::Independent => 1,
            InvocationMode::Oneway => return Ok(()),
        };
        let got = participants.size();
        match needed == got {
            true => Ok(()),
            false => Err(PrmiError::Protocol {
                detail: format!(
                    "{:?} method `{}` takes {needed} participant(s), got {got}",
                    m.mode, m.name
                ),
            }),
        }
    }

    /// Invokes a method by name; the participation communicator is the
    /// "extra argument" the generator adds. One-way methods are sent
    /// fire-and-forget and return `()`.
    pub fn invoke<A, R>(
        &self,
        name: &str,
        ic: &InterComm,
        program: &Comm,
        participants: &Comm,
        arg: A,
    ) -> Result<R>
    where
        A: Send + Sync + MsgSize + Clone + 'static,
        R: 'static,
    {
        let m = self.method(name)?;
        self.check_mode(m, participants)?;
        if (m.ret == SidlType::Void) != (TypeId::of::<R>() == TypeId::of::<()>()) {
            return Err(PrmiError::Protocol {
                detail: format!("method `{name}` returns {:?}, not the requested type", m.ret),
            });
        }
        let inv = self.port.invocation(program, participants, m.id, arg);
        let inv = if m.mode == InvocationMode::Oneway { inv.oneway() } else { inv };
        Endpoint::default().call(ic, inv)
    }

    /// Ends the provider's serve loop.
    pub fn shutdown(&self, ic: &InterComm) -> Result<()> {
        self.port.shutdown(ic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_framework::parse_interface;
    use mxn_framework::{AnyPayload, Dispatch, RemoteService};
    use mxn_prmi::{serve, ServeOpts};
    use mxn_runtime::Universe;
    use std::time::Duration;

    const IDL: &str = r#"
        interface Thermo {
            collective double mean_energy(in double scale);
            independent double probe(in double x);
            oneway void log_step(in double t);
        }
    "#;

    struct Thermo;
    impl RemoteService for Thermo {
        fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
            let v: f64 = arg.downcast().unwrap();
            AnyPayload::replicable(v + method as f64 * 100.0).into()
        }
    }

    #[test]
    fn generated_stub_dispatches_by_name_with_declared_ids() {
        Universe::run(&[2, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let stub = GeneratedStub::new(parse_interface(IDL).unwrap(), 0, 2);
                // Collective method: id 0 → +0.
                let r: f64 = stub.invoke("mean_energy", ic, &ctx.comm, &ctx.comm, 7.0f64).unwrap();
                assert_eq!(r, 7.0);
                // Independent method (singleton participation): id 1 → +100.
                let me = ctx.comm.split(ctx.comm.rank() as i64, 0).unwrap().unwrap();
                let r: f64 = stub.invoke("probe", ic, &ctx.comm, &me, 1.0f64).unwrap();
                assert_eq!(r, 101.0);
                // One-way: id 2 (executed, no reply).
                stub.invoke::<_, ()>("log_step", ic, &ctx.comm, &ctx.comm, 0.5f64).unwrap();
                if ctx.comm.rank() == 0 {
                    stub.shutdown(ic).unwrap();
                }
            } else {
                let out =
                    serve(ctx.intercomm(0), &Thermo, ServeOpts::subset(Duration::from_secs(5)))
                        .unwrap();
                // 1 collective + 2 independent + 1 one-way = 4 calls.
                assert_eq!((out.calls, out.deadlock), (4, None));
            }
        });
    }

    #[test]
    fn mode_violations_are_rejected_before_sending() {
        Universe::run(&[2, 1], |_, ctx| {
            if ctx.program == 0 {
                let ic = ctx.intercomm(1);
                let stub = GeneratedStub::new(parse_interface(IDL).unwrap(), 0, 2);
                let me = ctx.comm.split(ctx.comm.rank() as i64, 0).unwrap().unwrap();
                // Collective with a subset: rejected.
                let r: Result<f64> = stub.invoke("mean_energy", ic, &ctx.comm, &me, 1.0f64);
                assert!(matches!(r, Err(PrmiError::Protocol { .. })));
                // Independent with everyone: rejected.
                let r: Result<f64> = stub.invoke("probe", ic, &ctx.comm, &ctx.comm, 1.0f64);
                assert!(matches!(r, Err(PrmiError::Protocol { .. })));
                // Two-way call of a one-way method: rejected.
                let r: Result<f64> = stub.invoke("log_step", ic, &ctx.comm, &ctx.comm, 1.0f64);
                assert!(matches!(r, Err(PrmiError::Protocol { .. })));
                // One-way call of a two-way method: rejected.
                let r: Result<()> = stub.invoke("probe", ic, &ctx.comm, &me, 1.0f64);
                assert!(matches!(r, Err(PrmiError::Protocol { .. })));
                // Unknown method: rejected.
                let r: Result<f64> = stub.invoke("nope", ic, &ctx.comm, &ctx.comm, 1.0f64);
                assert!(matches!(r, Err(PrmiError::Protocol { .. })));
                // Nothing reached the provider; shut it down cleanly.
                if ctx.comm.rank() == 0 {
                    stub.shutdown(ic).unwrap();
                }
            } else {
                let out =
                    serve(ctx.intercomm(0), &Thermo, ServeOpts::subset(Duration::from_secs(5)))
                        .unwrap();
                assert_eq!((out.calls, out.deadlock), (0, None));
            }
        });
    }
}
