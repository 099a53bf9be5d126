//! # mxn-framework — a CCA-style component framework
//!
//! The execution environment of a component-based application (paper §2.1,
//! Figure 2), in both flavors:
//!
//! * **Direct-connected** ([`Framework`]): components share an address
//!   space; a port invocation is "a refined form of library call". Run the
//!   same assembly on every rank of a communicator and each component
//!   becomes a *cohort* — a parallel component whose internal communication
//!   is out-of-band (MPI-style, via `mxn-runtime`).
//! * **Distributed** ([`RemoteService`]): components live in disjoint process
//!   sets; ports become RMI over an inter-communicator. This crate holds
//!   the values every invocation carries (marshalled payloads, the
//!   [`RemoteService`] a provider implements, typed NACKs, the retry
//!   [`CallPolicy`]); the `mxn-prmi`
//!   crate runs them — serial, collective and subset invocations through
//!   one caller and one serve loop.
//!
//! Components declare uses/provides ports through [`Services`]; a builder
//! wires them with [`Framework::connect`], checking SIDL-style port types.
//! Go ports ([`GoPort`]) start applications, individually or concurrently.

#![warn(unreachable_pub)]

mod direct;
mod error;
mod port;
mod remote;

pub use direct::{Component, Framework, Services};
pub use error::{FrameworkError, Result};
pub use port::{GoPort, ProvidedPort, UsesPort, GO_PORT_TYPE};
#[doc(hidden)]
pub use remote::BatchService;
pub use remote::{
    AnyPayload, CallPolicy, Dispatch, MethodNotFound, Overloaded, RemoteService, Replicator,
    ShedReason,
};
