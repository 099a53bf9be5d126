//! # mxn-dca — the Distributed CCA Architecture model
//!
//! The DCA framework of the paper's §4.3: a distributed CCA built directly
//! on MPI idioms.
//!
//! * [`DcaPort`] — the glue the DCA stub generator emits, written as a
//!   type instead of generated from SIDL: every port invocation carries a
//!   participation communicator as an extra trailing argument, and the
//!   port inserts the delivery barrier exactly when a *proper subset* of
//!   the component's processes participates (the rule that fixes Figure 5;
//!   all-participate calls skip it). [`DcaPort::invocation`] builds the
//!   call, so one-way methods are `.oneway()` on it.
//! * [`AlltoallvSpec`] — user-specified redistribution with MPI-style count and
//!   displacement arrays, intra-program (over `alltoallv`) and
//!   cross-program, plus the "DAD as a layer on top of the DCA
//!   abstractions" derivation the paper suggests.
//!
//! Concurrent component startup via Go ports — DCA's other distinguishing
//! behaviour — is provided by `mxn_framework::Framework::run_all_go`.

#![warn(unreachable_pub)]

mod alltoall;
mod stub;

pub use alltoall::{
    alltoallv_within, gather_from_remote, scatter_to_remote, spec_from_dads, AlltoallvSpec,
};
pub use stub::DcaPort;
