//! # mxn-prmi — parallel remote method invocation semantics
//!
//! The PRMI model of the paper's §2.4 and §4.2 (SciRun2) and §4.3 (DCA),
//! over the values of `mxn-framework`. Every invocation is one
//! [`Invocation`] value — who participates, delivery timing, reply or
//! none, failure policy — run by [`Endpoint::call`]; every provider rank
//! runs [`serve`] configured by [`ServeOpts`]. The
//! participation kinds are three wire protocols:
//!
//! * Independent — one-to-one invocations with serial semantics
//!   (Damevski's non-collective mode), retried under idempotency tokens.
//! * Collective — all-to-all invocations for any M×N pairing, with
//!   *ghost invocations* (M < N) and *ghost return values* (M > N), simple
//!   arguments with optional cross-caller consistency checks, one-way
//!   methods, request batches, and self-healing retries.
//! * Subset ([`DeliveryPolicy`]) — subset process participation, invocation-order
//!   guarantees, and the Figure 5 synchronization problem: eager delivery
//!   reproduces the deadlock (detected by timeout); barrier-delayed
//!   delivery (the DCA rule) prevents it.
//!
//! [`parallel_serve`] adds parallel (distributed-array) arguments and
//! return values to collective calls, redistributed by communication
//! schedule as part of the call; the callee declares its expected layouts
//! *before* calls arrive, resolving §2.4's callee-side layout problem.

#![warn(unreachable_pub)]

mod collective;
mod error;
mod independent;
mod invocation;
mod parallel_args;
mod subset;

#[doc(hidden)]
pub use collective::collective_serve_batched;
pub use collective::{providers_of, respondents_of, CollBatch, CollBatchResult, CollReq, CollResp};
pub use error::{PrmiError, Result};
pub use invocation::{
    serve, Deadlock, Endpoint, Invocation, ServeOpts, ServeStats, METHOD_SHUTDOWN,
};
pub use parallel_args::{parallel_serve, ParallelPortSpec, ParallelService};
pub use subset::{DeliveryPolicy, SubsetShare};
