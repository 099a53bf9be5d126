//! # mxn-serve — the sharded serving plane
//!
//! The PRMI layers in this repo assume a *coupling* shape: M caller ranks
//! lock-stepped against N provider ranks. A serving plane has the opposite
//! shape — **thousands** of independent client endpoints, each issuing
//! small RMI calls at its own pace, against one provider address. Giving
//! each client its own serve loop would melt; this crate multiplexes them
//! onto a small executor pool instead:
//!
//! * Connections are channel-decoupled and hashed onto `shards` executor
//!   queues; each shard drains its queue into per-method request batches
//!   and dispatches a whole batch in one backend call — one
//!   [`RemoteService::dispatch_batch`](mxn_framework::RemoteService::dispatch_batch)
//!   in process, or one `CollReq` through the PRMI collective serve loop
//!   ([`backend::PrmiBackend`]). Replies are demultiplexed back to their
//!   connections by sequence id, in per-connection request order.
//! * [`ServePolicy`] is the server-side contract: bounded shard queues and
//!   in-flight budgets with typed `Overloaded` NACKs (admission control),
//!   per-connection windows that park the *sender's* thread (cooperative
//!   backpressure — a slow client stalls itself, never a shard), and an
//!   optional queue-age deadline.
//! * Each shard keeps [`ShardStats`] counters and emits `serve`-category
//!   trace events (`ServeConn`/`ServeBatch`/`ServeOverload`/`ServePark`),
//!   so a plane run is observable with the same tooling as a collective.
//! * [`wire_front::WireFront`] exposes a plane to real client processes
//!   over one Unix-domain-socket listener via [`mxn_wire::MuxServer`].
//!
//! In-process quickstart:
//!
//! ```
//! use std::sync::Arc;
//! use mxn_framework::{AnyPayload, Dispatch, RemoteService};
//! use mxn_serve::{ServePolicy, ServiceBackend, ServingPlane};
//!
//! struct Square;
//! impl RemoteService for Square {
//!     fn dispatch(&self, method: u32, arg: AnyPayload) -> Dispatch {
//!         match method {
//!             0 => AnyPayload::new(arg.downcast::<f64>().unwrap().powi(2)).into(),
//!             _ => Dispatch::MethodNotFound,
//!         }
//!     }
//! }
//!
//! let service: Arc<dyn RemoteService> = Arc::new(Square);
//! let plane = ServingPlane::new(ServePolicy::default(), |_shard| {
//!     Box::new(ServiceBackend::new(Arc::clone(&service)))
//! });
//! let mut client = plane.client();
//! let out = client.call(0, AnyPayload::new(3.0f64)).unwrap();
//! assert_eq!(out.downcast::<f64>().unwrap(), 9.0);
//! drop(client);
//! let stats = plane.shutdown();
//! assert_eq!(stats.totals().replies, 1);
//! ```

#![warn(unreachable_pub)]

mod backend;
mod plane;
mod wire_front;

#[doc(hidden)]
pub use backend::BatchReply;
pub use backend::{PlaneBackend, PrmiBackend, ServiceBackend};
pub use plane::{
    PlaneClient, PlaneHandle, PlaneReply, PlaneStats, ServeError, ServeOutcome, ServePolicy,
    ServingPlane, ShardStats,
};
pub use wire_front::{DecodeFn, EncodeFn, WireFront};
