//! # mxn-runtime — an MPI-like message-passing runtime for M×N research
//!
//! This crate is the substrate beneath the whole `mxn` workspace: an
//! in-process message-passing runtime with MPI semantics, where each rank is
//! an OS thread and payloads move by ownership transfer. It exists because
//! the systems reproduced from the paper (the CCA M×N component, PRMI,
//! DCA, InterComm, MCT) are all *defined in terms of* message-passing
//! semantics — matching, non-overtaking ordering, communicators, and
//! collectives — and those semantics are reproduced here exactly:
//!
//! * **Point-to-point**: eager [`Comm::send`] / blocking [`Comm::recv`] with
//!   `(source, tag)` matching including wildcards, plus nonblocking
//!   [`Comm::irecv`], `iprobe`, and timeouts
//!   ([`Comm::recv_timeout`]) for the deadlock experiments of Figure 5.
//! * **Communicators**: [`Comm::split`] and [`Comm::subgroup`], each with
//!   a private message context.
//! * **Collectives**: barrier, bcast, gather, scatter, allgather,
//!   alltoall(v), reduce, allreduce, scan, each a [`Comm`] method.
//! * **Inter-communicators** ([`InterComm`]), the same point-to-point
//!   [`Endpoint`] as a [`Comm`] addressing the remote group, and multi-program
//!   [`Universe`]s for coupled-code runs (the "M job talks to N job" case).
//! * **Traffic accounting** ([`WorldStats`]): every payload reports its wire
//!   size via [`MsgSize`], so benchmarks can report message counts and
//!   volumes that transfer to a real cluster.
//! * **Deterministic fault injection** ([`FaultConfig`]): a seeded
//!   [`FaultConfig`] drops, duplicates, corrupts, and delays messages and
//!   kills ranks mid-run ([`RunOpts::faults`]); blocked peers of a
//!   dead rank get [`RuntimeError::PeerDead`] instead of hanging, and the
//!   same seed always reproduces a byte-identical [`FaultTrace`].
//! * **Self-healing recovery**: ULFM-style epoch-based membership —
//!   survivors revoke a failed channel's context ([`Endpoint::revoke`]),
//!   vote with a fault-tolerant agreement ([`InterComm::agree_all`]), and
//!   shrink to a dense survivor intercomm on a fresh context
//!   ([`InterComm::shrink_with_report`]).
//!
//! ## Quick example
//!
//! ```
//! use mxn_runtime::World;
//!
//! let sums = World::run(4, |p| {
//!     let comm = p.world();
//!     comm.allreduce(comm.rank() as u64, |a, b| *a += b).unwrap()
//! });
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

#![warn(unreachable_pub)]

mod collectives;
mod comm;
mod envelope;
mod error;
mod fault;
mod intercomm;
mod mailbox;
mod membership;
mod msgsize;
mod network;
pub mod reconfig;
mod request;
mod rma;
mod shared;
mod stats;
mod tracing;
mod transport;
mod universe;
mod world;

pub use collectives::SMALL_COLLECTIVE_BYTES;
pub use comm::{Comm, Endpoint, Intra};
pub use envelope::{Envelope, MessageInfo, Payload, Src, Tag};
pub use error::{Result, RuntimeError};
pub use fault::{
    splitmix64, unit, ChannelPolicy, FaultConfig, FaultEvent, FaultKind, FaultTrace, Liveness,
    RankDeath,
};
pub use intercomm::{Inter, InterComm};
pub use mailbox::{Mailbox, PeerRef};
pub use membership::{JoinOffer, ReconfigReport, Revocations, ShrinkReport};
pub use msgsize::MsgSize;
pub use network::NetworkModel;
pub use request::RecvRequest;
pub use rma::RmaWindow;
pub use stats::{
    record_buffer_lease, record_pool_bytes, record_schedule_build, record_schedule_copy,
    record_transfer_acquired, record_transfer_released, reset_schedule_stats, schedule_stats,
    CollOp, CollOpStats, MailboxGauge, ScheduleStats, StatsSnapshot, TrafficClass, WorldStats,
};
pub use tracing::{coll_algo, err_code, fault_kind};
pub use transport::{InProcTransport, Transport};
pub use universe::{ProgramCtx, Universe};
pub use world::{Process, RunOpts, RunReport, World};

// The trace plane's public surface, re-exported so downstream code (tests,
// examples, benches) can collect and digest traces without a direct
// `mxn-trace` dependency.
pub use mxn_trace::{
    CollTotals, EventId, Phase, RunTrace, TraceAggregate, TraceCollector, TraceEvent, TraceHandle,
};
