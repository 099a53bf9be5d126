//! # mxn-schedule — communication schedules for parallel data redistribution
//!
//! "A communication schedule for distributed arrays specifies the
//! destination process of each of the data elements in the source array and
//! their locations in the destination processes. This schedule is computed
//! prior to the transfer operation, and can be reused" (paper §2.3).
//!
//! Two constructions are provided:
//!
//! * [`RegionSchedule`] — the descriptor fast path: intersect rectangular
//!   patches directly (CUMULVS/PAWS/InterComm style). Packing moves whole
//!   rows; messages carry data only. Construction prunes the peer space
//!   with the descriptor's per-axis overlap index (build cost scales with
//!   overlapping peers, not communicator size) and compiles each pair into
//!   a [`CopyPlan`] executed against pooled [`TransferBuffers`].
//! * [`LinearSchedule`] — the generic path: refer both layouts to the
//!   abstract 1-D linearization and intersect segment lists (Meta-Chaos
//!   style). Works for any linearizable structure, pays per-element index
//!   translation.
//!
//! Both are built *per rank with no coordinator* (scalability requirement
//! of §3), are reusable across transfers and across arrays conforming to
//! the same templates ([`ScheduleCache`]), and execute over either an
//! inter-communicator (coupled programs) or a single communicator
//! (self-connections such as transposes).

#![warn(unreachable_pub)]

mod cache;
mod halo;
mod linear_schedule;
mod plan;
mod redistribute;
mod region_schedule;
mod route;

pub use cache::ScheduleCache;
pub use halo::{GhostedPatch, HaloSchedule};
pub use linear_schedule::LinearSchedule;
pub use plan::{CopyPlan, TransferBuffers};
pub use redistribute::Redist;
#[doc(hidden)]
pub use redistribute::{recv_redistributed_cached, send_redistributed_cached};
pub use region_schedule::{LazyRegions, PairRegions, RegionSchedule, Role};
pub use route::{
    execute_recv_routed, execute_send_routed, execute_within_routed, RedistProfile, RedistRoute,
    RouteKind, RoutePlanner, RouteStep, StepOp, ROUTE_ACK_BIT,
};
