//! # mxn-dri — the Data Reorganization Interface (DRI-1.0)
//!
//! The related-work standard of the paper's §5: "The Data Reorganization
//! Interface Standard (DRI-1.0) is the result of a DARPA-sponsored effort
//! targeted at the military signal and image processing community. DRI
//! datasets are arrays of up to three dimensions … Block and block-cyclic
//! partitions are supported, and local memory layouts are distinguished
//! from the data distribution … Reorganization operations in DRI are
//! collective, and are handled at a low level. The user provides send and
//! receive buffers and repeatedly call\[s\] DRI get/put operations until
//! the operation is complete. … the DRI can be thought of as a
//! specialized and low-level Distributed Array Descriptor and M×N
//! component."
//!
//! Mapping to this workspace: a [`DriPartition`] is a restricted DAD
//! (≤ 3-D, block / block-cyclic per dimension, plus a *local layout*
//! distinct from the distribution); a [`DriReorg`] is a low-level,
//! incrementally-driven M×N transfer built on the same region schedules —
//! one `put`/`get` call processes one peer's chunk, and the caller loops
//! until completion.

pub mod partition;
pub mod reorg;

pub use partition::{DriDist, DriPartition, LocalLayout};
pub use reorg::{DriReorg, ReorgPhase};
