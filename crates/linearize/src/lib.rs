//! # mxn-linearize — Meta-Chaos-style linearization
//!
//! The linearization intermediate representation of the paper's §2.2.1: map
//! every element of a distributed structure to a position in an abstract
//! 1-D sequence, express each rank's ownership as a [`SegmentList`] over
//! that sequence, and match source to destination by intersecting segment
//! lists. "It does not imply serialization — the linearization is a logical
//! process, but actual transfers can be carried out fully in parallel."
//!
//! * [`SegmentList`] — the segment-list IR and its merge-sweep intersection.
//! * [`ArrayOrder`] — row-/column-major array linearizations.
//! * [`StructLinearization`] — tree (preorder) and graph (BFS) linearizations.
//! * [`extract_segments`], [`insert_segments`] — moving values between patches and linear runs.
//! * [`request_and_fill`], [`serve_requests`] — the schedule-free receiver-request transfer protocol
//!   (the Indiana MPI-IO M×N device; experiment E7's comparator).

#![warn(unreachable_pub)]

mod extract;
mod order;
mod protocol;
mod segments;
mod structure;

pub use extract::{extract_segments, insert_segments};
pub use order::ArrayOrder;
pub use protocol::{request_and_fill, serve_requests, TransferReport};
pub use segments::SegmentList;
pub use structure::{Graph, StructLinearization, Tree};
