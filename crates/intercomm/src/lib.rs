//! # mxn-intercomm — the InterComm coupling framework
//!
//! The University of Maryland InterComm system of the paper's §4.4
//! (descendant of Meta-Chaos): efficient communication between coupled
//! parallel programs with complex array distributions, plus a *separate
//! coordination layer* deciding **when** transfers happen.
//!
//! * [`PartitionedDescriptor`] — replicated descriptors for block distributions vs
//!   **partitioned** elementwise owner tables for explicit distributions,
//!   with collective owner resolution.
//! * [`MatchRule`] — timestamp matching criteria (exact, lower/upper bound,
//!   nearest-within-tolerance, regular-interval), as pure decidable logic.
//! * [`Exporter`], [`Importer`] — the import/export programming model: exporters publish
//!   versioned snapshots into a bounded buffer and answer requests as the
//!   rules become decidable, hiding transfer cost behind the exporting
//!   program's own stepping; importers block only until their rule decides.
//!
//! Reusable communication schedules come from `mxn-schedule` (shared with
//! the M×N component), reflecting that InterComm's transfer layer and the
//! CCA M×N component solve the same §2.3 problem.

#![warn(unreachable_pub)]

mod api;
mod descriptor;
mod rules;

pub use api::{ExportStats, Exporter, ImportOutcome, Importer};
pub use descriptor::{ICDescriptor, PartitionedDescriptor};
pub use rules::{MatchDecision, MatchRule};
