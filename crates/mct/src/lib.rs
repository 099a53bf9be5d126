//! # mxn-mct — the Model Coupling Toolkit
//!
//! The MCT of the paper's §4.5: M×N capabilities implemented "at a higher
//! level than the other CCA projects", as the services a climate-style
//! coupled model needs. Every bullet of the paper's feature list has a
//! module here:
//!
//! * [`ModelRegistry`] — the lightweight model registry and process-ID lookup
//!   that obviates inter-communicators.
//! * [`AttrVect`] — the multi-field attribute vector, the "common
//!   currency" of data exchange (field-major, cache-friendly).
//! * [`GlobalSegMap`] — global segment maps (domain decomposition descriptors).
//! * [`Router`], [`Rearranger`] — communication schedulers for intermodule transfer
//!   ([`Router`]) and intra-module redistribution ([`Rearranger`]).
//! * [`SparseMatrix`] — distributed sparse matrices; interpolation as
//!   parallel sparse matrix–vector multiply over all fields at once.
//! * [`GeneralGrid`] — general grids of arbitrary dimension with masking.
//! * [`global_integral`], [`paired_integral`] — spatial integrals and averages, including *paired*
//!   integrals for flux conservation across inter-grid interpolation.
//! * [`Accumulator`] — time-averaging registers for components that do not
//!   share a time-step.

#![warn(unreachable_pub)]

mod accumulator;
mod attrvect;
mod grid;
mod gsmap;
mod integrals;
mod registry;
mod remap;
mod router;
mod sparsemat;

pub use accumulator::{AccumAction, Accumulator};
pub use attrvect::AttrVect;
pub use grid::GeneralGrid;
pub use gsmap::{GlobalSegMap, Segment};
pub use integrals::{global_integral, paired_integral, PairedIntegral};

pub use registry::ModelRegistry;
pub use remap::{conservative_remap_1d, CellGrid1d};
pub use router::{Rearranger, Router, RouterPair};
pub use sparsemat::{SparseElem, SparseMatrix, SparseMatrixPlus};
