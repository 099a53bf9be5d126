//! # mxn-mct — the Model Coupling Toolkit
//!
//! The MCT of the paper's §4.5: M×N capabilities implemented "at a higher
//! level than the other CCA projects", as the services a climate-style
//! coupled model needs. Every bullet of the paper's feature list has a
//! module here:
//!
//! * [`registry`] — the lightweight model registry and process-ID lookup
//!   that obviates inter-communicators.
//! * [`attrvect`] — the multi-field attribute vector, the "common
//!   currency" of data exchange (field-major, cache-friendly).
//! * [`gsmap`] — global segment maps (domain decomposition descriptors).
//! * [`router`] — communication schedulers for intermodule transfer
//!   ([`Router`]) and intra-module redistribution ([`Rearranger`]).
//! * [`sparsemat`] — distributed sparse matrices; interpolation as
//!   parallel sparse matrix–vector multiply over all fields at once.
//! * [`grid`] — general grids of arbitrary dimension with masking.
//! * [`integrals`] — spatial integrals and averages, including *paired*
//!   integrals for flux conservation across inter-grid interpolation.
//! * [`accumulator`] — time-averaging registers for components that do not
//!   share a time-step.
//! * [`merge`](mod@merge) — blending of state/flux data from multiple sources.

pub mod accumulator;
pub mod attrvect;
pub mod grid;
pub mod gsmap;
pub mod integrals;
pub mod merge;
pub mod registry;
pub mod remap;
pub mod router;
pub mod sparsemat;

pub use accumulator::{AccumAction, Accumulator};
pub use attrvect::AttrVect;
pub use grid::GeneralGrid;
pub use gsmap::{GlobalSegMap, Segment};
pub use integrals::{global_average, global_integral, paired_integral, PairedIntegral};
pub use merge::{merge, MergeSource};
pub use registry::ModelRegistry;
pub use remap::{conservative_remap_1d, CellGrid1d};
pub use router::{Rearranger, Router, RouterPair};
pub use sparsemat::{SparseElem, SparseMatrix, SparseMatrixPlus};
