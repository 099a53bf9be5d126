//! # mxn-dad — the Distributed Array Descriptor
//!
//! Implements the CCA Distributed Array Descriptor of the paper's §2.2.2: a
//! uniform, package-neutral description of how a dense multidimensional
//! array is decomposed across the processes of a parallel component, plus
//! access to each process's local patches.
//!
//! * [`Extents`], [`Region`] — extents, row-major indexing, rectangular
//!   regions.
//! * [`AxisDist`] — the per-axis distribution kinds (collapsed, block, cyclic,
//!   block-cyclic, generalized block, HPF-style implicit).
//! * [`Template`] — HPF-style templates over process grids.
//! * [`ExplicitDist`] — the whole-array explicit patch distribution.
//! * [`Dad`] — the unified descriptor, plus access modes ([`AccessMode`]).
//! * [`AlignedArray`] — alignment of actual arrays onto templates.
//! * [`LocalArray`] — per-rank patch storage with fast
//!   row-run packing for transfer execution.
//! * [`OverlapIndex`] — sublinear "who owns part of this
//!   region?" queries for schedule construction.
//! * [`ConverterRegistry`] — the 2N-vs-N² DA-package interop model (experiment E9).
//!
//! ```
//! use mxn_dad::{Dad, Extents, LocalArray};
//!
//! // A 6×6 array, block-distributed over a 2×2 process grid.
//! let dad = Dad::block(Extents::new([6, 6]), &[2, 2]).unwrap();
//! assert_eq!(dad.nranks(), 4);
//! assert_eq!(dad.owner(&[5, 0]), 2);
//!
//! // Rank 0's local storage covers rows 0..3 × cols 0..3.
//! let local = LocalArray::from_fn(&dad, 0, |idx| idx[0] * 10 + idx[1]);
//! assert_eq!(*local.get(&[2, 1]).unwrap(), 21);
//! ```

#![warn(unreachable_pub)]

mod align;
mod axis;
mod converters;
mod descriptor;
mod expand;
mod explicit;
mod local;
mod overlap;
mod shape;
mod shrink;
mod template;

pub use align::AlignedArray;
pub use axis::AxisDist;
pub use converters::{ConvertStrategy, ConverterRegistry, SyntheticPackage};
pub use descriptor::{AccessMode, Dad, Distribution};
pub use explicit::ExplicitDist;
pub use local::{region_runs, CopyRun, LocalArray, PatchLayout};
pub use overlap::{AxisHits, AxisRun, OverlapHits, OverlapIndex};
pub use shape::{Extents, Region};
pub use template::Template;
