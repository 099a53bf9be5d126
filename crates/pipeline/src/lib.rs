//! # mxn-pipeline — data transformation pipelines (the paper's §6)
//!
//! Implements the future-work direction the paper closes with: assembling
//! "a pipeline of components" of data transformations and redistributions,
//! operating in place where possible, and "combining several successive
//! redistribution and translation components into a single optimized
//! component" (the super-component rewrite).
//!
//! * [`Filter`] — in-place pointwise transformations (unit conversions,
//!   scaling, clamping), with affine filters exposing
//!   coefficients for fusion.
//! * [`Pipeline`] — staged pipelines over distributed fields, an optimizer
//!   that fuses affine runs and collapses all redistributions into one,
//!   and collective execution over a communicator.

#![warn(unreachable_pub)]

mod filter;
mod pipeline;

pub use filter::{fuse_affine, Clamp, Filter, Scale, UnitConversion};
pub use pipeline::{Pipeline, Stage};
