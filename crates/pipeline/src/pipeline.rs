//! Coupling pipelines and the super-component optimization.
//!
//! "To utilize the resulting sequence of data transformations and data
//! redistributions, a pipeline of components can be assembled. An
//! important pragmatic issue that arises with such pipelining is how
//! efficiently redistribution functions compose with one another …
//! Super-component solutions could also be explored … by combining
//! several successive redistribution and translation components into a
//! single optimized component." (paper §6)
//!
//! A [`Pipeline`] is a sequence of [`Stage`]s applied to a distributed
//! field. [`Pipeline::optimized`] performs the two super-component
//! rewrites the paper suggests:
//!
//! 1. **redistribution collapsing** — consecutive `Redistribute` stages
//!    become a single redistribution to the final layout (intermediate
//!    layouts are never materialized, because per-element filters are
//!    layout-independent);
//! 2. **affine fusion** — consecutive affine filters become one pass.

use std::sync::Arc;

use mxn_dad::{Dad, LocalArray};
use mxn_runtime::{Comm, Result};
use mxn_schedule::Redist;

use crate::filter::{fuse_affine, Filter};

/// One pipeline stage.
#[derive(Clone)]
pub enum Stage {
    /// Redistribute the field into a new decomposition.
    Redistribute(Dad),
    /// Transform local values in place.
    Filter(Arc<dyn Filter>),
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Redistribute(d) => write!(f, "redistribute(→{} ranks)", d.nranks()),
            Stage::Filter(flt) => write!(f, "filter({})", flt.describe()),
        }
    }
}

/// An assembled coupling pipeline over one field.
pub struct Pipeline {
    input: Dad,
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Starts a pipeline on a field distributed as `input`.
    pub fn new(input: Dad) -> Self {
        Pipeline { input, stages: Vec::new() }
    }

    /// Appends a redistribution to `layout` (must conform to the field).
    pub fn redistribute(mut self, layout: Dad) -> Self {
        assert!(self.input.conforms(&layout), "pipeline layouts must share global extents");
        self.stages.push(Stage::Redistribute(layout));
        self
    }

    /// Appends a filter stage.
    pub fn filter(mut self, f: impl Filter + 'static) -> Self {
        self.stages.push(Stage::Filter(Arc::new(f)));
        self
    }

    /// The input decomposition.
    pub fn input(&self) -> &Dad {
        &self.input
    }

    /// The output decomposition (last redistribution, or the input).
    pub(crate) fn output(&self) -> &Dad {
        self.stages
            .iter()
            .rev()
            .find_map(|s| match s {
                Stage::Redistribute(d) => Some(d),
                _ => None,
            })
            .unwrap_or(&self.input)
    }

    /// Number of redistributions the pipeline performs.
    pub fn num_redistributions(&self) -> usize {
        self.stages.iter().filter(|s| matches!(s, Stage::Redistribute(_))).count()
    }

    /// Number of element passes (filter applications).
    pub fn num_passes(&self) -> usize {
        self.stages.iter().filter(|s| matches!(s, Stage::Filter(_))).count()
    }

    /// The super-component rewrite. Every filter here is pointwise and
    /// therefore layout-independent, so filters commute with
    /// redistributions; the optimal plan is:
    ///
    /// 1. the filter sequence alone, with each maximal run of affine
    ///    filters fused into one pass (identity runs vanish), then
    /// 2. a **single** redistribution straight to the final layout —
    ///    intermediate layouts are never materialized, and a pipeline
    ///    ending where it started performs no redistribution at all.
    pub fn optimized(self) -> Pipeline {
        let final_layout = {
            let out = self.output();
            if *out == self.input {
                None
            } else {
                Some(out.clone())
            }
        };

        let mut out: Vec<Stage> = Vec::with_capacity(self.stages.len());
        let mut affine_run: Vec<(f64, f64)> = Vec::new();

        fn flush_affine(out: &mut Vec<Stage>, run: &mut Vec<(f64, f64)>) {
            if !run.is_empty() {
                let fused = fuse_affine(run);
                // Identity filters vanish entirely.
                if fused.scale != 1.0 || fused.offset != 0.0 {
                    out.push(Stage::Filter(Arc::new(fused)));
                }
                run.clear();
            }
        }

        for stage in self.stages {
            match stage {
                Stage::Filter(f) => match f.as_affine() {
                    Some(coeff) => affine_run.push(coeff),
                    None => {
                        flush_affine(&mut out, &mut affine_run);
                        out.push(Stage::Filter(f));
                    }
                },
                // Dropped: only the final layout matters.
                Stage::Redistribute(_) => {}
            }
        }
        flush_affine(&mut out, &mut affine_run);
        if let Some(d) = final_layout {
            out.push(Stage::Redistribute(d));
        }
        Pipeline { input: self.input, stages: out }
    }

    /// Executes the pipeline collectively within one program: every rank
    /// of `comm` passes its local portion; returns the output portion.
    pub fn execute(
        &self,
        comm: &Comm,
        local: LocalArray<f64>,
        tag_base: i32,
    ) -> Result<LocalArray<f64>> {
        let mut current_dad = self.input.clone();
        let mut current = local;
        let mut tag = tag_base;
        for stage in &self.stages {
            match stage {
                Stage::Filter(f) => {
                    for i in 0..current.num_patches() {
                        let (_, buf) = current.patch_mut(i);
                        f.apply(buf);
                    }
                }
                Stage::Redistribute(d) => {
                    current = Redist::between(&current_dad, d).within(comm, &current, tag)?;
                    current_dad = d.clone();
                    tag += 1;
                }
            }
        }
        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Clamp, Scale, UnitConversion};
    use mxn_dad::Extents;
    use mxn_runtime::World;

    fn layouts() -> (Dad, Dad, Dad) {
        let e = Extents::new([8, 8]);
        (
            Dad::block(e.clone(), &[4, 1]).unwrap(),
            Dad::block(e.clone(), &[2, 2]).unwrap(),
            Dad::block(e, &[1, 4]).unwrap(),
        )
    }

    fn sample_pipeline() -> Pipeline {
        let (a, b, c) = layouts();
        Pipeline::new(a)
            .filter(UnitConversion { scale: 2.0, offset: 1.0 })
            .filter(Scale(3.0))
            .redistribute(b)
            .redistribute(c)
            .filter(UnitConversion { scale: 1.0, offset: -5.0 })
    }

    #[test]
    fn optimizer_collapses_and_fuses() {
        let p = sample_pipeline();
        assert_eq!(p.num_redistributions(), 2);
        assert_eq!(p.num_passes(), 3);
        let opt = p.optimized();
        // Two redistributions collapse into one; three affine filters
        // slide together and fuse into one pass.
        assert_eq!(opt.num_redistributions(), 1);
        assert_eq!(opt.num_passes(), 1);
        let (_, _, c) = layouts();
        assert_eq!(opt.output(), &c);
    }

    #[test]
    fn optimized_pipeline_computes_the_same_field() {
        World::run(4, |p| {
            let comm = p.world();
            let (a, _, _) = layouts();
            let seed = LocalArray::from_fn(&a, comm.rank(), |idx| (idx[0] * 8 + idx[1]) as f64);

            let naive = sample_pipeline().execute(comm, seed.clone(), 100).unwrap();
            let optimized = sample_pipeline().optimized().execute(comm, seed, 200).unwrap();

            assert_eq!(naive.len(), optimized.len());
            for (idx, &v) in optimized.iter() {
                assert_eq!(v, *naive.get(&idx).unwrap(), "at {idx:?}");
                // And both equal the analytic composition 6x + 3 - 5.
                let x = (idx[0] * 8 + idx[1]) as f64;
                assert_eq!(v, 6.0 * x + 3.0 - 5.0);
            }
        });
    }

    #[test]
    fn non_affine_filter_is_a_fusion_barrier() {
        let (a, b, _) = layouts();
        let p = Pipeline::new(a)
            .filter(Scale(2.0))
            .filter(Clamp { lo: 0.0, hi: 10.0 })
            .filter(Scale(3.0))
            .redistribute(b)
            .optimized();
        // Scale·Clamp·Scale cannot fuse across the clamp: 3 passes remain
        // but each affine side stays a single filter.
        assert_eq!(p.num_passes(), 3);
        assert_eq!(p.num_redistributions(), 1);
    }

    #[test]
    fn clamp_ordering_is_preserved() {
        World::run(2, |p| {
            let comm = p.world();
            let e = Extents::new([4]);
            let d = Dad::block(e, &[2]).unwrap();
            let seed = LocalArray::from_fn(&d, comm.rank(), |idx| idx[0] as f64);
            let pipe = Pipeline::new(d.clone())
                .filter(Scale(10.0))
                .filter(Clamp { lo: 0.0, hi: 15.0 })
                .filter(Scale(0.1));
            let out = pipe.optimized().execute(comm, seed, 0).unwrap();
            // x → 10x → clamp 15 → ×0.1: values 0, 1, 1.5, 1.5.
            for (idx, &v) in out.iter() {
                let expect = (idx[0] as f64 * 10.0).min(15.0) * 0.1;
                assert_eq!(v, expect);
            }
        });
    }

    #[test]
    fn identity_affine_run_vanishes() {
        let (a, _, _) = layouts();
        let p = Pipeline::new(a).filter(Scale(4.0)).filter(Scale(0.25)).optimized();
        assert_eq!(p.num_passes(), 0, "4 × 0.25 = identity: no pass at all");
    }

    #[test]
    #[should_panic(expected = "global extents")]
    fn nonconforming_layout_rejected() {
        let (a, _, _) = layouts();
        let other = Dad::block(Extents::new([4, 4]), &[2, 1]).unwrap();
        let _ = Pipeline::new(a).redistribute(other);
    }

    #[test]
    fn pure_filter_pipeline_without_comm() {
        World::run(1, |p| {
            let comm = p.world();
            let e = Extents::new([6]);
            let d = Dad::block(e, &[1]).unwrap();
            let seed = LocalArray::from_fn(&d, 0, |idx| idx[0] as f64);
            let out = Pipeline::new(d)
                .filter(UnitConversion::celsius_to_kelvin())
                .execute(comm, seed, 0)
                .unwrap();
            assert_eq!(*out.get(&[0]).unwrap(), 273.15);
        });
    }
}
