//! Spatial integrals and averages.
//!
//! "Spatial integral and averaging facilities that include **paired**
//! integrals and averages for use in conservation of global flux integrals
//! in inter-grid interpolation" (paper §4.5).
//!
//! All integrals are global: the local weighted sums are combined with an
//! `allreduce` over the component's communicator.

use mxn_runtime::{Comm, Result};

use crate::attrvect::AttrVect;
use crate::grid::GeneralGrid;

/// Global integral of one field: `Σ_p field[p] · weight[p]` over every
/// rank, with optional masking.
pub fn global_integral(
    comm: &Comm,
    av: &AttrVect,
    field: &str,
    grid: &GeneralGrid,
    mask: Option<&str>,
) -> Result<f64> {
    assert_eq!(av.lsize(), grid.npoints(), "attribute vector does not match the grid");
    let f = av.real(field);
    let local: f64 = (0..av.lsize()).map(|p| f[p] * grid.masked_weight(p, mask)).sum();
    comm.allreduce(local, |a, b| *a += b)
}

/// A pair of flux integrals computed together — the source-side and
/// destination-side values whose agreement certifies conservative
/// interpolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedIntegral {
    /// Integral on the source grid.
    pub source: f64,
    /// Integral on the destination grid.
    pub dest: f64,
}

impl PairedIntegral {
    /// Relative conservation error `|dest − source| / |source|`.
    pub fn relative_error(&self) -> f64 {
        if self.source == 0.0 {
            self.dest.abs()
        } else {
            (self.dest - self.source).abs() / self.source.abs()
        }
    }
}

/// Computes the paired integral of a flux before and after interpolation.
/// Both components call this collectively over the shared communicator.
#[allow(clippy::too_many_arguments)]
pub fn paired_integral(
    comm: &Comm,
    src_av: &AttrVect,
    src_field: &str,
    src_grid: &GeneralGrid,
    dst_av: &AttrVect,
    dst_field: &str,
    dst_grid: &GeneralGrid,
    mask: Option<&str>,
) -> Result<PairedIntegral> {
    let source = global_integral(comm, src_av, src_field, src_grid, mask)?;
    let dest = global_integral(comm, dst_av, dst_field, dst_grid, mask)?;
    Ok(PairedIntegral { source, dest })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsmap::GlobalSegMap;
    use crate::sparsemat::{SparseElem, SparseMatrix, SparseMatrixPlus};
    use mxn_runtime::World;

    #[test]
    fn integral_sums_across_ranks() {
        World::run(3, |p| {
            let comm = p.world();
            let map = GlobalSegMap::block(9, 3);
            let n = map.lsize(comm.rank());
            let grid = GeneralGrid::uniform_1d(n, 0.0, n as f64); // unit weights
            let mut av = AttrVect::new(&["q"], &[], n);
            for l in 0..n {
                av.real_mut("q")[l] = map.global_index(comm.rank(), l).unwrap() as f64;
            }
            let total = global_integral(comm, &av, "q", &grid, None).unwrap();
            assert_eq!(total, (0..9).sum::<usize>() as f64);
        });
    }

    #[test]
    fn masked_integral() {
        World::run(2, |p| {
            let comm = p.world();
            let mut grid = GeneralGrid::uniform_1d(2, 0.0, 2.0);
            // First point active, second masked out, on both ranks.
            grid.set_mask("ocean", vec![1, 0]);
            let mut av = AttrVect::new(&["t"], &[], 2);
            av.real_mut("t")[0] = (comm.rank() + 1) as f64; // 1 and 2
            av.real_mut("t")[1] = 999.0; // must be ignored
            let total = global_integral(comm, &av, "t", &grid, Some("ocean")).unwrap();
            assert_eq!(total, 3.0);
        });
    }

    #[test]
    fn conservative_interpolation_conserves_the_paired_integral() {
        // 8-cell source grid (h = 1) → 4-cell destination grid (h = 2),
        // destination cell = mean of its two source cells: exactly
        // conservative, so the paired integrals must agree.
        World::run(2, |p| {
            let comm = p.world();
            let me = comm.rank();
            let src_map = GlobalSegMap::block(8, 2);
            let dst_map = GlobalSegMap::block(4, 2);
            let mut elems = Vec::new();
            for s in dst_map.rank_segments(me) {
                for r in s.start..s.start + s.length {
                    elems.push(SparseElem { row: r, col: 2 * r, weight: 0.5 });
                    elems.push(SparseElem { row: r, col: 2 * r + 1, weight: 0.5 });
                }
            }
            let a = SparseMatrix::new(4, 8, elems).unwrap();
            let plus = SparseMatrixPlus::build(comm, &a, &src_map, &dst_map).unwrap();

            let src_n = src_map.lsize(me);
            let dst_n = dst_map.lsize(me);
            let src_grid = GeneralGrid::new(vec![vec![0.0; src_n]], vec![1.0; src_n]);
            let dst_grid = GeneralGrid::new(vec![vec![0.0; dst_n]], vec![2.0; dst_n]);

            let mut x = AttrVect::new(&["flux"], &[], src_n);
            for l in 0..src_n {
                let g = src_map.global_index(me, l).unwrap() as f64;
                x.real_mut("flux")[l] = (g * 0.7).sin() + 2.0;
            }
            let mut y = AttrVect::new(&["flux"], &[], dst_n);
            plus.apply(comm, &x, &mut y, 4).unwrap();

            let pair =
                paired_integral(comm, &x, "flux", &src_grid, &y, "flux", &dst_grid, None).unwrap();
            assert!(
                pair.relative_error() < 1e-12,
                "conservation violated: {pair:?} (err {})",
                pair.relative_error()
            );
        });
    }

    #[test]
    fn relative_error_handles_zero_source() {
        let p = PairedIntegral { source: 0.0, dest: 0.25 };
        assert_eq!(p.relative_error(), 0.25);
    }
}
