//! Conservative remapping weight generation.
//!
//! MCT ships interpolation as sparse matrix–vector multiplication
//! (paper §4.5); the *weights* come from the grids. This module generates
//! first-order conservative remap weights for 1-D cell grids — the
//! overlap-area method used between climate model grids — so coupled
//! models need not hand-author matrices:
//!
//! `A[d][s] = |dst_cell_d ∩ src_cell_s| / |dst_cell_d|`
//!
//! Row sums are exactly 1 wherever the destination cell is fully covered
//! by the source grid, which (with cell-width weights) makes the paired
//! flux integrals of [`crate::integrals`] agree.

use crate::sparsemat::{SparseElem, SparseMatrix};

/// A 1-D cell grid described by its `n + 1` ascending edge coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrid1d {
    edges: Vec<f64>,
}

impl CellGrid1d {
    /// A uniform grid of `n` cells spanning `[lo, hi]`.
    pub fn uniform(n: usize, lo: f64, hi: f64) -> Self {
        assert!(n > 0 && hi > lo);
        let h = (hi - lo) / n as f64;
        CellGrid1d { edges: (0..=n).map(|i| lo + i as f64 * h).collect() }
    }

    /// Number of cells.
    pub(crate) fn ncells(&self) -> usize {
        self.edges.len() - 1
    }
}

/// Generates first-order conservative remap weights from `src` to `dst`.
/// Destination cells (or parts of them) outside the source span receive
/// no contribution — their row sums fall short of 1.
pub fn conservative_remap_1d(src: &CellGrid1d, dst: &CellGrid1d) -> SparseMatrix {
    let mut elems = Vec::new();
    let mut s = 0usize;
    for d in 0..dst.ncells() {
        let (dlo, dhi) = (dst.edges[d], dst.edges[d + 1]);
        let dw = dhi - dlo;
        // Advance the source cursor to the first cell that may overlap.
        while s < src.ncells() && src.edges[s + 1] <= dlo {
            s += 1;
        }
        let mut k = s;
        while k < src.ncells() && src.edges[k] < dhi {
            let lo = src.edges[k].max(dlo);
            let hi = src.edges[k + 1].min(dhi);
            if hi > lo {
                elems.push(SparseElem { row: d, col: k, weight: (hi - lo) / dw });
            }
            k += 1;
        }
    }
    SparseMatrix::new(dst.ncells(), src.ncells(), elems).expect("generated indices are in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsemat::tests::local_row_sums;

    /// A grid from ascending edges.
    fn grid(edges: Vec<f64>) -> CellGrid1d {
        assert!(edges.len() >= 2 && edges.windows(2).all(|w| w[0] < w[1]));
        CellGrid1d { edges }
    }

    impl CellGrid1d {
        /// Width of cell `i`.
        fn width(&self, i: usize) -> f64 {
            self.edges[i + 1] - self.edges[i]
        }
    }

    #[test]
    fn uniform_grid_construction() {
        let g = CellGrid1d::uniform(4, 0.0, 2.0);
        assert_eq!(g.ncells(), 4);
        assert_eq!(g.width(0), 0.5);
        assert_eq!((0..4).map(|i| g.width(i)).collect::<Vec<_>>(), vec![0.5; 4]);
    }

    #[test]
    fn aligned_2to1_coarsening_reproduces_the_hand_matrix() {
        let fine = CellGrid1d::uniform(8, 0.0, 8.0);
        let coarse = CellGrid1d::uniform(4, 0.0, 8.0);
        let a = conservative_remap_1d(&fine, &coarse);
        assert_eq!(a.elems().len(), 8, "two sources per destination");
        for e in a.elems() {
            assert!((e.weight - 0.5).abs() < 1e-12);
            assert!(e.col / 2 == e.row);
        }
        for (_, s) in local_row_sums(&a) {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn misaligned_grids_conserve_exactly() {
        // Irregular source, shifted irregular destination inside its span.
        let src = grid(vec![0.0, 0.7, 1.1, 2.0, 3.5, 4.0]);
        let dst = grid(vec![0.2, 0.9, 2.6, 3.9]);
        let a = conservative_remap_1d(&src, &dst);
        // Row sums are 1 (dst fully inside src span).
        for (_, s) in local_row_sums(&a) {
            assert!((s - 1.0).abs() < 1e-12, "row sum {s}");
        }
        // Conservation: ∫dst f = ∫src f restricted to dst span, for f = 1
        // trivially; check with a piecewise-constant f = cell index + 1.
        let x: Vec<f64> = (0..src.ncells()).map(|i| i as f64 + 1.0).collect();
        let mut y = vec![0.0; dst.ncells()];
        for e in a.elems() {
            y[e.row] += e.weight * x[e.col];
        }
        // ∫dst y = Σ y_d · w_d must equal ∫ over the dst span of the
        // piecewise-constant source function.
        let int_dst: f64 = (0..dst.ncells()).map(|d| y[d] * dst.width(d)).sum();
        let mut int_src = 0.0;
        for (s, &xs) in x.iter().enumerate() {
            let lo = src.edges[s].max(dst.edges[0]);
            let hi = src.edges[s + 1].min(*dst.edges.last().unwrap());
            if hi > lo {
                int_src += xs * (hi - lo);
            }
        }
        assert!((int_dst - int_src).abs() < 1e-12, "{int_dst} vs {int_src}");
    }

    #[test]
    fn destination_outside_source_has_short_rows() {
        let src = CellGrid1d::uniform(2, 0.0, 1.0);
        let dst = grid(vec![-1.0, 0.0, 0.5, 2.0]);
        let a = conservative_remap_1d(&src, &dst);
        let sums = local_row_sums(&a);
        assert!(!sums.contains_key(&0), "cell before the source span gets nothing");
        assert!((sums[&1] - 1.0).abs() < 1e-12);
        // Cell 2 spans [0.5, 2.0] but the source only covers [0.5, 1.0]:
        // row sum = 0.5 / 1.5.
        assert!((sums[&2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn refinement_distributes_each_source_cell() {
        let src = CellGrid1d::uniform(2, 0.0, 2.0);
        let dst = CellGrid1d::uniform(8, 0.0, 2.0);
        let a = conservative_remap_1d(&src, &dst);
        // Each fine cell lies in exactly one coarse cell: weight 1.
        assert_eq!(a.elems().len(), 8);
        for e in a.elems() {
            assert!((e.weight - 1.0).abs() < 1e-12);
        }
    }
}
