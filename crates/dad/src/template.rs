//! Templates: virtual arrays specifying logical data distribution.
//!
//! Following HPF (and the CCA DAD), a *template* is a virtual array whose
//! axes are each distributed over one dimension of a process grid; actual
//! arrays are then *aligned* to a template (see [`crate::align`]). The rank
//! owning element `(i₀, …, i_{k−1})` is the row-major position of
//! `(owner₀(i₀), …, owner_{k−1}(i_{k−1}))` in the process grid.

use crate::axis::AxisDist;
use crate::shape::{Extents, Region};

/// A distribution template: extents plus one [`AxisDist`] per axis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Template {
    extents: Extents,
    axes: Vec<AxisDist>,
}

impl Template {
    /// Creates and validates a template.
    pub fn new(extents: Extents, axes: Vec<AxisDist>) -> Result<Template, String> {
        if axes.len() != extents.ndim() {
            return Err(format!(
                "{} axis distributions for a {}-d template",
                axes.len(),
                extents.ndim()
            ));
        }
        for (d, ax) in axes.iter().enumerate() {
            ax.validate(extents.dim(d)).map_err(|e| format!("axis {d}: {e}"))?;
        }
        Ok(Template { extents, axes })
    }

    /// Uniform block distribution of `extents` over a `grid` of processes
    /// (the most common case in practice).
    pub fn block(extents: Extents, grid: &[usize]) -> Result<Template, String> {
        if grid.len() != extents.ndim() {
            return Err(format!(
                "grid rank {} does not match template rank {}",
                grid.len(),
                extents.ndim()
            ));
        }
        let axes = grid
            .iter()
            .map(|&n| if n == 1 { AxisDist::Collapsed } else { AxisDist::Block { nprocs: n } })
            .collect();
        Template::new(extents, axes)
    }

    /// Template extents.
    pub fn extents(&self) -> &Extents {
        &self.extents
    }

    /// Per-axis distributions.
    pub(crate) fn axes(&self) -> &[AxisDist] {
        &self.axes
    }

    /// Process-grid dimensions (one entry per axis).
    pub(crate) fn grid(&self) -> Vec<usize> {
        self.axes.iter().map(AxisDist::nprocs).collect()
    }

    /// Total number of ranks the template is distributed over.
    pub fn nranks(&self) -> usize {
        self.axes.iter().map(AxisDist::nprocs).product()
    }

    /// The row-major process-grid coordinate of `rank`.
    pub(crate) fn rank_to_grid(&self, mut rank: usize) -> Vec<usize> {
        let grid = self.grid();
        assert!(rank < self.nranks(), "rank out of range");
        let mut coord = vec![0; grid.len()];
        for d in (0..grid.len()).rev() {
            coord[d] = rank % grid[d];
            rank /= grid[d];
        }
        coord
    }

    /// Rank owning global index `idx`. Allocation-free: this is the hot
    /// query of schedule construction and the E8 benchmark.
    pub fn owner(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.extents.ndim(), "index rank mismatch");
        let mut r = 0;
        for (d, (&i, ax)) in idx.iter().zip(&self.axes).enumerate() {
            r = r * ax.nprocs() + ax.owner(i, self.extents.dim(d));
        }
        r
    }

    /// The rectangular patches of the template owned by `rank`, in
    /// row-major order of their lower corners. For block-family axes this is
    /// the cartesian product of per-axis segments. Allocates the returned
    /// vector and one list of segments, nothing per patch.
    pub fn patches(&self, rank: usize) -> Vec<Region> {
        let mut segs = Vec::new();
        let spans = self.axis_segments(rank, &mut segs);
        let (count, nd) = (spans.len(), spans.ndim());
        (0..count)
            .map(|n| {
                // Axis d's segment is digit d of `n` in the radix of the
                // per-axis segment counts (last axis fastest).
                let (mut rem, mut stride) = (n, count);
                Region::from_axes(nd, |d| {
                    stride /= spans.hi()[d] - spans.lo()[d];
                    let (start, len) = segs[spans.lo()[d] + rem / stride];
                    rem %= stride;
                    (start, start + len)
                })
            })
            .collect()
    }

    /// Appends to `segs` the segments `(start, len)` `rank`'s grid position
    /// owns on each axis, axis after axis (reserving once), and returns the
    /// box of their index ranges: axis `d`'s segments are
    /// `segs[spans.lo()[d]..spans.hi()[d]]`. [`Template::patches`] is their
    /// cartesian product, so patch number `Σ_d k_d · Π_{e>d} n_e` is built
    /// from segment `k_d` of axis `d`, and `spans.len()` patches exist.
    pub(crate) fn axis_segments(&self, rank: usize, segs: &mut Vec<(usize, usize)>) -> Region {
        assert!(rank < self.nranks(), "rank out of range");
        // `rank`'s grid position on axis d, with the axis and its extent.
        let axis = |d: usize| {
            let stride: usize = self.axes[d + 1..].iter().map(AxisDist::nprocs).product();
            (&self.axes[d], rank / stride % self.axes[d].nprocs(), self.extents.dim(d))
        };
        let mut total = 0;
        for d in 0..self.axes.len() {
            let (ax, q, extent) = axis(d);
            ax.for_each_segment(q, extent, |_, _| total += 1);
        }
        segs.reserve(total);
        Region::from_axes(self.axes.len(), |d| {
            let (ax, q, extent) = axis(d);
            let first = segs.len();
            ax.for_each_segment(q, extent, |start, len| segs.push((start, len)));
            (first, segs.len())
        })
    }

    /// Number of elements owned by `rank`.
    pub fn local_size(&self, rank: usize) -> usize {
        let coord = self.rank_to_grid(rank);
        self.axes
            .iter()
            .enumerate()
            .map(|(d, ax)| ax.local_size(coord[d], self.extents.dim(d)))
            .product()
    }

    /// Descriptor size in bytes (compactness metric, experiment E8).
    pub(crate) fn descriptor_bytes(&self) -> usize {
        self.extents.ndim() * std::mem::size_of::<usize>()
            + self.axes.iter().map(AxisDist::descriptor_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2d() -> Template {
        Template::new(
            Extents::new([6, 8]),
            vec![AxisDist::Block { nprocs: 2 }, AxisDist::Block { nprocs: 2 }],
        )
        .unwrap()
    }

    #[test]
    fn grid_rank_roundtrip() {
        let t = Template::new(
            Extents::new([4, 6, 8]),
            vec![AxisDist::Block { nprocs: 2 }, AxisDist::Block { nprocs: 3 }, AxisDist::Collapsed],
        )
        .unwrap();
        assert_eq!(t.grid(), vec![2, 3, 1]);
        assert_eq!(t.nranks(), 6);
        // Row-major: the last grid axis varies fastest.
        let coords: Vec<Vec<usize>> = (0..6).map(|r| t.rank_to_grid(r)).collect();
        assert_eq!(coords[1], vec![0, 1, 0]);
        assert_eq!(coords[5], vec![1, 2, 0]);
    }

    #[test]
    fn owner_partitions_all_elements() {
        let t = t2d();
        let mut counts = vec![0usize; t.nranks()];
        for idx in t.extents().iter() {
            counts[t.owner(&idx)] += 1;
        }
        assert_eq!(counts, vec![12, 12, 12, 12]);
    }

    #[test]
    fn patches_match_owner() {
        let t = t2d();
        for r in 0..t.nranks() {
            let patches = t.patches(r);
            assert_eq!(patches.iter().map(Region::len).sum::<usize>(), t.local_size(r));
            for patch in &patches {
                for idx in patch.iter() {
                    assert_eq!(t.owner(&idx), r, "patch content owned by its rank");
                }
            }
        }
    }

    #[test]
    fn block_cyclic_produces_multiple_patches() {
        let t = Template::new(
            Extents::new([8, 8]),
            vec![AxisDist::BlockCyclic { block: 2, nprocs: 2 }, AxisDist::Collapsed],
        )
        .unwrap();
        let p0 = t.patches(0);
        assert_eq!(p0.len(), 2, "two cyclic repetitions");
        assert_eq!(p0[0], Region::new([0, 0], [2, 8]));
        assert_eq!(p0[1], Region::new([4, 0], [6, 8]));
    }

    #[test]
    fn uneven_block_leaves_rank_empty() {
        // 3 elements over 5 ranks: block size 1, ranks 3..5 own nothing.
        let t = Template::new(Extents::new([3]), vec![AxisDist::Block { nprocs: 5 }]).unwrap();
        assert_eq!(t.local_size(3), 0);
        assert!(t.patches(4).is_empty());
        assert_eq!(t.local_size(0), 1);
    }

    #[test]
    fn block_constructor_figure1_shapes() {
        // The paper's Figure 1: M = 8 = 2×2×2 and N = 27 = 3×3×3.
        let e = Extents::new([6, 6, 6]);
        let m = Template::block(e.clone(), &[2, 2, 2]).unwrap();
        let n = Template::block(e, &[3, 3, 3]).unwrap();
        assert_eq!(m.nranks(), 8);
        assert_eq!(n.nranks(), 27);
        assert_eq!(m.local_size(0), 27); // 3×3×3 elements each
        assert_eq!(n.local_size(0), 8); // 2×2×2 elements each
    }

    #[test]
    fn mixed_axis_kinds() {
        let t = Template::new(
            Extents::new([10, 9]),
            vec![AxisDist::GenBlock { sizes: vec![7, 3] }, AxisDist::Cyclic { nprocs: 3 }],
        )
        .unwrap();
        assert_eq!(t.nranks(), 6);
        let mut total = 0;
        for r in 0..6 {
            total += t.local_size(r);
        }
        assert_eq!(total, 90);
        assert_eq!(t.rank_to_grid(t.owner(&[8, 4])), vec![1, 1]);
    }

    #[test]
    fn validation_failures() {
        assert!(Template::new(Extents::new([4]), vec![]).is_err());
        assert!(Template::new(Extents::new([4]), vec![AxisDist::GenBlock { sizes: vec![1, 1] }])
            .is_err());
        assert!(Template::block(Extents::new([4, 4]), &[2]).is_err());
    }

    #[test]
    fn descriptor_bytes_grow_with_irregularity() {
        let e = Extents::new([100]);
        let b = Template::new(e.clone(), vec![AxisDist::Block { nprocs: 4 }]).unwrap();
        let g = Template::new(e.clone(), vec![AxisDist::GenBlock { sizes: vec![25; 4] }]).unwrap();
        let i = Template::new(
            e,
            vec![AxisDist::Implicit { owners: (0..100).map(|k| k % 4).collect(), nprocs: 4 }],
        )
        .unwrap();
        assert!(b.descriptor_bytes() < g.descriptor_bytes());
        assert!(g.descriptor_bytes() < i.descriptor_bytes());
    }
}
