//! DRI partitions: restricted descriptors with explicit local layouts.

use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Region, Template};

/// How a rank stores its local patch in memory — DRI distinguishes this
/// from the (global) data distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalLayout {
    /// C order (last axis fastest) — the workspace's native order.
    RowMajor,
    /// Fortran order (first axis fastest).
    ColMajor,
}

/// A DRI dataset partition: ≤ 3-D, per-dimension block or block-cyclic,
/// plus the local memory layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DriPartition {
    dad: Dad,
    layout: LocalLayout,
}

/// Per-dimension partitioning in the DRI subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriDist {
    /// Whole dimension on one process row.
    Whole,
    /// Contiguous blocks over `n` process rows.
    Block(usize),
    /// Cycled blocks of `size` over `n` process rows.
    BlockCyclic {
        /// Block length.
        size: usize,
        /// Process rows on this dimension.
        n: usize,
    },
}

impl DriPartition {
    /// Creates a partition of `dims` (1–3 axes) with one [`DriDist`] per
    /// axis and the given local layout.
    pub fn new(
        dims: &[usize],
        dists: &[DriDist],
        layout: LocalLayout,
    ) -> Result<DriPartition, String> {
        if dims.is_empty() || dims.len() > 3 {
            return Err(format!("DRI datasets are 1–3 dimensional, got {}", dims.len()));
        }
        if dims.len() != dists.len() {
            return Err("one distribution per dimension required".into());
        }
        let axes: Vec<AxisDist> = dists
            .iter()
            .map(|d| match *d {
                DriDist::Whole => AxisDist::Collapsed,
                DriDist::Block(n) => AxisDist::Block { nprocs: n },
                DriDist::BlockCyclic { size, n } => {
                    AxisDist::BlockCyclic { block: size, nprocs: n }
                }
            })
            .collect();
        let template = Template::new(Extents::new(dims.to_vec()), axes)?;
        Ok(DriPartition { dad: Dad::regular(template), layout })
    }

    /// The underlying descriptor (DRI as "a specialized and low-level
    /// DAD").
    pub fn dad(&self) -> &Dad {
        &self.dad
    }

    /// Number of processes in the partition.
    pub(crate) fn nprocs(&self) -> usize {
        self.dad.nranks()
    }

    /// Packs a sub-`region` of `local` into a buffer ordered per this
    /// partition's local layout (the order bytes sit in the user's DRI
    /// buffer).
    pub fn pack<T: Copy>(&self, local: &LocalArray<T>, region: &Region) -> Vec<T> {
        match self.layout {
            LocalLayout::RowMajor => local.pack_region(region),
            LocalLayout::ColMajor => {
                // Iterate the region column-major, element at a time.
                col_major_indices(region)
                    .map(|idx| *local.get(&idx).expect("region is local"))
                    .collect()
            }
        }
    }

    /// Unpacks a buffer (ordered per this partition's layout) into `local`.
    pub fn unpack<T: Copy>(&self, local: &mut LocalArray<T>, region: &Region, data: &[T]) {
        match self.layout {
            LocalLayout::RowMajor => local.unpack_region(region, data),
            LocalLayout::ColMajor => {
                for (k, idx) in col_major_indices(region).enumerate() {
                    *local.get_mut(&idx).expect("region is local") = data[k];
                }
            }
        }
    }
}

fn col_major_indices(region: &Region) -> impl Iterator<Item = Vec<usize>> + '_ {
    let lo = region.lo().to_vec();
    let hi = region.hi().to_vec();
    let nd = lo.len();
    let total = region.len();
    let mut idx = lo.clone();
    let mut emitted = 0usize;
    std::iter::from_fn(move || {
        if emitted >= total {
            return None;
        }
        let current = idx.clone();
        emitted += 1;
        // Advance first axis fastest.
        for d in 0..nd {
            idx[d] += 1;
            if idx[d] < hi[d] {
                break;
            }
            idx[d] = lo[d];
        }
        Some(current)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_the_dri_subset() {
        let p = DriPartition::new(
            &[16, 8],
            &[DriDist::Block(4), DriDist::Whole],
            LocalLayout::RowMajor,
        )
        .unwrap();
        assert_eq!(p.nprocs(), 4);
        assert_eq!(p.dad().local_size(0), 32);
        let bc = DriPartition::new(
            &[16],
            &[DriDist::BlockCyclic { size: 2, n: 2 }],
            LocalLayout::ColMajor,
        )
        .unwrap();
        assert_eq!(bc.dad().local_size(0), 8);
    }

    #[test]
    fn dimensionality_limits_enforced() {
        assert!(DriPartition::new(&[], &[], LocalLayout::RowMajor).is_err());
        assert!(
            DriPartition::new(&[2, 2, 2, 2], &[DriDist::Whole; 4], LocalLayout::RowMajor).is_err()
        );
        assert!(DriPartition::new(&[4], &[], LocalLayout::RowMajor).is_err());
    }

    #[test]
    fn layouts_order_the_buffer_differently() {
        let p_row =
            DriPartition::new(&[2, 3], &[DriDist::Whole, DriDist::Whole], LocalLayout::RowMajor)
                .unwrap();
        let p_col =
            DriPartition::new(&[2, 3], &[DriDist::Whole, DriDist::Whole], LocalLayout::ColMajor)
                .unwrap();
        let local = LocalArray::from_fn(p_row.dad(), 0, |idx| (idx[0] * 3 + idx[1]) as i32);
        let region = p_row.dad().patches(0)[0].clone();
        assert_eq!(p_row.pack(&local, &region), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(p_col.pack(&local, &region), vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn pack_unpack_roundtrip_both_layouts() {
        for layout in [LocalLayout::RowMajor, LocalLayout::ColMajor] {
            let p =
                DriPartition::new(&[4, 4], &[DriDist::Block(2), DriDist::Whole], layout).unwrap();
            let local = LocalArray::from_fn(p.dad(), 1, |idx| (idx[0] * 4 + idx[1]) as i64);
            let region = p.dad().patches(1)[0].clone();
            let buf = p.pack(&local, &region);
            let mut copy: LocalArray<i64> = LocalArray::allocate(p.dad(), 1);
            p.unpack(&mut copy, &region, &buf);
            assert_eq!(copy, local);
        }
    }
}
