//! Alignment of actual arrays to templates.
//!
//! In the HPF model the DAD follows, a template is a *virtual* array; any
//! number of actual arrays are aligned (mapped) onto it, which lets several
//! arrays share one distribution — and therefore share communication
//! schedules and other pre-planning (paper §2.2.2). We support the common
//! offset alignment: array element `i` lives at template cell `i + offset`.

use crate::descriptor::Dad;
use crate::shape::{Extents, Region};

/// An actual array aligned to a template with a per-axis offset.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignedArray {
    template: Dad,
    extents: Extents,
    offsets: Vec<usize>,
}

impl AlignedArray {
    /// Aligns an array of `extents` so element `idx` maps to template cell
    /// `idx + offsets`. The aligned span must fit inside the template.
    pub fn new(template: Dad, extents: Extents, offsets: Vec<usize>) -> Result<Self, String> {
        let t_ext = template.extents();
        if extents.ndim() != t_ext.ndim() || offsets.len() != t_ext.ndim() {
            return Err("alignment rank mismatch".into());
        }
        for (d, &off) in offsets.iter().enumerate() {
            if off + extents.dim(d) > t_ext.dim(d) {
                return Err(format!(
                    "axis {d}: offset {off} + extent {} exceeds template extent {}",
                    extents.dim(d),
                    t_ext.dim(d)
                ));
            }
        }
        Ok(AlignedArray { template, extents, offsets })
    }

    /// Identity alignment (array extents equal template extents).
    pub fn identity(template: Dad) -> Self {
        let extents = template.extents().clone();
        let offsets = vec![0; extents.ndim()];
        AlignedArray { template, extents, offsets }
    }

    /// The template this array is aligned to.
    pub fn template(&self) -> &Dad {
        &self.template
    }

    /// The actual array's extents.
    pub fn extents(&self) -> &Extents {
        &self.extents
    }

    /// Per-axis alignment offsets.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Maps an array index to its template cell.
    pub(crate) fn to_template(&self, idx: &[usize]) -> Vec<usize> {
        idx.iter().zip(&self.offsets).map(|(i, o)| i + o).collect()
    }

    /// Rank owning array element `idx` (through the template).
    pub fn owner(&self, idx: &[usize]) -> usize {
        self.template.owner(&self.to_template(idx))
    }

    /// The array-index regions owned by `rank`: the template's patches,
    /// clipped to the aligned span and shifted into array coordinates.
    pub fn patches(&self, rank: usize) -> Vec<Region> {
        let span = Region::new(
            self.offsets.clone(),
            (0..self.extents.ndim())
                .map(|d| self.offsets[d] + self.extents.dim(d))
                .collect::<Vec<_>>(),
        );
        self.template
            .patches(rank)
            .into_iter()
            .filter_map(|p| p.intersect(&span))
            .map(|p| {
                let lo: Vec<usize> = p.lo().iter().zip(&self.offsets).map(|(l, o)| l - o).collect();
                let hi: Vec<usize> = p.hi().iter().zip(&self.offsets).map(|(h, o)| h - o).collect();
                Region::new(lo, hi)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Dad {
        Dad::block(Extents::new([8, 8]), &[2, 2]).unwrap()
    }

    #[test]
    fn identity_alignment_matches_template() {
        let a = AlignedArray::identity(template());
        for idx in a.extents().clone().iter() {
            assert_eq!(a.owner(&idx), a.template().owner(&idx));
        }
        for r in 0..4 {
            assert_eq!(a.patches(r), a.template().patches(r));
        }
    }

    #[test]
    fn offset_alignment_shifts_ownership() {
        let a = AlignedArray::new(template(), Extents::new([4, 4]), vec![2, 2]).unwrap();
        // Array (0,0) sits at template (2,2) → owned by grid (0,0) = rank 0.
        assert_eq!(a.owner(&[0, 0]), 0);
        // Array (3,3) sits at template (5,5) → grid (1,1) = rank 3.
        assert_eq!(a.owner(&[3, 3]), 3);
    }

    #[test]
    fn patches_partition_the_array() {
        let a = AlignedArray::new(template(), Extents::new([5, 6]), vec![1, 2]).unwrap();
        let mut count = 0;
        for r in 0..4 {
            for p in a.patches(r) {
                for idx in p.iter() {
                    assert_eq!(a.owner(&idx), r);
                    count += 1;
                }
            }
        }
        assert_eq!(count, 30, "every array element in exactly one patch");
    }

    #[test]
    fn template_roundtrip() {
        let a = AlignedArray::new(template(), Extents::new([4, 4]), vec![3, 0]).unwrap();
        assert_eq!(a.to_template(&[1, 2]), vec![4, 2]);
    }

    #[test]
    fn overhanging_alignment_rejected() {
        assert!(AlignedArray::new(template(), Extents::new([8, 8]), vec![1, 0]).is_err());
        assert!(AlignedArray::new(template(), Extents::new([4]), vec![0]).is_err());
    }
}
