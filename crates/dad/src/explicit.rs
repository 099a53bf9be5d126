//! Explicit (whole-array) distributions.
//!
//! The one distribution type in the CCA DAD that is global to the entire
//! array rather than per-axis: "completely arbitrary distributions …
//! specified as a collection of (multidimensional) rectangular patches, each
//! assigned to a particular process. The patches must not overlap and must
//! completely cover the template." (paper §2.2.2)

use crate::shape::{Extents, Region};

/// An explicit patchwise distribution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExplicitDist {
    extents: Extents,
    /// `(patch, owner)` pairs, in insertion order.
    patches: Vec<(Region, usize)>,
    nranks: usize,
}

impl ExplicitDist {
    /// Creates and validates an explicit distribution over `nranks` ranks.
    ///
    /// Validation enforces the paper's two invariants — no overlap, full
    /// cover — plus owner-range checks.
    pub fn new(
        extents: Extents,
        patches: Vec<(Region, usize)>,
        nranks: usize,
    ) -> Result<ExplicitDist, String> {
        if nranks == 0 {
            return Err("explicit distribution needs at least one rank".into());
        }
        let full = extents.full_region();
        let mut covered = 0usize;
        for (k, (patch, owner)) in patches.iter().enumerate() {
            if patch.ndim() != extents.ndim() {
                return Err(format!(
                    "patch {k} has rank {} (template rank {})",
                    patch.ndim(),
                    extents.ndim()
                ));
            }
            if *owner >= nranks {
                return Err(format!("patch {k} owner {owner} out of range ({nranks} ranks)"));
            }
            if !patch.is_empty() {
                let inside = full.intersect(patch).is_some_and(|i| i == *patch);
                if !inside {
                    return Err(format!("patch {k} exceeds the template bounds"));
                }
            }
            for (j, (other, _)) in patches.iter().enumerate().take(k) {
                if patch.overlaps(other) {
                    return Err(format!("patches {j} and {k} overlap"));
                }
            }
            covered += patch.len();
        }
        if covered != extents.total() {
            return Err(format!(
                "patches cover {covered} of {} template elements",
                extents.total()
            ));
        }
        Ok(ExplicitDist { extents, patches, nranks })
    }

    /// Template extents.
    pub(crate) fn extents(&self) -> &Extents {
        &self.extents
    }

    /// Number of ranks.
    pub(crate) fn nranks(&self) -> usize {
        self.nranks
    }

    /// All `(patch, owner)` pairs.
    pub(crate) fn all_patches(&self) -> &[(Region, usize)] {
        &self.patches
    }

    /// Rank owning `idx` (linear scan over patches; explicit distributions
    /// trade query cost for total flexibility — exactly the E8 trade-off).
    pub(crate) fn owner(&self, idx: &[usize]) -> usize {
        self.patches
            .iter()
            .find(|(p, _)| p.contains(idx))
            .map(|&(_, o)| o)
            .expect("validated cover owns every index")
    }

    /// The patches owned by `rank`, in insertion order.
    pub(crate) fn patches(&self, rank: usize) -> Vec<Region> {
        self.patches.iter().filter(|&&(_, o)| o == rank).map(|(p, _)| p.clone()).collect()
    }

    /// Number of elements owned by `rank`.
    pub(crate) fn local_size(&self, rank: usize) -> usize {
        self.patches.iter().filter(|&&(_, o)| o == rank).map(|(p, _)| p.len()).sum()
    }

    /// Descriptor size in bytes: two corners plus an owner per patch.
    pub(crate) fn descriptor_bytes(&self) -> usize {
        let per_patch = (2 * self.extents.ndim() + 1) * std::mem::size_of::<usize>();
        self.patches.len() * per_patch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad() -> ExplicitDist {
        // 4×4 split into four unequal boxes over 3 ranks.
        ExplicitDist::new(
            Extents::new([4, 4]),
            vec![
                (Region::new([0, 0], [2, 3]), 0),
                (Region::new([0, 3], [2, 4]), 1),
                (Region::new([2, 0], [4, 1]), 2),
                (Region::new([2, 1], [4, 4]), 0),
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn owner_and_patches_agree() {
        let d = quad();
        let mut counts = vec![0usize; 3];
        for idx in d.extents().iter() {
            counts[d.owner(&idx)] += 1;
        }
        assert_eq!(counts, vec![12, 2, 2]);
        for (r, &count) in counts.iter().enumerate() {
            assert_eq!(d.local_size(r), count);
            for p in d.patches(r) {
                for idx in p.iter() {
                    assert_eq!(d.owner(&idx), r);
                }
            }
        }
    }

    #[test]
    fn rank_may_own_multiple_disjoint_patches() {
        let d = quad();
        assert_eq!(d.patches(0).len(), 2);
    }

    #[test]
    fn overlap_rejected() {
        let r = ExplicitDist::new(
            Extents::new([2, 2]),
            vec![(Region::new([0, 0], [2, 2]), 0), (Region::new([1, 1], [2, 2]), 1)],
            2,
        );
        assert!(r.unwrap_err().contains("overlap"));
    }

    #[test]
    fn gap_rejected() {
        let r = ExplicitDist::new(Extents::new([2, 2]), vec![(Region::new([0, 0], [1, 2]), 0)], 1);
        assert!(r.unwrap_err().contains("cover"));
    }

    #[test]
    fn out_of_bounds_patch_rejected() {
        let r = ExplicitDist::new(Extents::new([2, 2]), vec![(Region::new([0, 0], [2, 3]), 0)], 1);
        assert!(r.unwrap_err().contains("bounds"));
    }

    #[test]
    fn bad_owner_rejected() {
        let r = ExplicitDist::new(Extents::new([1, 1]), vec![(Region::new([0, 0], [1, 1]), 5)], 2);
        assert!(r.unwrap_err().contains("out of range"));
    }

    #[test]
    fn descriptor_grows_with_patch_count() {
        let d = quad();
        let single =
            ExplicitDist::new(Extents::new([4, 4]), vec![(Region::new([0, 0], [4, 4]), 0)], 1)
                .unwrap();
        assert!(d.descriptor_bytes() > single.descriptor_bytes());
    }
}
