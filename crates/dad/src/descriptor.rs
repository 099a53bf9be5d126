//! The unified Distributed Array Descriptor.
//!
//! A [`Dad`] is what components hand to the M×N layer when registering a
//! parallel data field: it provides "global data distribution information
//! and … access to the local storage of each process's patch(es) of the
//! distributed array" (paper §2.2.2). It unifies the per-axis regular
//! distributions ([`Template`]) with the whole-array [`ExplicitDist`].

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::explicit::ExplicitDist;
use crate::shape::{Extents, Region};
use crate::template::Template;

/// Which M×N transfer modes a registered field allows (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// The field may only be read (exported).
    Read,
    /// The field may only be written (imported).
    Write,
    /// Both directions allowed.
    ReadWrite,
}

impl AccessMode {
    /// May data be pulled *out* of the field?
    pub fn readable(&self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// May data be pushed *into* the field?
    pub fn writable(&self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// The distribution payload of a descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// HPF-style per-axis distribution over a process grid.
    Regular(Template),
    /// Arbitrary rectangular patches, each assigned to a rank.
    Explicit(ExplicitDist),
}

/// A Distributed Array Descriptor: everything another component (or the
/// framework) needs to know to move this array's elements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dad {
    dist: Distribution,
    /// 128-bit content fingerprint, precomputed at construction so schedule
    /// caches can key on descriptors without cloning or re-hashing them on
    /// every lookup.
    fingerprint: u128,
}

/// Two independently-seeded 64-bit hashes of the distribution, concatenated.
/// Caches treat fingerprint equality as descriptor equality; at 128 bits a
/// collision between distinct descriptors is never expected in practice.
fn fingerprint_of(dist: &Distribution) -> u128 {
    let mut h1 = DefaultHasher::new();
    1u64.hash(&mut h1);
    dist.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    2u64.hash(&mut h2);
    dist.hash(&mut h2);
    ((h1.finish() as u128) << 64) | (h2.finish() as u128)
}

impl Dad {
    /// Wraps a regular template.
    pub fn regular(t: Template) -> Dad {
        let dist = Distribution::Regular(t);
        let fingerprint = fingerprint_of(&dist);
        Dad { dist, fingerprint }
    }

    /// Wraps an explicit patch distribution.
    pub fn explicit(e: ExplicitDist) -> Dad {
        let dist = Distribution::Explicit(e);
        let fingerprint = fingerprint_of(&dist);
        Dad { dist, fingerprint }
    }

    /// The precomputed content fingerprint (equal descriptors have equal
    /// fingerprints; distinct descriptors collide with probability ~2⁻¹²⁸).
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// Convenience: uniform block distribution over a process grid.
    pub fn block(extents: Extents, grid: &[usize]) -> Result<Dad, String> {
        Template::block(extents, grid).map(Dad::regular)
    }

    /// The underlying distribution.
    pub(crate) fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// Global array extents.
    pub fn extents(&self) -> &Extents {
        match &self.dist {
            Distribution::Regular(t) => t.extents(),
            Distribution::Explicit(e) => e.extents(),
        }
    }

    /// Number of ranks the array is distributed over.
    pub fn nranks(&self) -> usize {
        match &self.dist {
            Distribution::Regular(t) => t.nranks(),
            Distribution::Explicit(e) => e.nranks(),
        }
    }

    /// Rank owning global index `idx`.
    pub fn owner(&self, idx: &[usize]) -> usize {
        match &self.dist {
            Distribution::Regular(t) => t.owner(idx),
            Distribution::Explicit(e) => e.owner(idx),
        }
    }

    /// The rectangular patches owned by `rank`.
    pub fn patches(&self, rank: usize) -> Vec<Region> {
        match &self.dist {
            Distribution::Regular(t) => t.patches(rank),
            Distribution::Explicit(e) => e.patches(rank),
        }
    }

    /// Number of elements owned by `rank`.
    pub fn local_size(&self, rank: usize) -> usize {
        match &self.dist {
            Distribution::Regular(t) => t.local_size(rank),
            Distribution::Explicit(e) => e.local_size(rank),
        }
    }

    /// Descriptor size in bytes — the E8 compactness metric.
    pub fn descriptor_bytes(&self) -> usize {
        match &self.dist {
            Distribution::Regular(t) => t.descriptor_bytes(),
            Distribution::Explicit(e) => e.descriptor_bytes(),
        }
    }

    /// Do two descriptors describe the same global array shape (a transfer
    /// precondition)?
    pub fn conforms(&self, other: &Dad) -> bool {
        self.extents() == other.extents()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::AxisDist;

    fn regular() -> Dad {
        Dad::block(Extents::new([4, 4]), &[2, 2]).unwrap()
    }

    fn explicit() -> Dad {
        Dad::explicit(
            ExplicitDist::new(
                Extents::new([4, 4]),
                vec![(Region::new([0, 0], [4, 2]), 0), (Region::new([0, 2], [4, 4]), 1)],
                2,
            )
            .unwrap(),
        )
    }

    #[test]
    fn unified_queries_agree_with_inner() {
        let d = regular();
        assert_eq!(d.nranks(), 4);
        assert_eq!(d.extents().total(), 16);
        assert_eq!(d.owner(&[0, 0]), 0);
        assert_eq!(d.owner(&[3, 3]), 3);
        assert_eq!(d.local_size(2), 4);
        assert_eq!(d.patches(1).len(), 1);

        let e = explicit();
        assert_eq!(e.nranks(), 2);
        assert_eq!(e.owner(&[1, 3]), 1);
        assert_eq!(e.local_size(0), 8);
    }

    #[test]
    fn conformance_is_shape_based() {
        assert!(regular().conforms(&explicit()));
        let other = Dad::block(Extents::new([8, 2]), &[2, 1]).unwrap();
        assert!(!regular().conforms(&other));
    }

    #[test]
    fn access_modes() {
        assert!(AccessMode::Read.readable());
        assert!(!AccessMode::Read.writable());
        assert!(AccessMode::Write.writable());
        assert!(!AccessMode::Write.readable());
        assert!(AccessMode::ReadWrite.readable() && AccessMode::ReadWrite.writable());
    }

    #[test]
    fn every_element_owned_once_regular_vs_explicit() {
        for d in [regular(), explicit()] {
            let mut per_rank = vec![0usize; d.nranks()];
            for idx in d.extents().iter() {
                per_rank[d.owner(&idx)] += 1;
            }
            let total: usize = per_rank.iter().sum();
            assert_eq!(total, d.extents().total());
            for (r, &size) in per_rank.iter().enumerate() {
                assert_eq!(d.local_size(r), size);
            }
        }
    }

    #[test]
    fn fingerprint_tracks_content() {
        assert_eq!(regular().fingerprint(), regular().fingerprint());
        assert_eq!(explicit().fingerprint(), explicit().fingerprint());
        assert_ne!(regular().fingerprint(), explicit().fingerprint());
        let other = Dad::block(Extents::new([4, 4]), &[4, 1]).unwrap();
        assert_ne!(regular().fingerprint(), other.fingerprint());
        assert_eq!(regular().clone().fingerprint(), regular().fingerprint());
    }

    #[test]
    fn cyclic_descriptor_patch_count() {
        let t = Template::new(Extents::new([8]), vec![AxisDist::Cyclic { nprocs: 2 }]).unwrap();
        let d = Dad::regular(t);
        assert_eq!(d.patches(0).len(), 4, "one patch per cyclic element run");
    }
}
