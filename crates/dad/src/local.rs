//! Per-rank local storage of a distributed array.
//!
//! Each rank stores its patches as dense row-major buffers. The DAD's
//! promise is "direct access to the DA's local memory" (paper §2.2.2) — so
//! the buffer of every patch is exposed as a slice, and region copies move
//! whole rows with `copy_from_slice` rather than element-by-element.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::OnceLock;

use crate::descriptor::Dad;
use crate::shape::{for_each_index, for_each_row, Region};

/// One contiguous copy run of a region decomposition: `len` elements at
/// offset `patch_off` inside patch number `patch`, landing at offset
/// `sub_off` of the region's row-major packed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// Index of the patch holding the run.
    pub patch: usize,
    /// Row-major offset of the run inside the patch buffer.
    pub patch_off: usize,
    /// Row-major offset of the run inside the packed sub-region.
    pub sub_off: usize,
    /// Run length in elements.
    pub len: usize,
}

/// Decomposes `sub` into contiguous last-axis runs against a patch list,
/// sorted by `sub_off` so that the runs tile `[0, sub.len())` exactly.
/// This is the one-time resolution step behind both the multi-patch
/// pack/unpack paths and the schedule layer's precompiled copy plans.
///
/// # Panics
/// If some element of `sub` is not covered by the patches ("not local").
pub fn region_runs<'a>(
    patches: impl IntoIterator<Item = &'a Region>,
    sub: &Region,
) -> Vec<CopyRun> {
    let mut runs = Vec::new();
    for (pi, region) in patches.into_iter().enumerate() {
        let Some(part) = region.intersect(sub) else { continue };
        for_each_row(part.lo(), part.hi(), |idx, len| {
            let (patch_off, sub_off) = (region.local_offset(idx), sub.local_offset(idx));
            runs.push(CopyRun { patch: pi, patch_off, sub_off, len });
        });
    }
    runs.sort_unstable_by_key(|r| r.sub_off);
    let mut cursor = 0;
    for r in &runs {
        assert_eq!(r.sub_off, cursor, "region {sub:?} not local (gap at offset {cursor})");
        cursor += r.len;
    }
    assert_eq!(cursor, sub.len(), "region {sub:?} not local (covered {cursor} elements)");
    runs
}

/// A patch list's fingerprint, collected from its regions in order: their
/// count and a 64-bit SipHash. A schedule keeps its layout's and checks
/// every array against it, a probabilistic check: other patches pass only
/// if the hashes collide (about 2⁻⁶⁴ for layouts not built to collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchLayout {
    patches: usize,
    hash: u64,
}

impl<'a> FromIterator<&'a Region> for PatchLayout {
    fn from_iter<I: IntoIterator<Item = &'a Region>>(regions: I) -> PatchLayout {
        let mut h = DefaultHasher::new();
        let patches = regions.into_iter().inspect(|r| r.hash(&mut h)).count();
        PatchLayout { patches, hash: h.finish() }
    }
}

impl<T> From<&LocalArray<T>> for PatchLayout {
    /// Hashed on an array's first call (about 2 µs at 64 patches), then kept.
    fn from(local: &LocalArray<T>) -> PatchLayout {
        *local.layout.get_or_init(|| local.regions().collect())
    }
}

/// One rank's portion of a distributed array: a set of `(region, buffer)`
/// patches, row-major within each patch.
#[derive(Debug, Clone)]
pub struct LocalArray<T> {
    rank: usize,
    patches: Vec<(Region, Vec<T>)>,
    /// The patches' [`PatchLayout`], set on first use (they never change).
    layout: OnceLock<PatchLayout>,
}

impl<T: PartialEq> PartialEq for LocalArray<T> {
    fn eq(&self, other: &LocalArray<T>) -> bool {
        self.rank == other.rank && self.patches == other.patches
    }
}

impl<T: Clone + Default> LocalArray<T> {
    /// Allocates zero/default-initialized storage for `rank`'s patches of
    /// `dad` (the receiving-side allocation step of an M×N transfer, except
    /// an unbudgeted `Redist` receive between regular layouts, which builds
    /// its storage from the messages with no fill).
    pub fn allocate(dad: &Dad, rank: usize) -> LocalArray<T> {
        let patches = dad
            .patches(rank)
            .into_iter()
            .map(|r| (r.clone(), vec![T::default(); r.len()]))
            .collect();
        LocalArray { rank, patches, layout: OnceLock::new() }
    }
}

impl<T: Clone> LocalArray<T> {
    /// Builds storage for `rank` with every element computed from its
    /// global index (the usual way tests and examples seed source data).
    pub fn from_fn(dad: &Dad, rank: usize, mut f: impl FnMut(&[usize]) -> T) -> LocalArray<T> {
        let patches = dad
            .patches(rank)
            .into_iter()
            .map(|r| {
                let mut data = Vec::with_capacity(r.len());
                for_each_index(r.lo(), r.hi(), |idx| data.push(f(idx)));
                (r, data)
            })
            .collect();
        LocalArray { rank, patches, layout: OnceLock::new() }
    }
}

impl<T> LocalArray<T> {
    /// The rank this storage belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The regions stored locally.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.patches.iter().map(|(r, _)| r)
    }

    /// Number of locally stored elements.
    pub fn len(&self) -> usize {
        self.patches.iter().map(|(r, _)| r.len()).sum()
    }

    /// True when this rank owns nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direct access to patch `i`'s region and buffer.
    pub fn patch(&self, i: usize) -> (&Region, &[T]) {
        let (r, d) = &self.patches[i];
        (r, d)
    }

    /// Mutable access to patch `i`'s buffer.
    pub fn patch_mut(&mut self, i: usize) -> (&Region, &mut [T]) {
        let (r, d) = &mut self.patches[i];
        (r, d)
    }

    /// Number of patches.
    pub fn num_patches(&self) -> usize {
        self.patches.len()
    }

    fn find_patch(&self, idx: &[usize]) -> Option<usize> {
        self.patches.iter().position(|(r, _)| r.contains(idx))
    }

    /// Element at global index `idx`, if locally stored.
    pub fn get(&self, idx: &[usize]) -> Option<&T> {
        self.find_patch(idx).map(|p| {
            let (r, d) = &self.patches[p];
            &d[r.local_offset(idx)]
        })
    }

    /// Mutable element at global index `idx`, if locally stored.
    pub fn get_mut(&mut self, idx: &[usize]) -> Option<&mut T> {
        let p = self.find_patch(idx)?;
        let (r, d) = &mut self.patches[p];
        Some(&mut d[r.local_offset(idx)])
    }

    /// Iterates `(global_index, &element)` over all local elements.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<usize>, &T)> {
        self.patches.iter().flat_map(|(r, d)| r.iter().zip(d.iter()))
    }
}

impl<T> LocalArray<T> {
    /// Takes `rank`'s patches as built elsewhere, in canonical order, with
    /// the [`PatchLayout`] collected from their regions, which it keeps.
    ///
    /// # Panics
    /// If a buffer's length differs from its region's.
    pub fn from_patches(rank: usize, patches: Vec<(Region, Vec<T>)>, layout: PatchLayout) -> Self {
        assert!(patches.iter().all(|(r, d)| r.len() == d.len()), "a patch of the wrong length");
        debug_assert_eq!(layout, patches.iter().map(|(r, _)| r).collect(), "another layout");
        LocalArray { rank, patches, layout: OnceLock::from(layout) }
    }
}

impl<T: Clone> LocalArray<T> {
    /// Concatenates the patch buffers in canonical (descriptor) order into
    /// one flat shard buffer, row-major within each patch.
    pub fn to_flat(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for (_, d) in &self.patches {
            out.extend_from_slice(d);
        }
        out
    }
}

impl<T: Copy> LocalArray<T> {
    /// Copies the elements of `sub` (which must be covered by local
    /// patches) out into a row-major buffer ordered like `sub.iter()`.
    ///
    /// # Panics
    /// If any element of `sub` is not locally stored.
    pub fn pack_region(&self, sub: &Region) -> Vec<T> {
        let mut out = Vec::with_capacity(sub.len());
        self.pack_region_into(sub, &mut out);
        out
    }

    /// Appends the elements of `sub` to `out` in row-major `sub` order —
    /// the allocation-free variant of [`LocalArray::pack_region`] used by
    /// pooled transfer execution.
    pub fn pack_region_into(&self, sub: &Region, out: &mut Vec<T>) {
        for (region, data) in &self.patches {
            if let Some(part) = region.intersect(sub) {
                // Fast path: `sub` fully inside this patch keeps row order.
                if part == *sub {
                    for_each_row(sub.lo(), sub.hi(), |idx, len| {
                        let off = region.local_offset(idx);
                        out.extend_from_slice(&data[off..off + len]);
                    });
                    return;
                }
            }
        }
        // General path: per-patch intersection decomposed into contiguous
        // runs, copied in packed order (never element-at-a-time).
        for run in region_runs(self.patches.iter().map(|(r, _)| r), sub) {
            let (_, data) = &self.patches[run.patch];
            out.extend_from_slice(&data[run.patch_off..run.patch_off + run.len]);
        }
    }

    /// Writes `data` (row-major in `sub` order) into the local storage.
    ///
    /// # Panics
    /// If lengths mismatch or any element of `sub` is not locally stored.
    pub fn unpack_region(&mut self, sub: &Region, data: &[T]) {
        assert_eq!(data.len(), sub.len(), "unpack length mismatch");
        // Fast path when a single patch contains sub.
        let single =
            self.patches.iter().position(|(r, _)| r.intersect(sub).is_some_and(|i| i == *sub));
        if let Some(p) = single {
            let (region, buf) = &mut self.patches[p];
            let mut cursor = 0;
            for_each_row(sub.lo(), sub.hi(), |idx, len| {
                let off = region.local_offset(idx);
                buf[off..off + len].copy_from_slice(&data[cursor..cursor + len]);
                cursor += len;
            });
            return;
        }
        // General path: run decomposition, then whole-run writes per patch.
        for run in region_runs(self.patches.iter().map(|(r, _)| r), sub) {
            let (_, buf) = &mut self.patches[run.patch];
            buf[run.patch_off..run.patch_off + run.len]
                .copy_from_slice(&data[run.sub_off..run.sub_off + run.len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::AxisDist;
    use crate::explicit::ExplicitDist;
    use crate::shape::tests::region_indices;
    use crate::shape::Extents;
    use crate::template::Template;
    use proptest::prelude::*;

    /// A 0–3-axis descriptor: per axis an extent (0 allowed) and a
    /// collapsed, block or block-cyclic distribution. An explicit one deals
    /// those patches out again to 4 ranks drawn from `owners`.
    fn any_dad() -> impl Strategy<Value = Dad> {
        let axis = (0usize..7, 0usize..3, 1usize..4, 1usize..4);
        let owners = proptest::collection::vec(0usize..4, 16);
        (proptest::collection::vec(axis, 0..=3), 0usize..2, owners).prop_map(
            |(axes, explicit, owners)| {
                let extents = Extents::new(axes.iter().map(|a| a.0).collect::<Vec<_>>());
                let dists = axes.iter().map(|&(_, kind, nprocs, block)| match kind {
                    0 => AxisDist::Collapsed,
                    1 => AxisDist::Block { nprocs },
                    _ => AxisDist::BlockCyclic { block, nprocs },
                });
                let regular =
                    Dad::regular(Template::new(extents.clone(), dists.collect()).unwrap());
                if explicit == 0 {
                    return regular;
                }
                let patches = (0..regular.nranks())
                    .flat_map(|r| regular.patches(r))
                    .zip(owners.iter().cycle())
                    .map(|(patch, &owner)| (patch, owner))
                    .collect();
                Dad::explicit(ExplicitDist::new(extents, patches, 4).unwrap())
            },
        )
    }

    proptest! {
        #[test]
        fn from_fn_and_iter_match_the_per_element_oracle(dad in any_dad()) {
            let value = |idx: &[usize]| idx.iter().fold(7u64, |h, &i| h * 31 + i as u64);
            for rank in 0..dad.nranks() {
                let a = LocalArray::from_fn(&dad, rank, value);
                let want: Vec<(Region, Vec<u64>)> = dad
                    .patches(rank)
                    .into_iter()
                    .map(|r| {
                        let data = region_indices(&r).iter().map(|idx| value(idx)).collect();
                        (r, data)
                    })
                    .collect();
                prop_assert_eq!(&a.patches, &want);
                let iterated: Vec<(Vec<usize>, u64)> = a.iter().map(|(i, &v)| (i, v)).collect();
                let oracle: Vec<(Vec<usize>, u64)> = want
                    .iter()
                    .flat_map(|(r, d)| region_indices(r).into_iter().zip(d.iter().copied()))
                    .collect();
                prop_assert_eq!(iterated, oracle);
            }
        }
    }

    fn dad_2x2() -> Dad {
        Dad::block(Extents::new([4, 6]), &[2, 2]).unwrap()
    }

    #[test]
    fn allocate_matches_descriptor() {
        let d = dad_2x2();
        for r in 0..4 {
            let a: LocalArray<f64> = LocalArray::allocate(&d, r);
            assert_eq!(a.len(), d.local_size(r));
            assert_eq!(a.rank(), r);
            assert!(a.iter().all(|(_, &v)| v == 0.0));
        }
    }

    #[test]
    fn from_fn_and_get() {
        let d = dad_2x2();
        let a = LocalArray::from_fn(&d, 3, |idx| (idx[0] * 10 + idx[1]) as i64);
        assert_eq!(*a.get(&[2, 3]).unwrap(), 23);
        assert_eq!(*a.get(&[3, 5]).unwrap(), 35);
        assert!(a.get(&[0, 0]).is_none(), "not owned by rank 3");
    }

    #[test]
    fn get_mut_writes_through() {
        let d = dad_2x2();
        let mut a: LocalArray<i32> = LocalArray::allocate(&d, 0);
        *a.get_mut(&[1, 2]).unwrap() = 42;
        assert_eq!(*a.get(&[1, 2]).unwrap(), 42);
    }

    #[test]
    fn pack_row_major_order() {
        let d = dad_2x2();
        let a = LocalArray::from_fn(&d, 0, |idx| (idx[0] * 10 + idx[1]) as i64);
        // Rank 0 owns [0..2) x [0..3).
        let sub = Region::new([0, 1], [2, 3]);
        assert_eq!(a.pack_region(&sub), vec![1, 2, 11, 12]);
    }

    #[test]
    fn unpack_then_pack_roundtrip() {
        let d = dad_2x2();
        let mut a: LocalArray<i64> = LocalArray::allocate(&d, 2);
        // Rank 2 owns [2..4) x [0..3).
        let sub = Region::new([2, 0], [4, 2]);
        let data = vec![7, 8, 9, 10];
        a.unpack_region(&sub, &data);
        assert_eq!(a.pack_region(&sub), data);
        assert_eq!(*a.get(&[3, 1]).unwrap(), 10);
        assert_eq!(*a.get(&[2, 2]).unwrap(), 0, "outside sub untouched");
    }

    #[test]
    fn pack_across_multiple_patches() {
        // Cyclic rows: rank 0 owns rows 0 and 2 as separate patches.
        let t = Template::new(
            Extents::new([4, 3]),
            vec![AxisDist::Cyclic { nprocs: 2 }, AxisDist::Collapsed],
        )
        .unwrap();
        let d = Dad::regular(t);
        let a = LocalArray::from_fn(&d, 0, |idx| (idx[0] * 3 + idx[1]) as i32);
        assert_eq!(a.num_patches(), 2);
        // Pack a region covering one row of each patch separately.
        assert_eq!(a.pack_region(&Region::new([0, 0], [1, 3])), vec![0, 1, 2]);
        assert_eq!(a.pack_region(&Region::new([2, 0], [3, 3])), vec![6, 7, 8]);
    }

    #[test]
    fn pack_unpack_spanning_multiple_patches() {
        use crate::explicit::ExplicitDist;
        // Rank 0 owns two adjoining L-shaped patches of a 4×4 array.
        let d = Dad::explicit(
            ExplicitDist::new(
                Extents::new([4, 4]),
                vec![
                    (Region::new([0, 0], [2, 3]), 0),
                    (Region::new([0, 3], [2, 4]), 1),
                    (Region::new([2, 0], [4, 1]), 1),
                    (Region::new([2, 1], [4, 4]), 0),
                ],
                2,
            )
            .unwrap(),
        );
        let a = LocalArray::from_fn(&d, 0, |idx| (idx[0] * 10 + idx[1]) as i64);
        // Spans both of rank 0's patches — exercises the run-based path.
        let sub = Region::new([1, 1], [3, 3]);
        assert_eq!(a.pack_region(&sub), vec![11, 12, 21, 22]);

        let mut b: LocalArray<i64> = LocalArray::allocate(&d, 0);
        b.unpack_region(&sub, &[11, 12, 21, 22]);
        assert_eq!(*b.get(&[1, 2]).unwrap(), 12);
        assert_eq!(*b.get(&[2, 1]).unwrap(), 21);
        assert_eq!(*b.get(&[0, 0]).unwrap(), 0, "outside sub untouched");
    }

    #[test]
    fn region_runs_tile_in_packed_order() {
        let a = Region::new([0, 0], [2, 3]);
        let b = Region::new([2, 1], [4, 4]);
        let sub = Region::new([1, 1], [3, 3]);
        let runs = region_runs([&a, &b], &sub);
        assert_eq!(
            runs,
            vec![
                CopyRun { patch: 0, patch_off: 4, sub_off: 0, len: 2 },
                CopyRun { patch: 1, patch_off: 0, sub_off: 2, len: 2 },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "not local")]
    fn region_runs_reject_uncovered() {
        let a = Region::new([0, 0], [1, 2]);
        region_runs([&a], &Region::new([0, 0], [2, 2]));
    }

    #[test]
    #[should_panic(expected = "not local")]
    fn pack_nonlocal_panics() {
        let d = dad_2x2();
        let a: LocalArray<i32> = LocalArray::allocate(&d, 0);
        a.pack_region(&Region::new([2, 0], [3, 1]));
    }

    #[test]
    fn empty_rank_storage() {
        // 3 elements over 5 ranks: rank 4 owns nothing.
        let t = Template::new(Extents::new([3]), vec![AxisDist::Block { nprocs: 5 }]).unwrap();
        let d = Dad::regular(t);
        let a: LocalArray<u8> = LocalArray::allocate(&d, 4);
        assert!(a.is_empty());
        assert_eq!(a.num_patches(), 0);
    }

    #[test]
    fn flat_round_trip_preserves_patch_layout() {
        // Cyclic rows give rank 0 two disjoint patches — the flat form
        // concatenates them in canonical order, and patches cut back out of
        // it rebuild the array with the layout it had.
        let t = Template::new(
            Extents::new([4, 3]),
            vec![AxisDist::Cyclic { nprocs: 2 }, AxisDist::Collapsed],
        )
        .unwrap();
        let d = Dad::regular(t);
        let a = LocalArray::from_fn(&d, 0, |idx| (idx[0] * 3 + idx[1]) as i32);
        let flat = a.to_flat();
        assert_eq!(flat, vec![0, 1, 2, 6, 7, 8]);
        let regions = d.patches(0);
        let layout: PatchLayout = regions.iter().collect();
        assert_eq!(layout, PatchLayout::from(&a));
        let patches = regions.into_iter().zip(flat.chunks(3)).map(|(r, c)| (r, c.to_vec()));
        let b = LocalArray::from_patches(0, patches.collect(), layout);
        assert_eq!(a, b);
        assert_ne!(layout, d.patches(1).iter().collect(), "rank 1's rows hash otherwise");
    }

    #[test]
    #[should_panic(expected = "a patch of the wrong length")]
    fn from_patches_rejects_wrong_length() {
        let d = dad_2x2();
        let regions = d.patches(0);
        let layout = regions.iter().collect();
        let _ = LocalArray::<u8>::from_patches(0, vec![(regions[0].clone(), vec![0; 3])], layout);
    }

    #[test]
    fn patch_slices_are_exposed() {
        let d = dad_2x2();
        let mut a = LocalArray::from_fn(&d, 1, |_| 1.0f32);
        let (region, buf) = a.patch_mut(0);
        assert_eq!(buf.len(), region.len());
        buf[0] = 5.0;
        let (r0, b0) = a.patch(0);
        assert_eq!(b0[0], 5.0);
        assert_eq!(r0.lo(), &[0, 3]);
    }
}
