//! Multidimensional extents, indices and rectangular regions.
//!
//! All arrays in the DAD model are dense, rectangular and row-major
//! (C order): the *last* axis varies fastest in the linearized order. A
//! [`Region`] is a half-open axis-aligned box `[lo, hi)` — the "rectangular
//! patch" of the paper's explicit distributions and of per-rank local
//! storage.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The shape of an n-dimensional array: one extent per axis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Extents(Vec<usize>);

impl Extents {
    /// Creates extents from per-axis sizes. Zero-size axes are allowed
    /// (the array is then empty).
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Extents(dims.into())
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Extent of axis `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Per-axis extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements.
    pub fn total(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major linear offset of `idx` within the full array.
    ///
    /// # Panics
    /// If `idx` has the wrong rank or is out of bounds.
    pub fn linear(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.ndim(), "index rank mismatch");
        let mut off = 0;
        for (d, (&i, &ext)) in idx.iter().zip(&self.0).enumerate() {
            assert!(i < ext, "index {i} out of bounds for axis {d} (extent {ext})");
            off = off * ext + i;
        }
        off
    }

    /// Inverse of [`Extents::linear`].
    pub fn unlinear(&self, mut off: usize) -> Vec<usize> {
        assert!(off < self.total().max(1), "offset out of bounds");
        let mut idx = vec![0; self.ndim()];
        for d in (0..self.ndim()).rev() {
            let ext = self.0[d];
            idx[d] = off % ext;
            off /= ext;
        }
        idx
    }

    /// Iterates all indices in row-major order.
    pub fn iter(&self) -> IndexIter {
        IndexIter::new(vec![0; self.ndim()], self.0.clone())
    }

    /// The region covering the whole array.
    pub fn full_region(&self) -> Region {
        Region::from_axes(self.ndim(), |d| (0, self.0[d]))
    }
}

/// Steps `idx` to the next position of a row-major odometer over its first
/// `axes` axes inside `[lo, hi)`; `false` once every position was visited.
fn step(idx: &mut [usize], lo: &[usize], hi: &[usize], axes: usize) -> bool {
    for d in (0..axes).rev() {
        idx[d] += 1;
        if idx[d] < hi[d] {
            return true;
        }
        idx[d] = lo[d];
    }
    false
}

/// The row walk behind every row-wise copy and `from_fn`: calls
/// `f(first, len)` for each last-axis row of the box `[lo, hi)`, in
/// row-major order, with `first` the row's first index and `len` its
/// length. One index buffer is allocated, nothing per row or element. A
/// 0-d box is one row of length 1; an empty box has none. `f` may move
/// `first`'s last axis: the walk resets it.
pub(crate) fn for_each_row(lo: &[usize], hi: &[usize], mut f: impl FnMut(&mut [usize], usize)) {
    let nd = lo.len();
    if (0..nd).any(|d| lo[d] >= hi[d]) {
        return;
    }
    let rows = nd.saturating_sub(1);
    let len = if nd == 0 { 1 } else { hi[rows] - lo[rows] };
    let mut idx = lo.to_vec();
    loop {
        f(&mut idx, len);
        idx[rows..].copy_from_slice(&lo[rows..]);
        if !step(&mut idx, lo, hi, rows) {
            return;
        }
    }
}

/// [`for_each_row`] element by element: `f(idx)` for every index of the
/// box `[lo, hi)` in row-major order, through one index buffer.
pub(crate) fn for_each_index(lo: &[usize], hi: &[usize], mut f: impl FnMut(&[usize])) {
    for_each_row(lo, hi, |idx, len| match idx.len().checked_sub(1) {
        None => f(idx),
        Some(last) => {
            for _ in 0..len {
                f(idx);
                idx[last] += 1;
            }
        }
    });
}

/// Row-major iterator over all indices of a box `[lo, hi)`: one allocation
/// per yielded index.
pub struct IndexIter {
    lo: Vec<usize>,
    hi: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl IndexIter {
    fn new(lo: Vec<usize>, hi: Vec<usize>) -> Self {
        let next = (0..lo.len()).all(|d| lo[d] < hi[d]).then(|| lo.clone());
        IndexIter { lo, hi, next }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.as_mut()?;
        let yielded = current.clone();
        if !step(current, &self.lo, &self.hi, self.lo.len()) {
            self.next = None;
        }
        Some(yielded)
    }
}

/// Axes whose corners a [`Region`] keeps inline.
const INLINE_AXES: usize = 4;

/// Where a region's corners live.
#[derive(Clone)]
enum Corners {
    /// Up to [`INLINE_AXES`] axes, in place; slots past `ndim` stay 0.
    Inline { ndim: u8, lo: [usize; INLINE_AXES], hi: [usize; INLINE_AXES] },
    /// More axes: one heap slice, `lo` then `hi`.
    Heap { ndim: usize, corners: Box<[usize]> },
}

/// A half-open axis-aligned box `[lo, hi)`.
///
/// A plain value: with up to four axes both corners are stored inline, so
/// making, cloning or dropping a region never calls the allocator; a region
/// with more axes keeps its corners in one heap slice. Equality, hashing
/// and `{:?}` see only [`Region::lo`] then [`Region::hi`], exactly as for a
/// pair of vectors, so hashes and fingerprints do not depend on the storage.
#[derive(Clone)]
pub struct Region(Corners);

impl Region {
    /// Creates a region; `lo[d] <= hi[d]` must hold on every axis.
    ///
    /// # Panics
    /// On rank mismatch or inverted bounds.
    pub fn new(lo: impl Borrow<[usize]>, hi: impl Borrow<[usize]>) -> Self {
        let (lo, hi) = (lo.borrow(), hi.borrow());
        assert_eq!(lo.len(), hi.len(), "region bound rank mismatch");
        Region::from_axes(lo.len(), |d| (lo[d], hi[d]))
    }

    /// The region whose axis `d` spans `[corners(d).0, corners(d).1)`,
    /// built in place, axes in order; allocates only past four axes.
    ///
    /// # Panics
    /// On inverted bounds.
    pub(crate) fn from_axes(ndim: usize, mut corners: impl FnMut(usize) -> (usize, usize)) -> Self {
        let mut fill = |lo: &mut [usize], hi: &mut [usize]| {
            for d in 0..ndim {
                (lo[d], hi[d]) = corners(d);
                assert!(lo[d] <= hi[d], "inverted region bounds on axis {d}");
            }
        };
        if ndim <= INLINE_AXES {
            let (mut lo, mut hi) = ([0; INLINE_AXES], [0; INLINE_AXES]);
            fill(&mut lo, &mut hi);
            return Region(Corners::Inline { ndim: ndim as u8, lo, hi });
        }
        let mut both = vec![0; 2 * ndim].into_boxed_slice();
        let (lo, hi) = both.split_at_mut(ndim);
        fill(lo, hi);
        Region(Corners::Heap { ndim, corners: both })
    }

    // The accessors and `eq` are `#[inline]`: plans and samplers in other
    // crates call them per region or element, and a `match` is more than
    // is inlined across crates unasked.

    /// Lower (inclusive) corner.
    #[inline]
    pub fn lo(&self) -> &[usize] {
        match &self.0 {
            Corners::Inline { ndim, lo, .. } => &lo[..*ndim as usize],
            Corners::Heap { ndim, corners } => &corners[..*ndim],
        }
    }

    /// Upper (exclusive) corner.
    #[inline]
    pub fn hi(&self) -> &[usize] {
        match &self.0 {
            Corners::Inline { ndim, hi, .. } => &hi[..*ndim as usize],
            Corners::Heap { ndim, corners } => &corners[*ndim..],
        }
    }

    /// Number of axes.
    #[inline]
    pub(crate) fn ndim(&self) -> usize {
        match &self.0 {
            Corners::Inline { ndim, .. } => *ndim as usize,
            Corners::Heap { ndim, .. } => *ndim,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.lo().iter().zip(self.hi()).map(|(l, h)| h - l).product()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.lo().iter().zip(self.hi()).any(|(l, h)| l == h)
    }

    /// Does the region contain `idx`?
    pub fn contains(&self, idx: &[usize]) -> bool {
        let (lo, hi) = (self.lo(), self.hi());
        idx.len() == lo.len() && (0..lo.len()).all(|d| lo[d] <= idx[d] && idx[d] < hi[d])
    }

    /// Intersection with `other`; `None` when empty. Never allocates for
    /// regions of up to four axes.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.ndim(), other.ndim(), "region rank mismatch");
        let (a_lo, a_hi, b_lo, b_hi) = (self.lo(), self.hi(), other.lo(), other.hi());
        let axis = |d: usize| (a_lo[d].max(b_lo[d]), a_hi[d].min(b_hi[d]));
        if (0..a_lo.len()).map(axis).any(|(l, h)| l >= h) {
            return None;
        }
        Some(Region::from_axes(a_lo.len(), axis))
    }

    /// Do the two regions share any element?
    pub(crate) fn overlaps(&self, other: &Region) -> bool {
        self.intersect(other).is_some()
    }

    /// Iterates global indices inside the region, row-major.
    pub fn iter(&self) -> RegionIter {
        IndexIter::new(self.lo().to_vec(), self.hi().to_vec())
    }

    /// Row-major offset of `idx` *within* this region (for local storage).
    ///
    /// # Panics
    /// If `idx` is not inside the region.
    pub fn local_offset(&self, idx: &[usize]) -> usize {
        assert!(self.contains(idx), "index {idx:?} outside region");
        let (lo, hi) = (self.lo(), self.hi());
        (0..lo.len()).fold(0, |off, d| off * (hi[d] - lo[d]) + (idx[d] - lo[d]))
    }
}

impl PartialEq for Region {
    #[inline]
    fn eq(&self, other: &Region) -> bool {
        self.lo() == other.lo() && self.hi() == other.hi()
    }
}

impl Eq for Region {}

impl Hash for Region {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lo().hash(state);
        self.hi().hash(state);
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region").field("lo", &self.lo()).field("hi", &self.hi()).finish()
    }
}

/// Row-major iterator over a region's global indices.
pub(crate) type RegionIter = IndexIter;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Per-axis sizes and offset-to-index, for the oracles below.
    impl Region {
        fn shape(&self) -> Vec<usize> {
            self.lo().iter().zip(self.hi()).map(|(l, h)| h - l).collect()
        }

        /// Inverse of [`Region::local_offset`].
        fn index_at(&self, mut off: usize) -> Vec<usize> {
            assert!(off < self.len(), "offset out of bounds");
            let (lo, hi) = (self.lo(), self.hi());
            let mut idx = vec![0; lo.len()];
            for d in (0..lo.len()).rev() {
                let ext = hi[d] - lo[d];
                idx[d] = lo[d] + off % ext;
                off /= ext;
            }
            idx
        }
    }

    /// The per-element walk the row walk replaced, kept as its oracle: a
    /// fresh index vector per step of an odometer over `[0, dims)`.
    fn per_element(dims: Vec<usize>) -> impl Iterator<Item = Vec<usize>> {
        let mut next = dims.iter().all(|&d| d > 0).then(|| vec![0; dims.len()]);
        std::iter::from_fn(move || {
            let current = next.clone()?;
            let mut idx = current.clone();
            next = None;
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    next = Some(idx);
                    break;
                }
                idx[d] = 0;
            }
            Some(current)
        })
    }

    /// The oracle of [`Region::iter`]: the per-element walk of the region's
    /// shape, shifted to its corner.
    pub(crate) fn region_indices(r: &Region) -> Vec<Vec<usize>> {
        per_element(r.shape())
            .map(|rel| rel.iter().zip(r.lo()).map(|(i, lo)| i + lo).collect())
            .collect()
    }

    /// The `Vec`-backed region the inline one replaced, kept as its oracle:
    /// same name, so `{:?}` and the derived `Hash` are the old ones.
    mod vec_backed {
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        pub(super) struct Region {
            pub lo: Vec<usize>,
            pub hi: Vec<usize>,
        }

        impl Region {
            pub(super) fn shape(&self) -> Vec<usize> {
                (0..self.lo.len()).map(|d| self.hi[d] - self.lo[d]).collect()
            }

            pub(super) fn len(&self) -> usize {
                self.shape().iter().product()
            }

            pub(super) fn is_empty(&self) -> bool {
                (0..self.lo.len()).any(|d| self.lo[d] == self.hi[d])
            }

            pub(super) fn contains(&self, idx: &[usize]) -> bool {
                idx.len() == self.lo.len()
                    && (0..self.lo.len()).all(|d| self.lo[d] <= idx[d] && idx[d] < self.hi[d])
            }

            pub(super) fn intersect(&self, other: &Region) -> Option<Region> {
                let mut lo = Vec::with_capacity(self.lo.len());
                let mut hi = Vec::with_capacity(self.lo.len());
                for d in 0..self.lo.len() {
                    let l = self.lo[d].max(other.lo[d]);
                    let h = self.hi[d].min(other.hi[d]);
                    if l >= h {
                        return None;
                    }
                    lo.push(l);
                    hi.push(h);
                }
                Some(Region { lo, hi })
            }

            pub(super) fn local_offset(&self, idx: &[usize]) -> usize {
                assert!(self.contains(idx));
                let mut off = 0;
                for (d, &i) in idx.iter().enumerate() {
                    off = off * (self.hi[d] - self.lo[d]) + (i - self.lo[d]);
                }
                off
            }

            pub(super) fn index_at(&self, mut off: usize) -> Vec<usize> {
                assert!(off < self.len());
                let mut idx = vec![0; self.lo.len()];
                for d in (0..self.lo.len()).rev() {
                    let ext = self.hi[d] - self.lo[d];
                    idx[d] = self.lo[d] + off % ext;
                    off /= ext;
                }
                idx
            }
        }
    }

    /// A `Hasher` that records the bytes it is fed.
    #[derive(Default)]
    struct Recording(Vec<u8>);

    impl Hasher for Recording {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    fn hashed(value: &impl Hash) -> Vec<u8> {
        let mut h = Recording::default();
        value.hash(&mut h);
        h.0
    }

    /// A region and its `Vec`-backed twin from per-axis `(lo, size)`.
    fn twins(axes: &[(usize, usize)]) -> (Region, vec_backed::Region) {
        let lo: Vec<usize> = axes.iter().map(|a| a.0).collect();
        let hi: Vec<usize> = axes.iter().map(|a| a.0 + a.1).collect();
        (Region::new(lo.as_slice(), hi.as_slice()), vec_backed::Region { lo, hi })
    }

    /// Inline (≤ 4 axes) and heap (5 and 6 axes) regions.
    fn axes_strategy() -> impl proptest::strategy::Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..4, 0usize..4), 0..=6)
    }

    proptest::proptest! {
        #[test]
        fn regions_match_the_vec_backed_oracle(
            a in axes_strategy(),
            b_seed in proptest::collection::vec((0usize..4, 0usize..4), 6),
            probe in proptest::collection::vec(0usize..8, 6),
        ) {
            let (r, old) = twins(&a);
            let b: Vec<_> = b_seed[..a.len()].to_vec();
            let (s, old_s) = twins(&b);
            proptest::prop_assert_eq!(r.lo(), &old.lo[..]);
            proptest::prop_assert_eq!(r.hi(), &old.hi[..]);
            proptest::prop_assert_eq!(r.ndim(), old.lo.len());
            proptest::prop_assert_eq!(r.len(), old.len());
            proptest::prop_assert_eq!(r.shape(), old.shape());
            proptest::prop_assert_eq!(r.is_empty(), old.is_empty());
            proptest::prop_assert_eq!(format!("{r:?}"), format!("{old:?}"));
            proptest::prop_assert_eq!(format!("{r:#?}"), format!("{old:#?}"));
            proptest::prop_assert_eq!(hashed(&r), hashed(&old));
            proptest::prop_assert_eq!(r.clone(), Region::new(old.lo.clone(), old.hi.clone()));
            let got = r.intersect(&s);
            let want = old.intersect(&old_s);
            proptest::prop_assert_eq!(got.is_some(), want.is_some());
            proptest::prop_assert_eq!(r.overlaps(&s), want.is_some());
            if let (Some(got), Some(want)) = (got, want) {
                proptest::prop_assert_eq!((got.lo(), got.hi()), (&want.lo[..], &want.hi[..]));
                proptest::prop_assert_eq!(hashed(&got), hashed(&want));
            }
            proptest::prop_assert_eq!(r == s, old == old_s);
            proptest::prop_assert_eq!(hashed(&r) == hashed(&s), old == old_s);
            let idx = &probe[..a.len()];
            proptest::prop_assert_eq!(r.contains(idx), old.contains(idx));
            let walked: Vec<Vec<usize>> = r.iter().collect();
            for (k, idx) in walked.iter().enumerate() {
                proptest::prop_assert!(old.contains(idx));
                proptest::prop_assert_eq!(r.local_offset(idx), old.local_offset(idx));
                proptest::prop_assert_eq!(r.local_offset(idx), k);
                proptest::prop_assert_eq!(r.index_at(k), old.index_at(k));
            }
            proptest::prop_assert_eq!(walked.len(), old.len());
        }
    }

    #[test]
    fn fingerprints_are_those_of_the_vec_backed_region() {
        use crate::{AxisDist, Dad, ExplicitDist, Template};
        let block = Dad::block(Extents::new([8, 6]), &[2, 3]).unwrap();
        let cyclic = Dad::regular(
            Template::new(
                Extents::new([512, 512]),
                vec![AxisDist::BlockCyclic { block: 4, nprocs: 2 }, AxisDist::Collapsed],
            )
            .unwrap(),
        );
        let explicit = Dad::explicit(
            ExplicitDist::new(
                Extents::new([4, 4]),
                vec![
                    (Region::new([0, 0], [2, 3]), 0),
                    (Region::new([0, 3], [2, 4]), 1),
                    (Region::new([2, 0], [4, 4]), 2),
                ],
                3,
            )
            .unwrap(),
        );
        assert_eq!(block.fingerprint(), 0x2ce8fa2238888bf203054e28b7ef71aa);
        assert_eq!(cyclic.fingerprint(), 0xd47a23d89626d3ec8c0b6ac8d08bd7a9);
        assert_eq!(explicit.fingerprint(), 0x88b205cae96a6704236052947dc0ff7c);
    }

    proptest::proptest! {
        #[test]
        fn index_walks_match_the_per_element_oracle(
            lo in proptest::collection::vec(0usize..4, 0..=3),
            size in proptest::collection::vec(0usize..5, 3),
        ) {
            let hi: Vec<usize> = lo.iter().zip(&size).map(|(l, s)| l + s).collect();
            let r = Region::new(lo.clone(), hi.clone());
            let want = region_indices(&r);
            proptest::prop_assert_eq!(r.iter().collect::<Vec<_>>(), want.clone());
            let e = Extents::new(hi.clone());
            proptest::prop_assert_eq!(e.iter().collect::<Vec<_>>(), per_element(hi.clone()).collect::<Vec<_>>());
            let mut walked = Vec::new();
            for_each_index(&lo, &hi, |idx| walked.push(idx.to_vec()));
            proptest::prop_assert_eq!(walked, want);
            let mut rows = Vec::new();
            for_each_row(&lo, &hi, |idx, len| rows.push((r.local_offset(idx), len)));
            let mut cursor = 0;
            for (off, len) in rows {
                proptest::prop_assert_eq!(off, cursor);
                cursor += len;
            }
            proptest::prop_assert_eq!(cursor, r.len());
        }
    }

    #[test]
    fn linear_roundtrip_3d() {
        let e = Extents::new([3, 4, 5]);
        assert_eq!(e.total(), 60);
        for (k, idx) in e.iter().enumerate() {
            assert_eq!(e.linear(&idx), k, "row-major order");
            assert_eq!(e.unlinear(k), idx);
        }
    }

    #[test]
    fn last_axis_fastest() {
        let e = Extents::new([2, 3]);
        let order: Vec<Vec<usize>> = e.iter().collect();
        assert_eq!(order[0], vec![0, 0]);
        assert_eq!(order[1], vec![0, 1]);
        assert_eq!(order[3], vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn linear_checks_bounds() {
        Extents::new([2, 2]).linear(&[0, 2]);
    }

    #[test]
    fn empty_extents_iterate_nothing() {
        let e = Extents::new([3, 0]);
        assert_eq!(e.total(), 0);
        assert_eq!(e.iter().count(), 0);
    }

    #[test]
    fn zero_dim_array_has_one_element() {
        let e = Extents::new(Vec::<usize>::new());
        assert_eq!(e.total(), 1);
        assert_eq!(e.iter().count(), 1);
        assert_eq!(e.linear(&[]), 0);
    }

    #[test]
    fn region_basics() {
        let r = Region::new([1, 2], [4, 5]);
        assert_eq!(r.shape(), vec![3, 3]);
        assert_eq!(r.len(), 9);
        assert!(!r.is_empty());
        assert!(r.contains(&[1, 2]));
        assert!(r.contains(&[3, 4]));
        assert!(!r.contains(&[4, 4]), "hi is exclusive");
        assert!(!r.contains(&[0, 3]));
    }

    #[test]
    fn region_intersection() {
        let a = Region::new([0, 0], [4, 4]);
        let b = Region::new([2, 3], [6, 8]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Region::new([2, 3], [4, 4]));
        let c = Region::new([4, 0], [5, 4]);
        assert!(a.intersect(&c).is_none(), "touching boxes do not overlap");
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn region_iteration_and_local_offsets() {
        let r = Region::new([10, 20], [12, 23]);
        let idxs: Vec<Vec<usize>> = r.iter().collect();
        assert_eq!(idxs.len(), 6);
        assert_eq!(idxs[0], vec![10, 20]);
        assert_eq!(idxs[5], vec![11, 22]);
        for (k, idx) in idxs.iter().enumerate() {
            assert_eq!(r.local_offset(idx), k);
            assert_eq!(r.index_at(k), *idx);
        }
    }

    #[test]
    fn empty_region() {
        let r = Region::new([3, 3], [3, 5]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_region_rejected() {
        Region::new([2], [1]);
    }

    #[test]
    fn full_region_covers_extents() {
        let e = Extents::new([4, 6]);
        let r = e.full_region();
        assert_eq!(r.len(), 24);
        assert!(e.iter().all(|i| r.contains(&i)));
    }
}
