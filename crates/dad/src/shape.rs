//! Multidimensional extents, indices and rectangular regions.
//!
//! All arrays in the DAD model are dense, rectangular and row-major
//! (C order): the *last* axis varies fastest in the linearized order. A
//! [`Region`] is a half-open axis-aligned box `[lo, hi)` — the "rectangular
//! patch" of the paper's explicit distributions and of per-rank local
//! storage.

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
        Region::new(vec![0; self.ndim()], self.0.clone())
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

/// A half-open axis-aligned box `[lo, hi)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    lo: Vec<usize>,
    hi: Vec<usize>,
}

impl Region {
    /// Creates a region; `lo[d] <= hi[d]` must hold on every axis.
    ///
    /// # Panics
    /// On rank mismatch or inverted bounds.
    pub fn new(lo: impl Into<Vec<usize>>, hi: impl Into<Vec<usize>>) -> Self {
        let (lo, hi) = (lo.into(), hi.into());
        assert_eq!(lo.len(), hi.len(), "region bound rank mismatch");
        for d in 0..lo.len() {
            assert!(lo[d] <= hi[d], "inverted region bounds on axis {d}");
        }
        Region { lo, hi }
    }

    /// Lower (inclusive) corner.
    pub fn lo(&self) -> &[usize] {
        &self.lo
    }

    /// Upper (exclusive) corner.
    pub fn hi(&self) -> &[usize] {
        &self.hi
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.lo.len()
    }

    /// Per-axis sizes.
    pub fn shape(&self) -> Vec<usize> {
        (0..self.ndim()).map(|d| self.hi[d] - self.lo[d]).collect()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        (0..self.ndim()).map(|d| self.hi[d] - self.lo[d]).product()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.ndim()).any(|d| self.lo[d] == self.hi[d])
    }

    /// Does the region contain `idx`?
    pub fn contains(&self, idx: &[usize]) -> bool {
        idx.len() == self.ndim()
            && (0..self.ndim()).all(|d| self.lo[d] <= idx[d] && idx[d] < self.hi[d])
    }

    /// Intersection with `other`; `None` when empty.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.ndim(), other.ndim(), "region rank mismatch");
        let mut lo = Vec::with_capacity(self.ndim());
        let mut hi = Vec::with_capacity(self.ndim());
        for d in 0..self.ndim() {
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

    /// Do the two regions share any element?
    pub fn overlaps(&self, other: &Region) -> bool {
        self.intersect(other).is_some()
    }

    /// Iterates global indices inside the region, row-major.
    pub fn iter(&self) -> RegionIter {
        IndexIter::new(self.lo.clone(), self.hi.clone())
    }

    /// Row-major offset of `idx` *within* this region (for local storage).
    ///
    /// # Panics
    /// If `idx` is not inside the region.
    pub fn local_offset(&self, idx: &[usize]) -> usize {
        assert!(self.contains(idx), "index {idx:?} outside region");
        let mut off = 0;
        for (d, &i) in idx.iter().enumerate().take(self.ndim()) {
            off = off * (self.hi[d] - self.lo[d]) + (i - self.lo[d]);
        }
        off
    }

    /// Inverse of [`Region::local_offset`].
    pub fn index_at(&self, mut off: usize) -> Vec<usize> {
        assert!(off < self.len(), "offset out of bounds");
        let mut idx = vec![0; self.ndim()];
        for d in (0..self.ndim()).rev() {
            let ext = self.hi[d] - self.lo[d];
            idx[d] = self.lo[d] + off % ext;
            off /= ext;
        }
        idx
    }
}

/// Row-major iterator over a region's global indices.
pub type RegionIter = IndexIter;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
