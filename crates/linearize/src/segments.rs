//! Sorted disjoint segment lists over a linearization.
//!
//! A [`SegmentList`] is the abstract intermediate representation at the
//! heart of Meta-Chaos-style coupling (paper §2.2.1): the set of positions
//! of the 1-D linearization that some rank owns or needs, stored as sorted,
//! non-overlapping, maximally merged `(start, len)` runs. Intersecting two
//! such lists is a single merge sweep — this is how communication schedules
//! are computed without materializing any per-element tables.

/// A sorted, disjoint, merged list of `(start, len)` runs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentList {
    runs: Vec<(usize, usize)>,
}

impl SegmentList {
    /// An empty list.
    pub(crate) fn new() -> Self {
        SegmentList::default()
    }

    /// Builds from arbitrary runs: sorts, checks disjointness, merges
    /// adjacent runs, drops empty ones.
    ///
    /// # Panics
    /// If two input runs overlap (ownership would be ambiguous).
    pub fn from_runs(mut runs: Vec<(usize, usize)>) -> Self {
        runs.retain(|&(_, l)| l > 0);
        runs.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(runs.len());
        for (s, l) in runs {
            match merged.last_mut() {
                Some((ps, pl)) => {
                    assert!(*ps + *pl <= s, "overlapping runs in segment list");
                    if *ps + *pl == s {
                        *pl += l;
                    } else {
                        merged.push((s, l));
                    }
                }
                None => merged.push((s, l)),
            }
        }
        SegmentList { runs: merged }
    }

    /// The merged runs.
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// Total number of covered positions.
    pub fn total_len(&self) -> usize {
        self.runs.iter().map(|&(_, l)| l).sum()
    }

    /// True when nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Is position `p` covered? (binary search)
    pub fn contains(&self, p: usize) -> bool {
        match self.runs.binary_search_by(|&(s, _)| s.cmp(&p)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => {
                let (s, l) = self.runs[i - 1];
                p < s + l
            }
        }
    }

    /// Intersection by merge sweep — the schedule-computation kernel.
    pub fn intersect(&self, other: &SegmentList) -> SegmentList {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (a_s, a_l) = self.runs[i];
            let (b_s, b_l) = other.runs[j];
            let (a_e, b_e) = (a_s + a_l, b_s + b_l);
            let s = a_s.max(b_s);
            let e = a_e.min(b_e);
            if s < e {
                out.push((s, e - s));
            }
            if a_e <= b_e {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Runs are produced sorted and disjoint; adjacent merging can still
        // apply when inputs abut.
        SegmentList::from_runs(out)
    }

    /// Iterates every covered position in ascending order.
    pub fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|&(s, l)| s..s + l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_runs_sorts_and_merges() {
        let s = SegmentList::from_runs(vec![(10, 5), (0, 3), (3, 2), (20, 0)]);
        assert_eq!(s.runs(), &[(0, 5), (10, 5)]);
        assert_eq!(s.total_len(), 10);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_rejected() {
        SegmentList::from_runs(vec![(0, 5), (4, 2)]);
    }

    #[test]
    fn contains_with_binary_search() {
        let s = SegmentList::from_runs(vec![(2, 3), (10, 1)]);
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert!(s.contains(4));
        assert!(!s.contains(5));
        assert!(s.contains(10));
        assert!(!s.contains(11));
    }

    #[test]
    fn intersect_basic() {
        let a = SegmentList::from_runs(vec![(0, 10), (20, 5)]);
        let b = SegmentList::from_runs(vec![(5, 20)]);
        let i = a.intersect(&b);
        assert_eq!(i.runs(), &[(5, 5), (20, 5)]);
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let a = SegmentList::from_runs(vec![(0, 5)]);
        let b = SegmentList::from_runs(vec![(5, 5)]);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn intersect_is_commutative_and_subset() {
        let a = SegmentList::from_runs(vec![(0, 4), (8, 4), (16, 2)]);
        let b = SegmentList::from_runs(vec![(2, 8), (17, 5)]);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab, ba);
        for p in ab.positions() {
            assert!(a.contains(p) && b.contains(p));
        }
        for p in 0..30 {
            assert_eq!(ab.contains(p), a.contains(p) && b.contains(p));
        }
    }

    #[test]
    fn positions_iterate_in_order() {
        let s = SegmentList::from_runs(vec![(3, 2), (7, 1)]);
        assert_eq!(s.positions().collect::<Vec<_>>(), vec![3, 4, 7]);
    }

    #[test]
    fn empty_list_properties() {
        let e = SegmentList::new();
        assert!(e.is_empty());
        assert_eq!(e.total_len(), 0);
        assert!(!e.contains(0));
        assert!(e.intersect(&SegmentList::from_runs(vec![(0, 10)])).is_empty());
    }
}
