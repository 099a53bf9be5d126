//! The global segment map: MCT's domain decomposition descriptor.
//!
//! A [`GlobalSegMap`] describes how a numbered grid (points `0..gsize`) is
//! decomposed across the ranks of one component: a list of contiguous
//! segments, each owned by a rank. A rank's local storage is the
//! concatenation of its segments in segment order — [`local_index`] maps a
//! global point number to its position in that storage.
//!
//! [`local_index`]: GlobalSegMap::local_index

use mxn_linearize::SegmentList;

/// One contiguous run of global point numbers owned by a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First global point number.
    pub start: usize,
    /// Number of points.
    pub length: usize,
    /// Owning rank.
    pub rank: usize,
}

/// A component's decomposition of a numbered grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalSegMap {
    gsize: usize,
    nranks: usize,
    segments: Vec<Segment>,
}

impl GlobalSegMap {
    /// Creates and validates a segment map: segments must be disjoint and
    /// together cover `0..gsize` exactly.
    pub fn new(gsize: usize, nranks: usize, segments: Vec<Segment>) -> Result<Self, String> {
        let mut sorted = segments.clone();
        sorted.sort_by_key(|s| s.start);
        let mut covered = 0;
        for s in &sorted {
            if s.rank >= nranks {
                return Err(format!(
                    "segment at {} owned by out-of-range rank {}",
                    s.start, s.rank
                ));
            }
            if s.start != covered {
                return Err(format!(
                    "gap or overlap at point {covered} (next segment at {})",
                    s.start
                ));
            }
            covered += s.length;
        }
        if covered != gsize {
            return Err(format!("segments cover {covered} of {gsize} points"));
        }
        Ok(GlobalSegMap { gsize, nranks, segments })
    }

    /// Uniform block decomposition (the common case).
    pub fn block(gsize: usize, nranks: usize) -> Self {
        let chunk = gsize.div_ceil(nranks);
        let mut segments = Vec::new();
        let mut start = 0;
        for r in 0..nranks {
            let len = chunk.min(gsize.saturating_sub(start));
            if len > 0 {
                segments.push(Segment { start, length: len, rank: r });
            }
            start += len;
        }
        GlobalSegMap::new(gsize, nranks, segments).expect("block decomposition is valid")
    }

    /// Round-robin decomposition in runs of `chunk` points — produces the
    /// many-segment maps that stress routers.
    #[cfg(test)]
    pub(crate) fn cyclic(gsize: usize, nranks: usize, chunk: usize) -> Self {
        assert!(chunk > 0);
        let mut segments = Vec::new();
        let mut start = 0;
        let mut r = 0;
        while start < gsize {
            let len = chunk.min(gsize - start);
            segments.push(Segment { start, length: len, rank: r % nranks });
            start += len;
            r += 1;
        }
        GlobalSegMap::new(gsize, nranks, segments).expect("cyclic decomposition is valid")
    }

    /// Total grid points.
    pub(crate) fn gsize(&self) -> usize {
        self.gsize
    }

    /// Ranks in the component.
    pub(crate) fn nranks(&self) -> usize {
        self.nranks
    }

    /// The segments owned by `rank`, in ascending start order.
    pub fn rank_segments(&self, rank: usize) -> Vec<Segment> {
        let mut v: Vec<Segment> =
            self.segments.iter().copied().filter(|s| s.rank == rank).collect();
        v.sort_by_key(|s| s.start);
        v
    }

    /// Number of points stored by `rank` ("lsize").
    pub fn lsize(&self, rank: usize) -> usize {
        self.segments.iter().filter(|s| s.rank == rank).map(|s| s.length).sum()
    }

    /// Owner of global point `p`.
    pub fn owner(&self, p: usize) -> usize {
        self.segments
            .iter()
            .find(|s| s.start <= p && p < s.start + s.length)
            .map(|s| s.rank)
            .expect("validated cover owns every point")
    }

    /// `rank`'s footprint as a [`SegmentList`] over the global numbering.
    pub fn as_segment_list(&self, rank: usize) -> SegmentList {
        SegmentList::from_runs(
            self.rank_segments(rank).iter().map(|s| (s.start, s.length)).collect(),
        )
    }

    /// Maps a global point to its position in `rank`'s local storage
    /// (segments concatenated in ascending start order), if owned.
    pub fn local_index(&self, rank: usize, p: usize) -> Option<usize> {
        let mut offset = 0;
        for s in self.rank_segments(rank) {
            if p >= s.start && p < s.start + s.length {
                return Some(offset + (p - s.start));
            }
            offset += s.length;
        }
        None
    }

    /// Inverse of [`GlobalSegMap::local_index`].
    pub fn global_index(&self, rank: usize, local: usize) -> Option<usize> {
        let mut offset = 0;
        for s in self.rank_segments(rank) {
            if local < offset + s.length {
                return Some(s.start + (local - offset));
            }
            offset += s.length;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_decomposition() {
        let m = GlobalSegMap::block(10, 3);
        assert_eq!(m.lsize(0), 4);
        assert_eq!(m.lsize(1), 4);
        assert_eq!(m.lsize(2), 2);
        assert_eq!(m.owner(0), 0);
        assert_eq!(m.owner(9), 2);
    }

    #[test]
    fn cyclic_decomposition_many_segments() {
        let m = GlobalSegMap::cyclic(12, 2, 2);
        assert_eq!(m.rank_segments(0).len(), 3);
        assert_eq!(m.lsize(0), 6);
        assert_eq!(m.owner(2), 1);
        assert_eq!(m.owner(4), 0);
    }

    #[test]
    fn validation_catches_gaps_overlaps_and_bad_ranks() {
        let gap = GlobalSegMap::new(
            4,
            1,
            vec![
                Segment { start: 0, length: 1, rank: 0 },
                Segment { start: 2, length: 2, rank: 0 },
            ],
        );
        assert!(gap.is_err());
        let overlap = GlobalSegMap::new(
            4,
            1,
            vec![
                Segment { start: 0, length: 3, rank: 0 },
                Segment { start: 2, length: 2, rank: 0 },
            ],
        );
        assert!(overlap.is_err());
        let bad_rank = GlobalSegMap::new(2, 1, vec![Segment { start: 0, length: 2, rank: 1 }]);
        assert!(bad_rank.is_err());
        let short = GlobalSegMap::new(5, 1, vec![Segment { start: 0, length: 2, rank: 0 }]);
        assert!(short.is_err());
    }

    #[test]
    fn local_global_roundtrip() {
        let m = GlobalSegMap::cyclic(12, 3, 2);
        for r in 0..3 {
            for l in 0..m.lsize(r) {
                let g = m.global_index(r, l).unwrap();
                assert_eq!(m.local_index(r, g), Some(l));
                assert_eq!(m.owner(g), r);
            }
        }
        assert_eq!(m.local_index(0, 2), None, "point 2 not owned by rank 0");
    }

    #[test]
    fn segment_list_matches_lsize() {
        let m = GlobalSegMap::cyclic(20, 4, 3);
        for r in 0..4 {
            assert_eq!(m.as_segment_list(r).total_len(), m.lsize(r));
        }
    }
}
