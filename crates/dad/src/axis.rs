//! Per-axis distributions.
//!
//! The CCA DAD (version 1, after the HPF model) describes how each axis of a
//! template maps onto one dimension of a process grid. The paper's Section
//! 2.2.2 lists exactly the variants implemented here:
//!
//! * [`AxisDist::Collapsed`] — the whole axis on a single process row.
//! * [`AxisDist::Block`] / cyclic / block-cyclic — the regular family
//!   (block and cyclic are the two extremes of block-cyclic).
//! * [`AxisDist::GenBlock`] — Global-Arrays-style one block per process,
//!   blocks of different sizes.
//! * [`AxisDist::Implicit`] — HPF-style one owner entry per element:
//!   completely flexible, at the cost of O(extent) descriptor storage and
//!   expensive queries.
//!
//! (The *Explicit* whole-array patch distribution is not per-axis; see
//! [`crate::explicit`].)

/// Distribution of one template axis over `nprocs` process-grid positions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AxisDist {
    /// Entire axis owned by the single grid position of this axis.
    Collapsed,
    /// Contiguous blocks of size ⌈extent / nprocs⌉, one per position.
    Block {
        /// Number of grid positions along this axis.
        nprocs: usize,
    },
    /// Element `i` owned by position `i % nprocs`.
    Cyclic {
        /// Number of grid positions along this axis.
        nprocs: usize,
    },
    /// Blocks of `block` elements dealt round-robin: element `i` owned by
    /// `(i / block) % nprocs`.
    BlockCyclic {
        /// Block length (≥ 1).
        block: usize,
        /// Number of grid positions along this axis.
        nprocs: usize,
    },
    /// One block per position with explicitly given sizes (must sum to the
    /// axis extent).
    GenBlock {
        /// Block length per grid position.
        sizes: Vec<usize>,
    },
    /// Arbitrary owner per element (`owners[i]` = grid position of element
    /// `i`); `nprocs` grid positions in total.
    Implicit {
        /// Owner per element.
        owners: Vec<usize>,
        /// Number of grid positions along this axis.
        nprocs: usize,
    },
}

impl AxisDist {
    /// Number of process-grid positions along this axis.
    pub(crate) fn nprocs(&self) -> usize {
        match self {
            AxisDist::Collapsed => 1,
            AxisDist::Block { nprocs }
            | AxisDist::Cyclic { nprocs }
            | AxisDist::BlockCyclic { nprocs, .. }
            | AxisDist::Implicit { nprocs, .. } => *nprocs,
            AxisDist::GenBlock { sizes } => sizes.len(),
        }
    }

    /// Validates the distribution against an axis extent.
    pub(crate) fn validate(&self, extent: usize) -> Result<(), String> {
        match self {
            AxisDist::Collapsed => Ok(()),
            AxisDist::Block { nprocs } | AxisDist::Cyclic { nprocs } => {
                if *nprocs == 0 {
                    Err("nprocs must be positive".into())
                } else {
                    Ok(())
                }
            }
            AxisDist::BlockCyclic { block, nprocs } => {
                if *nprocs == 0 {
                    Err("nprocs must be positive".into())
                } else if *block == 0 {
                    Err("block length must be positive".into())
                } else {
                    Ok(())
                }
            }
            AxisDist::GenBlock { sizes } => {
                if sizes.is_empty() {
                    Err("gen-block needs at least one block".into())
                } else if sizes.iter().sum::<usize>() != extent {
                    Err(format!(
                        "gen-block sizes sum to {} but axis extent is {}",
                        sizes.iter().sum::<usize>(),
                        extent
                    ))
                } else {
                    Ok(())
                }
            }
            AxisDist::Implicit { owners, nprocs } => {
                if *nprocs == 0 {
                    Err("nprocs must be positive".into())
                } else if owners.len() != extent {
                    Err(format!(
                        "implicit map has {} entries but axis extent is {}",
                        owners.len(),
                        extent
                    ))
                } else if let Some(&bad) = owners.iter().find(|&&o| o >= *nprocs) {
                    Err(format!("implicit owner {bad} out of range (nprocs {nprocs})"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Grid position owning global element `i` (of an axis with `extent`
    /// elements).
    pub(crate) fn owner(&self, i: usize, extent: usize) -> usize {
        debug_assert!(i < extent);
        match self {
            AxisDist::Collapsed => 0,
            AxisDist::Block { nprocs } => {
                let b = extent.div_ceil(*nprocs);
                i / b
            }
            AxisDist::Cyclic { nprocs } => i % nprocs,
            AxisDist::BlockCyclic { block, nprocs } => (i / block) % nprocs,
            AxisDist::GenBlock { sizes } => {
                let mut acc = 0;
                for (q, &s) in sizes.iter().enumerate() {
                    acc += s;
                    if i < acc {
                        return q;
                    }
                }
                unreachable!("validated gen-block covers the axis")
            }
            AxisDist::Implicit { owners, .. } => owners[i],
        }
    }

    /// Calls `f(start, len)` for each contiguous global run grid position
    /// `q` owns, in ascending order.
    pub(crate) fn for_each_segment(
        &self,
        q: usize,
        extent: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        match self {
            AxisDist::Collapsed if extent > 0 => f(0, extent),
            AxisDist::Collapsed => {}
            AxisDist::Block { nprocs } => {
                let b = extent.div_ceil(*nprocs);
                if q * b < extent {
                    f(q * b, (extent - q * b).min(b));
                }
            }
            AxisDist::Cyclic { nprocs } => (q..extent).step_by(*nprocs).for_each(|i| f(i, 1)),
            AxisDist::BlockCyclic { block, nprocs } => {
                let mut start = q * block;
                while start < extent {
                    f(start, (*block).min(extent - start));
                    start += block * nprocs;
                }
            }
            AxisDist::GenBlock { sizes } if sizes[q] > 0 => f(sizes[..q].iter().sum(), sizes[q]),
            AxisDist::GenBlock { .. } => {}
            AxisDist::Implicit { owners, .. } => {
                for (i, &o) in owners.iter().enumerate() {
                    if o == q && (i == 0 || owners[i - 1] != q) {
                        f(i, owners[i..].iter().take_while(|&&o| o == q).count());
                    }
                }
            }
        }
    }

    /// Number of elements grid position `q` owns.
    pub(crate) fn local_size(&self, q: usize, extent: usize) -> usize {
        let mut size = 0;
        self.for_each_segment(q, extent, |_, len| size += len);
        size
    }

    /// Calls `f(pos, start, len)` for every owned segment overlapping
    /// `[lo, hi)`, clipped to it, in no particular order.
    ///
    /// This is the ownership structure that makes schedule construction
    /// sublinear in the grid size: the candidate set is found in closed
    /// form (block family, via cut-point arithmetic / modular arithmetic)
    /// or by scanning only the queried interval (gen-block via its sorted
    /// cut points, implicit via run-length encoding of `owners[lo..hi]`) —
    /// never by probing all `nprocs` positions — and nothing is allocated.
    pub(crate) fn for_each_overlap(
        &self,
        lo: usize,
        hi: usize,
        extent: usize,
        mut f: impl FnMut(usize, usize, usize),
    ) {
        let hi = hi.min(extent);
        if lo >= hi {
            return;
        }
        // Blocks of `b` elements, block `j` owned by `pos(j)`: only the
        // blocks intersecting [lo, hi) are visited.
        let mut blocks = |b: usize, pos: &dyn Fn(usize) -> usize| {
            for j in lo / b..=(hi - 1) / b {
                let (s, e) = (lo.max(j * b), hi.min((j + 1) * b));
                f(pos(j), s, e - s);
            }
        };
        match self {
            AxisDist::Collapsed => blocks(extent, &|_| 0),
            AxisDist::Block { nprocs } => blocks(extent.div_ceil(*nprocs), &|j| j),
            AxisDist::Cyclic { nprocs } => blocks(1, &|j| j % nprocs),
            AxisDist::BlockCyclic { block, nprocs } => blocks(*block, &|j| j % nprocs),
            AxisDist::GenBlock { sizes } => {
                // Sorted cut points: position q owns [cuts[q], cuts[q+1]).
                let mut start = 0;
                for (q, &s) in sizes.iter().enumerate() {
                    let end = start + s;
                    if start >= hi {
                        break;
                    }
                    let (l, h) = (lo.max(start), hi.min(end));
                    if l < h {
                        f(q, l, h - l);
                    }
                    start = end;
                }
            }
            AxisDist::Implicit { owners, .. } => {
                // Run-length encode just the queried window.
                let mut i = lo;
                while i < hi {
                    let q = owners[i];
                    let mut j = i + 1;
                    while j < hi && owners[j] == q {
                        j += 1;
                    }
                    f(q, i, j - i);
                    i = j;
                }
            }
        }
    }

    /// Bytes this axis descriptor occupies — the compactness metric of
    /// experiment E8. Regular distributions are O(1); gen-block is O(P);
    /// implicit is O(extent).
    pub(crate) fn descriptor_bytes(&self) -> usize {
        use std::mem::size_of;
        match self {
            AxisDist::Collapsed => size_of::<u8>(),
            AxisDist::Block { .. } | AxisDist::Cyclic { .. } => size_of::<usize>(),
            AxisDist::BlockCyclic { .. } => 2 * size_of::<usize>(),
            AxisDist::GenBlock { sizes } => sizes.len() * size_of::<usize>(),
            AxisDist::Implicit { owners, .. } => {
                owners.len() * size_of::<usize>() + size_of::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vector-returning views of the two segment walks, for the oracles.
    impl AxisDist {
        /// The runs `(start, len)` owned by grid position `q`, ascending.
        fn segments(&self, q: usize, extent: usize) -> Vec<(usize, usize)> {
            let mut out = Vec::new();
            self.for_each_segment(q, extent, |start, len| out.push((start, len)));
            out
        }

        /// The positions overlapping `[lo, hi)`, each with its clipped
        /// segments, ascending by position and by start within one.
        fn overlaps(
            &self,
            lo: usize,
            hi: usize,
            extent: usize,
        ) -> Vec<(usize, Vec<(usize, usize)>)> {
            let mut pieces = Vec::new();
            self.for_each_overlap(lo, hi, extent, |pos, start, len| pieces.push((pos, start, len)));
            pieces.sort_unstable();
            let mut out: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
            for (pos, start, len) in pieces {
                match out.last_mut() {
                    Some((q, segs)) if *q == pos => segs.push((start, len)),
                    _ => out.push((pos, vec![(start, len)])),
                }
            }
            out
        }
    }

    fn check_partition(dist: &AxisDist, extent: usize) {
        dist.validate(extent).unwrap();
        let p = dist.nprocs();
        // Each element owned by exactly the position whose segments hold it.
        let mut seen = vec![0usize; extent];
        for q in 0..p {
            for (s, l) in dist.segments(q, extent) {
                for (i, slot) in seen.iter_mut().enumerate().skip(s).take(l) {
                    assert_eq!(dist.owner(i, extent), q);
                    *slot += 1;
                }
            }
            assert_eq!(
                dist.local_size(q, extent),
                dist.segments(q, extent).iter().map(|x| x.1).sum::<usize>()
            );
        }
        assert!(seen.iter().all(|&c| c == 1), "partition property violated: {seen:?}");
    }

    #[test]
    fn collapsed() {
        check_partition(&AxisDist::Collapsed, 10);
        assert_eq!(AxisDist::Collapsed.nprocs(), 1);
        assert_eq!(AxisDist::Collapsed.segments(0, 10), vec![(0, 10)]);
    }

    #[test]
    fn block_even_and_uneven() {
        check_partition(&AxisDist::Block { nprocs: 4 }, 12);
        check_partition(&AxisDist::Block { nprocs: 4 }, 13);
        check_partition(&AxisDist::Block { nprocs: 5 }, 3); // more procs than elems
        let d = AxisDist::Block { nprocs: 4 };
        assert_eq!(d.segments(0, 13), vec![(0, 4)]);
        assert_eq!(d.segments(3, 13), vec![(12, 1)]);
        // Overhanging position owns nothing.
        let d5 = AxisDist::Block { nprocs: 5 };
        assert_eq!(d5.segments(4, 3), vec![]);
    }

    #[test]
    fn cyclic() {
        check_partition(&AxisDist::Cyclic { nprocs: 3 }, 10);
        let d = AxisDist::Cyclic { nprocs: 3 };
        assert_eq!(d.owner(7, 10), 1);
        assert_eq!(d.segments(1, 7), vec![(1, 1), (4, 1)]);
    }

    #[test]
    fn block_cyclic_intermediate() {
        check_partition(&AxisDist::BlockCyclic { block: 2, nprocs: 3 }, 17);
        let d = AxisDist::BlockCyclic { block: 2, nprocs: 3 };
        assert_eq!(d.segments(0, 17), vec![(0, 2), (6, 2), (12, 2)]);
        assert_eq!(d.segments(2, 17), vec![(4, 2), (10, 2), (16, 1)]);
    }

    #[test]
    fn block_cyclic_reduces_to_block_and_cyclic() {
        let ext = 12;
        let b = AxisDist::Block { nprocs: 4 };
        let bc = AxisDist::BlockCyclic { block: 3, nprocs: 4 };
        for i in 0..ext {
            assert_eq!(b.owner(i, ext), bc.owner(i, ext));
        }
        let c = AxisDist::Cyclic { nprocs: 4 };
        let bc1 = AxisDist::BlockCyclic { block: 1, nprocs: 4 };
        for i in 0..ext {
            assert_eq!(c.owner(i, ext), bc1.owner(i, ext));
        }
    }

    #[test]
    fn gen_block() {
        let d = AxisDist::GenBlock { sizes: vec![5, 0, 3, 2] };
        check_partition(&d, 10);
        assert_eq!(d.segments(1, 10), vec![]);
        assert_eq!(d.segments(2, 10), vec![(5, 3)]);
        assert_eq!(d.owner(9, 10), 3);
    }

    #[test]
    fn gen_block_validation() {
        assert!(AxisDist::GenBlock { sizes: vec![3, 3] }.validate(7).is_err());
        assert!(AxisDist::GenBlock { sizes: vec![] }.validate(0).is_err());
    }

    #[test]
    fn implicit_arbitrary() {
        let d = AxisDist::Implicit { owners: vec![2, 0, 2, 1, 1, 0], nprocs: 3 };
        check_partition(&d, 6);
        assert_eq!(d.segments(1, 6), vec![(3, 2)]);
        assert_eq!(d.segments(2, 6), vec![(0, 1), (2, 1)]);
    }

    #[test]
    fn implicit_validation() {
        assert!(AxisDist::Implicit { owners: vec![0, 3], nprocs: 2 }.validate(2).is_err());
        assert!(AxisDist::Implicit { owners: vec![0], nprocs: 2 }.validate(2).is_err());
    }

    /// Brute-force reference for `overlaps`: clip every position's segment
    /// list to the window and keep the non-empty ones.
    fn overlaps_naive(
        dist: &AxisDist,
        lo: usize,
        hi: usize,
        extent: usize,
    ) -> Vec<(usize, Vec<(usize, usize)>)> {
        let hi = hi.min(extent);
        let mut out = Vec::new();
        for q in 0..dist.nprocs() {
            let segs: Vec<(usize, usize)> = dist
                .segments(q, extent)
                .into_iter()
                .filter_map(|(s, l)| {
                    let a = s.max(lo);
                    let b = (s + l).min(hi);
                    (a < b).then(|| (a, b - a))
                })
                .collect();
            if !segs.is_empty() {
                out.push((q, segs));
            }
        }
        out
    }

    #[test]
    fn overlaps_matches_segments_clipping() {
        let cases: Vec<(AxisDist, usize)> = vec![
            (AxisDist::Collapsed, 9),
            (AxisDist::Block { nprocs: 4 }, 13),
            (AxisDist::Block { nprocs: 5 }, 3),
            (AxisDist::Cyclic { nprocs: 3 }, 11),
            (AxisDist::Cyclic { nprocs: 7 }, 4),
            (AxisDist::BlockCyclic { block: 2, nprocs: 3 }, 17),
            (AxisDist::BlockCyclic { block: 3, nprocs: 2 }, 10),
            (AxisDist::GenBlock { sizes: vec![5, 0, 3, 2] }, 10),
            (AxisDist::Implicit { owners: vec![2, 0, 2, 1, 1, 0], nprocs: 3 }, 6),
        ];
        for (dist, extent) in cases {
            for lo in 0..=extent {
                for hi in lo..=extent + 1 {
                    assert_eq!(
                        dist.overlaps(lo, hi, extent),
                        overlaps_naive(&dist, lo, hi, extent),
                        "{dist:?} window [{lo}, {hi}) extent {extent}"
                    );
                }
            }
        }
    }

    #[test]
    fn overlaps_probes_only_candidates() {
        // A narrow window over a wide block axis returns one position,
        // regardless of nprocs.
        let d = AxisDist::Block { nprocs: 1024 };
        let hits = d.overlaps(5, 7, 4096);
        assert_eq!(hits, vec![(1, vec![(5, 2)])]);
    }

    #[test]
    fn descriptor_bytes_ordering() {
        // E8's premise: regular ≪ gen-block ≪ implicit.
        let ext = 1000;
        let bc = AxisDist::BlockCyclic { block: 4, nprocs: 8 };
        let gb = AxisDist::GenBlock { sizes: vec![125; 8] };
        let im = AxisDist::Implicit { owners: vec![0; ext], nprocs: 8 };
        assert!(bc.descriptor_bytes() < gb.descriptor_bytes());
        assert!(gb.descriptor_bytes() < im.descriptor_bytes());
    }
}
