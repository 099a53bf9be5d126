//! Ownership overlap queries: "which ranks own part of this region, and
//! which parts?" answered without probing every rank.
//!
//! This is the first layer of the sublinear schedule pipeline. For regular
//! (per-axis) distributions the candidate grid positions on each axis come
//! from [`crate::axis::AxisDist::overlaps`] — closed-form for the block
//! family, interval scans bounded by the query for the irregular kinds —
//! and the overlapping peers are the cross-product of the per-axis
//! candidates. A regular *local* layout is itself a per-axis product of
//! segments, so [`OverlapIndex::query_axes`] resolves every local patch
//! at once: one `overlaps` call per axis per local segment, the pieces of
//! each axis compressed into evenly spaced runs ([`AxisRun`]), and one
//! odometer over the per-axis candidates that emits peers in ascending rank,
//! with no per-patch query, map or sort. A peer's regions are the product of
//! its runs' pieces, expanded only on request ([`AxisHits::regions`]). For
//! explicit distributions a one-time axis-0 slab index (sorted cut points,
//! per-slab patch lists) narrows the candidate patches to those sharing an
//! axis-0 interval with the query.
//!
//! In both cases the work is proportional to the number of *actually
//! overlapping* peers (plus, for explicit, axis-0 false positives), never
//! to the total rank count — the pruning that the interval-algebra
//! redistribution literature shows is necessary for schedule construction
//! to amortize at scale.

use std::collections::BTreeMap;

use crate::descriptor::{Dad, Distribution};
use crate::explicit::ExplicitDist;
use crate::shape::Region;
use crate::template::Template;

/// One clipped overlap piece on one axis: `len` elements from `start`,
/// owned by peer grid position `pos`, inside local segment `seg`, which
/// holds `seg_len` elements from `seg_start`.
#[derive(Clone, Copy)]
struct Piece {
    pos: usize,
    start: usize,
    len: usize,
    seg: usize,
    seg_start: usize,
    seg_len: usize,
}

/// `count` evenly spaced overlap pieces of `len` elements on one axis of a
/// pair of regular layouts: piece `k` starts at global index
/// `start + k·step`, at offset `off + k·off_step` of local segment
/// `seg + k·seg_step`, which holds `ext` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxisRun {
    /// Local segment of the first piece, numbered along the axis.
    pub seg: usize,
    /// Segment step from one piece to the next.
    pub seg_step: usize,
    /// First global index of the first piece.
    pub start: usize,
    /// Global index step from one piece to the next.
    pub step: usize,
    /// Offset of the first piece in its segment.
    pub off: usize,
    /// Offset step from one piece to the next.
    pub off_step: usize,
    /// Elements in every piece.
    pub len: usize,
    /// Elements in every piece's segment.
    pub ext: usize,
    /// Pieces in the run.
    pub count: usize,
    /// Elements in the runs of the same peer and axis before this one.
    pub at: usize,
}

impl AxisRun {
    /// Calls `emit` with every maximal run of consecutive `pieces` (one grid
    /// position's, in start order) that share a length and a segment length
    /// and step evenly in segment, start and offset. Returns how many runs
    /// it emitted, so a first pass can size the list.
    fn compress(pieces: &[Piece], mut emit: impl FnMut(AxisRun)) -> usize {
        let (mut n, mut at) = (0, 0);
        let mut cur: Option<AxisRun> = None;
        for p in pieces {
            let off = p.start - p.seg_start;
            if let Some(run) = &mut cur {
                let k = run.count - 1;
                let last = (run.seg + k * run.seg_step, run.start + k * run.step);
                let last_off = run.off + k * run.off_step;
                let steps = (p.seg - last.0, p.start - last.1, off.wrapping_sub(last_off));
                if (p.len, p.seg_len) == (run.len, run.ext)
                    && off >= last_off
                    && (run.count == 1 || steps == (run.seg_step, run.step, run.off_step))
                {
                    (run.seg_step, run.step, run.off_step) = steps;
                    run.count += 1;
                    continue;
                }
                at += run.len * run.count;
                emit(*run);
                n += 1;
            }
            let (seg, start, len, ext) = (p.seg, p.start, p.len, p.seg_len);
            let (seg_step, step, off_step, count) = (0, 0, 0, 1);
            cur = Some(AxisRun { seg, seg_step, start, step, off, off_step, len, ext, count, at });
        }
        n + cur.map_or(0, |run| {
            emit(run);
            1
        })
    }
}

/// Overlaps of a rank's patches with a regular peer layout, kept per axis:
/// a peer's overlap regions are the cartesian product of its pieces on
/// every axis, last axis fastest (lower-corner order), and each region lies
/// in the local patch built from its pieces' segments. This holds one run
/// list per axis where the regions would be their product.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AxisHits {
    /// Local segments per axis: patch `Σ_d k_d · Π_{e>d} segs[e]` is built
    /// from segment `k_d` of axis `d`, as [`Template::patches`] numbers them.
    pub segs: Vec<usize>,
    /// Every axis's pieces as runs, grouped by grid position, ascending,
    /// and in start order within a group.
    pub runs: Vec<Vec<AxisRun>>,
    /// `(peer rank, [first, end) of its runs on each axis)`, ascending by
    /// rank; every peer has at least one run on every axis.
    pub peers: Vec<(usize, Vec<(usize, usize)>)>,
    /// `(local patch, candidate)` pairs examined, the sum of
    /// [`OverlapHits::probes`] over per-patch queries.
    pub probes: usize,
}

impl AxisHits {
    /// Peer `i`'s overlap regions: the product of its pieces, last axis
    /// fastest, so sorted by lower corner.
    pub fn regions(&self, i: usize) -> Vec<Region> {
        let ranges = &self.peers[i].1;
        let axis = |d: usize| &self.runs[d][ranges[d].0..ranges[d].1];
        let pieces = |d| axis(d).iter().map(|run| run.count).sum::<usize>();
        let mut regions = Vec::with_capacity((0..ranges.len()).map(pieces).product());
        let mut at = vec![(0, 0); ranges.len()];
        loop {
            regions.push(Region::from_axes(ranges.len(), |d| {
                let (run, k) = (&axis(d)[at[d].0], at[d].1);
                let lo = run.start + k * run.step;
                (lo, lo + run.len)
            }));
            if !self.advance(i, &mut at) {
                return regions;
            }
        }
    }

    /// Steps `at`, one `(run, piece)` position per axis on the first
    /// `at.len()` axes of peer `i`, to the next piece tuple of their
    /// product, last axis fastest; false once it wraps to the first.
    pub fn advance(&self, i: usize, at: &mut [(usize, usize)]) -> bool {
        let ranges = &self.peers[i].1;
        advance(at, |d, r| (self.runs[d][ranges[d].0 + r].count, ranges[d].1 - ranges[d].0))
    }
}

/// Result of an overlap query: the peers found and the candidate count
/// examined to find them (the observable pruning metric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapHits {
    /// `(peer rank, overlap pieces clipped to the query)`, ascending by
    /// rank; every entry holds at least one non-empty region, and within a
    /// rank the regions are sorted by lower corner.
    pub hits: Vec<(usize, Vec<Region>)>,
    /// How many candidate peers (regular) or patches (explicit) the index
    /// examined. Sublinearity means this tracks the overlap, not `nranks`.
    pub probes: usize,
}

/// A borrowed view of a [`Dad`]'s ownership structure supporting overlap
/// queries. Build once per schedule construction via
/// [`Dad::overlap_index`]; queries are then independent of the rank count.
pub enum OverlapIndex<'a> {
    /// Regular template: per-axis closed-form candidate sets.
    Regular(&'a Template),
    /// Explicit patch list behind an axis-0 slab index.
    Explicit {
        /// The indexed distribution.
        dist: &'a ExplicitDist,
        /// Sorted distinct axis-0 cut points; slab `s` spans
        /// `[cuts[s], cuts[s+1])`.
        cuts: Vec<usize>,
        /// Patch indices whose axis-0 interval covers each slab.
        slabs: Vec<Vec<usize>>,
    },
}

impl<'a> OverlapIndex<'a> {
    /// Builds the index. O(1) for regular distributions; O(P log P + S·P̄)
    /// for explicit ones (P patches over S slabs).
    pub(crate) fn new(dad: &'a Dad) -> OverlapIndex<'a> {
        match dad.distribution() {
            Distribution::Regular(t) => OverlapIndex::Regular(t),
            Distribution::Explicit(e) => {
                let mut cuts: Vec<usize> = Vec::new();
                if e.extents().ndim() > 0 {
                    for (p, _) in e.all_patches() {
                        if !p.is_empty() {
                            cuts.push(p.lo()[0]);
                            cuts.push(p.hi()[0]);
                        }
                    }
                    cuts.sort_unstable();
                    cuts.dedup();
                }
                let mut slabs = vec![Vec::new(); cuts.len().saturating_sub(1)];
                if e.extents().ndim() > 0 {
                    for (k, (p, _)) in e.all_patches().iter().enumerate() {
                        if p.is_empty() {
                            continue;
                        }
                        let s_lo = cuts.partition_point(|&c| c < p.lo()[0]);
                        let s_hi = cuts.partition_point(|&c| c < p.hi()[0]);
                        for slab in slabs.iter_mut().take(s_hi).skip(s_lo) {
                            slab.push(k);
                        }
                    }
                }
                OverlapIndex::Explicit { dist: e, cuts, slabs }
            }
        }
    }

    /// The ranks whose patches overlap `region`, with the overlap pieces.
    pub fn query(&self, region: &Region) -> OverlapHits {
        if region.ndim() > 0 && region.is_empty() {
            return OverlapHits { hits: Vec::new(), probes: 0 };
        }
        match self {
            OverlapIndex::Regular(t) => {
                // The one-segment-per-axis case of the product query.
                let segs: Vec<(usize, usize)> =
                    region.lo().iter().zip(region.hi()).map(|(&l, &h)| (l, h - l)).collect();
                let spans = Region::from_axes(segs.len(), |d| (d, d + 1));
                let found = Self::query_product(t, &segs, &spans);
                let hits = (0..found.peers.len()).map(|i| (found.peers[i].0, found.regions(i)));
                OverlapHits { hits: hits.collect(), probes: found.probes }
            }
            OverlapIndex::Explicit { dist, cuts, slabs } => {
                Self::query_explicit(dist, cuts, slabs, region)
            }
        }
    }

    /// The overlaps of every patch `rank` owns in `mine` with this index's
    /// peers, per axis and once for all patches: `None` unless both this
    /// index and `mine` are regular. Equals per-patch [`Self::query`] calls
    /// merged by peer and sorted by lower corner, probe count included,
    /// with each region tagged by its local patch.
    pub fn query_axes(&self, mine: &Dad, rank: usize) -> Option<AxisHits> {
        let (OverlapIndex::Regular(t), Distribution::Regular(m)) = (self, mine.distribution())
        else {
            return None;
        };
        let mut segs = Vec::new();
        let spans = m.axis_segments(rank, &mut segs);
        Some(Self::query_product(t, &segs, &spans))
    }

    /// Overlaps of the patches in the cartesian product of per-axis
    /// segments (`segs[spans.lo()[d]..spans.hi()[d]]` on axis `d`, patches
    /// numbered row-major, as [`Template::patches`]) with a regular
    /// template. Each axis is resolved once per local segment; a probe is
    /// one (local patch, candidate peer) pair, so the count is
    /// `Π_d Σ_k |candidates_d(k)|`, the same as querying every patch on its
    /// own. Allocates per axis and per peer, the same number of times
    /// however many pieces an axis has.
    fn query_product(t: &Template, segs: &[(usize, usize)], spans: &Region) -> AxisHits {
        let nd = spans.ndim();
        let mut probes = 1;
        let mut runs = Vec::with_capacity(nd);
        let mut groups = Vec::with_capacity(nd);
        for d in 0..nd {
            let (ax, extent) = (&t.axes()[d], t.extents().dim(d));
            let local = &segs[spans.lo()[d]..spans.hi()[d]];
            let each = |f: &mut dyn FnMut(Piece)| {
                for (seg, &(seg_start, seg_len)) in local.iter().enumerate() {
                    ax.for_each_overlap(
                        seg_start,
                        seg_start + seg_len,
                        extent,
                        |pos, start, len| f(Piece { pos, start, len, seg, seg_start, seg_len }),
                    );
                }
            };
            let mut n = 0;
            each(&mut |_| n += 1);
            if n == 0 {
                return AxisHits::default();
            }
            let mut found = Vec::with_capacity(n);
            each(&mut |p| found.push(p));
            // Local segments are disjoint and ascending, so within one grid
            // position start order is also segment order.
            found.sort_unstable_by_key(|p| (p.pos, p.start));
            // The pieces of one position form a group; a candidate is a
            // distinct (position, segment) pair.
            let by_pos = || found.chunk_by(|a, b| a.pos == b.pos);
            let count = by_pos().map(|g| AxisRun::compress(g, |_| ())).sum();
            let (mut axis, mut group) = (Vec::with_capacity(count), Vec::new());
            group.reserve_exact(by_pos().count());
            let mut candidates = 0;
            for g in by_pos() {
                candidates += 1 + g.windows(2).filter(|w| w[0].seg != w[1].seg).count();
                let first = axis.len();
                AxisRun::compress(g, |run| axis.push(run));
                group.push((g[0].pos, first, axis.len()));
            }
            probes *= candidates;
            runs.push(axis);
            groups.push(group);
        }
        // Every peer's regions are the product of its per-axis runs, so
        // the peers are the product of every axis's groups. Last axis
        // fastest: with the row-major grid→rank fold, ranks ascend.
        let mut peers = Vec::with_capacity(groups.iter().map(Vec::len).product());
        let mut pick = vec![(0, 0); nd];
        loop {
            let mut peer = 0;
            let ranges = (0..nd)
                .map(|d| {
                    let (pos, first, end) = groups[d][pick[d].0];
                    peer = peer * t.axes()[d].nprocs() + pos;
                    (first, end)
                })
                .collect();
            peers.push((peer, ranges));
            if !advance(&mut pick, |d, _| (1, groups[d].len())) {
                break;
            }
        }
        let segs = (0..nd).map(|d| spans.hi()[d] - spans.lo()[d]).collect();
        AxisHits { segs, runs, peers, probes }
    }

    fn query_explicit(
        dist: &ExplicitDist,
        cuts: &[usize],
        slabs: &[Vec<usize>],
        region: &Region,
    ) -> OverlapHits {
        let all = dist.all_patches();
        let mut seen = vec![false; all.len()];
        let mut per_rank: BTreeMap<usize, Vec<Region>> = BTreeMap::new();
        let mut probes = 0;

        let mut probe =
            |k: usize, probes: &mut usize, per_rank: &mut BTreeMap<usize, Vec<Region>>| {
                if seen[k] {
                    return;
                }
                seen[k] = true;
                *probes += 1;
                let (patch, owner) = &all[k];
                if let Some(part) = patch.intersect(region) {
                    per_rank.entry(*owner).or_default().push(part);
                }
            };

        if region.ndim() == 0 || cuts.len() < 2 {
            // Degenerate: no axis-0 structure to index on.
            for k in 0..all.len() {
                probe(k, &mut probes, &mut per_rank);
            }
        } else {
            let lo0 = region.lo()[0];
            let hi0 = region.hi()[0];
            // Slabs overlapping [lo0, hi0): slab s spans [cuts[s], cuts[s+1]).
            let s_lo = cuts.partition_point(|&c| c <= lo0).saturating_sub(1);
            let s_hi = cuts.partition_point(|&c| c < hi0).min(slabs.len());
            for slab in slabs.iter().take(s_hi).skip(s_lo) {
                for &k in slab {
                    probe(k, &mut probes, &mut per_rank);
                }
            }
        }

        let mut hits: Vec<(usize, Vec<Region>)> = per_rank.into_iter().collect();
        for (_, regions) in &mut hits {
            regions.sort_by(|a, b| a.lo().cmp(b.lo()));
        }
        OverlapHits { hits, probes }
    }
}

/// Steps `at`, a mixed-radix counter of one `(run, piece)` digit pair per
/// axis, last axis fastest, where `radix(d, r)` is `(pieces in run r,
/// runs)` on axis `d`; false once it wraps to all zeros.
fn advance(at: &mut [(usize, usize)], radix: impl Fn(usize, usize) -> (usize, usize)) -> bool {
    for d in (0..at.len()).rev() {
        let ((r, k), (count, runs)) = (at[d], radix(d, at[d].0));
        at[d] = if k + 1 < count {
            (r, k + 1)
        } else if r + 1 < runs {
            (r + 1, 0)
        } else {
            (0, 0)
        };
        if at[d] != (0, 0) {
            return true;
        }
    }
    false
}

impl Dad {
    /// A borrowed overlap index over this descriptor's ownership structure
    /// (the sublinear-schedule query interface).
    pub fn overlap_index(&self) -> OverlapIndex<'_> {
        OverlapIndex::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::AxisDist;
    use crate::shape::Extents;

    /// Oracle: probe every rank, intersect every patch.
    fn query_naive(dad: &Dad, region: &Region) -> Vec<(usize, Vec<Region>)> {
        let mut out = Vec::new();
        for peer in 0..dad.nranks() {
            let mut regions: Vec<Region> =
                dad.patches(peer).iter().filter_map(|p| p.intersect(region)).collect();
            if !regions.is_empty() {
                regions.sort_by(|a, b| a.lo().cmp(b.lo()));
                out.push((peer, regions));
            }
        }
        out
    }

    fn check_all_windows(dad: &Dad) {
        let index = dad.overlap_index();
        let full = dad.extents().full_region();
        // Every sub-window of the whole array (kept small by test shapes).
        for lo0 in 0..dad.extents().dim(0) {
            for hi0 in lo0 + 1..=dad.extents().dim(0) {
                let (mut lo, mut hi) = (full.lo().to_vec(), full.hi().to_vec());
                lo[0] = lo0;
                hi[0] = hi0;
                let q = Region::new(lo, hi);
                let got = index.query(&q);
                assert_eq!(got.hits, query_naive(dad, &q), "window {q:?}");
            }
        }
    }

    #[test]
    fn regular_block_2d_matches_naive() {
        check_all_windows(&Dad::block(Extents::new([8, 6]), &[4, 2]).unwrap());
    }

    #[test]
    fn regular_mixed_axes_match_naive() {
        let t = Template::new(
            Extents::new([12, 10]),
            vec![
                AxisDist::BlockCyclic { block: 2, nprocs: 3 },
                AxisDist::GenBlock { sizes: vec![3, 0, 7] },
            ],
        )
        .unwrap();
        check_all_windows(&Dad::regular(t));
    }

    #[test]
    fn regular_cyclic_implicit_match_naive() {
        let t = Template::new(
            Extents::new([9, 6]),
            vec![
                AxisDist::Cyclic { nprocs: 4 },
                AxisDist::Implicit { owners: vec![1, 0, 0, 1, 2, 2], nprocs: 3 },
            ],
        )
        .unwrap();
        check_all_windows(&Dad::regular(t));
    }

    #[test]
    fn explicit_matches_naive() {
        let d = Dad::explicit(
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
            .unwrap(),
        );
        check_all_windows(&d);
    }

    #[test]
    fn probe_count_tracks_overlap_not_nranks() {
        // 1024 ranks along axis 0; a window touching 2 blocks probes 2.
        let dad = Dad::block(Extents::new([4096, 4]), &[1024, 1]).unwrap();
        let hits = dad.overlap_index().query(&Region::new([6, 0], [10, 4]));
        assert_eq!(hits.probes, 2);
        assert_eq!(hits.hits.len(), 2);
    }

    #[test]
    fn zero_dim_array_single_owner() {
        let t = Template::new(Extents::new(Vec::<usize>::new()), vec![]).unwrap();
        let dad = Dad::regular(t);
        let q = Region::new(Vec::<usize>::new(), Vec::<usize>::new());
        let hits = dad.overlap_index().query(&q);
        assert_eq!(hits.hits, vec![(0, vec![q])]);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let dad = Dad::block(Extents::new([8]), &[4]).unwrap();
        let hits = dad.overlap_index().query(&Region::new([3], [3]));
        assert!(hits.hits.is_empty());
        assert_eq!(hits.probes, 0);
    }
}
