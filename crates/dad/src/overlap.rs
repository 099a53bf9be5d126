//! Ownership overlap queries: "which ranks own part of this region, and
//! which parts?" answered without probing every rank.
//!
//! This is the first layer of the sublinear schedule pipeline. For regular
//! (per-axis) distributions the candidate grid positions on each axis come
//! from [`crate::axis::AxisDist::overlaps`] — closed-form for the block
//! family, interval scans bounded by the query for the irregular kinds —
//! and the overlapping peers are the cross-product of the per-axis
//! candidates. A regular *local* layout is itself a per-axis product of
//! segments, so [`OverlapIndex::query_patches`] resolves every local patch
//! at once: one `overlaps` call per axis per local segment, then one
//! odometer over the per-axis candidates that emits peers in ascending rank
//! and their regions in lower-corner order, with no per-patch query, map or
//! sort. For explicit distributions a one-time axis-0 slab index (sorted
//! cut points, per-slab patch lists) narrows the candidate patches to those
//! sharing an axis-0 interval with the query.
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
/// owned by peer grid position `pos`, inside local segment `seg`.
#[derive(Clone, Copy)]
struct Piece {
    pos: usize,
    start: usize,
    len: usize,
    seg: usize,
}

/// One axis's overlap pieces, sorted by `(pos, start)`, with the
/// `[first, end)` piece range of each distinct grid position and the
/// axis's local segment count.
struct AxisPieces {
    pieces: Vec<Piece>,
    groups: Vec<(usize, usize)>,
    segs: usize,
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

/// Overlaps of a rank's local patches with a peer descriptor, grouped by
/// peer — what schedule construction consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchHits {
    /// `(peer rank, overlap regions)`, ascending by rank; every entry holds
    /// at least one region, and within a rank the regions are sorted by
    /// lower corner.
    pub hits: Vec<(usize, Vec<Region>)>,
    /// The index in `mine.patches(rank)` of the local patch each region of
    /// `hits` lies in, in the order of `hits` flattened.
    pub sources: Vec<usize>,
    /// `(local patch, candidate)` pairs examined: the sum of
    /// [`OverlapHits::probes`] over per-patch queries.
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
                OverlapHits { hits: found.hits, probes: found.probes }
            }
            OverlapIndex::Explicit { dist, cuts, slabs } => {
                Self::query_explicit(dist, cuts, slabs, region)
            }
        }
    }

    /// The overlaps of every patch `rank` owns in `mine` with this index's
    /// peers, each piece tagged with the index of its local patch in
    /// `mine.patches(rank)`. Equals per-patch [`Self::query`] calls merged
    /// by peer and sorted by lower corner, probe count included; when both
    /// sides are regular it is computed per axis, once for all patches.
    pub fn query_patches(&self, mine: &Dad, rank: usize) -> PatchHits {
        if let (OverlapIndex::Regular(t), Distribution::Regular(m)) = (self, mine.distribution()) {
            let mut segs = Vec::new();
            let spans = m.axis_segments(rank, &mut segs);
            return Self::query_product(t, &segs, &spans);
        }
        let mut per_peer: BTreeMap<usize, Vec<(usize, Region)>> = BTreeMap::new();
        let mut probes = 0;
        for (pi, patch) in mine.patches(rank).iter().enumerate() {
            let found = self.query(patch);
            probes += found.probes;
            for (peer, regions) in found.hits {
                per_peer.entry(peer).or_default().extend(regions.into_iter().map(|r| (pi, r)));
            }
        }
        let mut sources = Vec::new();
        let hits = per_peer
            .into_iter()
            .map(|(peer, mut parts)| {
                parts.sort_by(|a, b| a.1.lo().cmp(b.1.lo()));
                sources.extend(parts.iter().map(|&(pi, _)| pi));
                (peer, parts.into_iter().map(|(_, r)| r).collect())
            })
            .collect();
        PatchHits { hits, sources, probes }
    }

    /// Overlaps of the patches in the cartesian product of per-axis
    /// segments (`segs[spans.lo()[d]..spans.hi()[d]]` on axis `d`, patches
    /// numbered row-major, as [`Template::patches`]) with a regular
    /// template. Each axis is resolved once per local segment; a probe is
    /// one (local patch, candidate peer) pair, so the count is
    /// `Π_d Σ_k |candidates_d(k)|`, the same as querying every patch on its
    /// own. Allocates per axis and per peer, never per region.
    fn query_product(t: &Template, segs: &[(usize, usize)], spans: &Region) -> PatchHits {
        let nd = spans.ndim();
        let none = || PatchHits { hits: Vec::new(), sources: Vec::new(), probes: 0 };
        let mut probes = 1;
        let mut axes = Vec::with_capacity(nd);
        for d in 0..nd {
            let (ax, extent) = (&t.axes()[d], t.extents().dim(d));
            let mut pieces = Vec::new();
            for (seg, &(start, len)) in segs[spans.lo()[d]..spans.hi()[d]].iter().enumerate() {
                ax.for_each_overlap(start, start + len, extent, |pos, start, len| {
                    pieces.push(Piece { pos, start, len, seg })
                });
            }
            if pieces.is_empty() {
                return none();
            }
            // Local segments are disjoint and ascending, so within one grid
            // position start order is also segment order.
            pieces.sort_unstable_by_key(|p| (p.pos, p.start));
            // A candidate is a distinct (position, segment) pair; the pieces
            // of one position form a group.
            let mut candidates = 0;
            let mut groups: Vec<(usize, usize)> = Vec::new();
            for (i, p) in pieces.iter().enumerate() {
                match groups.last_mut() {
                    Some((first, end)) if pieces[*first].pos == p.pos => {
                        candidates += usize::from(pieces[i - 1].seg != p.seg);
                        *end = i + 1;
                    }
                    _ => {
                        candidates += 1;
                        groups.push((i, i + 1));
                    }
                }
            }
            probes *= candidates;
            axes.push(AxisPieces { pieces, groups, segs: spans.hi()[d] - spans.lo()[d] });
        }

        // Every peer's regions are the product of its per-axis pieces, so
        // all peers' are the product of every axis's.
        let mut hits = Vec::with_capacity(axes.iter().map(|ax| ax.groups.len()).product());
        let mut sources = Vec::with_capacity(axes.iter().map(|ax| ax.pieces.len()).product());
        // Odometer over per-axis grid positions, last axis fastest: with the
        // row-major grid→rank fold this emits peers in ascending order.
        let mut pick = vec![0usize; nd];
        let mut at = vec![0usize; nd];
        'peers: loop {
            let mut peer = 0;
            let mut count = 1;
            for (d, ax) in axes.iter().enumerate() {
                let (first, end) = ax.groups[pick[d]];
                peer = peer * t.axes()[d].nprocs() + ax.pieces[first].pos;
                at[d] = first;
                count *= end - first;
            }
            // Regions: the cross-product of this peer's per-axis pieces,
            // last axis fastest, so lower corners ascend.
            let mut parts = Vec::with_capacity(count);
            'pieces: loop {
                let mut patch = 0;
                for (d, ax) in axes.iter().enumerate() {
                    patch = patch * ax.segs + ax.pieces[at[d]].seg;
                }
                sources.push(patch);
                parts.push(Region::from_axes(nd, |d| {
                    let p = &axes[d].pieces[at[d]];
                    (p.start, p.start + p.len)
                }));
                let mut d = nd;
                loop {
                    if d == 0 {
                        break 'pieces;
                    }
                    d -= 1;
                    let (first, end) = axes[d].groups[pick[d]];
                    at[d] += 1;
                    if at[d] < end {
                        break;
                    }
                    at[d] = first;
                }
            }
            hits.push((peer, parts));

            let mut d = nd;
            loop {
                if d == 0 {
                    break 'peers;
                }
                d -= 1;
                pick[d] += 1;
                if pick[d] < axes[d].groups.len() {
                    break;
                }
                pick[d] = 0;
            }
        }
        PatchHits { hits, sources, probes }
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
