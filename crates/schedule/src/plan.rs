//! Precompiled copy plans and pooled transfer buffers.
//!
//! The second layer of the schedule pipeline: at build time every
//! [`crate::PairRegions`] is resolved against the local patch layout into a
//! [`CopyPlan`], so steady-state transfer execution is nothing but
//! `copy_from_slice` loops. A plan takes one of two forms. For a pair of
//! regular layouts it keeps the overlap per axis: one run list per axis
//! ([`mxn_dad::AxisRun`]s, shared by all of a schedule's plans), each run an
//! evenly spaced progression of pieces, whose product is the region list,
//! so a plan's size follows the runs per axis, not the number of regions
//! (a block-cyclic pair holds one or two runs an axis). For an
//! explicit layout it keeps strided blocks, each `count` contiguous runs
//! of `len` elements `stride` apart in one patch, one block per region and
//! leading-axis index. Both forms walk the packed buffer in the same
//! canonical order and copy the same runs.
//! Combined with a [`TransferBuffers`] pool the per-step work allocates no
//! per-region `Vec`s at all: one leased buffer per peer, refilled in place
//! (the memory-efficient-redistribution model of the compiled-collective
//! literature).

use std::sync::Arc;

use mxn_dad::{region_runs, AxisHits, AxisRun, LocalArray, Region};
use mxn_runtime::{record_buffer_lease, record_pool_bytes, record_schedule_copy, Result};

use crate::route::RedistRoute;

/// `count` contiguous runs of `len` elements: run `i` starts at
/// `patch_off + i * stride` in patch `patch` and lands at
/// `sub_off + i * len` in the packed buffer (runs are back to back there).
/// A single run has `stride == len`; so does a block whose runs are also
/// back to back in the patch, which then copies as one slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    patch: usize,
    patch_off: usize,
    stride: usize,
    sub_off: usize,
    len: usize,
    count: usize,
}

impl Block {
    /// One past the block's last packed-buffer offset.
    fn end(&self) -> usize {
        self.sub_off + self.len * self.count
    }

    /// Calls `copy(patch, patch_off, lo, hi)` for every contiguous span of
    /// this block inside the packed range `[start, end)`, which it must
    /// overlap. Returns the number of runs touched, partial ones included.
    fn walk(
        &self,
        start: usize,
        end: usize,
        copy: &mut impl FnMut(usize, usize, usize, usize),
    ) -> u64 {
        let (lo, hi) = (start.max(self.sub_off), end.min(self.end()));
        let (r_lo, r_hi) = if (lo, hi) == (self.sub_off, self.end()) {
            (0, self.count)
        } else {
            ((lo - self.sub_off) / self.len, (hi - self.sub_off).div_ceil(self.len))
        };
        if self.stride == self.len {
            copy(self.patch, self.patch_off + (lo - self.sub_off), lo, hi);
        } else {
            for i in r_lo..r_hi {
                let run = self.sub_off + i * self.len;
                let (lo, hi) = (lo.max(run), hi.min(run + self.len));
                copy(self.patch, self.patch_off + i * self.stride + (lo - run), lo, hi);
            }
        }
        (r_hi - r_lo) as u64
    }
}

/// Peer `i`'s runs on axis `d` of `hits`.
fn axis_runs(hits: &AxisHits, i: usize, d: usize) -> &[AxisRun] {
    let (first, end) = hits.peers[i].1[d];
    &hits.runs[d][first..end]
}

/// Elements on one axis of a product plan: its pieces' lengths summed.
fn total(runs: &[AxisRun]) -> usize {
    runs.last().map_or(0, |run| run.at + run.len * run.count)
}

/// Calls `f` with the blocks of peer `i`'s product plan in buffer order,
/// from the one holding packed offset `start < total`, until `f` returns
/// false: one block per region and index of its leading axes (all but the
/// last two), a region laid out as [`CopyPlan::from_sources`] lays out a
/// listed one. The last axis steps in the innermost loop, one piece at a
/// time.
fn product_blocks(hits: &AxisHits, i: usize, start: usize, mut f: impl FnMut(Block) -> bool) {
    let axis = |d: usize| axis_runs(hits, i, d);
    // Piece `k` of run `r` on axis `d`, as a run of one.
    let piece = |d: usize, (r, k): (usize, usize)| {
        let run = &axis(d)[r];
        let (seg, off) = (run.seg + k * run.seg_step, run.off + k * run.off_step);
        AxisRun { seg, off, start: run.start + k * run.step, count: 1, ..*run }
    };
    let nd = hits.segs.len();
    // One `(run, piece)` position per axis, in place for up to four axes:
    // a small pack costs less than an allocation. A full pack starts at
    // every axis's first piece; a range locates its first region.
    let (mut inline, mut heap, mut skip) = ([(0, 0); 4], None, start);
    let at: &mut [(usize, usize)] =
        if nd <= inline.len() { &mut inline[..nd] } else { heap.insert(vec![(0, 0); nd]) };
    if start > 0 {
        // The regions whose pieces on axes `..d` are fixed fill a span of
        // `mult · total_d · tail` elements (`mult` those pieces' length
        // product, `tail` that of the later axes' totals); the ones with
        // piece `i` on axis `d` start `mult · P_d(i) · tail` into it, where
        // `P_d(i)` sums the lengths of the pieces before `i`.
        let (mut tail, mut mult) = ((0..nd).map(|d| total(axis(d))).product::<usize>(), 1);
        for (d, at) in at.iter_mut().enumerate() {
            let runs = axis(d);
            tail /= total(runs);
            let y = skip / (mult * tail);
            let r = runs.partition_point(|run| run.at + run.len * run.count <= y);
            let k = (y - runs[r].at) / runs[r].len;
            skip -= mult * (runs[r].at + k * runs[r].len) * tail;
            mult *= runs[r].len;
            *at = (r, k);
        }
    }
    // `skip` is now the offset of `start` inside its region.
    let mut pos = start - skip;
    let (outer, last) = (nd - 1, axis(nd - 1));
    let lead = outer.saturating_sub(1);
    loop {
        let (mut patch0, mut base0) = (0, 0);
        for (d, &at) in at[..outer].iter().enumerate() {
            let p = piece(d, at);
            (patch0, base0) = (patch0 * hits.segs[d] + p.seg, base0 * p.ext + p.off);
        }
        // Rows per block, and blocks per region: one per lead axes index.
        let count = if outer == 0 { 1 } else { piece(lead, at[lead]).len };
        let blocks: usize = (0..lead).map(|d| piece(d, at[d]).len).product();
        let (r0, k0) = at[outer];
        for (r, run) in last.iter().enumerate().skip(r0) {
            let (len, k0) = (run.len, if r == r0 { k0 } else { 0 });
            let stride = if count > 1 { run.ext } else { len };
            let p = piece(outer, (r, k0));
            let (mut patch, mut base) = (patch0 * hits.segs[outer] + p.seg, base0 * p.ext + p.off);
            for _ in k0..run.count {
                for j in if skip > 0 { skip / (count * len) } else { 0 }..blocks {
                    // Block `j`'s digit on lead axis `d` steps `Π_{e>d} ext_e`.
                    let (mut off, mut rem, mut step) = (base, j, run.ext);
                    for d in (0..lead).rev() {
                        let (p, q) = (piece(d, at[d]), piece(d + 1, at[d + 1]));
                        step *= q.ext;
                        off += (rem % p.len) * step;
                        rem /= p.len;
                    }
                    let sub_off = pos + j * count * len;
                    if !f(Block { patch, patch_off: off, stride, sub_off, len, count }) {
                        return;
                    }
                }
                (skip, pos) = (0, pos + blocks * count * len);
                (patch, base) = (patch + run.seg_step, base + run.off_step);
            }
        }
        at[outer] = (0, 0);
        if !hits.advance(i, &mut at[..outer]) {
            return;
        }
    }
}

/// One overlap piece of a landing on one axis: `len` elements at offset
/// `off` of local segment `seg`, `at` into the pieces of its peer group,
/// which sum to `total`; the group is `peer` peers into the peer list.
#[derive(Clone, Copy)]
struct Slot {
    seg: usize,
    off: usize,
    len: usize,
    at: usize,
    total: usize,
    peer: usize,
}

/// One axis of a landing: every peer group's pieces in local order, so that
/// `slots[bounds[s]..bounds[s + 1]]` tile local segment `s`.
struct Merged {
    slots: Vec<Slot>,
    bounds: Vec<usize>,
}

impl Merged {
    /// Axis `d` of `hits`, whose later axes' group counts multiply to
    /// `stride`, and its group count.
    fn new(hits: &AxisHits, d: usize, stride: usize) -> (Merged, usize) {
        // Peers are the product of every axis's groups, last axis fastest:
        // axis `d`'s groups are peers `0, stride, …` until it wraps.
        let group = |g: usize| hits.peers[g * stride].1[d];
        let groups =
            (0..hits.peers.len() / stride).take_while(|&g| g == 0 || group(g).0 > 0).count();
        let runs = |g| &hits.runs[d][group(g).0..group(g).1];
        let mut slots = Vec::with_capacity((0..groups).flat_map(runs).map(|r| r.count).sum());
        for g in 0..groups {
            let (total, peer) = (total(runs(g)), g * stride);
            for r in runs(g) {
                slots.extend((0..r.count).map(|k| {
                    let (seg, off) = (r.seg + k * r.seg_step, r.off + k * r.off_step);
                    Slot { seg, off, len: r.len, at: r.at + k * r.len, total, peer }
                }));
            }
        }
        slots.sort_unstable_by_key(|s| (s.seg, s.off));
        let bounds: Vec<_> =
            (0..=hits.segs[d]).map(|seg| slots.partition_point(|s| s.seg < seg)).collect();
        // The peer layout owns every index, so no gap is left to fill.
        debug_assert!(
            bounds.windows(2).all(|w| {
                let mut pieces = slots[w[0]..w[1]].iter();
                w[0] < w[1]
                    && pieces.try_fold(0, |off, s| (s.off == off).then_some(off + s.len)).is_some()
            }),
            "pieces of axis {d} do not tile its segments"
        );
        (Merged { slots, bounds }, groups)
    }

    fn pieces(&self, seg: usize) -> &[Slot] {
        &self.slots[self.bounds[seg]..self.bounds[seg + 1]]
    }
}

/// Calls `f(at, rows)` for band `band`'s rows in order, `rows` at a time
/// (each last leading piece at once when `whole`), with `at` the offset
/// terms of [`land`] and the peer folded over the leading axes.
fn each_row(
    lead: &[Merged],
    band: usize,
    stride: usize,
    (base, mult, row, peer): (usize, usize, usize, usize),
    whole: bool,
    f: &mut impl FnMut((usize, usize, usize, usize), usize),
) {
    let Some((axis, rest)) = lead.split_first() else { return f((base, mult, row, peer), 1) };
    let stride = stride / (axis.bounds.len() - 1);
    for s in axis.pieces(band / stride % (axis.bounds.len() - 1)) {
        let at = (base * s.total + mult * s.at, mult * s.len, row * s.len, peer + s.peer);
        if rest.is_empty() && whole {
            f(at, s.len);
            continue;
        }
        for r in 0..s.len {
            each_row(rest, band, stride, (at.0, at.1, at.2 + r, at.3), whole, f);
        }
    }
}

/// Builds the buffers of a rank's `patches` (canonical order) from its
/// peers' messages (`msgs[i]` from `hits.peers[i]`, packed by its product
/// plan), each `Vec::with_capacity` written front to back. Patches sharing
/// their leading axes' segments fill together, a row of each in turn, so
/// messages are read in their own order too. A piece starts at `base ·
/// total + mult · at + row · len` of its message: `base` and `mult` fold
/// the leading axes' `P_d` and lengths as [`product_blocks`] does, `row` is
/// the row's index in its region. When every row is one piece, a region's
/// rows follow each other in message and patch, and copy as one slice.
pub(crate) fn land<T: Copy>(hits: &AxisHits, patches: &[Region], msgs: &[Vec<T>]) -> Vec<Vec<T>> {
    let (mut lead, mut stride) = (Vec::with_capacity(hits.segs.len()), 1);
    for d in (0..hits.segs.len()).rev() {
        let (axis, groups) = Merged::new(hits, d, stride);
        lead.insert(0, axis);
        stride *= groups;
    }
    let last = lead.pop().expect("at least one axis");
    let (segs, whole) = (last.bounds.len() - 1, last.slots.len() == last.bounds.len() - 1);
    let mut landed: Vec<Vec<T>> = patches.iter().map(|r| Vec::with_capacity(r.len())).collect();
    for (b, band) in landed.chunks_mut(segs).enumerate() {
        each_row(&lead, b, patches.len() / segs, (0, 1, 0, 0), whole, &mut |at, rows| {
            let (base, mult, row, peer) = at;
            for (seg, buf) in band.iter_mut().enumerate() {
                for s in last.pieces(seg) {
                    let off = base * s.total + mult * s.at + row * s.len;
                    buf.extend_from_slice(&msgs[peer + s.peer][off..off + rows * s.len]);
                }
            }
        });
    }
    landed
}

/// A precompiled pack/unpack program for one peer: the runs that tile the
/// peer's packed buffer `[0, total)`, each resolved to a patch index and
/// offset in the local storage layout.
#[derive(Debug, Clone)]
pub struct CopyPlan {
    form: Form,
    /// Total elements moved per execution.
    total: usize,
    /// Contiguous runs across all blocks (`Σ count`).
    runs: usize,
}

#[derive(Debug, Clone)]
enum Form {
    /// Strided blocks in ascending buffer-offset order.
    Blocks(Vec<Block>),
    /// Peer `.1` of per-axis overlap runs, whose product is the pair's
    /// region list; shared by the schedule's plans and pair regions, which
    /// expand from it on demand.
    Axes(Arc<AxisHits>, usize),
}

impl Default for CopyPlan {
    fn default() -> Self {
        CopyPlan { form: Form::Blocks(Vec::new()), total: 0, runs: 0 }
    }
}

impl PartialEq for CopyPlan {
    /// Plans are equal when they copy the same runs in the same order,
    /// whichever form holds them.
    fn eq(&self, other: &CopyPlan) -> bool {
        self.total == other.total && self.run_list() == other.run_list()
    }
}

impl Eq for CopyPlan {}

impl CopyPlan {
    /// Compiles the plan for a peer's region list against this rank's
    /// patch layout. `regions` must each be fully covered by `patches`
    /// (they are, by construction: every pair region is an intersection
    /// with one of this rank's patches).
    pub(crate) fn compile(patches: &[Region], regions: &[Region]) -> CopyPlan {
        let mut plan = CopyPlan::default();
        for region in regions {
            for run in region_runs(patches.iter(), region) {
                plan.push(run.patch, run.patch_off, run.len, 1, run.len);
            }
        }
        plan
    }

    /// The plan of peer `hits.peers[i]`: its per-axis runs, whose product
    /// is the peer's regions.
    pub(crate) fn from_axes(hits: &Arc<AxisHits>, i: usize) -> CopyPlan {
        let (axis, nd) = (|d: usize| axis_runs(hits, i, d), hits.segs.len());
        // A region has one run per index of all its axes but the last.
        let runs = match nd.checked_sub(1) {
            Some(last) => {
                let lead = (0..last).map(|d| total(axis(d))).product::<usize>();
                lead * axis(last).iter().map(|run| run.count).sum::<usize>()
            }
            None => 1,
        };
        let total = (0..nd).map(|d| total(axis(d))).product();
        CopyPlan { total, runs, form: Form::Axes(Arc::clone(hits), i) }
    }

    /// Like [`Self::compile`], but with known provenance: `sources[i]` is
    /// the index of the single patch that covers `regions[i]`, so every
    /// region becomes one block per leading-axis index, in closed form from
    /// the patch's row-major layout (schedule builders know the source
    /// patch because each pair region *is* an intersection with one local
    /// patch). The block list is reserved once.
    ///
    /// # Panics
    /// If the two lists differ in length or a region does not lie inside
    /// its source patch.
    pub(crate) fn from_sources(
        patches: &[Region],
        sources: &[usize],
        regions: &[Region],
    ) -> CopyPlan {
        assert_eq!(sources.len(), regions.len(), "one source patch per region");
        // At most one block per region and index of its leading axes.
        let lead = |r: &Region| -> usize {
            r.lo().iter().zip(r.hi()).rev().skip(2).map(|(l, h)| h - l).product()
        };
        let blocks = Vec::with_capacity(regions.iter().map(lead).sum());
        let mut plan = CopyPlan { form: Form::Blocks(blocks), ..CopyPlan::default() };
        for (pi, region) in sources.iter().zip(regions) {
            let patch = &patches[*pi];
            let (lo, hi, plo, phi) = (region.lo(), region.hi(), patch.lo(), patch.hi());
            assert!(
                lo.len() == plo.len() && (0..lo.len()).all(|d| plo[d] <= lo[d] && hi[d] <= phi[d]),
                "region {region:?} not inside its source patch {patch:?}"
            );
            let nd = lo.len();
            let ext = |d: usize| hi[d] - lo[d];
            let pext = |d: usize| phi[d] - plo[d];
            // Last axis: one run per row; second-to-last: rows `stride` apart.
            let len = if nd >= 1 { ext(nd - 1) } else { 1 };
            let (count, stride) = if nd >= 2 { (ext(nd - 2), pext(nd - 1)) } else { (1, len) };
            let base = (0..nd).fold(0, |off, d| off * pext(d) + (lo[d] - plo[d]));
            let lead = nd.saturating_sub(2);
            // One block per index of the leading axes, in row-major order.
            let blocks: usize = (0..lead).map(ext).product();
            for j in 0..blocks {
                // Row-major: axis d steps by Π_{e>d} pext(e) in the patch.
                let (mut off, mut rem, mut step) = (base, j, stride);
                for d in (0..lead).rev() {
                    step *= pext(d + 1);
                    off += (rem % ext(d)) * step;
                    rem /= ext(d);
                }
                plan.push(*pi, off, len, count, stride);
            }
        }
        plan
    }

    /// Appends `count` runs of `len` elements, `stride` apart from
    /// `patch_off` in `patch`, at the end of the packed buffer — extending
    /// the last block when the runs continue its stride. Empty regions
    /// add nothing.
    fn push(&mut self, patch: usize, patch_off: usize, len: usize, count: usize, stride: usize) {
        let Form::Blocks(blocks) = &mut self.form else {
            unreachable!("blocks extend block plans")
        };
        if len == 0 || count == 0 {
            return;
        }
        let sub_off = self.total;
        self.total += len * count;
        self.runs += count;
        let stride = if count == 1 { len } else { stride };
        if let Some(last) = blocks.last_mut() {
            if last.patch == patch && last.len == len && patch_off > last.patch_off {
                // The stride that would continue `last`: its own if it has
                // one, else the new runs', else the gap between the two.
                let step = if last.count > 1 {
                    last.stride
                } else if count > 1 {
                    stride
                } else {
                    patch_off - last.patch_off
                };
                if step >= len
                    && (count == 1 || stride == step)
                    && patch_off == last.patch_off + last.count * step
                {
                    last.stride = step;
                    last.count += count;
                    return;
                }
            }
        }
        blocks.push(Block { patch, patch_off, stride, sub_off, len, count });
    }

    /// Elements moved per execution.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of contiguous copy runs (strided blocks count every run).
    pub fn num_runs(&self) -> usize {
        self.runs
    }

    /// Calls `copy(patch, patch_off, lo, hi)` for every contiguous span
    /// of the packed range `[start, end)`: elements `[lo, hi)` of the
    /// packed buffer live at `patch_off..` in `patch`. Returns the number
    /// of runs touched, partial ones included.
    fn walk(
        &self,
        start: usize,
        end: usize,
        mut copy: impl FnMut(usize, usize, usize, usize),
    ) -> u64 {
        debug_assert!(start <= end && end <= self.total, "range out of plan bounds");
        let mut nruns = 0;
        if start < end {
            self.for_each_block(start, |b| {
                nruns += b.walk(start, end, &mut copy);
                b.end() < end
            });
        }
        nruns
    }

    /// Calls `f` with the plan's blocks in buffer order, from the one
    /// holding packed offset `start < total`, until `f` returns false.
    fn for_each_block(&self, start: usize, mut f: impl FnMut(Block) -> bool) {
        match &self.form {
            Form::Blocks(blocks) => {
                let first = blocks.partition_point(|b| b.end() <= start);
                blocks[first..].iter().all(|&b| f(b));
            }
            // A 0-axis array has one element, in patch 0.
            Form::Axes(hits, _) if hits.segs.is_empty() => {
                f(Block { patch: 0, patch_off: 0, stride: 1, sub_off: 0, len: 1, count: 1 });
            }
            Form::Axes(hits, i) => product_blocks(hits, *i, start, f),
        }
    }

    /// `(patch, patch_off, len)` of every run, in buffer order.
    fn run_list(&self) -> Vec<(usize, usize, usize)> {
        let mut runs = Vec::with_capacity(self.runs);
        if self.total > 0 {
            self.for_each_block(0, |b| {
                runs.extend((0..b.count).map(|i| (b.patch, b.patch_off + i * b.stride, b.len)));
                true
            });
        }
        runs
    }

    /// Bytes the plan holds: itself and its blocks; a product plan's runs
    /// are shared with the schedule's other plans, which count them once.
    #[cfg(test)]
    pub(crate) fn held_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks = match &self.form {
            Form::Blocks(blocks) => blocks.capacity() * size_of::<Block>(),
            Form::Axes(..) => 0,
        };
        size_of::<CopyPlan>() + blocks
    }

    /// Packs the planned elements into `out` (cleared first) with straight
    /// `extend_from_slice` runs — no per-region allocation, no index
    /// arithmetic beyond the precompiled offsets.
    pub(crate) fn pack_into<T: Copy>(&self, local: &LocalArray<T>, out: &mut Vec<T>) {
        self.pack_range_into(local, out, 0, self.total);
    }

    /// Packs elements `[start, end)` of the canonical packed buffer into
    /// `out` (cleared first) — the chunked-route primitive: one plan, many
    /// bounded rounds, no per-round plan recompilation. Run boundaries need
    /// not align with the range; partial runs are clipped.
    pub fn pack_range_into<T: Copy>(
        &self,
        local: &LocalArray<T>,
        out: &mut Vec<T>,
        start: usize,
        end: usize,
    ) {
        out.clear();
        out.reserve(end - start);
        let nruns = self.walk(start, end, |patch, off, lo, hi| {
            let (_, data) = local.patch(patch);
            out.extend_from_slice(&data[off..off + (hi - lo)]);
        });
        debug_assert_eq!(out.len(), end - start);
        record_schedule_copy((end - start) as u64, nruns);
        mxn_trace::emit_instant(mxn_trace::EventId::CopyPack, [(end - start) as u64, nruns, 0, 0]);
    }

    /// Unpacks `data`, holding elements `[start, end)` of the canonical
    /// packed buffer, into local storage — the receive side of
    /// [`Self::pack_range_into`].
    pub fn unpack_range_from<T: Copy>(
        &self,
        local: &mut LocalArray<T>,
        data: &[T],
        start: usize,
        end: usize,
    ) {
        assert_eq!(data.len(), end - start, "chunk length mismatch");
        let nruns = self.walk(start, end, |patch, off, lo, hi| {
            let (_, buf) = local.patch_mut(patch);
            buf[off..off + (hi - lo)].copy_from_slice(&data[lo - start..hi - start]);
        });
        record_unpack(end - start, nruns);
    }

    /// The per-axis runs of a plan of that form.
    pub(crate) fn axes(&self) -> Option<&AxisHits> {
        let Form::Axes(hits, _) = &self.form else { return None };
        Some(hits)
    }

    /// Unpacks a packed per-peer buffer into local storage with straight
    /// `copy_from_slice` runs.
    pub(crate) fn unpack_from<T: Copy>(&self, local: &mut LocalArray<T>, data: &[T]) {
        assert_eq!(data.len(), self.total, "packed buffer length mismatch");
        self.unpack_range_from(local, data, 0, self.total);
    }
}

/// Counts an unpack of `elems` elements in `nruns` runs in the schedule
/// stats and the trace; a landed receive counts each pair's plan whole.
pub(crate) fn record_unpack(elems: usize, nruns: u64) {
    record_schedule_copy(elems as u64, nruns);
    mxn_trace::emit_instant(mxn_trace::EventId::CopyUnpack, [elems as u64, nruns, 0, 0]);
}

/// A pool of reusable transfer buffers.
///
/// The runtime's transport moves payloads by ownership, so a sent buffer
/// leaves the sender — but every *received* buffer can be recycled, and in
/// symmetric exchanges (transposes, halo steps, persistent couplings that
/// send and receive) buffers circulate: once a pool kept across steps
/// holds a buffer for every pair, leases are satisfied from the free list
/// and fresh allocation stops. A [`crate::ScheduleCache`] keeps such a
/// pool for the cached [`crate::Redist`] transfers it serves.
#[derive(Debug)]
pub struct TransferBuffers<T> {
    free: Vec<Vec<T>>,
    max_free: usize,
    /// Maximum bytes parked idle across the free list; recycling past the
    /// cap drops the buffer (largest-first trim), so one huge transfer does
    /// not pin its high-water allocation for the rest of the run.
    byte_cap: usize,
    /// Bytes currently parked idle (sum of free-list capacities).
    idle_bytes: usize,
    /// Bytes parked by [`Self::recycle`] so far (a running total).
    parked_bytes: usize,
    leases: u64,
    fresh_allocs: u64,
}

impl<T> Default for TransferBuffers<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TransferBuffers<T> {
    /// An empty pool keeping at most 32 idle buffers, unlimited idle bytes.
    pub fn new() -> Self {
        Self::with_max_free(32)
    }

    /// An empty pool keeping at most `max_free` idle buffers (recycling
    /// beyond that drops the buffer, bounding memory in one-directional
    /// flows where receives outnumber sends).
    pub(crate) fn with_max_free(max_free: usize) -> Self {
        Self::with_byte_cap(max_free, usize::MAX)
    }

    /// An empty pool bounded both ways: at most `max_free` idle buffers
    /// *and* at most `byte_cap` idle bytes.
    pub fn with_byte_cap(max_free: usize, byte_cap: usize) -> Self {
        TransferBuffers {
            free: Vec::new(),
            max_free,
            byte_cap,
            idle_bytes: 0,
            parked_bytes: 0,
            leases: 0,
            fresh_allocs: 0,
        }
    }

    fn buf_bytes(buf: &Vec<T>) -> usize {
        buf.capacity() * std::mem::size_of::<T>()
    }

    /// Takes a cleared buffer with at least `capacity` reserved: the
    /// smallest idle buffer that fits, else the largest idle one grown to
    /// fit, else a new one. A grow reallocates, so it counts as a fresh
    /// allocation like a new buffer does. Among equal candidates the one
    /// parked last wins, as the likeliest to be in cache.
    pub fn lease(&mut self, capacity: usize) -> Vec<T> {
        self.leases += 1;
        let fits = self
            .free
            .iter()
            .enumerate()
            .rev()
            .filter(|(_, b)| b.capacity() >= capacity)
            .min_by_key(|(_, b)| b.capacity());
        let pick = fits.or_else(|| self.free.iter().enumerate().max_by_key(|(_, b)| b.capacity()));
        let (mut buf, fresh) = match pick.map(|(i, _)| i) {
            Some(i) => {
                let buf = self.free.remove(i);
                self.idle_bytes -= Self::buf_bytes(&buf);
                let grown = buf.capacity() < capacity;
                (buf, grown)
            }
            None => (Vec::new(), true),
        };
        if fresh {
            self.fresh_allocs += 1;
        }
        record_buffer_lease(fresh);
        mxn_trace::emit_instant(
            mxn_trace::EventId::BufferLease,
            [u64::from(fresh), capacity as u64, 0, 0],
        );
        buf.clear();
        buf.reserve_exact(capacity);
        buf
    }

    /// Returns a buffer to the pool (dropped if the pool is full by count
    /// or the byte cap would be exceeded). Raises the thread's
    /// `pool_peak_bytes` high-water mark.
    pub fn recycle(&mut self, mut buf: Vec<T>) {
        let bytes = Self::buf_bytes(&buf);
        if self.free.len() < self.max_free && self.idle_bytes.saturating_add(bytes) <= self.byte_cap
        {
            buf.clear();
            self.idle_bytes += bytes;
            self.parked_bytes = self.parked_bytes.wrapping_add(bytes);
            self.free.push(buf);
            record_pool_bytes(self.idle_bytes as u64);
        }
    }

    /// Drops idle buffers, largest first, until at most `bytes` remain
    /// parked — reclaims a one-off spike without touching the cap for
    /// future recycling.
    pub fn trim_to(&mut self, bytes: usize) {
        while self.idle_bytes > bytes {
            let (i, _) = self
                .free
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .expect("idle_bytes > 0 implies a free buffer");
            let dropped = self.free.swap_remove(i);
            self.idle_bytes -= Self::buf_bytes(&dropped);
        }
    }

    /// Bytes currently parked idle in the pool.
    pub fn idle_bytes(&self) -> usize {
        self.idle_bytes
    }

    /// Buffers currently idle in the pool: what the pool tests observe.
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.free.len()
    }

    /// `(leases, fresh_allocs)` so far: in steady state `fresh_allocs`
    /// stays put while `leases` keeps climbing.
    pub fn stats(&self) -> (u64, u64) {
        (self.leases, self.fresh_allocs)
    }
}

/// Runs `transfer` on a pool that outlives it, under the one rule for what
/// such a pool keeps between transfers — every cached [`crate::Redist`]
/// transfer lends its [`crate::ScheduleCache`] pool through here:
///
/// * a routed transfer (`route` given) trims the pool to
///   [`RedistRoute::idle_allowance`] before and after it runs, so pooled
///   buffers never break the route's declared peak;
/// * a direct transfer parks at most the bytes it moved, so a rank that
///   only receives keeps one receive set warm, not every buffer it ever
///   drained. A drained buffer counts with its capacity: when pair sizes
///   change between transfers a buffer may hold more than its payload,
///   and dropping it for that slack would cost the next send a fresh
///   allocation.
pub(crate) fn pooled_transfer<T>(
    pool: &mut TransferBuffers<T>,
    route: Option<&RedistRoute>,
    transfer: impl FnOnce(&mut TransferBuffers<T>) -> Result<usize>,
) -> Result<usize> {
    let allowance = route.map(|r| r.idle_allowance() as usize);
    if let Some(bytes) = allowance {
        pool.trim_to(bytes);
    }
    let parked_before = pool.parked_bytes;
    let moved = transfer(pool);
    let drained = pool.parked_bytes.wrapping_sub(parked_before);
    pool.trim_to(allowance.unwrap_or_else(|| {
        let payload = moved.as_ref().map_or(0, |&n| n * std::mem::size_of::<T>());
        payload.max(drained)
    }));
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use mxn_dad::{Dad, Extents};

    #[test]
    fn plan_pack_unpack_roundtrip() {
        let dad = Dad::block(Extents::new([4, 4]), &[2, 2]).unwrap();
        let patches = dad.patches(0); // [0..2) x [0..2)
        let regions = vec![Region::new([0, 0], [1, 2]), Region::new([1, 0], [2, 1])];
        let plan = CopyPlan::compile(&patches, &regions);
        assert_eq!(plan.total(), 3);
        assert_eq!(plan.num_runs(), 2);

        let local = LocalArray::from_fn(&dad, 0, |idx| (idx[0] * 4 + idx[1]) as i64);
        let mut buf = Vec::new();
        plan.pack_into(&local, &mut buf);
        assert_eq!(buf, vec![0, 1, 4]);

        let mut dst: LocalArray<i64> = LocalArray::allocate(&dad, 0);
        plan.unpack_from(&mut dst, &buf);
        assert_eq!(*dst.get(&[0, 1]).unwrap(), 1);
        assert_eq!(*dst.get(&[1, 0]).unwrap(), 4);
        assert_eq!(*dst.get(&[1, 1]).unwrap(), 0, "outside plan untouched");
    }

    #[test]
    fn pack_into_reuses_capacity() {
        let dad = Dad::block(Extents::new([8]), &[1]).unwrap();
        let patches = dad.patches(0);
        let plan = CopyPlan::compile(&patches, &[Region::new([2], [6])]);
        let local = LocalArray::from_fn(&dad, 0, |idx| idx[0] as u32);
        let mut buf = Vec::new();
        plan.pack_into(&local, &mut buf);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for _ in 0..10 {
            plan.pack_into(&local, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "no growth across repeated packs");
        assert_eq!(buf.as_ptr(), ptr, "no reallocation across repeated packs");
    }

    #[test]
    fn pool_circulates_buffers() {
        let mut pool: TransferBuffers<u8> = TransferBuffers::new();
        let a = pool.lease(16);
        assert_eq!(pool.stats(), (1, 1), "first lease allocates");
        pool.recycle(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.lease(8);
        assert_eq!(pool.stats(), (2, 1), "second lease reuses");
        assert!(b.capacity() >= 8);
        pool.recycle(b);
    }

    #[test]
    fn pool_bounds_idle_buffers() {
        let mut pool: TransferBuffers<u8> = TransferBuffers::with_max_free(2);
        for _ in 0..5 {
            pool.recycle(Vec::with_capacity(4));
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn range_pack_unpack_matches_full_plan() {
        let dad = Dad::block(Extents::new([6, 6]), &[2, 3]).unwrap();
        let patches = dad.patches(0);
        let regions = vec![
            Region::new([0, 0], [2, 1]),
            Region::new([1, 1], [3, 2]),
            Region::new([2, 0], [3, 2]),
        ];
        let plan = CopyPlan::compile(&patches, &regions);
        let local = LocalArray::from_fn(&dad, 0, |idx| (idx[0] * 6 + idx[1]) as i64);
        let mut full = Vec::new();
        plan.pack_into(&local, &mut full);

        // Every split point, including run-splitting ones, reproduces the
        // full buffer and a full unpack.
        for cut in 0..=plan.total() {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            plan.pack_range_into(&local, &mut a, 0, cut);
            plan.pack_range_into(&local, &mut b, cut, plan.total());
            a.extend_from_slice(&b);
            assert_eq!(a, full, "cut at {cut}");

            let mut dst: LocalArray<i64> = LocalArray::allocate(&dad, 0);
            plan.unpack_range_from(&mut dst, &full[..cut], 0, cut);
            plan.unpack_range_from(&mut dst, &full[cut..], cut, plan.total());
            let mut roundtrip = Vec::new();
            plan.pack_into(&dst, &mut roundtrip);
            assert_eq!(roundtrip, full, "unpack cut at {cut}");
        }
    }

    #[test]
    fn pool_byte_cap_refuses_oversized_recycle() {
        let mut pool: TransferBuffers<u8> = TransferBuffers::with_byte_cap(32, 100);
        pool.recycle(Vec::with_capacity(60));
        assert_eq!((pool.idle(), pool.idle_bytes()), (1, 60));
        pool.recycle(Vec::with_capacity(60));
        assert_eq!((pool.idle(), pool.idle_bytes()), (1, 60), "second buffer would breach the cap");
        pool.recycle(Vec::with_capacity(40));
        assert_eq!((pool.idle(), pool.idle_bytes()), (2, 100), "fits exactly");
        let buf = pool.lease(8);
        assert!(pool.idle_bytes() < 100);
        pool.recycle(buf);
    }

    #[test]
    fn pool_trim_drops_largest_first() {
        let mut pool: TransferBuffers<u8> = TransferBuffers::new();
        pool.recycle(Vec::with_capacity(10));
        pool.recycle(Vec::with_capacity(1000));
        pool.recycle(Vec::with_capacity(50));
        assert_eq!(pool.idle_bytes(), 1060);
        pool.trim_to(64);
        assert_eq!(pool.idle_bytes(), 60, "the one-off 1000-byte spike is gone");
        assert_eq!(pool.idle(), 2);
        pool.trim_to(0);
        assert_eq!((pool.idle(), pool.idle_bytes()), (0, 0));
    }

    #[test]
    fn pool_peak_bytes_reaches_schedule_stats() {
        mxn_runtime::reset_schedule_stats();
        let mut pool: TransferBuffers<u8> = TransferBuffers::new();
        pool.recycle(Vec::with_capacity(128));
        pool.recycle(Vec::with_capacity(64));
        pool.trim_to(0);
        pool.recycle(Vec::with_capacity(16));
        let s = mxn_runtime::schedule_stats();
        assert_eq!(s.pool_peak_bytes, 192, "high-water survives the trim");
        mxn_runtime::reset_schedule_stats();
    }

    #[test]
    fn lease_takes_the_smallest_fit_and_counts_a_grow_as_fresh() {
        mxn_runtime::reset_schedule_stats();
        let mut pool: TransferBuffers<u8> = TransferBuffers::new();
        for cap in [64, 16, 256, 32] {
            pool.recycle(Vec::with_capacity(cap));
        }
        let a = pool.lease(20);
        assert_eq!(a.capacity(), 32, "the smallest idle buffer that fits");
        let b = pool.lease(64);
        assert_eq!(b.capacity(), 64, "an exact fit beats a larger one");
        assert_eq!(pool.stats(), (2, 0));
        // Nothing idle holds 1000 bytes: the largest buffer is grown, and
        // the realloc counts as a fresh allocation.
        let c = pool.lease(1000);
        assert!(c.capacity() >= 1000);
        assert_eq!(pool.stats(), (3, 1));
        assert_eq!((pool.idle(), pool.idle_bytes()), (1, 16), "only the 16-byte buffer is left");
        let s = mxn_runtime::schedule_stats();
        assert_eq!((s.buffer_leases, s.buffer_allocs), (3, 1));
        mxn_runtime::reset_schedule_stats();
    }

    #[test]
    fn direct_transfers_park_what_they_drained_and_routes_their_allowance() {
        use crate::route::{RedistProfile, RoutePlanner};
        let mut pool: TransferBuffers<u64> = TransferBuffers::new();
        pool.recycle(Vec::with_capacity(100));
        // A send that moved 10 elements keeps at most 80 bytes idle.
        pooled_transfer(&mut pool, None, |_| Ok(10)).unwrap();
        assert_eq!(pool.idle_bytes(), 0);
        // A receive whose buffers carry slack beyond the 30 elements they
        // delivered keeps them whole.
        let moved = pooled_transfer(&mut pool, None, |p| {
            p.recycle(Vec::with_capacity(20));
            p.recycle(Vec::with_capacity(25));
            Ok(30)
        });
        assert_eq!((moved.unwrap(), pool.idle(), pool.idle_bytes()), (30, 2, 360));
        // The next receive keeps its own set only.
        pooled_transfer(&mut pool, None, |p| {
            p.recycle(Vec::with_capacity(10));
            Ok(10)
        })
        .unwrap();
        assert_eq!(pool.idle_bytes(), 80);
        // A routed transfer trims to its idle allowance on both sides.
        let dad = mxn_dad::Dad::block(mxn_dad::Extents::new([64, 64]), &[2, 1]).unwrap();
        let profile = RedistProfile::compute(&dad, &dad, size_of::<u64>());
        let route = RoutePlanner::default().plan(&profile, 1 << 20, false);
        let allowance = route.idle_allowance() as usize;
        let at_allowance = || Vec::with_capacity(allowance / size_of::<u64>());
        pool.recycle(at_allowance());
        pool.recycle(at_allowance());
        pooled_transfer(&mut pool, Some(&route), |p| {
            assert!(p.idle_bytes() <= allowance, "trimmed before the transfer");
            p.recycle(at_allowance());
            Ok(0)
        })
        .unwrap();
        assert!(pool.idle_bytes() <= allowance, "trimmed after the transfer");
    }
}
