//! Precompiled copy plans and pooled transfer buffers.
//!
//! The second layer of the schedule pipeline: at build time every
//! [`crate::PairRegions`] is resolved against the local patch layout into a
//! [`CopyPlan`] — a list of strided blocks, each `count` contiguous runs of
//! `len` elements `stride` apart in one patch — so steady-state transfer
//! execution is nothing but `copy_from_slice` loops, and a plan's size
//! follows the number of regions, not the number of rows they copy.
//! Combined with a [`TransferBuffers`] pool the per-step work allocates no
//! per-region `Vec`s at all: one leased buffer per peer, refilled in place
//! (the memory-efficient-redistribution model of the compiled-collective
//! literature).

use mxn_dad::{region_runs, LocalArray, Region};
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
}

/// A precompiled pack/unpack program for one peer: strided blocks that
/// tile the peer's packed buffer `[0, total)`, each resolved to a patch
/// index and offset in the local storage layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CopyPlan {
    /// Blocks in ascending buffer-offset order.
    blocks: Vec<Block>,
    /// Total elements moved per execution.
    total: usize,
    /// Contiguous runs across all blocks (`Σ count`).
    runs: usize,
}

impl CopyPlan {
    /// Compiles the plan for a peer's region list against this rank's
    /// patch layout. `regions` must each be fully covered by `patches`
    /// (they are, by construction: every pair region is an intersection
    /// with one of this rank's patches).
    pub fn compile(patches: &[Region], regions: &[Region]) -> CopyPlan {
        let mut plan = CopyPlan::default();
        for region in regions {
            for run in region_runs(patches.iter(), region) {
                plan.push(run.patch, run.patch_off, run.len, 1, run.len);
            }
        }
        plan
    }

    /// Like [`Self::compile`], but with known provenance: `parts` pairs
    /// each region with the index of the single patch that covers it, so
    /// every region becomes one block per leading-axis index, in closed
    /// form from the patch's row-major layout (schedule builders know the
    /// source patch because each pair region *is* an intersection with one
    /// local patch).
    ///
    /// # Panics
    /// If a region does not lie inside its source patch.
    pub fn from_sources(patches: &[Region], parts: &[(usize, Region)]) -> CopyPlan {
        let mut plan = CopyPlan::default();
        for (pi, region) in parts {
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
        if len == 0 || count == 0 {
            return;
        }
        let sub_off = self.total;
        self.total += len * count;
        self.runs += count;
        let stride = if count == 1 { len } else { stride };
        if let Some(last) = self.blocks.last_mut() {
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
        self.blocks.push(Block { patch, patch_off, stride, sub_off, len, count });
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
        // First block that ends after `start`: blocks tile [0, total) in
        // ascending sub_off order, so partition on block end.
        let first = self.blocks.partition_point(|b| b.end() <= start);
        for b in &self.blocks[first..] {
            if b.sub_off >= end {
                break;
            }
            let (lo, hi) = (start.max(b.sub_off), end.min(b.end()));
            let (r_lo, r_hi) = ((lo - b.sub_off) / b.len, (hi - b.sub_off).div_ceil(b.len));
            nruns += (r_hi - r_lo) as u64;
            if b.stride == b.len {
                copy(b.patch, b.patch_off + (lo - b.sub_off), lo, hi);
                continue;
            }
            for i in r_lo..r_hi {
                let run = b.sub_off + i * b.len;
                let (lo, hi) = (lo.max(run), hi.min(run + b.len));
                copy(b.patch, b.patch_off + i * b.stride + (lo - run), lo, hi);
            }
        }
        nruns
    }

    /// Packs the planned elements into `out` (cleared first) with straight
    /// `extend_from_slice` runs — no per-region allocation, no index
    /// arithmetic beyond the precompiled offsets.
    pub fn pack_into<T: Copy>(&self, local: &LocalArray<T>, out: &mut Vec<T>) {
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
        record_schedule_copy((end - start) as u64, nruns);
        mxn_trace::emit_instant(
            mxn_trace::EventId::CopyUnpack,
            [(end - start) as u64, nruns, 0, 0],
        );
    }

    /// Unpacks a packed per-peer buffer into local storage with straight
    /// `copy_from_slice` runs.
    pub fn unpack_from<T: Copy>(&self, local: &mut LocalArray<T>, data: &[T]) {
        assert_eq!(data.len(), self.total, "packed buffer length mismatch");
        self.unpack_range_from(local, data, 0, self.total);
    }
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
    pub fn with_max_free(max_free: usize) -> Self {
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

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Bytes currently parked idle in the pool.
    pub fn idle_bytes(&self) -> usize {
        self.idle_bytes
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
