//! Heap allocations of a schedule build, counted by a global allocator
//! that counts on the calling thread only, so tests running in parallel do
//! not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mxn_dad::{AxisDist, Dad, Extents, Template};
use mxn_schedule::RegionSchedule;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread, and what it returns.
fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The regrid workload's pair at block size `block`: 512×512 block-cyclic
/// row blocks over 2 ranks → block-cyclic column blocks over 2 ranks.
fn regrid_pair(block: usize) -> (Dad, Dad) {
    let cyclic = AxisDist::BlockCyclic { block, nprocs: 2 };
    let dad = |axes| Dad::regular(Template::new(Extents::new([512, 512]), axes).unwrap());
    (dad(vec![cyclic.clone(), AxisDist::Collapsed]), dad(vec![AxisDist::Collapsed, cyclic]))
}

/// Allocations of rank 0's sender and receiver builds on the pair, and
/// their region counts; a first build warms the trace and stats hooks.
fn build_allocations(block: usize) -> [(usize, usize); 2] {
    let (src, dst) = regrid_pair(block);
    RegionSchedule::for_sender(&src, &dst, 0);
    let regions = |s: &RegionSchedule| s.pairs().iter().map(|p| p.regions.len()).sum::<usize>();
    let (send, s) = allocations(|| RegionSchedule::for_sender(&src, &dst, 0));
    let (recv, r) = allocations(|| RegionSchedule::for_receiver(&src, &dst, 0));
    [(send, regions(&s)), (recv, regions(&r))]
}

#[test]
fn schedule_builds_allocate_per_peer_not_per_region() {
    let fine = build_allocations(4);
    let coarse = build_allocations(67);
    for (side, ((n, regions), (coarse_n, coarse_regions))) in
        ["sender", "receiver"].into_iter().zip(fine.into_iter().zip(coarse))
    {
        assert_eq!((regions, coarse_regions), (8192, 32), "{side} region counts");
        assert!(n <= 256, "{side}: {regions} regions made {n} allocations");
        assert!(
            n < 2 * coarse_n,
            "{side}: {n} allocations for {regions} regions, {coarse_n} for {coarse_regions}"
        );
    }
}

#[test]
fn template_builds_allocate_no_more_for_finer_blocks() {
    // A pair of regular layouts keeps one run list per axis and peer, so
    // a finer block size, with 256× the regions, allocates no more.
    for (side, ((fine, _), (coarse, _))) in ["sender", "receiver"]
        .into_iter()
        .zip(build_allocations(4).into_iter().zip(build_allocations(67)))
    {
        assert!(fine <= coarse, "{side}: {fine} allocations at block 4, {coarse} at block 67");
    }
}
