//! Heap allocations of a schedule build and of a receive, counted by a
//! global allocator that counts on the calling thread only, so tests
//! running in parallel do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Template};
use mxn_runtime::Universe;
use mxn_schedule::{Redist, RegionSchedule, ScheduleCache};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes asked for through `alloc_zeroed`.
    static ZEROED: Cell<usize> = const { Cell::new(0) };
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
        let _ = ZEROED.try_with(|c| c.set(c.get() + layout.size()));
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

/// The bytes `f` asks for zeroed on this thread.
fn zeroed(f: impl FnOnce()) -> usize {
    let before = ZEROED.with(Cell::get);
    f();
    ZEROED.with(Cell::get) - before
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

#[test]
fn a_cached_receive_builds_its_storage_without_zero_filling_it() {
    // Rank 0 of the receiving side owns 64 column blocks of 512 × 4.
    let (src, dst) = regrid_pair(4);
    let patches = dst.patches(0).len();
    assert_eq!(patches, 64);
    Universe::run(&[2, 2], |_, ctx| {
        let rank = ctx.comm.rank();
        let cache = ScheduleCache::new();
        let redist = Redist::between(&src, &dst).cache(&cache);
        let value = |idx: &[usize]| (idx[0] * 512 + idx[1]) as f64;
        // The first step builds the schedule; the second is measured.
        for step in 0..2 {
            if ctx.program == 0 {
                redist
                    .send(ctx.intercomm(1), &LocalArray::from_fn(&src, rank, value), step)
                    .unwrap();
                continue;
            }
            let mut got = None;
            let mut n = 0;
            let bytes = zeroed(|| {
                (n, got) =
                    allocations(|| Some(redist.recv::<f64>(ctx.intercomm(0), step).unwrap()));
            });
            let got = got.unwrap();
            assert_eq!(got, LocalArray::from_fn(&dst, rank, value), "step {step}");
            if step == 1 && rank == 0 {
                assert_eq!(bytes, 0, "a landed receive zero-fills nothing");
                // One per patch, and a fixed few: the message and patch
                // lists and two merged piece lists per axis.
                assert!(
                    (patches..=patches + 12).contains(&n),
                    "{n} allocations for {patches} destination patches"
                );
            }
        }
    });
}
