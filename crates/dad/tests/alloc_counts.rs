//! Heap allocations of the row walks and of the region geometry behind
//! schedule builds, counted by a global allocator that counts on the
//! calling thread only, so tests running in parallel do not disturb each
//! other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mxn_dad::{AxisDist, Dad, Extents, LocalArray, Region, Template};

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

/// A 1024×512 field in 2 row bands: one shard is 262 144 elements.
fn bulk_shard() -> Dad {
    Dad::block(Extents::new([1024, 512]), &[2, 1]).unwrap()
}

#[test]
fn from_fn_allocates_per_patch_not_per_element() {
    let dad = bulk_shard();
    let (n, local) =
        allocations(|| LocalArray::from_fn(&dad, 0, |idx| (idx[0] * 512 + idx[1]) as f64));
    assert_eq!(local.len(), 512 * 512);
    assert_eq!(*local.get(&[511, 511]).unwrap(), (511 * 512 + 511) as f64);
    assert!(n <= 64, "from_fn on one shard made {n} allocations");
}

#[test]
fn region_iter_allocates_once_per_index() {
    let dad = bulk_shard();
    let region = dad.patches(1).pop().unwrap();
    let (n, walked) = allocations(|| region.iter().count());
    assert_eq!(walked, region.len());
    assert!(n <= region.len() + 8, "{n} allocations for {walked} indices");
}

/// A 512×512 field in block-cyclic row (`rows`) or column blocks of
/// `block` over 2 ranks: the regrid workload's layouts.
fn regrid(block: usize, rows: bool) -> Dad {
    let cyclic = AxisDist::BlockCyclic { block, nprocs: 2 };
    let axes =
        if rows { vec![cyclic, AxisDist::Collapsed] } else { vec![AxisDist::Collapsed, cyclic] };
    Dad::regular(Template::new(Extents::new([512, 512]), axes).unwrap())
}

#[test]
fn region_intersection_never_allocates() {
    let (a, b, c) =
        (Region::new([0, 0], [4, 4]), Region::new([2, 3], [6, 8]), Region::new([4, 0], [5, 4]));
    let (n, hit) = allocations(|| a.intersect(&b));
    assert_eq!(hit, Some(Region::new([2, 3], [4, 4])));
    assert_eq!(n, 0, "a hit made {n} allocations");
    let (n, miss) = allocations(|| a.intersect(&c));
    assert_eq!(miss, None);
    assert_eq!(n, 0, "a miss made {n} allocations");
}

#[test]
fn patches_allocate_per_call_not_per_patch() {
    let dad = regrid(4, true);
    let (n, patches) = allocations(|| dad.patches(0));
    assert_eq!(patches.len(), 64);
    assert_eq!(patches[1], Region::new([8, 0], [12, 512]));
    assert!(n <= 2, "64 patches made {n} allocations");
}

#[test]
fn patch_queries_allocate_per_axis_and_peer_not_per_region() {
    let (src, dst) = (regrid(4, true), regrid(4, false));
    let index = dst.overlap_index();
    let (n, regions) = allocations(|| {
        let found = index.query_axes(&src, 0).unwrap();
        (0..found.peers.len()).map(|i| found.regions(i).len()).sum::<usize>()
    });
    assert_eq!(regions, 64 * 128);
    assert!(n <= 64, "8 192 regions made {n} allocations");
}
