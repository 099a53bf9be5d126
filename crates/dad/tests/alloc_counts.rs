//! Heap allocations of the row walks, counted by a global allocator that
//! counts on the calling thread only, so tests running in parallel do not
//! disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mxn_dad::{Dad, Extents, LocalArray};

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
