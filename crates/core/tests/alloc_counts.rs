//! Heap allocations of the death-shrink rebind, counted by a global
//! allocator that counts on the calling thread only, so tests running in
//! parallel do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mxn_core::FieldRegistry;
use mxn_dad::{AccessMode, Dad, Extents};

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

#[test]
fn rebind_allocates_per_patch_not_per_element() {
    // A 4 MiB field in 4 row bands; rank 1 dies, so old rank 2 becomes
    // new rank 1 and keeps the third band inside its larger new one.
    let old = Dad::block(Extents::new([1024, 512]), &[4, 1]).unwrap();
    let new = old.shrink(&[0, 2, 3]).unwrap();
    let mut reg = FieldRegistry::new(2);
    let data = reg.register_allocated("f", old, AccessMode::ReadWrite).unwrap();
    data.write().patch_mut(0).1.fill(1.0);
    let before = ALLOCS.with(Cell::get);
    reg.rebind("f", new.clone(), 2, 1).unwrap();
    let n = ALLOCS.with(Cell::get) - before;
    let local = data.read();
    assert_eq!(local.len(), new.local_size(1));
    assert_eq!(*local.get(&[512, 0]).unwrap(), 1.0, "the surviving band was carried over");
    assert!(n <= 64, "rebind of a 4 MiB field made {n} allocations");
}
