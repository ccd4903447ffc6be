//! A counting global allocator (std only) for the allocation-budget
//! tests. A test binary that declares `mod counting;` counts every heap
//! allocation it makes, so each such binary holds one test: no other
//! test's allocations may land in its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every call that hands out memory (`alloc`, `alloc_zeroed`,
/// `realloc`), then forwards to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged, so the caller's guarantees carry over; the only
// extra work is a relaxed atomic increment, which neither allocates nor
// touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap allocations the process has made so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}
