//! A counting global allocator. Every call that hands out memory
//! (`alloc`, `alloc_zeroed`, `realloc`) increments one counter per
//! layer: the layer whose probe span is innermost when the call is made
//! (see `probe`), or `Layer::Outside` when no span is open. Untraced runs
//! never open a span, so everything lands in `Outside` and the sum is the
//! workload's allocation count.

use crate::probe::{Layer, LAYERS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

// Relaxed everywhere: these are statistics and publish no other data.
static CURRENT: AtomicUsize = AtomicUsize::new(Layer::Outside as usize);
static COUNTS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];

pub struct Counting;

#[inline]
fn count() {
    COUNTS[CURRENT.load(Relaxed)].fetch_add(1, Relaxed);
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged, so the caller's guarantees carry over; the only
// extra work is a relaxed atomic increment, which neither allocates nor
// touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received (see the impl comment).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Charges later allocations to `layer`.
#[inline]
pub fn set_layer(layer: Layer) {
    CURRENT.store(layer as usize, Relaxed);
}

/// Allocations charged to each layer so far, indexed by `Layer`.
pub fn snapshot() -> [u64; LAYERS] {
    std::array::from_fn(|i| COUNTS[i].load(Relaxed))
}
