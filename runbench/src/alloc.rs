//! A counting global allocator. It counts only while armed, so the
//! timed run pays one relaxed load per allocation and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Install with `#[global_allocator]`; forwards to [`System`].
pub struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic that publishes no
// other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts counting (process-wide, every thread) from zero.
pub fn arm() {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
}

/// Stops counting; returns the allocations seen since [`arm`].
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::Relaxed)
}
