//! A counting global allocator, so `allocs_per_*` metrics are exact
//! counts rather than estimates.
//!
//! The count is per thread: a measurement reads it before and after on
//! the thread doing the work, and the load threads of a measured
//! window never share a counter cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    // During thread teardown the slot may be gone; an allocation made
    // then belongs to no measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a thread-local integer with no
// destructor and no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a successful alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from a successful alloc above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxing_is_counted_once_on_the_thread_that_does_it() {
        let before = allocations();
        let boxed = std::hint::black_box(Box::new(7u64));
        assert_eq!(allocations() - before, 1);
        drop(boxed);
        let elsewhere = std::thread::spawn(|| {
            let before = allocations();
            drop(std::hint::black_box(vec![1u8; 64]));
            allocations() - before
        })
        .join()
        .unwrap();
        assert_eq!(elsewhere, 1);
    }
}
