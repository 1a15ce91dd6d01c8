//! A counting global allocator: live bytes, their peak, and the number of
//! allocation calls. The counters are statistics and publish no other
//! data, so relaxed atomics are enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the counters
// never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            CALLS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Highest number of live bytes (allocated and not yet freed) since the
/// last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Start a new peak measurement from the current live size, which is
/// returned.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn alloc_calls() -> usize {
    CALLS.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the allocator too (see `main.rs`), and other
    // tests allocate while this one runs, so it asserts bounds on a block
    // far larger than anything they hold.
    const BIG: usize = 64 << 20;

    #[test]
    fn peak_follows_a_large_allocation_and_resets() {
        let before = reset_peak();
        assert!(before < BIG, "the tests hold far less than the block");
        let calls = alloc_calls();
        let block = vec![1u8; BIG];
        assert!(peak_bytes() >= BIG);
        assert!(alloc_calls() > calls);
        drop(block);
        assert!(peak_bytes() >= BIG, "the peak outlives the block");
        reset_peak();
        assert!(
            peak_bytes() < BIG,
            "after a reset the peak restarts from the live size"
        );
    }
}
