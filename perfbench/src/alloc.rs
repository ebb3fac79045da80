//! The process allocator: the system allocator, switched to
//! `pathcopy_bench::alloc_counter`'s counting allocator while a traced
//! phase runs, so the untraced run pays for no counting at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use pathcopy_bench::alloc_counter::{self, CountingAllocator};

// Only a gate for statistics; it publishes no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);

pub struct GatedAllocator;

// SAFETY: both paths end in `System`: `CountingAllocator` bumps its
// counters and then calls `System` with the same arguments. A block
// obtained through either path is therefore a `System` block, so it may
// be resized or freed through either path whichever way the gate is set
// at that moment, and every `GlobalAlloc` contract is `System`'s own.
unsafe impl GlobalAlloc for GatedAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            // SAFETY: the caller's `alloc` contract is passed through.
            unsafe { CountingAllocator.alloc(layout) }
        } else {
            // SAFETY: as above.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (see the impl comment) with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            // SAFETY: the caller's `realloc` contract is passed through,
            // and `ptr` is a `System` block.
            unsafe { CountingAllocator.realloc(ptr, layout, new_size) }
        } else {
            // SAFETY: as above.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// (allocation calls, bytes requested) counted so far.
pub fn counts() -> (u64, u64) {
    (
        alloc_counter::allocations(),
        alloc_counter::allocated_bytes(),
    )
}
