//! Counting global allocator.
//!
//! Appendix B blames the throughput decline at high core counts on the
//! (Java) memory allocator. The Rust analog: path copying allocates
//! `O(log N)` nodes per update attempt — failed attempts included — so
//! allocation pressure grows with both throughput *and* the retry rate.
//! Benchmark binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pathcopy_bench::alloc_counter::CountingAllocator =
//!     pathcopy_bench::alloc_counter::CountingAllocator;
//! ```
//!
//! and report `allocations()` / `allocated_bytes()` per operation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts calls and bytes.
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation calls since process start (or the last [`reset`]).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Total bytes requested since process start (or the last [`reset`]).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Relaxed)
}

/// Total deallocation calls.
pub fn deallocations() -> u64 {
    DEALLOCATIONS.load(Relaxed)
}

/// Zeroes all counters (between benchmark phases).
pub fn reset() {
    ALLOCATIONS.store(0, Relaxed);
    ALLOCATED_BYTES.store(0, Relaxed);
    DEALLOCATIONS.store(0, Relaxed);
}

/// Runs `f` and returns `(result, allocations during f)`. Only meaningful
/// in single-threaded sections (counters are process-global).
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocations();
    let r = f();
    (r, allocations() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the counting allocator is only *installed* in benchmark
    // binaries; in unit tests these functions exercise the counter
    // plumbing, not live interception.

    /// The counters are process-global and the test harness runs tests
    /// in parallel, so every test that resets or bumps them holds this.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_move_and_reset() {
        let _counters = exclusive();
        reset();
        ALLOCATIONS.fetch_add(3, Relaxed);
        ALLOCATED_BYTES.fetch_add(100, Relaxed);
        assert_eq!(allocations(), 3);
        assert_eq!(allocated_bytes(), 100);
        reset();
        assert_eq!(allocations(), 0);
        assert_eq!(allocated_bytes(), 0);
        assert_eq!(deallocations(), 0);
    }

    #[test]
    fn counting_reports_delta() {
        let _counters = exclusive();
        reset();
        let (value, allocs) = counting(|| {
            ALLOCATIONS.fetch_add(5, Relaxed);
            42
        });
        assert_eq!(value, 42);
        assert_eq!(allocs, 5);
    }
}
