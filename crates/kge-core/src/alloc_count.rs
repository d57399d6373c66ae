//! Counting global allocator (feature `alloc-count`).
//!
//! Wraps the system allocator and counts every `alloc`/`realloc` call so
//! tests and benches can assert that the steady-state training loop
//! performs zero heap allocations after warm-up. A binary opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;
//! ```
//!
//! The counters are process-global atomics; [`snapshot`] + [`since`]
//! bracket a region of interest. Because they are global, a measuring
//! test holds [`exclusive`] for its whole body, so two tests of one
//! binary (which libtest runs in parallel) never count each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// System allocator wrapper that counts allocation events.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth realloc is an allocation event for our purposes: the
        // steady-state guarantee is "no heap traffic at all".
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub deallocs: u64,
    pub bytes: u64,
}

/// Read the current counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::SeqCst),
        deallocs: DEALLOCS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
    }
}

/// Allocation events (allocs + growth reallocs) since `start`.
pub fn since(start: AllocSnapshot) -> AllocSnapshot {
    let now = snapshot();
    AllocSnapshot {
        allocs: now.allocs - start.allocs,
        deallocs: now.deallocs - start.deallocs,
        bytes: now.bytes - start.bytes,
    }
}

/// Process-wide exclusive guard for allocation measurement. Take it first
/// in every test that brackets a region with [`snapshot`]/[`since`] and
/// hold it to the end of the test: measured regions of tests in the same
/// binary then never overlap. A test that panicked while holding the
/// guard does not poison it for the others.
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}
