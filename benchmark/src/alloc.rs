//! A global allocator that counts calls only while the traced replay asks
//! it to: the gated run pays one relaxed load per allocation, not the two
//! contended atomic adds of an always-on counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct SwitchedCounter {
    on: AtomicBool,
    calls: AtomicU64,
}

impl SwitchedCounter {
    pub const fn new() -> SwitchedCounter {
        SwitchedCounter {
            on: AtomicBool::new(false),
            calls: AtomicU64::new(0),
        }
    }

    pub fn switch(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// `alloc` and `realloc` calls made while switched on.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn note(&self) {
        if self.on.load(Ordering::Relaxed) {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method delegates to `System` with its arguments unchanged,
// so `System`'s own contract is what callers get; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for SwitchedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
pub static ALLOCATIONS: SwitchedCounter = SwitchedCounter::new();

/// Pin glibc malloc's thresholds for the life of the process.
///
/// Left to itself, glibc adjusts its mmap and trim thresholds from the
/// sizes it has seen freed, and whether the top of the heap is then given
/// back to the kernel and faulted in again on every multi-megabyte block
/// and frame buffer depends on which chunks happen to sit at the top. A
/// deployment lands in one regime or the other for its whole life, 25 %
/// apart in samples/s on the block-sized workloads, which no bound could
/// absorb. Fixed thresholds keep every run in the regime where freed
/// buffers stay mapped: serve multi-megabyte requests from the heap, and
/// never trim it.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        // From glibc's <malloc.h>.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        unsafe extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` takes two integers by value and only sets
        // allocator parameters; it is called once, before any other thread
        // exists. The std runtime on this target links the C library that
        // defines it.
        unsafe {
            // 32 MiB is the largest mmap threshold glibc accepts.
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
        }
    }
}
