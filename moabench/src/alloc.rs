//! Heap accounting by counting, not by resident-set size.
//!
//! RSS moves with the kernel's page reclaim and the allocator's arenas;
//! the bytes the program asked for do not. `moabench` installs
//! [`Counting`] as its global allocator and reads live and peak bytes
//! from it. The two counters are relaxed atomics: they publish no other
//! data.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live and high-water byte counters.
pub struct Counters {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl Counters {
    pub const fn new() -> Counters {
        Counters {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    pub fn add(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Most allocations happen below the mark: one load, no write.
        if live > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
    }

    pub fn sub(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest `live` since the last [`Counters::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark at the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }
}

/// The process-wide counters behind [`Counting`].
pub static HEAP: Counters = Counters::new();

/// The system allocator with every request counted into [`HEAP`].
pub struct Counting;

// SAFETY: every call forwards to `System` with the caller's own layout
// and pointer; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                HEAP.add(new_size - layout.size());
            } else {
                HEAP.sub(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::Counters;

    #[test]
    fn live_and_peak_follow_adds_and_subs() {
        let c = Counters::new();
        c.add(100);
        c.add(50);
        assert_eq!((c.live(), c.peak()), (150, 150));
        c.sub(120);
        assert_eq!((c.live(), c.peak()), (30, 150));
        c.add(60);
        assert_eq!((c.live(), c.peak()), (90, 150));
        c.reset_peak();
        assert_eq!(c.peak(), 90);
        c.add(11);
        assert_eq!((c.live(), c.peak()), (101, 101));
    }
}
