//! Allocation-counting shim over the system allocator, the same pattern
//! as `index_oc_bench`: `LIVE` tracks heap bytes currently held, `PEAK`
//! the high-water mark since the last [`Peak::start`]. It counts payload
//! bytes exactly (no allocator slack, no page rounding), so it reads
//! below RSS but ranks runs of the same program fairly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters are statistics that publish no other data, so
// `Relaxed` ordering suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let size = layout.size() as u64;
            let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let (old, new) = (layout.size() as u64, new_size as u64);
            if new >= old {
                let live = LIVE.fetch_add(new - old, Ordering::Relaxed) + (new - old);
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A high-water measurement window: bytes allocated above what was live
/// when the window opened.
#[derive(Debug, Clone, Copy)]
pub struct Peak {
    live_at_start: u64,
}

impl Peak {
    /// Restart the high-water mark at the current live footprint.
    pub fn start() -> Peak {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        Peak { live_at_start: live }
    }

    /// Peak bytes since [`Peak::start`], net of what was already live.
    pub fn bytes(&self) -> u64 {
        PEAK.load(Ordering::Relaxed).saturating_sub(self.live_at_start)
    }
}
