//! Allocation regression test for the run loop.
//!
//! A run window allocates a fixed set of per-session buffers when it
//! opens (the ROB ring, the ready rings, the calendar); stepping it
//! must not allocate per op. A counting global allocator checks this
//! two ways on a warm core:
//!
//! * on a cache-resident stream (no L2 miss, so no MSHR drain) a long
//!   window performs exactly as many allocations as a short one;
//! * on miss-heavy streams, where each MSHR drain may allocate a
//!   transient batch, the peak of live heap bytes during a long window
//!   is no higher than during a short one — nothing accumulates.

use padlock_cpu::{
    Core, Hierarchy, HierarchyConfig, InsecureBackend, PipelineConfig, StrideWorkload,
};
use std::alloc::{GlobalAlloc, Layout, System};

/// Per-thread `(allocations, live bytes, peak live bytes)`, so tests
/// running concurrently in this binary do not see each other's heap
/// traffic.
type Tally = (u64, isize, isize);

thread_local! {
    // lint: safety: thread-local, so each Cell is touched by its own thread only
    static TALLY: std::cell::Cell<Tally> = const { std::cell::Cell::new((0, 0, 0)) };
}

/// Applies one heap event to the current thread's tally. `try_with`
/// skips events after the thread's locals are torn down.
fn record(allocs: u64, bytes: isize) {
    let _ = TALLY.try_with(|t| {
        let (n, live, peak) = t.get();
        let live = live + bytes;
        t.set((n + allocs, live, peak.max(live)));
    });
}

/// The system allocator plus per-thread counting.
struct Counting;

// lint: safety: every method forwards to System with the caller's own arguments; the tally is a thread-local Cell
unsafe impl GlobalAlloc for Counting {
    // lint: safety: forwards to System.alloc under the same contract
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        // lint: safety: the caller upholds GlobalAlloc::alloc's contract
        unsafe { System.alloc(layout) }
    }

    // lint: safety: forwards to System.dealloc under the same contract
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as isize));
        // lint: safety: ptr came from this allocator (System) with this layout
        unsafe { System.dealloc(ptr, layout) }
    }

    // lint: safety: forwards to System.realloc under the same contract
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as isize - layout.size() as isize);
        // lint: safety: ptr came from this allocator (System) with this layout
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns the allocations it made and its peak live heap
/// bytes above the live bytes at entry.
fn measure(f: impl FnOnce()) -> (u64, isize) {
    let (_, start, _) = TALLY.get();
    TALLY.set((0, start, start));
    f();
    let (n, _, peak) = TALLY.get();
    (n, peak - start)
}

const SHORT: u64 = 20_000;
const LONG: u64 = 200_000;

#[test]
fn cache_resident_windows_allocate_a_fixed_amount() {
    // 4KB of strided loads and stores with a serial dependence chain
    // and branches: once warm, every access hits the L1.
    let mut core = Core::new(
        PipelineConfig::paper_default(),
        InsecureBackend::new(100, 8),
    );
    let mut w = StrideWorkload::new(4096, 64, 0.25);
    core.run(&mut w, SHORT);
    let (short, _) = measure(|| {
        core.run(&mut w, SHORT);
    });
    let (long, _) = measure(|| {
        core.run(&mut w, LONG);
    });
    assert!(short > 0, "a window allocates its session buffers");
    assert_eq!(
        long, short,
        "a {LONG}-op window allocated more than a {SHORT}-op one"
    );
}

#[test]
fn miss_heavy_windows_hold_no_growing_heap() {
    for (rob_size, mshrs, mem_fraction) in [(16, 1, 1.0), (100, 8, 0.3), (2048, 8, 0.5)] {
        let pipeline = PipelineConfig {
            rob_size,
            ..PipelineConfig::paper_default()
        };
        let hierarchy = HierarchyConfig {
            l2_mshrs: mshrs,
            ..HierarchyConfig::paper_default()
        };
        let mut core = Core::with_hierarchy(
            pipeline,
            Hierarchy::new(hierarchy, InsecureBackend::new(100, 8)),
        );
        let mut w = StrideWorkload::new(64 << 20, 128, mem_fraction);
        core.run(&mut w, SHORT);
        let (_, short) = measure(|| {
            core.run(&mut w, SHORT);
        });
        let (_, long) = measure(|| {
            core.run(&mut w, LONG);
        });
        assert!(
            long <= short,
            "rob={rob_size} mshrs={mshrs}: peak live heap grew from {short} B \
             ({SHORT} ops) to {long} B ({LONG} ops)"
        );
    }
}
