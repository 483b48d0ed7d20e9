//! The simulator's access hot path must not allocate. Construction
//! allocates, but a fixed number of times: a TimeCache cache keeps its
//! per-line timestamps in one `Vec<u64>`, whatever the timestamp width,
//! and every cache keeps its tags, metadata bytes and LRU stamps in three
//! `Vec`s. A new per-cache array would show here and in set-up time.
//!
//! The counting allocator counts per thread: the test harness's main
//! thread allocates while a test runs, and a process-wide count picked
//! those allocations up now and then.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use timecache_core::TimeCacheConfig;
use timecache_sim::{AccessKind, Hierarchy, HierarchyConfig, SecurityMode};

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `Hierarchy::new` makes for the 1-core TimeCache
/// config.
const CONSTRUCTION_ALLOCATIONS: u64 = 24;

fn config(timestamp_bits: u8) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.security = SecurityMode::TimeCache(TimeCacheConfig::new(timestamp_bits));
    cfg
}

/// Heap allocations made by `Hierarchy::new` for the given timestamp width.
fn construction_allocations(timestamp_bits: u8) -> u64 {
    let cfg = config(timestamp_bits);
    let before = allocations();
    let h = Hierarchy::new(cfg).expect("valid config");
    let after = allocations();
    drop(h);
    after - before
}

/// A mix of L1 hits, LLC/DRAM misses, and the occasional flush.
fn drive(h: &mut Hierarchy, now: &mut u64, iters: u64) {
    for i in 0..iters {
        *now += 1;
        h.access(0, 0, AccessKind::IFetch, 0x7000_0000 + (i % 8) * 64, *now);
        let addr = 0x1000_0000 + (i % 2048) * 64;
        *now += 1;
        if i % 5 == 0 {
            h.access(0, 0, AccessKind::Store, addr, *now);
        } else {
            h.access(0, 0, AccessKind::Load, addr, *now);
        }
        if i % 97 == 0 {
            h.clflush(addr);
        }
    }
}

#[test]
fn access_hot_path_never_allocates() {
    // Construction: the per-cache Tc store is one allocation, so widening
    // the timestamps adds no allocations.
    let narrow = construction_allocations(8);
    assert_eq!(
        narrow, CONSTRUCTION_ALLOCATIONS,
        "Hierarchy::new must allocate exactly as often as it did"
    );
    assert_eq!(
        narrow,
        construction_allocations(32),
        "Hierarchy::new must allocate the same number of times at 8 and 32 timestamp bits"
    );

    let mut h = Hierarchy::new(config(32)).expect("valid config");
    let mut now = 0u64;
    drive(&mut h, &mut now, 1_000); // warm the caches
    let before = allocations();
    drive(&mut h, &mut now, 10_000);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "an access must make zero heap allocations"
    );
}
