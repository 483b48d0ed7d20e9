//! The simulator's access hot path must not allocate: with telemetry
//! disabled every instrumentation site short-circuits on one `Option`
//! branch, and with telemetry enabled all metric handles are resolved at
//! attach time and the event ring is preallocated, so steady-state
//! recording is also allocation-free. Construction allocates too, but a
//! fixed number of times: a TimeCache cache keeps its per-line
//! timestamps in one `Vec<u64>`, whatever the timestamp width.
//!
//! This file contains a single test on purpose: the counting allocator is
//! process-global, and a concurrently running test would perturb the
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use timecache_core::TimeCacheConfig;
use timecache_sim::{AccessKind, Hierarchy, HierarchyConfig, SecurityMode};
use timecache_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn config(timestamp_bits: u8) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.security = SecurityMode::TimeCache(TimeCacheConfig::new(timestamp_bits));
    cfg
}

fn hierarchy(tel: &Telemetry) -> Hierarchy {
    let mut h = Hierarchy::new(config(32)).expect("valid config");
    h.attach_telemetry(tel);
    h
}

/// Heap allocations made by `Hierarchy::new` for the given timestamp width.
fn construction_allocations(timestamp_bits: u8) -> u64 {
    let cfg = config(timestamp_bits);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let h = Hierarchy::new(cfg).expect("valid config");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
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
    assert_eq!(
        construction_allocations(8),
        construction_allocations(32),
        "Hierarchy::new must allocate the same number of times at 8 and 32 timestamp bits"
    );

    // Disabled telemetry: the documented zero-cost guarantee.
    let mut h = hierarchy(&Telemetry::disabled());
    let mut now = 0u64;
    drive(&mut h, &mut now, 1_000); // warm the caches
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    drive(&mut h, &mut now, 10_000);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled telemetry must add zero heap allocations per access"
    );

    // Enabled telemetry: once the metric handles exist and the trace ring
    // has filled, recording is plain stores into preallocated memory.
    let tel = Telemetry::with_trace_capacity(128);
    let mut h = hierarchy(&tel);
    let mut now = 0u64;
    drive(&mut h, &mut now, 1_000); // resolve handles, fill the ring
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    drive(&mut h, &mut now, 10_000);
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "enabled telemetry must be allocation-free in steady state"
    );
}
