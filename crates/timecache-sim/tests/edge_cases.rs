//! Integration tests for simulator edge cases: write-back correctness,
//! directory maintenance and index functions operating inside the full
//! hierarchy.

use timecache_core::TimeCacheConfig;
use timecache_sim::{
    AccessKind, CacheConfig, Hierarchy, HierarchyConfig, IndexFn, Level, LineAddr, SecurityMode,
};

fn small(security: SecurityMode, cores: usize) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::with_cores(cores);
    cfg.l1i = CacheConfig::new(1024, 2, 64);
    cfg.l1d = CacheConfig::new(1024, 2, 64);
    cfg.llc = CacheConfig::new(8192, 4, 64);
    cfg.security = security;
    cfg
}

#[test]
fn dirty_l1_eviction_writes_back_to_llc() {
    let mut h = Hierarchy::new(small(SecurityMode::Baseline, 1)).unwrap();
    // Store to a line, then evict it from the 2-way L1D set with two
    // conflicting loads (stride = L1 set period = 8 sets * 64 B = 512 B).
    h.access(0, 0, AccessKind::Store, 0x0, 0);
    h.access(0, 0, AccessKind::Load, 0x200, 1);
    h.access(0, 0, AccessKind::Load, 0x400, 2);
    assert!(h.l1d(0).lookup(LineAddr::from_addr(0x0, 64)).is_none());
    assert_eq!(h.stats().l1d[0].writebacks, 1);
    // The data survives in the LLC: reload at LLC latency, not DRAM.
    let reload = h.access(0, 0, AccessKind::Load, 0x0, 3);
    assert_eq!(reload.served_by, Level::LLC);
}

#[test]
fn dirty_llc_eviction_writes_back_to_memory() {
    let mut h = Hierarchy::new(small(SecurityMode::Baseline, 1)).unwrap();
    // Dirty a line, push it out of the L1 (write-back marks LLC dirty),
    // then walk enough conflicting lines to evict it from the 4-way LLC
    // set (stride = 32 sets * 64 B = 2 KiB).
    h.access(0, 0, AccessKind::Store, 0x0, 0);
    h.access(0, 0, AccessKind::Load, 0x200, 1);
    h.access(0, 0, AccessKind::Load, 0x400, 2);
    for i in 1..=4u64 {
        h.access(0, 0, AccessKind::Load, i * 0x800, 10 + i);
    }
    assert!(h.llc().lookup(LineAddr::from_addr(0x0, 64)).is_none());
    assert!(h.stats().llc.writebacks >= 1);
}

#[test]
fn clflush_of_dirty_line_counts_writeback() {
    let mut h = Hierarchy::new(small(SecurityMode::Baseline, 1)).unwrap();
    h.access(0, 0, AccessKind::Store, 0x40, 0);
    h.clflush(0x40);
    assert_eq!(h.stats().l1d[0].writebacks, 1);
    assert!(h.l1d(0).lookup(LineAddr::from_addr(0x40, 64)).is_none());
    assert!(h.llc().lookup(LineAddr::from_addr(0x40, 64)).is_none());
}

#[test]
fn store_migration_between_cores_stays_coherent() {
    let mut h = Hierarchy::new(small(SecurityMode::Baseline, 2)).unwrap();
    // Ping-pong a line between two writers.
    for i in 0..6u64 {
        let core = (i % 2) as usize;
        h.access(core, 0, AccessKind::Store, 0x1000, i * 10);
    }
    // Each store after the first invalidates the other core's copy.
    let inval = h.stats().l1d[0].invalidations + h.stats().l1d[1].invalidations;
    assert!(inval >= 5, "invalidations {inval}");
    // Final state: only the last writer holds it.
    let la = LineAddr::from_addr(0x1000, 64);
    assert!(h.l1d(0).lookup(la).is_none());
    assert!(h.l1d(1).lookup(la).is_some());
}

#[test]
fn keyed_llc_index_preserves_correct_caching() {
    let mut cfg = small(SecurityMode::Baseline, 1);
    cfg.llc.index = IndexFn::Keyed { key: 0xFEED };
    let mut h = Hierarchy::new(cfg).unwrap();
    // A working set small enough to be fully resident: second pass must
    // hit everywhere regardless of the randomized placement.
    for i in 0..16u64 {
        h.access(0, 0, AccessKind::Load, i * 64, i);
    }
    let mut hits = 0;
    for i in 0..16u64 {
        let out = h.access(0, 0, AccessKind::Load, i * 64, 100 + i);
        hits += (out.served_by == Level::L1) as u32;
    }
    assert_eq!(hits, 16);
}

#[test]
fn timecache_keeps_smt_and_llc_context_counts_apart() {
    let mut cfg = small(SecurityMode::TimeCache(TimeCacheConfig::default()), 2);
    cfg.smt_per_core = 2;
    let h = Hierarchy::new(cfg).unwrap();
    // L1s carry one s-bit plane per SMT thread; the LLC one per global
    // context.
    assert_eq!(h.l1d(0).timecache().unwrap().num_contexts(), 2);
    assert_eq!(h.llc().timecache().unwrap().num_contexts(), 4);
    assert_eq!(h.llc_ctx(1, 1), 3);
}

#[test]
fn first_access_still_counts_when_llc_visible() {
    // L1 first access with a visible LLC copy is serviced at LLC latency
    // (Section V-A: the lower level answers if its s-bit is set).
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.smt_per_core = 2;
    cfg.security = SecurityMode::TimeCache(TimeCacheConfig::default());
    let mut h = Hierarchy::new(cfg).unwrap();

    // Thread 1 loads (fills L1+LLC for ctx 1); thread 0 of the same core
    // tag-hits the L1 but is invisible there *and* at the LLC -> DRAM.
    h.access(0, 1, AccessKind::Load, 0x9000, 0);
    let spy = h.access(0, 0, AccessKind::Load, 0x9000, 1);
    assert_eq!(spy.served_by, Level::Memory);

    // Pay once; evict from L1 only (two conflicting loads in the 64-set
    // L1): then thread 0 misses L1 but its LLC s-bit is set -> LLC hit.
    let set_stride = 64 * 64;
    h.access(0, 0, AccessKind::Load, 0x9000 + set_stride, 2);
    h.access(0, 0, AccessKind::Load, 0x9000 + 2 * set_stride, 3);
    h.access(0, 0, AccessKind::Load, 0x9000 + 3 * set_stride, 4);
    // 8-way L1: keep pushing to guarantee eviction of 0x9000.
    for i in 4..12u64 {
        h.access(0, 0, AccessKind::Load, 0x9000 + i * set_stride, 4 + i);
    }
    assert!(h.l1d(0).lookup(LineAddr::from_addr(0x9000, 64)).is_none());
    let back = h.access(0, 0, AccessKind::Load, 0x9000, 100);
    assert_eq!(back.served_by, Level::LLC, "LLC s-bit was paid for");
}
