//! Telemetry / `CacheStats` agreement: the counters `Hierarchy::publish_stats`
//! publishes must exactly equal the simulator's own statistics for a
//! deterministic two-process run, across a `reset_stats` too.

use timecache_core::TimeCacheConfig;
use timecache_sim::{AccessKind, CacheStats, Hierarchy, HierarchyConfig, SecurityMode};
use timecache_telemetry::Telemetry;

/// Two "processes" time-sliced on hardware context (0,0): each has its own
/// code and data regions, and the context switch goes through the real
/// snapshot save/restore path, so first-access misses, comparator sweeps,
/// and evictions all occur.
fn run_two_process_workload(h: &mut Hierarchy) {
    let mut snaps = [None, None];
    let mut now = 0u64;
    let mut cur = 0usize;
    for slice in 0..40u64 {
        let base = 0x1000_0000u64 * (cur as u64 + 1);
        for i in 0..200u64 {
            // Both processes execute the same shared library text — the
            // canonical source of first-access misses on switch-in.
            now += 1;
            h.access(0, 0, AccessKind::IFetch, 0x7000_0000 + (i % 16) * 64, now);
            let addr = if i % 7 == 0 {
                0x9000_0000 + (i % 32) * 64 // shared data segment
            } else {
                base + 0x10_0000 + ((slice * 200 + i) % 1024) * 64
            };
            now += 1;
            if i % 3 == 0 {
                h.access(0, 0, AccessKind::Store, addr, now);
            } else {
                h.access(0, 0, AccessKind::Load, addr, now);
            }
            if i % 50 == 17 {
                h.clflush(addr);
            }
        }
        now += 1;
        snaps[cur] = Some(h.save_context(0, 0, now));
        cur ^= 1;
        h.restore_context(0, 0, snaps[cur].as_ref(), now);
    }
}

#[test]
fn telemetry_counters_equal_cache_stats() {
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.security = SecurityMode::TimeCache(TimeCacheConfig::default());
    let tel = Telemetry::enabled();
    let mut h = Hierarchy::new(cfg).expect("valid config");
    h.attach_telemetry(&tel);
    let reg = tel.registry().expect("telemetry is enabled");
    let get = |cache: &str, outcome: &str| {
        reg.counter_value(
            "sim_cache_accesses_total",
            &[("cache", cache), ("outcome", outcome)],
        )
        .unwrap_or(0)
    };
    let event = |cache: &str, event: &str| {
        reg.counter_value(
            "sim_cache_line_events_total",
            &[("cache", cache), ("event", event)],
        )
        .unwrap_or(0)
    };
    let levels = |h: &Hierarchy| {
        let stats = h.stats();
        [
            ("l1i", stats.l1i_total()),
            ("l1d", stats.l1d_total()),
            ("llc", stats.llc),
        ]
    };

    // Warm-up phase, then a reset: `reset_stats` publishes the warm-up
    // counts before clearing them.
    run_two_process_workload(&mut h);
    let warm = levels(&h);
    h.reset_stats();
    run_two_process_workload(&mut h);
    for (label, cs) in warm {
        assert_eq!(get(label, "hit"), cs.hits, "{label} hits before publish");
    }
    let measured = levels(&h);
    h.publish_stats();

    let mut l1_accesses = 0;
    for ((label, w), (_, m)) in warm.into_iter().zip(measured) {
        let cs: CacheStats = w + m;
        if label != "llc" {
            l1_accesses += cs.accesses;
        }
        assert!(m.accesses > 0, "{label} saw no traffic");
        assert_eq!(get(label, "hit"), cs.hits, "{label} hits");
        assert_eq!(
            get(label, "first_access"),
            cs.first_access,
            "{label} first-access misses"
        );
        assert_eq!(get(label, "miss"), cs.misses, "{label} true misses");
        assert_eq!(
            get(label, "hit") + get(label, "first_access") + get(label, "miss"),
            cs.accesses,
            "{label} outcome counters must partition the accesses"
        );
        assert_eq!(event(label, "eviction"), cs.evictions, "{label} evictions");
        assert_eq!(
            event(label, "invalidation"),
            cs.invalidations,
            "{label} invalidations"
        );
        assert_eq!(
            event(label, "writeback"),
            cs.writebacks,
            "{label} write-backs"
        );
    }

    // The switch happened, so the mechanism's miss class is exercised.
    let stats = h.stats();
    assert!(
        stats.total_first_access() > 0,
        "workload must provoke first-access misses"
    );

    // Exactly one latency observation per L1-level access, in both phases.
    let latency_observations: u64 = ["l1", "llc", "remote_l1", "memory"]
        .iter()
        .map(|sb| {
            reg.histogram(
                "sim_access_latency_cycles",
                "Observed access latency in cycles by servicing component.",
                &[("served_by", sb)],
            )
            .count()
        })
        .sum();
    assert_eq!(latency_observations, l1_accesses);
}

#[test]
fn baseline_run_has_no_first_access_counters() {
    let cfg = HierarchyConfig::with_cores(1);
    let tel = Telemetry::enabled();
    let mut h = Hierarchy::new(cfg).expect("valid config");
    h.attach_telemetry(&tel);

    run_two_process_workload(&mut h);
    h.publish_stats();

    let reg = tel.registry().expect("telemetry is enabled");
    for cache in ["l1i", "l1d", "llc"] {
        assert_eq!(
            reg.counter_value(
                "sim_cache_accesses_total",
                &[("cache", cache), ("outcome", "first_access")],
            ),
            Some(0),
            "{cache} must have zero first-access misses in baseline mode"
        );
    }
}
