//! Memory deduplication scenario: the paper argues TimeCache lets system
//! operators deploy page deduplication (KSM, container layer sharing,
//! fork/COW) without opening a reuse side channel.
//!
//! ```text
//! cargo run --release --example dedup_sharing
//! ```
//!
//! Two "tenants" run the same application image (same binary text, same
//! deduplicated read-only data). A third party mounts a flush+reload probe
//! on one of the deduplicated lines to watch tenant activity. We measure
//! (a) the performance cost TimeCache adds to the tenants and (b) whether
//! the probe learns anything.

use timecache::attacks::analysis::Threshold;
use timecache::attacks::flush_reload::{summarize, FlushReloadAttacker};
use timecache::core::TimeCacheConfig;
use timecache::os::{System, SystemConfig};
use timecache::sim::SecurityMode;
use timecache::workloads::layout;
use timecache::workloads::synthetic::{SyntheticParams, SyntheticWorkload};

fn tenant(instance: usize) -> SyntheticWorkload {
    let params = SyntheticParams {
        name: format!("tenant-{instance}"),
        // Healthy reuse of the deduplicated segment.
        shared_data_frac: 0.3,
        shared_data_bytes: 1 << 20,
        fresh_line_per_kinstr: 1.0,
        seed: 7 + instance as u64,
        ..SyntheticParams::default()
    };
    // Same bench id: both tenants run the same image (shared text).
    SyntheticWorkload::new(params, 42, instance)
}

fn run(security: SecurityMode) -> (u64, u64, u64) {
    let mut cfg = SystemConfig::default();
    cfg.hierarchy.security = security;
    cfg.quantum_cycles = 500_000;
    let mut sys = System::new(cfg).expect("valid config");

    let lat = sys.config().hierarchy.latencies;
    // The spy probes 8 deduplicated lines.
    let targets: Vec<u64> = (0..8)
        .map(|i| layout::SHARED_SEGMENT + i * layout::LINE)
        .collect();
    // The tenants' churn demotes probed lines from the L1 to the LLC, so
    // the spy distinguishes "cached anywhere" (LLC latency) from DRAM.
    let (spy, log) = FlushReloadAttacker::new(targets, Threshold::cross_core(&lat), 50);

    // Warm-up: let both tenants pay their one-time first-touch cost for
    // the deduplicated pages (the steady state is what an operator would
    // experience), then measure a longer window with the spy active.
    let a = sys.spawn(Box::new(tenant(0)), 0, 0, Some(500_000));
    let b = sys.spawn(Box::new(tenant(1)), 0, 0, Some(500_000));
    sys.run(u64::MAX);
    let warm_cycles = sys.total_cycles();

    sys.spawn(Box::new(spy), 0, 0, None);
    sys.try_extend_target(a, 2_000_000)
        .expect("tenant a is capped");
    sys.try_extend_target(b, 2_000_000)
        .expect("tenant b is capped");
    let report = sys.run(u64::MAX);
    let summary = summarize(&log);
    (
        report.total_cycles - warm_cycles,
        summary.hits,
        summary.probes,
    )
}

fn main() {
    let (base_cycles, base_hits, base_probes) = run(SecurityMode::Baseline);
    let (tc_cycles, tc_hits, tc_probes) = run(SecurityMode::TimeCache(TimeCacheConfig::default()));

    println!("two tenants on one deduplicated image + a flush+reload spy:");
    println!("  baseline : spy sees {base_hits}/{base_probes} hits  (tenant activity exposed)");
    println!("  timecache: spy sees {tc_hits}/{tc_probes} hits");
    println!(
        "  tenant cost of the defense: {:.2}% extra cycles",
        (tc_cycles as f64 / base_cycles as f64 - 1.0) * 100.0
    );
    println!();
    if tc_hits == 0 && base_hits > 0 {
        println!("verdict: deduplication is safe to deploy under TimeCache — the spy");
        println!("learns nothing while tenants keep the single-copy memory savings.");
    } else {
        println!("verdict: UNEXPECTED — see the numbers above.");
    }
}
