//! `Trace::replay_hierarchy`'s contract: replaying a recorded trace yields
//! exactly the observables of a hand-written loop of `Hierarchy::access`
//! and `clflush` calls — the `AccessOutcome` sequence, the final clock and
//! the hierarchy statistics. Four replays fanned across the sweep engine
//! merge their telemetry into access counters equal to four times the
//! hand-written loop's, whether they run on the caller's thread
//! (`--jobs 1`) or on four workers.

use timecache_bench::{sweep, telemetry};
use timecache_core::TimeCacheConfig;
use timecache_os::{DataKind, Op, Trace};
use timecache_sim::{
    AccessKind, AccessOutcome, Hierarchy, HierarchyConfig, HierarchyStats, SecurityMode,
};

/// A deterministic ~600-op trace mixing tight loops (L1 hits), a working
/// set beyond the L1 (LLC hits), a streaming region (DRAM misses), and
/// periodic flushes, so the replay exercises every latency class.
fn mixed_trace() -> Trace {
    let mut t = Trace::new();
    let mut rng = 0x9e37_79b9_u64;
    let mut step = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for i in 0..200u64 {
        let pc = 0x1000 + (i % 32) * 4;
        let r = step();
        let addr = match r % 4 {
            0 => 0x4000 + (r % 8) * 64,      // hot lines: L1 hits
            1 => 0x10_0000 + (r % 512) * 64, // beyond L1: LLC traffic
            2 => 0x4000_0000 + i * 64,       // streaming: DRAM misses
            _ => 0x4000 + (r % 64) * 64,     // warm set
        };
        let kind = if r % 3 == 0 {
            DataKind::Store
        } else {
            DataKind::Load
        };
        t.push(Op::Instr {
            pc,
            data: Some((kind, addr)),
        });
        if i % 37 == 36 {
            t.push(Op::Flush {
                pc: pc + 4,
                target: 0x4000 + (r % 8) * 64,
            });
        }
        if i % 51 == 50 {
            t.push(Op::Yield { pc: pc + 4 });
        }
    }
    t.push(Op::Done);
    t
}

fn hierarchy() -> Hierarchy {
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.security = SecurityMode::TimeCache(TimeCacheConfig::default());
    Hierarchy::new(cfg).expect("valid config")
}

/// The per-access reference: the same op stream through
/// `Hierarchy::access` one call at a time, with `replay_hierarchy`'s
/// serial clock rule (`now += latency`; clflush adds its own latency).
fn replay_per_access(trace: &Trace) -> (Vec<AccessOutcome>, u64, HierarchyStats) {
    let mut h = hierarchy();
    let mut now = 1u64;
    let mut outs = Vec::new();
    let one = |h: &mut Hierarchy, now: &mut u64, kind, addr| {
        let o = h.access(0, 0, kind, addr, *now);
        *now += o.latency;
        o
    };
    for op in trace.ops() {
        match *op {
            Op::Instr { pc, data } => {
                outs.push(one(&mut h, &mut now, AccessKind::IFetch, pc));
                if let Some((kind, addr)) = data {
                    let kind = match kind {
                        DataKind::Load => AccessKind::Load,
                        DataKind::Store => AccessKind::Store,
                    };
                    outs.push(one(&mut h, &mut now, kind, addr));
                }
            }
            Op::Flush { pc, target } => {
                outs.push(one(&mut h, &mut now, AccessKind::IFetch, pc));
                now += h.clflush(target);
            }
            Op::Yield { pc } => {
                outs.push(one(&mut h, &mut now, AccessKind::IFetch, pc));
            }
            Op::Done => break,
        }
    }
    let stats = h.stats();
    (outs, now, stats)
}

/// One `replay_hierarchy` call on an instrumented hierarchy; returns observables
/// plus the worker-local telemetry's view of the access counters.
fn replay_batched(trace: &Trace) -> (Vec<AccessOutcome>, u64, HierarchyStats) {
    let mut h = hierarchy();
    h.attach_telemetry(&telemetry::current());
    let (outs, end) = trace.replay_hierarchy(&mut h, 0, 0, 1);
    h.publish_stats();
    let stats = h.stats();
    (outs, end, stats)
}

fn access_counter(tel: &timecache_telemetry::Telemetry, cache: &str, outcome: &str) -> u64 {
    tel.registry()
        .expect("telemetry enabled")
        .counter_value(
            "sim_cache_accesses_total",
            &[("cache", cache), ("outcome", outcome)],
        )
        .unwrap_or(0)
}

#[test]
fn batched_replay_matches_per_access_loop_serial_and_parallel() {
    let trace = mixed_trace();
    let (ref_outs, ref_end, ref_stats) = replay_per_access(&trace);
    assert!(ref_outs.len() > 200, "trace too small to be interesting");

    // An instrumented per-access run gives the reference telemetry totals.
    let ref_tel = telemetry::enable();
    {
        let mut h = hierarchy();
        h.attach_telemetry(&telemetry::current());
        let mut now = 1u64;
        for op in trace.ops() {
            match *op {
                Op::Instr { pc, data } => {
                    now += h.access(0, 0, AccessKind::IFetch, pc, now).latency;
                    if let Some((kind, addr)) = data {
                        let kind = match kind {
                            DataKind::Load => AccessKind::Load,
                            DataKind::Store => AccessKind::Store,
                        };
                        now += h.access(0, 0, kind, addr, now).latency;
                    }
                }
                Op::Flush { pc, target } => {
                    now += h.access(0, 0, AccessKind::IFetch, pc, now).latency;
                    now += h.clflush(target);
                }
                Op::Yield { pc } => {
                    now += h.access(0, 0, AccessKind::IFetch, pc, now).latency;
                }
                Op::Done => break,
            }
        }
        h.publish_stats();
    }
    telemetry::disable();

    for jobs in [1usize, 4] {
        // Four independent replays of the same trace fanned across the
        // sweep engine; each worker records into its own telemetry handle,
        // merged into `tel` at join.
        let tel = telemetry::enable();
        let runs = sweep::run(jobs, 4, |_| replay_batched(&trace));
        telemetry::disable();

        for (outs, end, stats) in &runs {
            assert_eq!(
                outs, &ref_outs,
                "outcome sequence diverged at --jobs {jobs}"
            );
            assert_eq!(*end, ref_end, "final clock diverged at --jobs {jobs}");
            assert_eq!(stats, &ref_stats, "stats diverged at --jobs {jobs}");
        }

        // Merged telemetry = 4x the single per-access run's counters.
        for (cache, outcome) in [
            ("l1i", "hit"),
            ("l1d", "hit"),
            ("l1d", "miss"),
            ("llc", "hit"),
            ("llc", "miss"),
        ] {
            let reference = access_counter(&ref_tel, cache, outcome);
            let merged = access_counter(&tel, cache, outcome);
            assert_eq!(
                merged,
                4 * reference,
                "telemetry counter {cache}/{outcome} diverged at --jobs {jobs}"
            );
        }
        assert!(
            access_counter(&ref_tel, "l1d", "miss") > 0,
            "trace never missed the L1D; counters are vacuous"
        );
    }
}
