//! The differential campaign the `oracle-differential` CI job scales up:
//! thousands of fixed-seed random traces with zero divergences, plus
//! mutation checks proving that a deliberately introduced s-bit bug is
//! caught *and* shrunk to a tiny trace. The generated traces run on tiny
//! 2-way caches, so a last group of tests replays seeded event streams on
//! the experiments' associativity (8-way L1s over a 16-way LLC).

use timecache_core::{FastRng, Fnv1a, TimeCacheConfig};
use timecache_oracle::{generate, replay, replay_events, run_random, BugKind, Event, TraceDoc};
use timecache_sim::{
    AccessKind, CacheConfig, Hierarchy, HierarchyConfig, IndexFn, LineAddr, SecurityMode,
};

/// Fixed seed of the in-test campaign (the CI job reuses it at 10k+).
const CAMPAIGN_SEED: u64 = 0xD1FF;

#[test]
fn ten_thousand_fixed_seed_traces_zero_divergences() {
    let report = run_random(10_000, CAMPAIGN_SEED, None);
    if let Some(found) = &report.divergence {
        panic!(
            "seed {} diverged: {}\nshrunk trace:\n{}",
            found.seed,
            found.divergence,
            found.shrunk.to_text()
        );
    }
    assert_eq!(report.traces, 10_000);
}

/// What a mutation campaign finds: the first diverging seed, the
/// observable that disagreed, and the FNV-1a digest of the shrunk
/// witness's corpus text. A change to what the reference model computes
/// moves one of these even when the bug is still caught.
struct Pin {
    seed: u64,
    field: &'static str,
    witness_digest: u64,
}

/// Runs a mutation campaign: the bug must be detected, shrunk to
/// at most 20 events, and the shrunken trace must survive a round-trip
/// through the corpus text format while still witnessing the bug.
fn mutation_is_caught_and_shrunk(bug: BugKind, want: Pin) {
    let report = run_random(5_000, CAMPAIGN_SEED, Some(bug));
    let found = report
        .divergence
        .unwrap_or_else(|| panic!("{bug:?} must diverge within 5000 traces"));
    let text = found.shrunk.to_text();
    let mut digest = Fnv1a::new();
    digest.write(text.as_bytes());
    assert_eq!(
        (found.seed, found.divergence.field, digest.finish()),
        (want.seed, want.field, want.witness_digest),
        "{bug:?}: (seed, field, witness digest) moved; witness:\n{text}"
    );
    assert!(
        found.shrunk.events.len() <= 20,
        "{bug:?}: shrunk to {} events, want <= 20:\n{text}",
        found.shrunk.events.len(),
    );
    // A witness whose two sides print alike would not show what diverged.
    assert_ne!(
        found.divergence.real, found.divergence.reference,
        "{bug:?}: {}",
        found.divergence
    );
    // Exactly one divergence: the campaign stops at the first, and every
    // trace before it replayed clean.
    assert_eq!(found.seed, CAMPAIGN_SEED + report.traces - 1);
    // The minimized witness is deterministic and format-stable.
    let doc = TraceDoc::from_text(&text).expect("valid text");
    assert_eq!(doc, found.shrunk);
    assert!(replay(&doc, Some(bug)).is_err(), "witness must still fail");
    assert!(
        replay(&doc, None).is_ok(),
        "witness must pass without the bug (it blames the mutation, not the sim)"
    );
}

#[test]
fn mutation_skip_grant_on_fill_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::SkipGrantOnFill,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "switch cost",
            witness_digest: 0xb88e_37d9_edc4_d7db,
        },
    );
}

#[test]
fn mutation_skip_sbit_clear_on_evict_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::SkipSbitClearOnEvict,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "switch cost",
            witness_digest: 0x5e3d_a7e0_7312_ec57,
        },
    );
}

#[test]
fn mutation_first_access_treated_as_hit_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::FirstAccessTreatedAsHit,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "access outcome",
            witness_digest: 0xe972_3434_0def_3fc3,
        },
    );
}

#[test]
fn mutation_ignore_rollover_is_caught() {
    mutation_is_caught_and_shrunk(
        BugKind::IgnoreRollover,
        Pin {
            seed: CAMPAIGN_SEED,
            field: "switch cost",
            witness_digest: 0xbd08_76fd_ec38_a677,
        },
    );
}

#[test]
fn baseline_and_timecache_modes_both_covered_by_the_generator() {
    let (mut baseline, mut tc, mut narrow) = (0, 0, 0);
    for seed in 0..1_000 {
        match generate(seed).cfg.ts_bits {
            None => baseline += 1,
            Some(bits) if bits < 32 => narrow += 1,
            Some(_) => tc += 1,
        }
    }
    assert!(baseline > 50, "baseline traces generated: {baseline}");
    assert!(tc > 50, "wide TimeCache traces generated: {tc}");
    assert!(narrow > 300, "narrow (rollover-prone) traces: {narrow}");
}

/// 8-way L1s of 4 sets over a 16-way LLC of 16 sets, 64 B lines: the
/// experiments' associativity at a size where a short stream overflows
/// every set it touches.
fn wide_config(cores: usize, smt: usize, ts_bits: Option<u8>, keyed: bool) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::with_cores(cores);
    cfg.smt_per_core = smt;
    cfg.l1i = CacheConfig::new(4 * 8 * 64, 8, 64);
    cfg.l1d = CacheConfig::new(4 * 8 * 64, 8, 64);
    cfg.llc = CacheConfig::new(16 * 16 * 64, 16, 64);
    if keyed {
        cfg.llc.index = IndexFn::Keyed { key: 0x0DD5_EED5 };
    }
    cfg.security = match ts_bits {
        None => SecurityMode::Baseline,
        Some(bits) => SecurityMode::TimeCache(TimeCacheConfig::new(bits)),
    };
    cfg
}

/// Byte addresses of 24 lines in each of 4 LLC sets under `cfg`'s LLC
/// index: more aliases than the LLC has ways, so fills evict and
/// back-invalidate, and 7-bit tag fingerprints collide within a set.
fn wide_pool(cfg: &HierarchyConfig) -> Vec<u64> {
    const SETS: u64 = 4;
    const ALIASES: usize = 24;
    let num_sets = cfg.llc.geometry.num_sets();
    let mut per_set = [0usize; SETS as usize];
    let mut pool = Vec::new();
    for raw in 0u64.. {
        let set = cfg.llc.index.set_of(LineAddr::from_raw(raw), num_sets);
        if set < SETS && per_set[set as usize] < ALIASES {
            per_set[set as usize] += 1;
            pool.push(raw * 64);
            if pool.len() == SETS as usize * ALIASES {
                return pool;
            }
        }
    }
    unreachable!("the index is a bijection, so every set fills")
}

/// `n` seeded events over `pool`: mostly accesses, with flushes, switches
/// among six pids, and forks.
fn wide_events(seed: u64, n: usize, cfg: &HierarchyConfig, pool: &[u64]) -> Vec<Event> {
    let mut r = FastRng::seed_from_u64(seed);
    let mut next_child = 100;
    (0..n)
        .map(|_| {
            let core = r.next_below(cfg.cores as u64) as usize;
            let thread = r.next_below(cfg.smt_per_core as u64) as usize;
            let addr = pool[r.next_below(pool.len() as u64) as usize] + r.next_below(64);
            match r.next_below(100) {
                0..=79 => Event::Access {
                    core,
                    thread,
                    kind: match r.next_below(100) {
                        0..=59 => AccessKind::Load,
                        60..=84 => AccessKind::Store,
                        _ => AccessKind::IFetch,
                    },
                    addr,
                },
                80..=83 => Event::Flush { addr },
                84..=95 => Event::Switch {
                    core,
                    thread,
                    pid: r.next_below(6) as u32,
                },
                _ => {
                    next_child += 1;
                    Event::Fork {
                        core,
                        thread,
                        child: next_child,
                    }
                }
            }
        })
        .collect()
}

/// Replays `n`-event streams through both models on every wide
/// configuration: baseline and TimeCache at 8 and 32 bits, modulo and
/// keyed LLC index, 1-2 cores x 1-2 SMT contexts.
fn wide_streams_agree(n: usize) {
    let mut seed = 0x3DE5_0000;
    for ts_bits in [None, Some(8), Some(32)] {
        for keyed in [false, true] {
            for (cores, smt) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                seed += 1;
                let cfg = wide_config(cores, smt, ts_bits, keyed);
                let pool = wide_pool(&cfg);
                let events = wide_events(seed, n, &cfg, &pool);
                if let Err(d) = replay_events(&cfg, &events, None) {
                    panic!("seed {seed:#x}, {cores}x{smt}, {ts_bits:?} bits, keyed {keyed}: {d}");
                }
            }
        }
    }
}

#[test]
fn wide_geometry_streams_agree() {
    wide_streams_agree(2_000);
}

/// The CI-scale variant: `cargo test --release -p timecache-oracle -- --ignored`.
#[test]
#[ignore = "long; the oracle-differential CI job runs it in release"]
fn wide_geometry_long_streams_agree() {
    wide_streams_agree(20_000);
}

/// The wide streams reach the paths they are for: LLC evictions with
/// inclusive back-invalidation of L1 copies, under either index.
#[test]
fn wide_streams_evict_and_back_invalidate() {
    for keyed in [false, true] {
        let cfg = wide_config(1, 1, None, keyed);
        let pool = wide_pool(&cfg);
        let mut h = Hierarchy::new(cfg.clone()).expect("valid config");
        let mut now = 1;
        for ev in wide_events(7, 2_000, &cfg, &pool) {
            // Only accesses matter here: switches move no lines, and
            // flushes would add invalidations of their own.
            if let Event::Access { kind, addr, .. } = ev {
                now += h.access(0, 0, kind, addr, now).latency + 1;
            }
        }
        // With one core and no flushes, an L1D line is invalidated only by
        // the LLC evicting it (a store invalidates the L1I copy, not this).
        let stats = h.stats();
        assert!(stats.llc.evictions > 100, "keyed {keyed}: {stats:?}");
        assert!(stats.l1d[0].invalidations > 10, "keyed {keyed}: {stats:?}");
    }
}
