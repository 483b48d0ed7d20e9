//! Randomized (deterministic, seed-driven) tests for the cache simulator.
//!
//! The workspace builds offline with no third-party crates (DESIGN.md §6),
//! so these drive the invariants from an in-file xorshift64* generator over
//! a fixed set of seeds instead of `proptest`.

use std::collections::HashMap;
use timecache_core::TimeCacheConfig;
use timecache_sim::{
    AccessKind, CacheConfig, Hierarchy, HierarchyConfig, Level, LineAddr, SecurityMode,
};

/// Minimal xorshift64* PRNG (duplicated from `timecache_core::FastRng`
/// to keep this crate's dev-dependencies empty).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

fn tiny_config(security: SecurityMode, cores: usize) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::with_cores(cores);
    // Small caches so evictions happen within short traces.
    cfg.l1i = CacheConfig::new(1024, 2, 64);
    cfg.l1d = CacheConfig::new(1024, 2, 64);
    cfg.llc = CacheConfig::new(8192, 4, 64);
    cfg.security = security;
    cfg
}

#[derive(Debug, Clone)]
enum Ev {
    Access { kind: u8, line: u64 },
    Flush { line: u64 },
}

fn random_event(rng: &mut Rng) -> Ev {
    let line = rng.below(64);
    if rng.below(4) < 3 {
        Ev::Access {
            kind: rng.below(3) as u8,
            line,
        }
    } else {
        Ev::Flush { line }
    }
}

fn access_kind(kind: u8) -> AccessKind {
    match kind {
        0 => AccessKind::IFetch,
        1 => AccessKind::Load,
        _ => AccessKind::Store,
    }
}

/// Latency sanity: every access costs one of the model's defined
/// service latencies, and `served_by` matches it.
#[test]
fn latencies_match_served_level() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed);
        let nevents = rng.below(299) as usize + 1;
        let mut h = Hierarchy::new(tiny_config(SecurityMode::Baseline, 1)).unwrap();
        let lat = h.config().latencies;
        for i in 0..nevents {
            match random_event(&mut rng) {
                Ev::Access { kind, line } => {
                    let out = h.access(0, 0, access_kind(kind), line * 64, i as u64);
                    let expected = match out.served_by {
                        Level::L1 => lat.l1_hit,
                        Level::LLC => lat.llc_hit,
                        Level::RemoteL1 => lat.remote_l1,
                        Level::Memory => lat.dram,
                    };
                    assert_eq!(out.latency, expected, "seed {seed} step {i}");
                }
                Ev::Flush { line } => {
                    let l = h.clflush(line * 64);
                    assert!(
                        l == lat.flush_present || l == lat.flush_absent,
                        "seed {seed} step {i}"
                    );
                }
            }
        }
    }
}

/// Inclusivity: any L1-resident line is LLC-resident, under arbitrary
/// access/flush interleavings across two cores.
#[test]
fn llc_inclusivity_holds() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x100 + seed);
        let nevents = rng.below(299) as usize + 1;
        let mut h = Hierarchy::new(tiny_config(SecurityMode::Baseline, 2)).unwrap();
        for i in 0..nevents {
            let core = rng.below(2) as usize;
            match random_event(&mut rng) {
                Ev::Access { kind, line } => {
                    h.access(core, 0, access_kind(kind), line * 64, i as u64);
                }
                Ev::Flush { line } => {
                    h.clflush(line * 64);
                }
            }
            for line in 0u64..64 {
                let la = LineAddr::from_addr(line * 64, 64);
                for c in 0..2 {
                    if h.l1d(c).lookup(la).is_some() || h.l1i(c).lookup(la).is_some() {
                        assert!(
                            h.llc().lookup(la).is_some(),
                            "seed {seed}: line {line} in core {c}'s L1 but not LLC"
                        );
                    }
                }
            }
        }
    }
}

/// Baseline hit/miss behaviour matches a reference set-associative LRU
/// model for a single-core load-only trace.
#[test]
fn baseline_matches_reference_lru() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x200 + seed);
        let nlines = rng.below(399) as usize + 1;
        let lines: Vec<u64> = (0..nlines).map(|_| rng.below(48)).collect();
        let mut h = Hierarchy::new(tiny_config(SecurityMode::Baseline, 1)).unwrap();
        // Reference: L1D 8 sets x 2 ways over line addresses.
        let sets = 8u64;
        let ways = 2usize;
        let mut model: HashMap<u64, Vec<(u64, u64)>> = HashMap::new(); // set -> [(line, stamp)]
        let mut clock = 0u64;

        for (i, &line) in lines.iter().enumerate() {
            let out = h.access(0, 0, AccessKind::Load, line * 64, i as u64);
            clock += 1;
            let set = line % sets;
            let row = model.entry(set).or_default();
            let model_hit = row.iter().any(|&(l, _)| l == line);
            assert_eq!(
                out.l1_tag_hit, model_hit,
                "seed {seed} line {line} step {i}"
            );
            if model_hit {
                row.iter_mut().find(|(l, _)| *l == line).unwrap().1 = clock;
            } else {
                if row.len() == ways {
                    let oldest = row
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(_, s))| s)
                        .map(|(idx, _)| idx)
                        .unwrap();
                    row.remove(oldest);
                }
                row.push((line, clock));
            }
        }
    }
}

/// TimeCache never changes *which* data is resident relative to the
/// baseline for a single-context trace — only timing/visibility.
#[test]
fn single_context_residency_unchanged() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x300 + seed);
        let nlines = rng.below(299) as usize + 1;
        let lines: Vec<u64> = (0..nlines).map(|_| rng.below(64)).collect();
        let mut base = Hierarchy::new(tiny_config(SecurityMode::Baseline, 1)).unwrap();
        let mut tc = Hierarchy::new(tiny_config(
            SecurityMode::TimeCache(TimeCacheConfig::default()),
            1,
        ))
        .unwrap();
        for (i, &line) in lines.iter().enumerate() {
            base.access(0, 0, AccessKind::Load, line * 64, i as u64);
            tc.access(0, 0, AccessKind::Load, line * 64, i as u64);
        }
        for line in 0u64..64 {
            let la = LineAddr::from_addr(line * 64, 64);
            assert_eq!(
                base.l1d(0).lookup(la).is_some(),
                tc.l1d(0).lookup(la).is_some(),
                "seed {seed}: L1D divergence on line {line}"
            );
            assert_eq!(
                base.llc().lookup(la).is_some(),
                tc.llc().lookup(la).is_some(),
                "seed {seed}: LLC divergence on line {line}"
            );
        }
        // And a single context never takes first-access misses from its
        // own fills.
        assert_eq!(tc.stats().total_first_access(), 0, "seed {seed}");
    }
}

/// Statistics identity per cache: accesses = hits + misses +
/// first-access misses.
#[test]
fn stats_identity() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x400 + seed);
        let nevents = rng.below(299) as usize + 1;
        let mut h = Hierarchy::new(tiny_config(
            SecurityMode::TimeCache(TimeCacheConfig::default()),
            1,
        ))
        .unwrap();
        // Alternate between two SMT-less processes via context switches to
        // generate first accesses.
        let mut snaps = [None, None];
        for i in 0..nevents {
            let who = i % 2;
            let now = i as u64 * 10;
            let other = 1 - who;
            // Switch in `who`.
            snaps[other] = Some(h.save_context(0, 0, now));
            let snap = snaps[who].clone();
            h.restore_context(0, 0, snap.as_ref(), now);
            match random_event(&mut rng) {
                Ev::Access { kind, line } => {
                    h.access(0, 0, access_kind(kind), line * 64, now);
                }
                Ev::Flush { line } => {
                    h.clflush(line * 64);
                }
            }
        }
        let stats = h.stats();
        for s in [stats.l1i_total(), stats.l1d_total(), stats.llc] {
            assert_eq!(
                s.accesses,
                s.hits + s.misses + s.first_access,
                "seed {seed}: {s:?}"
            );
        }
    }
}
