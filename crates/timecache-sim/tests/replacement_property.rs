//! Replacement-state equivalence under first-access misses.
//!
//! The paper's served-as-miss semantics (Section V-A) forward the cached
//! copy's data at miss latency without refilling the line: the copy stays
//! where it is, and the *replacement* machinery must treat the access
//! exactly like the hit it physically is. If a first access perturbed LRU
//! state differently than a true hit — aged the line, skipped the touch,
//! or re-inserted it — the attacker could read the victim's accesses back
//! out of subsequent eviction victims even though every probe latency was
//! constant.
//!
//! These tests pin that down as a property over random traces: two
//! identically configured TimeCache hierarchies run the same access
//! sequence, except that one "probe" access is performed by the context
//! that filled the line (a true s-bit hit) in one hierarchy and by a
//! fresh context with no visibility (a tag-present, s-bit-clear first
//! access) in the other. Everything observable afterwards — tag
//! residency, latency classes, eviction victims — must be identical.
//!
//! The last test pins the victim rule itself at the L1 and LLC
//! associativity, against a naive model of exact LRU.

use timecache_core::TimeCacheConfig;
use timecache_sim::{
    AccessKind, AccessOutcome, Cache, CacheConfig, Hierarchy, HierarchyConfig, Level, LineAddr,
    SecurityMode,
};

/// Minimal xorshift64* PRNG (same idiom as `tests/proptests.rs`; the
/// workspace builds with no third-party crates, DESIGN.md §6).
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

/// One core, small caches, wide (rollover-free) TimeCache timestamps.
fn tc_config() -> HierarchyConfig {
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.l1i = CacheConfig::new(1024, 2, 64);
    cfg.l1d = CacheConfig::new(1024, 2, 64);
    cfg.llc = CacheConfig::new(8192, 4, 64);
    cfg.security = SecurityMode::TimeCache(TimeCacheConfig::new(32));
    cfg
}

/// Candidate lines: distinct tags, all in L1D set 3 (8 sets, 64 B lines).
fn candidate(tag: u64) -> u64 {
    tag * 8 * 64 + 3 * 64
}

const CANDIDATES: u64 = 7;

/// Drives one hierarchy, tracking its private cycle clock.
struct Driver {
    h: Hierarchy,
    now: u64,
}

impl Driver {
    fn new() -> Driver {
        Driver {
            h: Hierarchy::new(tc_config()).expect("valid test config"),
            now: 1,
        }
    }

    fn access(&mut self, kind: AccessKind, addr: u64) -> AccessOutcome {
        let out = self.h.access(0, 0, kind, addr, self.now);
        self.now += out.latency + 1;
        out
    }
}

/// Runs the probe step as the incumbent context (a true hit).
fn probe_as_owner(d: &mut Driver, addr: u64) -> AccessOutcome {
    d.access(AccessKind::Load, addr)
}

/// Runs the probe step as a fresh context: save the incumbent, restore a
/// context that has never run (no visibility anywhere), probe (tag hit,
/// s-bit clear, first access), then bring the incumbent back.
fn probe_as_stranger(d: &mut Driver, addr: u64) -> AccessOutcome {
    let owner = d.h.save_context(0, 0, d.now);
    let cost = d.h.restore_context(0, 0, None, d.now);
    d.now += cost.comparator_cycles + cost.transfer_lines + 1;
    let out = d.access(AccessKind::Load, addr);
    let _stranger = d.h.save_context(0, 0, d.now);
    let cost = d.h.restore_context(0, 0, Some(&owner), d.now);
    d.now += cost.comparator_cycles + cost.transfer_lines + 1;
    out
}

/// The deterministic core of the property: a 2-way set holds X then Y
/// (Y is MRU). Touching X — as a true hit or as a stranger's first
/// access — must make X MRU, so the next fill evicts Y in both worlds.
#[test]
fn first_access_touch_promotes_the_line_like_a_hit() {
    let (x, y, z) = (candidate(0), candidate(1), candidate(2));
    let mut hit = Driver::new();
    let mut first = Driver::new();
    for d in [&mut hit, &mut first] {
        d.access(AccessKind::Load, x);
        d.access(AccessKind::Load, y);
    }

    let h = probe_as_owner(&mut hit, x);
    assert!(h.l1_tag_hit && !h.is_first_access(), "true hit: {h:?}");
    assert_eq!(h.served_by, Level::L1);
    let f = probe_as_stranger(&mut first, x);
    assert!(
        f.l1_tag_hit && f.first_access_l1,
        "stranger sees a tag-present, s-bit-clear line: {f:?}"
    );
    assert_ne!(f.served_by, Level::L1, "first access pays miss latency");

    // The fill of Z must evict Y (the LRU way) in both hierarchies: X was
    // promoted by the probe either way.
    for (d, label) in [(&mut hit, "hit"), (&mut first, "first-access")] {
        d.access(AccessKind::Load, z);
        let x_out = d.access(AccessKind::Load, x);
        assert!(x_out.l1_tag_hit, "{label}: X must survive, it was MRU");
        let y_out = d.access(AccessKind::Load, y);
        assert!(!y_out.l1_tag_hit, "{label}: Y must have been the victim");
    }
}

/// Randomized equivalence: identical random prep and tail around a probe
/// that is a true hit in one hierarchy and a stranger's first access in
/// the other. The final residency/latency-class sweep must be identical
/// field for field.
#[test]
fn first_access_and_true_hit_leave_identical_replacement_state() {
    for seed in 0..48u64 {
        let mut rng = Rng::new(seed);
        let mut hit = Driver::new();
        let mut first = Driver::new();

        // Random prep by the owner, mirrored into both hierarchies.
        let prep = 8 + rng.below(17);
        let mut last = candidate(rng.below(CANDIDATES));
        for _ in 0..prep {
            let addr = candidate(rng.below(CANDIDATES));
            let kind = if rng.below(4) == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            for d in [&mut hit, &mut first] {
                d.access(kind, addr);
            }
            last = addr;
        }

        // Probe the most recently touched line (certainly resident).
        let h = probe_as_owner(&mut hit, last);
        assert!(h.l1_tag_hit && !h.is_first_access(), "seed {seed}: {h:?}");
        let f = probe_as_stranger(&mut first, last);
        assert!(f.l1_tag_hit && f.first_access_l1, "seed {seed}: {f:?}");

        // Random tail by the owner, again mirrored.
        let tail = 4 + rng.below(13);
        for _ in 0..tail {
            let addr = candidate(rng.below(CANDIDATES));
            for d in [&mut hit, &mut first] {
                d.access(AccessKind::Load, addr);
            }
        }

        // Sweep every candidate in a fixed order: residency, first-access
        // classification, serving level, and latency must all agree. The
        // sweep itself perturbs both hierarchies identically.
        for tag in 0..CANDIDATES {
            let a = hit.access(AccessKind::Load, candidate(tag));
            let b = first.access(AccessKind::Load, candidate(tag));
            assert_eq!(
                a, b,
                "seed {seed}, tag {tag}: replacement state diverged after \
                 a first-access probe vs a true-hit probe"
            );
        }
    }
}

/// The same equivalence for stores: a first-access *write* must age the
/// line and its set exactly like a write hit (served as a miss, but the
/// dirty copy stays put and stays MRU).
#[test]
fn first_access_store_matches_write_hit_replacement_state() {
    for seed in 100..124u64 {
        let mut rng = Rng::new(seed);
        let mut hit = Driver::new();
        let mut first = Driver::new();

        let prep = 6 + rng.below(11);
        let mut last = candidate(rng.below(CANDIDATES));
        for _ in 0..prep {
            let addr = candidate(rng.below(CANDIDATES));
            for d in [&mut hit, &mut first] {
                d.access(AccessKind::Store, addr);
            }
            last = addr;
        }

        let h = hit.access(AccessKind::Store, last);
        assert!(h.l1_tag_hit && !h.is_first_access(), "seed {seed}: {h:?}");
        let owner = first.h.save_context(0, 0, first.now);
        let cost = first.h.restore_context(0, 0, None, first.now);
        first.now += cost.comparator_cycles + cost.transfer_lines + 1;
        let f = first.access(AccessKind::Store, last);
        assert!(f.l1_tag_hit && f.first_access_l1, "seed {seed}: {f:?}");
        let _stranger = first.h.save_context(0, 0, first.now);
        let cost = first.h.restore_context(0, 0, Some(&owner), first.now);
        first.now += cost.comparator_cycles + cost.transfer_lines + 1;

        for tag in 0..CANDIDATES {
            let a = hit.access(AccessKind::Load, candidate(tag));
            let b = first.access(AccessKind::Load, candidate(tag));
            assert_eq!(a, b, "seed {seed}, tag {tag}: store probe diverged");
        }
    }
}

/// Random fill / touch / invalidate traffic on 8- and 16-way caches: every
/// fill must take the victim a naive model picks ("the first empty way,
/// else the first least recently used way") and evict the line the model
/// holds there.
#[test]
fn fill_victim_matches_a_naive_lru_model() {
    const SETS: u64 = 4;
    for ways in [8u32, 16] {
        for seed in 0..16u64 {
            let mut rng = Rng::new(seed);
            let config = CacheConfig::new(SETS * u64::from(ways) * 64, ways, 64);
            let mut cache = Cache::new("T", config, 1, None);
            // model[set][way]: the resident line and the step of its last
            // fill or touch.
            let mut model = vec![vec![None::<(LineAddr, u64)>; ways as usize]; SETS as usize];
            let (mut evictions, mut empty_fills) = (0, 0);
            for step in 0..2_000u64 {
                let set = rng.below(SETS);
                let line = LineAddr::from_raw(set + SETS * rng.below(2 * u64::from(ways)));
                let row = &mut model[set as usize];
                let resident = row.iter().position(|w| w.is_some_and(|(l, _)| l == line));
                let op = rng.below(10);
                match resident {
                    Some(way) if op < 2 => {
                        assert_eq!(
                            cache.invalidate(line),
                            Some(false),
                            "{ways}-way seed {seed} step {step}"
                        );
                        row[way] = None;
                    }
                    Some(way) => {
                        let hit = cache.lookup(line).expect("resident");
                        assert_eq!(hit.way as usize, way, "{ways}-way seed {seed} step {step}");
                        cache.touch(hit.flat);
                        row[way] = Some((line, step));
                    }
                    None if op < 1 => assert_eq!(
                        cache.invalidate(line),
                        None,
                        "{ways}-way seed {seed} step {step}"
                    ),
                    None => {
                        let victim = row.iter().position(Option::is_none).unwrap_or_else(|| {
                            let last_use = |w: &Option<(LineAddr, u64)>| w.expect("full set").1;
                            let oldest = row.iter().map(last_use).min().expect("ways > 0");
                            row.iter().position(|w| last_use(w) == oldest).unwrap()
                        });
                        let expected = row[victim].map(|(l, _)| l);
                        let (slot, evicted) = cache.fill(line, 0, step);
                        assert_eq!(
                            slot.way as usize, victim,
                            "{ways}-way seed {seed} step {step}"
                        );
                        assert_eq!(
                            evicted.map(|e| e.line),
                            expected,
                            "{ways}-way seed {seed} step {step}"
                        );
                        match expected {
                            Some(_) => evictions += 1,
                            None => empty_fills += 1,
                        }
                        row[victim] = Some((line, step));
                    }
                }
            }
            assert!(
                evictions > 100 && empty_fills > 100,
                "{evictions} {empty_fills}"
            );
        }
    }
}
