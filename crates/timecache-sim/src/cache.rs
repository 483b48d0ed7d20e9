//! A single set-associative cache level.
//!
//! [`Cache`] owns the tag array, exact-LRU replacement stamps, statistics,
//! and — when the hierarchy runs in [`crate::SecurityMode::TimeCache`] — a
//! [`TimeCacheState`] covering its lines. Access *semantics* (what counts as
//! a hit, where requests go next) live in [`crate::Hierarchy`]; the cache
//! provides the mechanical operations: lookup, fill, invalidate, and the
//! TimeCache visibility hooks.
//!
//! Replacement is exact LRU, the gem5 classic-cache default the paper
//! evaluates on and the policy its LRU-state channel (Section VII-A)
//! reasons about: every touch and fill stamps the slot with a per-cache
//! counter, and the victim is the first way with the smallest stamp, so
//! never-touched ways go lowest way first.
//!
//! The tag array is structure-of-arrays: tags live in one contiguous
//! `Vec<u64>` (so the way-scan in [`Cache::lookup`] is a branch-light
//! compare over a contiguous slab) and dirty bits in a packed bitset,
//! instead of an array-of-structs `Vec<Line>` whose per-entry flag padded
//! every tag to 16 bytes and halved scan density.

use crate::addr::LineAddr;
use crate::config::CacheConfig;
use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use timecache_core::{Snapshot, TimeCacheConfig, TimeCacheState, Visibility};

/// Sentinel tag marking an invalid way. Folding validity into the tag
/// keeps the lookup scan to a single compare per way (no separate valid-bit
/// branch). No real line can carry this tag: line addresses are byte
/// addresses shifted right by the (nonzero) line-size bits, so their top
/// bits are always clear.
const INVALID_TAG: u64 = u64::MAX;

/// Result of a tag lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Set index.
    pub set: u64,
    /// Way within the set.
    pub way: u32,
    /// Flat line index (`set * ways + way`), the key into TimeCache state.
    pub flat: usize,
}

/// A line displaced by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced line's address.
    pub line: LineAddr,
    /// Whether it held modified data (needs a write-back).
    pub dirty: bool,
}

/// A set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    geometry: CacheGeometry,
    index: crate::index::IndexFn,
    /// Tag per flat line index (`set * ways + way`); [`INVALID_TAG`] marks
    /// an empty way. Contiguous so a set's ways are one cache-friendly slab.
    tags: Vec<u64>,
    /// Dirty flags, packed 64 lines per word, indexed by flat line index.
    dirty: Vec<u64>,
    /// LRU stamp per flat line index: the `lru_clock` value of the slot's
    /// last touch or fill (0 = never touched).
    stamps: Vec<u64>,
    lru_clock: u64,
    timecache: Option<TimeCacheState>,
    stats: CacheStats,
    /// Hot-path copies of the derived geometry, resolved once at build time
    /// so `lookup`/`fill` never re-divide capacity by ways × line size.
    num_sets: u64,
    ways: usize,
}

impl Cache {
    /// Builds a cache. `timecache` supplies the mechanism config when the
    /// defense is engaged; `num_contexts` is the number of hardware
    /// contexts sharing this cache (SMT threads for an L1, all contexts for
    /// the LLC).
    ///
    /// # Panics
    ///
    /// Panics if `num_contexts` is zero while `timecache` is `Some`.
    pub fn new(
        name: &'static str,
        config: CacheConfig,
        num_contexts: usize,
        timecache: Option<TimeCacheConfig>,
    ) -> Self {
        let g = config.geometry;
        Cache {
            name,
            geometry: g,
            index: config.index,
            tags: vec![INVALID_TAG; g.num_lines()],
            dirty: vec![0; g.num_lines().div_ceil(64)],
            stamps: vec![0; g.num_lines()],
            lru_clock: 0,
            timecache: timecache.map(|tc| TimeCacheState::new(g.num_lines(), num_contexts, tc)),
            stats: CacheStats::new(),
            num_sets: g.num_sets(),
            ways: g.ways() as usize,
        }
    }

    /// The cache's diagnostic name (`"L1I0"`, `"LLC"`, ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The cache's shape.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics (the hierarchy attributes hits/misses; the cache
    /// itself counts evictions, invalidations, and write-backs).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Resets statistics (not cache contents) — used between warm-up and
    /// measurement phases.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    #[inline]
    fn dirty_bit(&self, flat: usize) -> bool {
        self.dirty[flat / 64] >> (flat % 64) & 1 == 1
    }

    #[inline]
    fn set_dirty_bit(&mut self, flat: usize, dirty: bool) {
        let (word, bit) = (flat / 64, flat % 64);
        if dirty {
            self.dirty[word] |= 1 << bit;
        } else {
            self.dirty[word] &= !(1 << bit);
        }
    }

    /// Bitmask of the ways in the set starting at flat index `base` whose
    /// tag equals `tag`: bit `w` set iff way `w` matches. Building the whole
    /// mask is branch-free, so a hit at a random way costs no mispredicted
    /// early exit; callers take `trailing_zeros` for the first match.
    ///
    /// The mask is shifted in from the last way down, one bit per way. The
    /// equivalent `mask | eq << w` form gets auto-vectorised into
    /// per-lane variable shifts, which measured ~12 % slower end to end.
    #[inline]
    fn match_mask(&self, base: usize, tag: u64) -> u64 {
        self.tags[base..base + self.ways]
            .iter()
            .rev()
            .fold(0, |mask, &t| mask << 1 | u64::from(t == tag))
    }

    /// Tag lookup without side effects.
    ///
    /// This is the innermost loop of the whole simulator, so the scan is a
    /// branch-free `match_mask` over the set's contiguous tag slab, with
    /// validity folded into the tag via `INVALID_TAG`. Tags are unique
    /// within a set, so at most one bit of the mask is set.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<LookupResult> {
        let set = self.index.set_of(line, self.num_sets);
        let base = set as usize * self.ways;
        let mask = self.match_mask(base, line.raw());
        (mask != 0).then(|| {
            let way = mask.trailing_zeros();
            LookupResult {
                set,
                way,
                flat: base + way as usize,
            }
        })
    }

    /// Records a demand hit for replacement purposes.
    #[inline]
    pub fn touch(&mut self, hit: LookupResult) {
        self.stamp(hit.flat);
    }

    /// Marks the slot at `flat` most recently used.
    #[inline]
    fn stamp(&mut self, flat: usize) {
        self.lru_clock += 1;
        self.stamps[flat] = self.lru_clock;
    }

    /// The LRU victim of the set starting at flat index `base`: the first
    /// way with the smallest stamp.
    #[inline]
    fn lru_victim(&self, base: usize) -> u32 {
        let row = &self.stamps[base..base + self.ways];
        let (way, _) = row
            .iter()
            .enumerate()
            .min_by_key(|&(_, s)| s)
            .expect("ways is nonzero");
        way as u32
    }

    /// Fills `line` for hardware context `ctx` at cycle `now`, evicting a
    /// victim if the set is full. Returns the slot the line landed in and
    /// the displaced line, if any — callers needing the filled position
    /// (e.g. for directory bookkeeping) get it for free instead of paying a
    /// second lookup.
    ///
    /// The victim's TimeCache s-bits are reset and the new line's `Tc` and
    /// filling-context s-bit are recorded. The eviction (and, if the victim
    /// was dirty, the eventual write-back) is counted here; the caller
    /// performs the actual write-back propagation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the line is already present — the
    /// hierarchy must not double-fill.
    pub fn fill(
        &mut self,
        line: LineAddr,
        ctx: usize,
        now: u64,
    ) -> (LookupResult, Option<Evicted>) {
        debug_assert!(
            self.lookup(line).is_none(),
            "{}: double fill of {line}",
            self.name
        );
        let set = self.index.set_of(line, self.num_sets);
        let base = set as usize * self.ways;

        // Prefer the first invalid way; otherwise evict the LRU way.
        let invalid = self.match_mask(base, INVALID_TAG);
        let way = if invalid != 0 {
            invalid.trailing_zeros()
        } else {
            self.lru_victim(base)
        };
        let flat = base + way as usize;

        let old = self.tags[flat];
        let evicted = (old != INVALID_TAG).then(|| {
            self.stats.evictions += 1;
            Evicted {
                line: LineAddr::from_raw(old),
                dirty: self.dirty_bit(flat),
            }
        });
        if let (Some(tc), Some(_)) = (&mut self.timecache, &evicted) {
            tc.on_evict(flat);
        }

        self.tags[flat] = line.raw();
        self.set_dirty_bit(flat, false);
        self.stamp(flat);
        if let Some(tc) = &mut self.timecache {
            tc.on_fill(flat, ctx, now);
        }
        (LookupResult { set, way, flat }, evicted)
    }

    /// Invalidates `line` if present (coherence, back-invalidation, or
    /// `clflush`). Returns whether it was present and dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let hit = self.lookup(line)?;
        let dirty = self.dirty_bit(hit.flat);
        self.tags[hit.flat] = INVALID_TAG;
        self.set_dirty_bit(hit.flat, false);
        self.stats.invalidations += 1;
        if let Some(tc) = &mut self.timecache {
            tc.on_evict(hit.flat);
        }
        Some(dirty)
    }

    /// Marks a resident line dirty (write hit) or clean (write-back done).
    pub fn set_dirty(&mut self, at: LookupResult, dirty: bool) {
        debug_assert!(self.tags[at.flat] != INVALID_TAG);
        self.set_dirty_bit(at.flat, dirty);
    }

    /// Whether a resident line is dirty.
    pub fn is_dirty(&self, at: LookupResult) -> bool {
        self.dirty_bit(at.flat)
    }

    /// TimeCache visibility of a resident line for `ctx`; `Visible` always
    /// in baseline mode.
    pub fn visibility(&self, at: LookupResult, ctx: usize) -> Visibility {
        match &self.timecache {
            Some(tc) => tc.visibility(at.flat, ctx),
            None => Visibility::Visible,
        }
    }

    /// Records that `ctx` has now paid the first-access delay for a line.
    /// No-op in baseline mode.
    pub fn record_first_access(&mut self, at: LookupResult, ctx: usize) {
        if let Some(tc) = &mut self.timecache {
            tc.record_first_access(at.flat, ctx);
        }
    }

    /// Saves the caching context of `ctx` (None in baseline mode).
    pub fn save_context(&self, ctx: usize, now: u64) -> Option<Snapshot> {
        self.timecache.as_ref().map(|tc| tc.save_context(ctx, now))
    }

    /// Restores a caching context under fault injection (pass
    /// [`timecache_core::FaultInjector::disabled`] for none); see
    /// [`TimeCacheState::restore_context_faulty`]. Returns `None` in
    /// baseline mode.
    pub fn restore_context_faulty(
        &mut self,
        ctx: usize,
        snapshot: Option<&Snapshot>,
        now: u64,
        faults: &timecache_core::FaultInjector,
    ) -> Option<timecache_core::RestoreOutcome> {
        self.timecache
            .as_mut()
            .map(|tc| tc.restore_context_faulty(ctx, snapshot, now, faults))
    }

    /// Read-only view of the TimeCache state (None in baseline mode).
    pub fn timecache(&self) -> Option<&TimeCacheState> {
        self.timecache.as_ref()
    }

    /// Number of valid lines currently resident (diagnostics/tests).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new("T", CacheConfig::new(512, 2, 64), 1, None)
    }

    fn la(addr: u64) -> LineAddr {
        LineAddr::from_addr(addr, 64)
    }

    /// `sets` sets of `ways` ways, and the line that is the `k`-th to map
    /// to `set` under modulo indexing.
    fn shaped(sets: u64, ways: u32) -> (Cache, impl Fn(u64, u64) -> LineAddr) {
        let c = Cache::new(
            "T",
            CacheConfig::new(sets * ways as u64 * 64, ways, 64),
            1,
            None,
        );
        (c, move |set, k| LineAddr::from_raw(set + sets * k))
    }

    #[test]
    fn fill_then_lookup() {
        let mut c = tiny();
        assert!(c.lookup(la(0x100)).is_none());
        let (slot, evicted) = c.fill(la(0x100), 0, 0);
        assert_eq!(evicted, None);
        let hit = c.lookup(la(0x100)).unwrap();
        assert_eq!(hit, slot);
        assert_eq!(hit.set, (0x100 / 64) % 4);
    }

    #[test]
    fn lookup_finds_every_way_position() {
        for ways in [1u32, 2, 8, 16, 64] {
            let sets = 4u64;
            let (mut c, line) = shaped(sets, ways);
            for set in 0..sets {
                // Fill every way but the last, so INVALID_TAG ways remain.
                for k in 0..ways as u64 - 1 {
                    c.fill(line(set, k), 0, 0);
                }
                assert_eq!(c.lookup(line(set, ways as u64)), None, "{ways}-way miss");
                c.fill(line(set, ways as u64 - 1), 0, 0);
            }
            for set in 0..sets {
                let mut seen = 0u64;
                for k in 0..ways as u64 {
                    let hit = c.lookup(line(set, k)).expect("resident");
                    assert_eq!(hit.set, set);
                    assert_eq!(hit.flat, (set * ways as u64) as usize + hit.way as usize);
                    assert_eq!(c.tags[hit.flat], line(set, k).raw());
                    seen |= 1 << hit.way;
                }
                // Every way position produced a hit exactly once.
                assert_eq!(seen.count_ones(), ways, "{ways}-way set {set}");
            }
        }
    }

    #[test]
    fn invalid_ways_never_match() {
        let mut c = Cache::new("T", CacheConfig::new(64 * 64, 64, 64), 1, None);
        assert!(c.tags.iter().all(|&t| t == INVALID_TAG));
        for raw in [0, 1, 63, 1 << 40] {
            assert_eq!(c.lookup(LineAddr::from_raw(raw)), None);
        }
        let (slot, _) = c.fill(LineAddr::from_raw(5), 0, 0);
        assert_eq!(slot.way, 0, "fills take the first invalid way");
        c.invalidate(LineAddr::from_raw(5));
        assert_eq!(c.lookup(LineAddr::from_raw(5)), None);
    }

    #[test]
    fn conflicting_fills_evict_lru() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x100 (stride 256 = sets*linesize).
        c.fill(la(0x000), 0, 0);
        c.fill(la(0x100), 0, 1);
        c.touch(c.lookup(la(0x000)).unwrap()); // 0x000 most recent
        let ev = c.fill(la(0x200), 0, 2).1.unwrap();
        assert_eq!(ev.line, la(0x100));
        assert!(!ev.dirty);
        assert!(c.lookup(la(0x100)).is_none());
        assert!(c.lookup(la(0x000)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    // The LRU tests run at the L1 (8-way) and LLC (16-way) associativity.

    #[test]
    fn lru_evicts_oldest_then_next_oldest() {
        for ways in [8u32, 16] {
            let (mut c, line) = shaped(4, ways);
            let n = ways as u64;
            for k in 0..n {
                c.fill(line(1, k), 0, k);
            }
            // Touching way 0 makes way 1 the oldest.
            c.touch(c.lookup(line(1, 0)).unwrap());
            let (slot, ev) = c.fill(line(1, n), 0, n);
            assert_eq!(ev.unwrap().line, line(1, 1), "{ways}-way");
            assert_eq!(slot.way, 1);
            // After touching the next-oldest (way 2), way 3 goes.
            c.touch(c.lookup(line(1, 2)).unwrap());
            let (slot, ev) = c.fill(line(1, n + 1), 0, n + 1);
            assert_eq!(ev.unwrap().line, line(1, 3), "{ways}-way");
            assert_eq!(slot.way, 3);
            for k in [0, 2, n, n + 1] {
                assert!(c.lookup(line(1, k)).is_some(), "{ways}-way line {k}");
            }
        }
    }

    #[test]
    fn never_touched_ways_go_lowest_first() {
        for ways in [8u32, 16] {
            let (mut c, line) = shaped(4, ways);
            // A fresh set has every stamp at 0: the victim is way 0 even
            // after a later way is stamped.
            let base = 2 * ways as usize;
            assert_eq!(c.lru_victim(base), 0);
            c.stamp(base + 5);
            assert_eq!(c.lru_victim(base), 0, "{ways}-way");
            // Through `fill`: empty ways are taken lowest first, and a way
            // emptied by invalidation is refilled before any LRU eviction,
            // even though it was the most recently used.
            for k in 0..ways as u64 {
                let (slot, ev) = c.fill(line(2, k), 0, k);
                assert_eq!((slot.way, ev), (k as u32, None), "{ways}-way");
            }
            c.touch(c.lookup(line(2, 6)).unwrap());
            c.invalidate(line(2, 3));
            c.invalidate(line(2, 6));
            let (slot, ev) = c.fill(line(2, 100), 0, 100);
            assert_eq!((slot.way, ev), (3, None), "{ways}-way");
            let (slot, ev) = c.fill(line(2, 101), 0, 101);
            assert_eq!((slot.way, ev), (6, None), "{ways}-way");
        }
    }

    #[test]
    fn lru_sets_age_independently() {
        for ways in [8u32, 16] {
            let (mut c, line) = shaped(4, ways);
            let n = ways as u64;
            // Interleave the fills of sets 0 and 3 so their stamps mix.
            for k in 0..n {
                c.fill(line(0, k), 0, k);
                c.fill(line(3, k), 0, k);
            }
            // Set 3 touches its way 0; set 0's oldest is still its way 0.
            c.touch(c.lookup(line(3, 0)).unwrap());
            assert_eq!(c.fill(line(3, n), 0, n).1.unwrap().line, line(3, 1));
            assert_eq!(c.fill(line(0, n), 0, n).1.unwrap().line, line(0, 0));
            assert!(c.lookup(line(3, 0)).is_some(), "{ways}-way");
        }
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(la(0x000), 0, 0);
        let at = c.lookup(la(0x000)).unwrap();
        c.set_dirty(at, true);
        c.fill(la(0x100), 0, 1);
        let ev = c.fill(la(0x200), 0, 2).1.unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn fill_reports_landing_slot() {
        let mut c = tiny();
        let (slot, _) = c.fill(la(0x000), 0, 0);
        assert_eq!(slot, c.lookup(la(0x000)).unwrap());
        // A conflicting fill lands in the same set, different way.
        let (slot2, _) = c.fill(la(0x100), 0, 1);
        assert_eq!(slot2.set, slot.set);
        assert_ne!(slot2.way, slot.way);
        assert_eq!(slot2, c.lookup(la(0x100)).unwrap());
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.fill(la(0x40), 0, 0);
        let at = c.lookup(la(0x40)).unwrap();
        c.set_dirty(at, true);
        assert_eq!(c.invalidate(la(0x40)), Some(true));
        assert_eq!(c.invalidate(la(0x40)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn refill_after_dirty_invalidate_is_clean() {
        // The packed dirty bit must be cleared on invalidate and fill, not
        // leak into the next occupant of the same way.
        let mut c = tiny();
        c.fill(la(0x40), 0, 0);
        c.set_dirty(c.lookup(la(0x40)).unwrap(), true);
        c.invalidate(la(0x40));
        c.fill(la(0x40), 0, 1);
        assert!(!c.is_dirty(c.lookup(la(0x40)).unwrap()));
    }

    #[test]
    fn timecache_hooks_wire_through() {
        let mut c = Cache::new(
            "T",
            CacheConfig::new(512, 2, 64),
            2,
            Some(TimeCacheConfig::default()),
        );
        c.fill(la(0x40), 0, 100);
        let at = c.lookup(la(0x40)).unwrap();
        assert_eq!(c.visibility(at, 0), Visibility::Visible);
        assert_eq!(c.visibility(at, 1), Visibility::FirstAccess);
        c.record_first_access(at, 1);
        assert_eq!(c.visibility(at, 1), Visibility::Visible);

        // Eviction resets s-bits: refill after conflict.
        c.fill(la(0x140), 0, 200);
        c.fill(la(0x240), 0, 300); // evicts one of them
        if let Some(at) = c.lookup(la(0x40)) {
            // 0x40 survived; its s-bits are intact.
            assert_eq!(c.visibility(at, 0), Visibility::Visible);
        }
    }

    #[test]
    fn baseline_is_always_visible() {
        let mut c = tiny();
        c.fill(la(0x80), 0, 0);
        let at = c.lookup(la(0x80)).unwrap();
        assert_eq!(c.visibility(at, 0), Visibility::Visible);
        assert!(c.save_context(0, 0).is_none());
        let faults = timecache_core::FaultInjector::disabled();
        assert!(c.restore_context_faulty(0, None, 0, &faults).is_none());
    }

    #[test]
    fn resident_lines_counts_valid() {
        let mut c = tiny();
        assert_eq!(c.resident_lines(), 0);
        c.fill(la(0x00), 0, 0);
        c.fill(la(0x40), 0, 0);
        assert_eq!(c.resident_lines(), 2);
        c.invalidate(la(0x00));
        assert_eq!(c.resident_lines(), 1);
    }
}
