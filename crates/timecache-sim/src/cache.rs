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
//! counter, and the victim is the first way with the smallest stamp.
//! An empty way's stamp is 0 (never filled, or reset by `invalidate`) and
//! a resident way's is at least 1, so that one scan already picks the first
//! empty way before any LRU eviction.
//!
//! The tag array is structure-of-arrays: full tags live in one contiguous
//! `Vec<u64>`, and beside it one metadata byte per way holds validity,
//! dirtiness and a 7-bit tag fingerprint. [`Cache::lookup`] compares eight
//! ways per `u64` word of metadata bytes and reads a full tag only where
//! the fingerprint matches, which is usually the hit way alone.

use crate::addr::LineAddr;
use crate::config::CacheConfig;
use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;
use timecache_core::{Snapshot, TimeCacheConfig, TimeCacheState, Visibility};

/// The dirty bit of a metadata byte.
const DIRTY: u8 = 0x80;

/// Byte `i` of a `u64` holds lane `i`'s byte. These splat one byte value
/// to all eight lanes: [`FP_LANES`] masks off every lane's dirty bit, and
/// [`DIRTY_LANES`] keeps only that bit.
const ONE_LANES: u64 = 0x0101_0101_0101_0101;
const FP_LANES: u64 = 0x7F * ONE_LANES;
const DIRTY_LANES: u64 = 0x80 * ONE_LANES;

/// The 7-bit fingerprint of a tag: the top 7 bits of a multiplicative
/// hash, raised to 1 so that no resident way's metadata byte is 0.
#[inline]
fn fingerprint(tag: u64) -> u8 {
    ((tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as u8).max(1)
}

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
    /// Tag per flat line index (`set * ways + way`). Meaningful only where
    /// the slot's metadata byte is nonzero.
    tags: Vec<u64>,
    /// Metadata byte per flat line index: 0 for an empty way, otherwise
    /// bit 7 the dirty bit and bits 0-6 the tag's (never-zero)
    /// [`fingerprint`]. Seven zero bytes of padding follow the last slot,
    /// so any set's ways load as whole little-endian `u64` words.
    meta: Vec<u8>,
    /// LRU stamp per flat line index: the `lru_clock` value of the slot's
    /// last touch or fill, or 0 exactly when the slot is empty.
    stamps: Vec<u64>,
    lru_clock: u64,
    timecache: Option<TimeCacheState>,
    stats: CacheStats,
    /// Hot-path copies of the derived geometry, resolved once at build time
    /// so `lookup`/`fill` never re-divide capacity by ways × line size.
    num_sets: u64,
    ways: usize,
    /// The bits of [`Cache::lookup`]'s candidate mask that stand for one of
    /// the set's ways.
    live_lanes: u64,
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
            tags: vec![0; g.num_lines()],
            meta: vec![0; g.num_lines() + 7],
            stamps: vec![0; g.num_lines()],
            lru_clock: 0,
            timecache: timecache.map(|tc| TimeCacheState::new(g.num_lines(), num_contexts, tc)),
            stats: CacheStats::new(),
            num_sets: g.num_sets(),
            ways: g.ways() as usize,
            live_lanes: (0..g.ways()).fold(0, |m, way| m | 1 << (way % 8 * 8 + way / 8)),
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
    #[inline]
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Resets statistics (not cache contents) — used between warm-up and
    /// measurement phases.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// Tag lookup without side effects.
    ///
    /// This is the innermost loop of the whole simulator. It loads the
    /// set's metadata bytes eight ways per word, XORs each word with the
    /// line's fingerprint in every lane, and takes the exact mask of zero
    /// lanes (an empty way's byte never matches: fingerprints are nonzero).
    /// The words' masks interleave into one candidate mask without a
    /// branch, so where in the set the hit lies costs no misprediction.
    /// Only the candidates' full tags are compared, so a lookup usually
    /// reads one tag, and a miss usually none. Tags are unique within a
    /// set, so the first full match is the only one.
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<LookupResult> {
        let set = self.index.set_of(line, self.num_sets);
        let base = set as usize * self.ways;
        let raw = line.raw();
        let splat = u64::from(fingerprint(raw)) * ONE_LANES;
        // Bit `8 * k + i` of `candidates` stands for way `8 * i + k`: the
        // words fold in from the last down, one shift each.
        let words = &self.meta[base..base + 8 * self.ways.div_ceil(8)];
        let mut candidates = 0;
        for word in words.chunks_exact(8).rev() {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            // Every lane of `diff` is at most 0x7F, so adding 0x7F carries
            // into its bit 7 exactly when the lane is nonzero.
            let diff = (word & FP_LANES) ^ splat;
            candidates = candidates << 1 | (!(diff + FP_LANES) & DIRTY_LANES) >> 7;
        }
        // Lanes past the set's last way belong to the next set, whose tags
        // never equal this line's, or to the zero padding: masking them off
        // only spares a tag compare.
        candidates &= self.live_lanes;
        while candidates != 0 {
            let bit = candidates.trailing_zeros() as usize;
            let way = bit % 8 * 8 + bit / 8;
            if self.tags[base + way] == raw {
                return Some(LookupResult {
                    set,
                    way: way as u32,
                    flat: base + way,
                });
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// Records a demand hit on the slot at flat index `flat` for
    /// replacement purposes.
    #[inline]
    pub fn touch(&mut self, flat: usize) {
        self.stamp(flat);
    }

    /// Marks the slot at `flat` most recently used. The clock pre-increments,
    /// so a resident slot's stamp is never 0.
    #[inline]
    fn stamp(&mut self, flat: usize) {
        self.lru_clock += 1;
        self.stamps[flat] = self.lru_clock;
    }

    /// The victim of the set starting at flat index `base`: the first way
    /// with the smallest stamp, which is the first empty way (stamp 0) if
    /// there is one, else the LRU way.
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
    /// The new line's `Tc` is recorded, and its s-bits are set for the
    /// filling context and cleared for every other (which also resets the
    /// victim's). The eviction (and, if the victim was dirty, the eventual
    /// write-back) is counted here; the caller performs the actual
    /// write-back propagation.
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
        debug_assert!(
            (base..base + self.ways).all(|f| (self.meta[f] == 0) == (self.stamps[f] == 0)),
            "{}: a way is empty exactly when its metadata byte and its stamp are 0",
            self.name
        );
        let way = self.lru_victim(base);
        let flat = base + way as usize;

        let evicted = (self.stamps[flat] != 0).then(|| {
            self.stats.evictions += 1;
            Evicted {
                line: LineAddr::from_raw(self.tags[flat]),
                dirty: self.is_dirty(flat),
            }
        });
        self.tags[flat] = line.raw();
        self.meta[flat] = fingerprint(line.raw());
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
        let dirty = self.is_dirty(hit.flat);
        self.meta[hit.flat] = 0;
        self.stamps[hit.flat] = 0;
        self.stats.invalidations += 1;
        if let Some(tc) = &mut self.timecache {
            tc.on_evict(hit.flat);
        }
        Some(dirty)
    }

    /// Marks the resident line at flat index `flat` dirty (write hit) or
    /// clean (write-back done).
    pub fn set_dirty(&mut self, flat: usize, dirty: bool) {
        debug_assert!(self.meta[flat] != 0);
        if dirty {
            self.meta[flat] |= DIRTY;
        } else {
            self.meta[flat] &= !DIRTY;
        }
    }

    /// Whether the resident line at flat index `flat` is dirty.
    #[inline]
    pub fn is_dirty(&self, flat: usize) -> bool {
        self.meta[flat] & DIRTY != 0
    }

    /// TimeCache visibility for `ctx` of the resident line at flat index
    /// `flat`; `Visible` always in baseline mode.
    #[inline]
    pub fn visibility(&self, flat: usize, ctx: usize) -> Visibility {
        match &self.timecache {
            Some(tc) => tc.visibility(flat, ctx),
            None => Visibility::Visible,
        }
    }

    /// Records that `ctx` has now paid the first-access delay for the line
    /// at flat index `flat`. No-op in baseline mode.
    pub fn record_first_access(&mut self, flat: usize, ctx: usize) {
        if let Some(tc) = &mut self.timecache {
            tc.record_first_access(flat, ctx);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::index::IndexFn;

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
                // Fill every way but the last, so an empty way remains.
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
                    assert_eq!(c.meta[hit.flat], fingerprint(line(set, k).raw()));
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
        // Every slot and the padding start empty, and tags start zeroed:
        // line 0 must still miss.
        assert_eq!(c.meta.len(), 64 + 7);
        assert!(c.meta.iter().all(|&m| m == 0));
        assert!(c.tags.iter().all(|&t| t == 0));
        for raw in [0, 1, 63, 1 << 40] {
            assert_ne!(fingerprint(raw), 0);
            assert_eq!(c.lookup(LineAddr::from_raw(raw)), None);
        }
        let (slot, _) = c.fill(LineAddr::from_raw(5), 0, 0);
        assert_eq!(slot.way, 0, "fills take the first invalid way");
        c.set_dirty(slot.flat, true);
        assert_eq!(c.meta[slot.flat], DIRTY | fingerprint(5));
        c.invalidate(LineAddr::from_raw(5));
        // The stale tag stays behind, but the cleared byte hides it.
        assert_eq!((c.meta[slot.flat], c.tags[slot.flat]), (0, 5));
        assert_eq!(c.lookup(LineAddr::from_raw(5)), None);
    }

    /// Lines that share a set *and* a fingerprint: every resident one must
    /// be found at its own way and every absent one must miss, whatever
    /// the associativity (one or several metadata words per set, a set
    /// narrower than a word), index function and dirty bits.
    #[test]
    fn fingerprint_collisions_compare_the_full_tag() {
        for index in [IndexFn::Modulo, IndexFn::Keyed { key: 0x5EED }] {
            for ways in [1u32, 2, 4, 8, 12, 16, 64] {
                let sets = 4u64;
                let mut config = CacheConfig::new(sets * ways as u64 * 64, ways, 64);
                config.index = index;
                let mut c = Cache::new("T", config, 1, None);
                // Per set, `ways` + 4 lines with the fingerprint every set
                // uses: the first `ways` go resident, the rest stay absent.
                // Every set is full before any lookup, so a word reaching
                // past its set's last way matches in the next set too.
                let fp = fingerprint(0);
                let mut resident = Vec::new();
                let mut absent = Vec::new();
                for set in 0..sets {
                    let lines = (0u64..)
                        .map(LineAddr::from_raw)
                        .filter(|&l| index.set_of(l, sets) == set && fingerprint(l.raw()) == fp);
                    for (k, l) in lines.take(ways as usize + 4).enumerate() {
                        if k >= ways as usize {
                            absent.push(l);
                            continue;
                        }
                        let (slot, evicted) = c.fill(l, 0, k as u64);
                        assert_eq!(evicted, None);
                        if k % 3 == 1 {
                            c.set_dirty(slot.flat, true);
                        }
                        resident.push((l, slot, k % 3 == 1));
                    }
                }
                let check = |c: &Cache, skip: usize| {
                    for &(l, slot, dirty) in &resident[skip..] {
                        assert_eq!(c.lookup(l), Some(slot), "{index:?} {ways}-way {l}");
                        assert_eq!(c.is_dirty(slot.flat), dirty);
                    }
                    for &l in &absent {
                        assert_eq!(c.lookup(l), None, "{index:?} {ways}-way absent {l}");
                    }
                };
                check(&c, 0);
                // Emptying set 0's first way leaves every other line found
                // at its own way, and the emptied line missing.
                c.invalidate(resident[0].0);
                assert_eq!(c.lookup(resident[0].0), None);
                check(&c, 1);
            }
        }
    }

    #[test]
    fn conflicting_fills_evict_lru() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x100 (stride 256 = sets*linesize).
        c.fill(la(0x000), 0, 0);
        c.fill(la(0x100), 0, 1);
        c.touch(c.lookup(la(0x000)).unwrap().flat); // 0x000 most recent
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
            c.touch(c.lookup(line(1, 0)).unwrap().flat);
            let (slot, ev) = c.fill(line(1, n), 0, n);
            assert_eq!(ev.unwrap().line, line(1, 1), "{ways}-way");
            assert_eq!(slot.way, 1);
            // After touching the next-oldest (way 2), way 3 goes.
            c.touch(c.lookup(line(1, 2)).unwrap().flat);
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
            // Only way 5 is resident (so it is the most recently used) and
            // every other way is empty: the victim is way 0.
            for k in 0..=5 {
                c.fill(line(0, k), 0, k);
            }
            for k in 0..5 {
                c.invalidate(line(0, k));
            }
            let (slot, ev) = c.fill(line(0, 50), 0, 50);
            assert_eq!((slot.way, ev), (0, None), "{ways}-way");
            // Through `fill`: empty ways are taken lowest first, and a way
            // emptied by invalidation is refilled before any LRU eviction,
            // even though it was the most recently used.
            for k in 0..ways as u64 {
                let (slot, ev) = c.fill(line(2, k), 0, k);
                assert_eq!((slot.way, ev), (k as u32, None), "{ways}-way");
            }
            c.touch(c.lookup(line(2, 6)).unwrap().flat);
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
            c.touch(c.lookup(line(3, 0)).unwrap().flat);
            assert_eq!(c.fill(line(3, n), 0, n).1.unwrap().line, line(3, 1));
            assert_eq!(c.fill(line(0, n), 0, n).1.unwrap().line, line(0, 0));
            assert!(c.lookup(line(3, 0)).is_some(), "{ways}-way");
        }
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(la(0x000), 0, 0);
        let at = c.lookup(la(0x000)).unwrap().flat;
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
        let at = c.lookup(la(0x40)).unwrap().flat;
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
        c.set_dirty(c.lookup(la(0x40)).unwrap().flat, true);
        c.invalidate(la(0x40));
        c.fill(la(0x40), 0, 1);
        assert!(!c.is_dirty(c.lookup(la(0x40)).unwrap().flat));
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
        let at = c.lookup(la(0x40)).unwrap().flat;
        assert_eq!(c.visibility(at, 0), Visibility::Visible);
        assert_eq!(c.visibility(at, 1), Visibility::FirstAccess);
        c.record_first_access(at, 1);
        assert_eq!(c.visibility(at, 1), Visibility::Visible);

        // Eviction resets s-bits: refill after conflict.
        c.fill(la(0x140), 0, 200);
        c.fill(la(0x240), 0, 300); // evicts one of them
        if let Some(at) = c.lookup(la(0x40)) {
            // 0x40 survived; its s-bits are intact.
            assert_eq!(c.visibility(at.flat, 0), Visibility::Visible);
        }
    }

    #[test]
    fn baseline_is_always_visible() {
        let mut c = tiny();
        c.fill(la(0x80), 0, 0);
        let at = c.lookup(la(0x80)).unwrap().flat;
        assert_eq!(c.visibility(at, 0), Visibility::Visible);
        assert!(c.save_context(0, 0).is_none());
        let faults = timecache_core::FaultInjector::disabled();
        assert!(c.restore_context_faulty(0, None, 0, &faults).is_none());
    }

    #[test]
    fn invalidate_removes_only_its_line() {
        let mut c = tiny();
        assert!(c.lookup(la(0x00)).is_none());
        c.fill(la(0x00), 0, 0);
        c.fill(la(0x40), 0, 0);
        c.invalidate(la(0x00));
        assert!(c.lookup(la(0x00)).is_none());
        assert!(c.lookup(la(0x40)).is_some());
    }

    #[test]
    fn flat_index_is_set_major() {
        // TimeCache state is indexed by `set * ways + way`.
        let mut c = tiny();
        for addr in [0x00, 0x40, 0x100, 0xC0] {
            let (at, _) = c.fill(la(addr), 0, 0);
            assert_eq!(at.flat, at.set as usize * 2 + at.way as usize);
            assert_eq!(c.lookup(la(addr)), Some(at));
        }
    }
}
