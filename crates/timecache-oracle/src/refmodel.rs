//! The executable reference model: a deliberately slow, line-by-line
//! transcription of the paper's semantics as documented in DESIGN.md.
//!
//! Nothing here is optimized. Lookups are linear scans over plain structs,
//! each slot carries the paper's s-bit vector (one bit per hardware
//! context, kept slot by slot in a `u64`, so at most 64 contexts), fill
//! timestamps are kept at full `u64` precision and truncated only at the
//! comparison point, and the directory is an address-keyed map. The point
//! is that every rule from Section V of the paper appears exactly once, in
//! the obvious form:
//!
//! * tag hit + s-bit set ⇒ ordinary hit;
//! * tag hit + s-bit clear ⇒ **first access**: serviced with the latency of
//!   the first lower level visible to the context (or DRAM), data
//!   discarded, cache not refilled, s-bit then set;
//! * true miss ⇒ conventional fill of every level (inclusive LLC);
//! * fill ⇒ record `Tc`, grant the filler's s-bit exclusively;
//! * evict/invalidate ⇒ clear every context's s-bit for the slot;
//! * restore ⇒ fresh processes and rollovers reset everything, otherwise
//!   the snapshot is loaded and every slot with `trunc(Tc) > trunc(Ts)` is
//!   reset (strict compare: ties keep visibility).
//!
//! [`BugKind`] deliberately breaks one rule at a time; the differential
//! harness's mutation tests use it to prove the oracle can catch and shrink
//! real s-bit bugs.

use std::collections::BTreeMap;
use timecache_sim::{
    AccessKind, AccessOutcome, CacheConfig, CacheStats, HierarchyConfig, HierarchyStats, IndexFn,
    LatencyConfig, Level, LineAddr, SecurityMode, SwitchCost,
};

/// A deliberately introduced bug in the reference model, used by mutation
/// tests to demonstrate the differential harness catches (and shrinks)
/// genuine s-bit defects. The shipped oracle always runs with `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugKind {
    /// `on_fill` forgets to grant the filler's s-bit: the filler pays a
    /// first-access penalty again on its very next access to the line.
    SkipGrantOnFill,
    /// Evictions and invalidations forget to clear the slot's s-bits.
    SkipSbitClearOnEvict,
    /// The s-bit check is ignored: every tag hit is served as a hit
    /// (baseline semantics smuggled into TimeCache mode).
    FirstAccessTreatedAsHit,
    /// Rollover detection is disabled; restores always run the truncated
    /// comparator even across counter wraps.
    IgnoreRollover,
}

/// The most hardware contexts (and so cores) the reference model covers:
/// one bit each in an [`IdSet`].
const MAX_CONTEXTS: usize = 64;

/// A set of small ids, one bit per id: a slot's s-bits (one per hardware
/// context, as the paper's per-line s-bit vector) or a directory entry's
/// sharer cores.
#[derive(Debug, Clone, Copy, Default)]
struct IdSet(u64);

impl IdSet {
    fn only(id: usize) -> Self {
        IdSet(1 << id)
    }

    fn contains(self, id: usize) -> bool {
        self.0 & (1 << id) != 0
    }

    fn insert(&mut self, id: usize) {
        self.0 |= 1 << id;
    }

    /// Removes `id`; returns whether it was present.
    fn remove(&mut self, id: usize) -> bool {
        let present = self.contains(id);
        self.0 &= !(1 << id);
        present
    }

    fn clear(&mut self) {
        self.0 = 0;
    }

    /// The ids in ascending order.
    fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let id = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                id
            })
        })
    }
}

/// One tag-array slot of the reference model.
#[derive(Debug, Clone, Default)]
struct Slot {
    valid: bool,
    line: u64,
    dirty: bool,
}

/// Per-slot TimeCache state: the full-precision fill time and the
/// hardware contexts whose s-bit is set.
#[derive(Debug, Clone, Default)]
struct SlotTc {
    tc_raw: u64,
    sbits: IdSet,
}

/// A saved caching context for one cache: the slots whose s-bit the context
/// held at preemption (ascending), plus the full-precision preemption time.
#[derive(Debug, Clone)]
pub struct RefSnap {
    slots: Vec<usize>,
    ts_raw: u64,
}

/// Restore outcome of one cache (mirrors `timecache_core::RestoreOutcome`).
#[derive(Debug, Clone, Copy)]
struct RefRestore {
    rollover: bool,
    sbits_reset: usize,
    comparator_cycles: u64,
    transfer_lines: usize,
}

/// One cache level of the reference model.
#[derive(Debug, Clone)]
struct RefCache {
    sets: u64,
    ways: usize,
    index: IndexFn,
    slots: Vec<Slot>,
    /// Exact-LRU stamps, one per slot, driven by a per-cache clock.
    stamps: Vec<u64>,
    clock: u64,
    /// `Some` when TimeCache covers this cache.
    tc: Option<Vec<SlotTc>>,
    ts_bits: u8,
    stats: CacheStats,
    bug: Option<BugKind>,
}

impl RefCache {
    fn new(cfg: &CacheConfig, timecache: bool, ts_bits: u8, bug: Option<BugKind>) -> Self {
        let sets = cfg.geometry.num_sets();
        let ways = cfg.geometry.ways() as usize;
        let n = cfg.geometry.num_lines();
        RefCache {
            sets,
            ways,
            index: cfg.index,
            slots: vec![Slot::default(); n],
            stamps: vec![0; n],
            clock: 0,
            tc: timecache.then(|| vec![SlotTc::default(); n]),
            ts_bits,
            stats: CacheStats::default(),
            bug,
        }
    }

    fn set_of(&self, line: u64) -> u64 {
        self.index.set_of(LineAddr::from_raw(line), self.sets)
    }

    /// Linear tag scan; returns the flat slot index.
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_of(line) as usize * self.ways;
        (base..base + self.ways).find(|&s| self.slots[s].valid && self.slots[s].line == line)
    }

    /// LRU touch: hits and fills stamp alike.
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        self.stamps[slot] = self.clock;
    }

    fn visible(&self, slot: usize, ctx: usize) -> bool {
        if self.bug == Some(BugKind::FirstAccessTreatedAsHit) {
            return true;
        }
        match &self.tc {
            None => true,
            Some(tc) => tc[slot].sbits.contains(ctx),
        }
    }

    fn grant(&mut self, slot: usize, ctx: usize) {
        if let Some(tc) = &mut self.tc {
            tc[slot].sbits.insert(ctx);
        }
    }

    /// Clears every context's s-bit for the slot (eviction/invalidation).
    fn clear_slot_sbits(&mut self, slot: usize) {
        if self.bug == Some(BugKind::SkipSbitClearOnEvict) {
            return;
        }
        if let Some(tc) = &mut self.tc {
            tc[slot].sbits.clear();
        }
    }

    /// Fills `line` for `ctx` at cycle `now`. Prefers an invalid way, else
    /// evicts exact-LRU (ties toward way 0). Returns the displaced line.
    fn fill(&mut self, line: u64, ctx: usize, now: u64) -> Option<(u64, bool)> {
        let base = self.set_of(line) as usize * self.ways;
        let way = (0..self.ways)
            .find(|&w| !self.slots[base + w].valid)
            .unwrap_or_else(|| {
                (0..self.ways)
                    .min_by_key(|&w| self.stamps[base + w])
                    .expect("ways is nonzero")
            });
        let slot = base + way;
        let evicted = self.slots[slot].valid.then(|| {
            self.stats.evictions += 1;
            (self.slots[slot].line, self.slots[slot].dirty)
        });
        if evicted.is_some() {
            self.clear_slot_sbits(slot);
        }
        self.slots[slot] = Slot {
            valid: true,
            line,
            dirty: false,
        };
        self.touch(slot);
        if let Some(tc) = &mut self.tc {
            tc[slot].tc_raw = now;
            if self.bug == Some(BugKind::SkipGrantOnFill) {
                tc[slot].sbits.clear();
            } else {
                tc[slot].sbits = IdSet::only(ctx);
            }
        }
        evicted
    }

    /// Invalidates `line` if present; returns whether it was dirty.
    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let slot = self.find(line)?;
        let dirty = self.slots[slot].dirty;
        self.slots[slot] = Slot::default();
        self.stats.invalidations += 1;
        self.clear_slot_sbits(slot);
        Some(dirty)
    }

    /// 64-byte transfers for an s-bit snapshot of this cache: one bit per
    /// line, packed into bytes, moved in cache-line units (Section VI-D).
    fn transfer_lines(&self) -> usize {
        self.slots.len().div_ceil(8).div_ceil(64).max(1)
    }

    fn save(&self, ctx: usize, now: u64) -> Option<RefSnap> {
        let tc = self.tc.as_ref()?;
        let slots = (0..self.slots.len())
            .filter(|&s| tc[s].sbits.contains(ctx))
            .collect();
        Some(RefSnap { slots, ts_raw: now })
    }

    /// Restores a process's context: fresh (None) and rollover restores
    /// reset everything; otherwise load the snapshot and reset every slot
    /// whose `trunc(Tc) > trunc(Ts)` (strict — ties keep visibility).
    fn restore(&mut self, ctx: usize, snap: Option<&RefSnap>, now: u64) -> Option<RefRestore> {
        let ts_bits = self.ts_bits;
        let bug = self.bug;
        let transfer = self.transfer_lines();
        let trunc = |t: u64| {
            if ts_bits >= 64 {
                t
            } else {
                t & ((1u64 << ts_bits) - 1)
            }
        };
        let tc = self.tc.as_mut()?;
        let clear_ctx = |tc: &mut Vec<SlotTc>| -> usize {
            let mut cleared = 0;
            for s in tc.iter_mut() {
                if s.sbits.remove(ctx) {
                    cleared += 1;
                }
            }
            cleared
        };
        let Some(snap) = snap else {
            let before = clear_ctx(tc);
            return Some(RefRestore {
                rollover: false,
                sbits_reset: before,
                comparator_cycles: 0,
                transfer_lines: 0,
            });
        };
        assert!(now >= snap.ts_raw, "time must be monotonic across restores");
        // Rollover: the hardware sees trunc(now) < trunc(Ts); software adds
        // the elapsed-time check for preemptions spanning a full period.
        let rollover = if ts_bits >= 64 || bug == Some(BugKind::IgnoreRollover) {
            false
        } else {
            let period = 1u64 << ts_bits;
            let hw = trunc(now) < trunc(snap.ts_raw);
            let sw = now - snap.ts_raw >= period;
            hw || sw
        };
        if rollover {
            clear_ctx(tc);
            return Some(RefRestore {
                rollover: true,
                sbits_reset: snap.slots.len(),
                comparator_cycles: 0,
                transfer_lines: transfer,
            });
        }
        clear_ctx(tc);
        let ts = trunc(snap.ts_raw);
        let mut reset = 0;
        for &slot in &snap.slots {
            if trunc(tc[slot].tc_raw) > ts {
                reset += 1;
            } else {
                tc[slot].sbits.insert(ctx);
            }
        }
        Some(RefRestore {
            rollover: false,
            sbits_reset: reset,
            comparator_cycles: ts_bits as u64 + 1,
            transfer_lines: transfer,
        })
    }
}

/// An address-keyed directory entry (the real simulator keys the directory
/// by LLC slot; entries live exactly as long as the LLC-resident line, so
/// keying by line address is semantically identical and more obviously
/// correct).
#[derive(Debug, Clone, Default)]
struct RefDir {
    sharers: IdSet,
    dirty_owner: Option<usize>,
}

/// A saved caching context across the whole hierarchy (mirrors
/// `timecache_sim::ContextSnapshot`).
#[derive(Debug, Clone, Default)]
pub struct RefContextSnapshot {
    l1i: Option<RefSnap>,
    l1d: Option<RefSnap>,
    llc: Option<RefSnap>,
}

/// The reference hierarchy: per-core split L1s over an inclusive shared LLC
/// with an MSI-style directory, TimeCache at every level when configured.
#[derive(Debug, Clone)]
pub struct RefHierarchy {
    cores: usize,
    smt: usize,
    latencies: LatencyConfig,
    line_size: u64,
    l1i: Vec<RefCache>,
    l1d: Vec<RefCache>,
    llc: RefCache,
    dir: BTreeMap<u64, RefDir>,
    timecache: bool,
    constant_time_clflush: bool,
    dram_wait_on_remote_hit: bool,
}

impl RefHierarchy {
    /// Builds the reference model for a configuration. Only `Baseline` and
    /// `TimeCache` security modes are supported (FTM is out of the
    /// differential oracle's scope), on at most 64 hardware contexts.
    pub fn new(cfg: &HierarchyConfig, bug: Option<BugKind>) -> Self {
        let contexts = cfg.total_contexts();
        assert!(
            contexts <= MAX_CONTEXTS,
            "reference model covers at most {MAX_CONTEXTS} hardware contexts, got {contexts}"
        );
        let (timecache, ts_bits, ctc, dram_wait) = match cfg.security {
            SecurityMode::Baseline => (false, 64, false, false),
            SecurityMode::TimeCache(tc) => (
                true,
                tc.timestamp_width().bits(),
                tc.constant_time_clflush(),
                tc.dram_wait_on_remote_hit(),
            ),
            SecurityMode::Ftm => panic!("reference model does not cover FTM"),
        };
        RefHierarchy {
            cores: cfg.cores,
            smt: cfg.smt_per_core,
            latencies: cfg.latencies,
            line_size: cfg.llc.geometry.line_size(),
            l1i: (0..cfg.cores)
                .map(|_| RefCache::new(&cfg.l1i, timecache, ts_bits, bug))
                .collect(),
            l1d: (0..cfg.cores)
                .map(|_| RefCache::new(&cfg.l1d, timecache, ts_bits, bug))
                .collect(),
            llc: RefCache::new(&cfg.llc, timecache, ts_bits, bug),
            dir: BTreeMap::new(),
            timecache,
            constant_time_clflush: ctc,
            dram_wait_on_remote_hit: dram_wait,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_size
    }

    /// LLC visibility-context for `(core, thread)`: one per hardware
    /// context under TimeCache.
    fn llc_ctx(&self, core: usize, thread: usize) -> usize {
        core * self.smt + thread
    }

    fn l1(&mut self, core: usize, kind: AccessKind) -> &mut RefCache {
        match kind {
            AccessKind::IFetch => &mut self.l1i[core],
            AccessKind::Load | AccessKind::Store => &mut self.l1d[core],
        }
    }

    /// One memory access, per Section V-A.
    pub fn access(
        &mut self,
        core: usize,
        thread: usize,
        kind: AccessKind,
        addr: u64,
        now: u64,
    ) -> AccessOutcome {
        let lat = self.latencies;
        let line = self.line_of(addr);

        let l1 = self.l1(core, kind);
        l1.stats.accesses += 1;
        if let Some(slot) = l1.find(line) {
            let visible = l1.visible(slot, thread);
            l1.touch(slot);
            if visible {
                l1.stats.hits += 1;
                if kind.is_write() {
                    self.write_hit(core, line);
                }
                return AccessOutcome {
                    latency: lat.l1_hit,
                    served_by: Level::L1,
                    l1_tag_hit: true,
                    first_access_l1: false,
                    first_access_llc: false,
                };
            }
            // First access at the L1: delayed with the first visible lower
            // level's latency; data discarded, no refill, s-bit then set.
            l1.stats.first_access += 1;
            l1.grant(slot, thread);
            let (latency, served_by, fa_llc) = self.probe_below(core, thread, line);
            if kind.is_write() {
                self.write_hit(core, line);
            }
            return AccessOutcome {
                latency,
                served_by,
                l1_tag_hit: true,
                first_access_l1: true,
                first_access_llc: fa_llc,
            };
        }

        // L1 miss: consult the LLC.
        self.l1(core, kind).stats.misses += 1;
        self.llc.stats.accesses += 1;
        let llc_ctx = self.llc_ctx(core, thread);
        let (latency, served_by, fa_llc) = if let Some(slot) = self.llc.find(line) {
            let visible = self.llc.visible(slot, llc_ctx);
            self.llc.touch(slot);
            if visible {
                self.llc.stats.hits += 1;
                let remote_dirty = self
                    .dir
                    .get(&line)
                    .and_then(|d| d.dirty_owner)
                    .filter(|&owner| owner != core);
                if let Some(owner) = remote_dirty {
                    self.writeback_owner_copy(owner, line);
                    (lat.remote_l1, Level::RemoteL1, false)
                } else {
                    (lat.llc_hit, Level::LLC, false)
                }
            } else {
                // First access at the LLC: request continues to memory,
                // response discarded; a remote dirty copy is still written
                // back so the LLC holds current data for the L1 fill.
                self.llc.stats.first_access += 1;
                self.llc.grant(slot, llc_ctx);
                if let Some(owner) = self
                    .dir
                    .get(&line)
                    .and_then(|d| d.dirty_owner)
                    .filter(|&owner| owner != core)
                {
                    self.writeback_owner_copy(owner, line);
                }
                (lat.dram, Level::Memory, true)
            }
        } else {
            self.llc.stats.misses += 1;
            self.fill_llc(line, llc_ctx, now);
            (lat.dram, Level::Memory, false)
        };

        self.fill_l1(core, thread, kind, line, now);
        if kind.is_write() {
            self.write_hit(core, line);
        }
        AccessOutcome {
            latency,
            served_by,
            l1_tag_hit: false,
            first_access_l1: false,
            first_access_llc: fa_llc,
        }
    }

    /// Latency probe below an L1 first access; never fills anything.
    fn probe_below(&mut self, core: usize, thread: usize, line: u64) -> (u64, Level, bool) {
        let lat = self.latencies;
        let llc_ctx = self.llc_ctx(core, thread);
        self.llc.stats.accesses += 1;
        let slot = self
            .llc
            .find(line)
            .expect("inclusive LLC lost an L1-resident line");
        self.llc.touch(slot);
        if self.llc.visible(slot, llc_ctx) {
            self.llc.stats.hits += 1;
            if self.dram_wait_on_remote_hit {
                (lat.dram, Level::Memory, false)
            } else {
                (lat.llc_hit, Level::LLC, false)
            }
        } else {
            self.llc.stats.first_access += 1;
            self.llc.grant(slot, llc_ctx);
            (lat.dram, Level::Memory, true)
        }
    }

    /// Fills the LLC, back-invalidating the inclusive victim from all
    /// sharers' L1s and resetting the victim's directory entry.
    fn fill_llc(&mut self, line: u64, llc_ctx: usize, now: u64) {
        if let Some((victim_line, victim_dirty)) = self.llc.fill(line, llc_ctx, now) {
            let victim_entry = self.dir.remove(&victim_line).unwrap_or_default();
            for core in victim_entry.sharers.iter() {
                self.l1i[core].invalidate(victim_line);
                if let Some(dirty) = self.l1d[core].invalidate(victim_line) {
                    if dirty {
                        // Dirty L1 copy of a dying LLC line: straight to
                        // memory.
                        self.l1d[core].stats.writebacks += 1;
                    }
                }
            }
            if victim_dirty {
                self.llc.stats.writebacks += 1;
            }
        }
        // The new line starts with a fresh (empty) directory entry; sharers
        // are added by the L1 fill that follows.
        self.dir.remove(&line);
    }

    /// Fills a private L1 (line must be LLC-resident), updating the
    /// directory and writing the victim back to the LLC if dirty.
    fn fill_l1(&mut self, core: usize, thread: usize, kind: AccessKind, line: u64, now: u64) {
        let victim = self.l1(core, kind).fill(line, thread, now);
        if let Some((v_line, v_dirty)) = victim {
            if v_dirty {
                self.l1(core, kind).stats.writebacks += 1;
                if let Some(slot) = self.llc.find(v_line) {
                    self.llc.slots[slot].dirty = true;
                    let entry = self.dir.entry(v_line).or_default();
                    if entry.dirty_owner == Some(core) {
                        entry.dirty_owner = None;
                    }
                }
            }
            self.dir_remove_sharer_if_gone(core, v_line);
        }
        if self.llc.find(line).is_some() {
            self.dir.entry(line).or_default().sharers.insert(core);
        }
    }

    /// A store hit: mark the L1D copy dirty, invalidate remote copies, and
    /// take exclusive directory ownership.
    fn write_hit(&mut self, core: usize, line: u64) {
        if let Some(slot) = self.l1d[core].find(line) {
            self.l1d[core].slots[slot].dirty = true;
        }
        if self.llc.find(line).is_some() {
            let sharers = self.dir.get(&line).map(|d| d.sharers).unwrap_or_default();
            for other in sharers.iter() {
                if other != core {
                    self.l1i[other].invalidate(line);
                    if let Some(dirty) = self.l1d[other].invalidate(line) {
                        if dirty {
                            self.l1d[other].stats.writebacks += 1;
                            if let Some(slot) = self.llc.find(line) {
                                self.llc.slots[slot].dirty = true;
                            }
                        }
                    }
                }
            }
            let entry = self.dir.entry(line).or_default();
            entry.sharers = IdSet::only(core);
            entry.dirty_owner = Some(core);
        }
    }

    /// Writes a remote core's dirty copy back to the LLC.
    fn writeback_owner_copy(&mut self, owner: usize, line: u64) {
        if let Some(slot) = self.l1d[owner].find(line) {
            if self.l1d[owner].slots[slot].dirty {
                self.l1d[owner].slots[slot].dirty = false;
                self.l1d[owner].stats.writebacks += 1;
            }
        }
        if let Some(slot) = self.llc.find(line) {
            self.llc.slots[slot].dirty = true;
            self.dir.entry(line).or_default().dirty_owner = None;
        }
    }

    /// Drops `core` from a line's sharer mask if neither of its L1s still
    /// holds the line.
    fn dir_remove_sharer_if_gone(&mut self, core: usize, line: u64) {
        let still_held = self.l1i[core].find(line).is_some() || self.l1d[core].find(line).is_some();
        if !still_held && self.llc.find(line).is_some() {
            if let Some(entry) = self.dir.get_mut(&line) {
                entry.sharers.remove(core);
                if entry.dirty_owner == Some(core) {
                    entry.dirty_owner = None;
                }
            }
        }
    }

    /// `clflush`: invalidate everywhere, write back dirty data, and report
    /// the presence-dependent (baseline) or constant (mitigated) latency.
    pub fn clflush(&mut self, addr: u64) -> u64 {
        let line = self.line_of(addr);
        let mut present = false;
        for core in 0..self.cores {
            if self.l1i[core].invalidate(line).is_some() {
                present = true;
            }
            if let Some(dirty) = self.l1d[core].invalidate(line) {
                present = true;
                if dirty {
                    self.l1d[core].stats.writebacks += 1;
                }
            }
        }
        if self.llc.find(line).is_some() {
            present = true;
            self.dir.remove(&line);
            if self.llc.invalidate(line) == Some(true) {
                self.llc.stats.writebacks += 1;
            }
        }
        if present || (self.timecache && self.constant_time_clflush) {
            self.latencies.flush_present
        } else {
            self.latencies.flush_absent
        }
    }

    /// Saves the caching context of `(core, thread)` across all levels.
    pub fn save_context(&self, core: usize, thread: usize, now: u64) -> RefContextSnapshot {
        RefContextSnapshot {
            l1i: self.l1i[core].save(thread, now),
            l1d: self.l1d[core].save(thread, now),
            llc: self.llc.save(self.llc_ctx(core, thread), now),
        }
    }

    /// Restores a context (`None` = newly created process). The combined
    /// cost mirrors `Hierarchy::restore_context`: comparator sweeps run in
    /// parallel (max), transfers and resets sum, rollover flags OR.
    pub fn restore_context(
        &mut self,
        core: usize,
        thread: usize,
        snapshot: Option<&RefContextSnapshot>,
        now: u64,
    ) -> SwitchCost {
        let mut cost = SwitchCost::default();
        let llc_ctx = self.llc_ctx(core, thread);
        let outcomes = [
            self.l1i[core].restore(thread, snapshot.and_then(|s| s.l1i.as_ref()), now),
            self.l1d[core].restore(thread, snapshot.and_then(|s| s.l1d.as_ref()), now),
            self.llc
                .restore(llc_ctx, snapshot.and_then(|s| s.llc.as_ref()), now),
        ];
        for out in outcomes.into_iter().flatten() {
            cost.comparator_cycles = cost.comparator_cycles.max(out.comparator_cycles);
            cost.transfer_lines += out.transfer_lines as u64;
            cost.rollover |= out.rollover;
            cost.sbits_reset += out.sbits_reset as u64;
        }
        cost
    }

    /// Statistics snapshot, shaped exactly like the real hierarchy's.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.iter().map(|c| c.stats).collect(),
            l1d: self.l1d.iter().map(|c| c.stats).collect(),
            llc: self.llc.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecache_core::TimeCacheConfig;

    fn tc_cfg() -> HierarchyConfig {
        let mut cfg = HierarchyConfig::with_cores(1);
        cfg.security = SecurityMode::TimeCache(TimeCacheConfig::default());
        cfg
    }

    #[test]
    fn first_access_is_delayed_and_paid_once() {
        let mut cfg = tc_cfg();
        cfg.smt_per_core = 2;
        let mut h = RefHierarchy::new(&cfg, None);
        h.access(0, 0, AccessKind::Load, 0x3000, 0);
        let spy = h.access(0, 1, AccessKind::Load, 0x3000, 10);
        assert!(spy.l1_tag_hit && spy.first_access_l1 && spy.first_access_llc);
        assert_eq!(spy.latency, cfg.latencies.dram);
        let again = h.access(0, 1, AccessKind::Load, 0x3000, 20);
        assert_eq!(again.served_by, Level::L1);
    }

    #[test]
    #[should_panic(expected = "does not cover FTM")]
    fn ftm_is_refused() {
        let mut cfg = tc_cfg();
        cfg.security = SecurityMode::Ftm;
        RefHierarchy::new(&cfg, None);
    }

    #[test]
    #[should_panic(expected = "at most 64 hardware contexts, got 96")]
    fn more_than_64_contexts_are_refused() {
        let mut cfg = tc_cfg();
        cfg.cores = 32;
        cfg.smt_per_core = 3;
        RefHierarchy::new(&cfg, None);
    }

    #[test]
    fn context_63_has_its_own_sbit() {
        let mut cfg = tc_cfg();
        cfg.cores = 32;
        cfg.smt_per_core = 2;
        let mut h = RefHierarchy::new(&cfg, None);
        let line = 0x5000 / cfg.llc.geometry.line_size();
        h.access(0, 0, AccessKind::Load, 0x5000, 0);
        // LLC context 63 is core 31, thread 1.
        let first = h.access(31, 1, AccessKind::Load, 0x5000, 10);
        assert!(!first.l1_tag_hit && first.first_access_llc);
        assert_eq!(first.served_by, Level::Memory);
        // Its L1I misses, so this hit is decided by its LLC s-bit.
        let hit = h.access(31, 1, AccessKind::IFetch, 0x5000, 20);
        assert_eq!(hit.served_by, Level::LLC);
        assert!(!hit.first_access_llc);
        let slot = h.llc.find(line).expect("line is LLC-resident");
        let sbits = h.llc.tc.as_ref().expect("TimeCache LLC")[slot].sbits;
        assert_eq!(sbits.iter().collect::<Vec<_>>(), [0, 63]);
        let owner = h.access(0, 0, AccessKind::IFetch, 0x5000, 30);
        assert_eq!(owner.served_by, Level::LLC, "context 0 keeps its s-bit");
    }

    #[test]
    fn restore_resets_lines_filled_while_preempted() {
        let cfg = tc_cfg();
        let mut h = RefHierarchy::new(&cfg, None);
        h.access(0, 0, AccessKind::Load, 0xA000, 100);
        let snap_a = h.save_context(0, 0, 200);
        h.restore_context(0, 0, None, 200);
        h.access(0, 0, AccessKind::Load, 0xB000, 300);
        let _ = h.save_context(0, 0, 400);
        let cost = h.restore_context(0, 0, Some(&snap_a), 400);
        assert!(!cost.rollover);
        let x = h.access(0, 0, AccessKind::Load, 0xB000, 500);
        assert!(x.first_access_l1, "line filled after Ts must be reset");
        let own = h.access(0, 0, AccessKind::Load, 0xA000, 600);
        assert_eq!(own.served_by, Level::L1);
    }

    #[test]
    fn bug_skip_grant_forces_double_first_access() {
        let cfg = tc_cfg();
        let mut clean = RefHierarchy::new(&cfg, None);
        let mut buggy = RefHierarchy::new(&cfg, Some(BugKind::SkipGrantOnFill));
        for h in [&mut clean, &mut buggy] {
            h.access(0, 0, AccessKind::Load, 0x4000, 0);
        }
        let c = clean.access(0, 0, AccessKind::Load, 0x4000, 10);
        let b = buggy.access(0, 0, AccessKind::Load, 0x4000, 10);
        assert_eq!(c.served_by, Level::L1, "clean filler keeps visibility");
        assert!(b.first_access_l1, "the bug must actually change behavior");
    }
}
