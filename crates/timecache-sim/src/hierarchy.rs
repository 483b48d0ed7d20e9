//! The multi-level memory hierarchy: private split L1s over an inclusive
//! shared LLC with an MSI-style directory, with TimeCache engaged at every
//! level when configured.
//!
//! # Access semantics (Section V-A of the paper)
//!
//! On a tag hit, the requesting hardware context's s-bit is checked in
//! parallel with the tag. If set, the access is an ordinary hit. If clear,
//! the access is a **first access**: the request is sent down the hierarchy
//! and serviced with the latency of the first lower level where the
//! context's s-bit *is* set (or DRAM), the returned data is discarded, and
//! the s-bit is set so later accesses hit normally. The cache is **not**
//! refilled — it already holds the newest copy.
//!
//! On a true miss the conventional path runs: fetch from below, fill every
//! level on the way back (inclusive LLC), evicting victims as needed.
//!
//! # Coherence
//!
//! L1s are write-back/write-allocate. The LLC keeps a directory entry per
//! line: the exact sets of cores whose L1I and whose L1D hold it. Stores
//! invalidate remote copies; loads of a remotely-dirty line are serviced at
//! `remote_l1` latency after a write-back — the timing contrast exploited
//! by the invalidate+transfer attack (Section VII-B), which the
//! `dram_wait_on_remote_hit` mitigation removes.

use crate::addr::{Addr, LineAddr};
use crate::cache::{Cache, LookupResult};
use crate::config::{ConfigError, HierarchyConfig, SecurityMode};
use crate::stats::HierarchyStats;
use timecache_core::{
    FaultInjector, FaultKind, Snapshot, TimeCacheConfig, TriggerPoint, Visibility,
};

/// The kind of memory access a core performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (routed to the L1I).
    IFetch,
    /// Data load (routed to the L1D).
    Load,
    /// Data store (routed to the L1D; write-back, write-allocate).
    Store,
}

impl AccessKind {
    /// Whether this access modifies the line.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// Which component ultimately provided (or, for first accesses, bounded the
/// latency of) the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// The core's private L1.
    L1,
    /// The shared last-level cache.
    LLC,
    /// A remote core's private cache (dirty-line forwarding).
    RemoteL1,
    /// Main memory.
    Memory,
}

/// The outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total access latency in cycles, as the core observes it.
    pub latency: u64,
    /// The component that determined the latency.
    pub served_by: Level,
    /// Whether the L1 had a tag hit.
    pub l1_tag_hit: bool,
    /// First-access miss taken at the L1 (tag hit, s-bit clear).
    pub first_access_l1: bool,
    /// First-access miss taken at the LLC.
    pub first_access_llc: bool,
}

impl AccessOutcome {
    /// Whether a first-access delay was charged anywhere on the path.
    pub fn is_first_access(&self) -> bool {
        self.first_access_l1 || self.first_access_llc
    }
}

/// How [`Hierarchy::access_batch`] advances the cycle clock between
/// consecutive accesses of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClock {
    /// Serialized replay: each access issues `latency + k` cycles after the
    /// previous one.
    LatencyPlus(u64),
}

/// Cost of restoring a process's caching context at a context switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCost {
    /// Comparator cycles: the per-cache sweeps run in parallel, so this is
    /// the maximum across levels.
    pub comparator_cycles: u64,
    /// Total 64-byte transfers to restore s-bit snapshots (summed across
    /// levels; these are DMA'd from kernel memory, Section VI-D).
    pub transfer_lines: u64,
    /// Whether any level detected timestamp rollover.
    pub rollover: bool,
    /// s-bits reset across all levels (stale entries dropped).
    pub sbits_reset: u64,
}

/// A process's saved caching context across the whole hierarchy: one
/// snapshot per cache this process's hardware context touches (L1I, L1D,
/// LLC). Entries are `None` until first saved and in baseline mode.
#[derive(Debug, Clone, Default)]
pub struct ContextSnapshot {
    l1i: Option<Snapshot>,
    l1d: Option<Snapshot>,
    llc: Option<Snapshot>,
}

impl ContextSnapshot {
    /// An empty context (newly created process: all s-bits will be reset).
    pub fn new() -> Self {
        ContextSnapshot::default()
    }

    /// Total bytes of kernel memory the snapshots occupy.
    pub fn storage_bytes(&self) -> usize {
        [&self.l1i, &self.l1d, &self.llc]
            .into_iter()
            .flatten()
            .map(Snapshot::storage_bytes)
            .sum()
    }
}

/// Per-LLC-line directory entry, packed to 8 bytes so the 2 MB LLC's
/// directory is 256 KB. [`HierarchyConfig::validate`] caps `cores` at
/// [`crate::MAX_CORES`], the width of each mask.
///
/// No dirty owner is stored: a modified L1D copy is always its line's only
/// L1D copy (a store invalidates the others, and a remote read writes it
/// back first), so `Hierarchy::remote_owner` reads it from that one L1D.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// `sharers[l1]` is the exact set of cores whose L1 of [`l1_index`]
    /// `l1` (0 = L1I, 1 = L1D) holds the line.
    sharers: [u32; 2],
}

/// The set bits of a sharer mask, as core indices in ascending order.
fn cores_in(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            core
        })
    })
}

/// Which of a core's two L1s serves `kind`: 0 for the L1I, 1 for the L1D.
fn l1_index(kind: AccessKind) -> usize {
    match kind {
        AccessKind::IFetch => 0,
        AccessKind::Load | AccessKind::Store => 1,
    }
}

/// The full memory hierarchy.
///
/// See the [crate docs](crate) for a usage example.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    llc: Cache,
    /// L1→LLC slot links: `l1_links[core][l1][flat]`, with `l1` the L1's
    /// [`l1_index`], is the LLC flat index of the line in that L1
    /// slot, written by `fill_l1`. A link is valid while its L1 copy lives:
    /// LLC lines never move, and an LLC eviction or `clflush` invalidates
    /// every L1 copy first. An invalid L1 slot's link is stale and never
    /// read.
    l1_links: Vec<[Vec<usize>; 2]>,
    /// Directory, indexed by LLC flat line index.
    dir: Vec<DirEntry>,
    tc_cfg: Option<TimeCacheConfig>,
    /// `log2(line_size)`, resolved once so the per-access address-to-line
    /// conversion is a plain shift (no power-of-two assert or
    /// `trailing_zeros` on the hot path).
    line_shift: u32,
    /// Fault injector striking the save/restore paths; disabled (one cheap
    /// branch per probe site) unless [`Hierarchy::attach_faults`] is called.
    faults: FaultInjector,
}

impl Hierarchy {
    /// Builds a hierarchy from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ConfigError`] if `cfg.validate()` fails.
    pub fn new(cfg: HierarchyConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        // FTM protects the LLC only, with one presence plane per *core*;
        // TimeCache protects every level, with one plane per hardware
        // context.
        let (l1_tc, llc_tc, llc_ctxs) = match cfg.security {
            SecurityMode::Baseline => (None, None, cfg.total_contexts()),
            SecurityMode::TimeCache(tc) => (Some(tc), Some(tc), cfg.total_contexts()),
            SecurityMode::Ftm => (None, Some(TimeCacheConfig::default()), cfg.cores),
        };
        let l1_ctxs = cfg.smt_per_core;
        let l1i = (0..cfg.cores)
            .map(|_| Cache::new("L1I", cfg.l1i, l1_ctxs, l1_tc))
            .collect();
        let l1d = (0..cfg.cores)
            .map(|_| Cache::new("L1D", cfg.l1d, l1_ctxs, l1_tc))
            .collect();
        let llc = Cache::new("LLC", cfg.llc, llc_ctxs, llc_tc);
        let l1_links = vec![
            [
                vec![0; cfg.l1i.geometry.num_lines()],
                vec![0; cfg.l1d.geometry.num_lines()],
            ];
            cfg.cores
        ];
        let dir = vec![DirEntry::default(); cfg.llc.geometry.num_lines()];
        let tc_cfg = match cfg.security {
            SecurityMode::TimeCache(tc) => Some(tc),
            _ => None,
        };
        let line_shift = cfg.llc.geometry.line_size().trailing_zeros();
        Ok(Hierarchy {
            cfg,
            l1i,
            l1d,
            llc,
            l1_links,
            dir,
            tc_cfg,
            line_shift,
            faults: FaultInjector::disabled(),
        })
    }

    /// Attaches a [`FaultInjector`] whose plan targets the context-switch
    /// save/restore choreography. The handle is shared (cloned), so the
    /// caller keeps access to the injection counters and records.
    pub fn attach_faults(&mut self, faults: &FaultInjector) {
        self.faults = faults.clone();
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Line size shared by all levels.
    pub fn line_size(&self) -> u64 {
        self.cfg.llc.geometry.line_size()
    }

    /// The LLC visibility-context index for `(core, thread)`: one per
    /// hardware context under TimeCache, one per core under FTM (presence
    /// bits are core-granular there).
    pub fn llc_ctx(&self, core: usize, thread: usize) -> usize {
        if self.cfg.security.is_ftm() {
            core
        } else {
            core * self.cfg.smt_per_core + thread
        }
    }

    #[inline]
    fn check_context(&self, core: usize, thread: usize) {
        assert!(
            core < self.cfg.cores,
            "core {core} out of range ({} cores)",
            self.cfg.cores
        );
        assert!(
            thread < self.cfg.smt_per_core,
            "thread {thread} out of range ({} SMT contexts)",
            self.cfg.smt_per_core
        );
    }

    /// Performs one memory access by hardware context `(core, thread)` at
    /// cycle `now` and returns the observed latency and classification.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `thread` is out of range.
    ///
    /// A visible L1 hit that needs no directory work finishes here, inline
    /// in the caller: a load or fetch hit, or a store hit on a line already
    /// dirty in this L1D, whose other L1 copies the store that dirtied it
    /// invalidated. Every other outcome goes to `access_slow`.
    // A plain `#[inline]` left this a call in `System::run`.
    #[inline(always)]
    pub fn access(
        &mut self,
        core: usize,
        thread: usize,
        kind: AccessKind,
        addr: Addr,
        now: u64,
    ) -> AccessOutcome {
        self.check_context(core, thread);
        let line = LineAddr::from_raw(addr >> self.line_shift);
        let l1 = self.l1_mut(core, kind);
        let found = l1.lookup(line);
        match found {
            Some(hit)
                if l1.visibility(hit.flat, thread) == Visibility::Visible
                    && (!kind.is_write() || l1.is_dirty(hit.flat)) =>
            {
                l1.touch(hit.flat);
                let stats = l1.stats_mut();
                stats.accesses += 1;
                stats.hits += 1;
                debug_assert!(
                    !kind.is_write() || {
                        let me = 1 << core;
                        let llc_slot = self.linked_llc_slot(core, kind, hit.flat, line);
                        let [l1i, l1d] = self.dir[llc_slot].sharers;
                        l1i & !me == 0 && l1d == me
                    },
                    "dirty {line} in L1D{core} has another L1 copy"
                );
                AccessOutcome {
                    latency: self.cfg.latencies.l1_hit,
                    served_by: Level::L1,
                    l1_tag_hit: true,
                    first_access_l1: false,
                    first_access_llc: false,
                }
            }
            _ => self.access_slow(core, thread, kind, line, now, found),
        }
    }

    /// Performs a run of accesses by one hardware context: a loop over
    /// [`Hierarchy::access`] that advances the cycle clock per `clock`
    /// between them. Returns the outcomes in order and the clock value
    /// after the last access.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `thread` is out of range.
    pub fn access_batch(
        &mut self,
        core: usize,
        thread: usize,
        accesses: &[(AccessKind, Addr)],
        start: u64,
        clock: BatchClock,
    ) -> (Vec<AccessOutcome>, u64) {
        self.check_context(core, thread);
        let BatchClock::LatencyPlus(k) = clock;
        let mut now = start;
        let outcomes = accesses
            .iter()
            .map(|&(kind, addr)| {
                let out = self.access(core, thread, kind, addr, now);
                now += out.latency + k;
                out
            })
            .collect();
        (outcomes, now)
    }

    /// Every access [`Hierarchy::access`] does not finish inline: L1 first
    /// accesses, store hits on clean lines, and L1 misses. `found` is the
    /// L1 lookup of `line` the caller already made.
    #[inline(never)]
    fn access_slow(
        &mut self,
        core: usize,
        thread: usize,
        kind: AccessKind,
        line: LineAddr,
        now: u64,
        found: Option<LookupResult>,
    ) -> AccessOutcome {
        let lat = self.cfg.latencies;

        let l1 = self.l1_mut(core, kind);
        l1.stats_mut().accesses += 1;

        if let Some(hit) = found {
            let hit = hit.flat;
            let visible = l1.visibility(hit, thread) == Visibility::Visible;
            l1.touch(hit);
            if visible {
                l1.stats_mut().hits += 1;
                if kind.is_write() {
                    let llc_slot = self.linked_llc_slot(core, kind, hit, line);
                    self.write_hit(core, line, hit, llc_slot);
                }
                return AccessOutcome {
                    latency: lat.l1_hit,
                    served_by: Level::L1,
                    l1_tag_hit: true,
                    first_access_l1: false,
                    first_access_llc: false,
                };
            }
            // First access at the L1: delay with the latency of the first
            // lower level that is visible to this context; data discarded.
            l1.stats_mut().first_access += 1;
            l1.record_first_access(hit, thread);
            let llc_slot = self.linked_llc_slot(core, kind, hit, line);
            let (latency, served_by, fa_llc) = self.probe_below(core, thread, llc_slot);
            if kind.is_write() {
                self.write_hit(core, line, hit, llc_slot);
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
        self.l1_mut(core, kind).stats_mut().misses += 1;
        self.llc.stats_mut().accesses += 1;
        let llc_ctx = self.llc_ctx(core, thread);

        // Every arm resolves the LLC slot the line occupies, so the L1 fill
        // and the store below get its directory index for free (no
        // re-lookup).
        let (latency, served_by, fa_llc, llc_slot) = if let Some(hit) = self.llc.lookup(line) {
            let hit = hit.flat;
            let visible = self.llc.visibility(hit, llc_ctx) == Visibility::Visible;
            self.llc.touch(hit);
            if visible {
                self.llc.stats_mut().hits += 1;
                // Dirty in a remote L1? Forward at remote latency after a
                // write-back (invalidate+transfer timing).
                if let Some(owner) = self.remote_owner(line, hit, core) {
                    self.writeback_owner_copy(owner, hit);
                    (lat.remote_l1, Level::RemoteL1, false, hit)
                } else {
                    (lat.llc_hit, Level::LLC, false, hit)
                }
            } else {
                // First access at the LLC: the request continues to memory,
                // whose response is discarded (Section V-A). With the
                // Section VII-B mitigation this is also forced for remote
                // copies, which is already the behaviour here.
                self.llc.stats_mut().first_access += 1;
                self.llc.record_first_access(hit, llc_ctx);
                // A remotely-dirty copy must still be written back so the
                // LLC holds current data for the upcoming L1 fill.
                if let Some(owner) = self.remote_owner(line, hit, core) {
                    self.writeback_owner_copy(owner, hit);
                }
                (lat.dram, Level::Memory, true, hit)
            }
        } else {
            // True LLC miss: fetch from memory and fill the LLC.
            self.llc.stats_mut().misses += 1;
            let slot = self.fill_llc(line, llc_ctx, now);
            (lat.dram, Level::Memory, false, slot)
        };

        // Fill the L1 from the (now current) LLC copy.
        let l1_slot = self.fill_l1(core, thread, kind, line, now, llc_slot);
        if kind.is_write() {
            self.write_hit(core, line, l1_slot, llc_slot);
        }

        AccessOutcome {
            latency,
            served_by,
            l1_tag_hit: false,
            first_access_l1: false,
            first_access_llc: fa_llc,
        }
    }

    /// `clflush`: invalidates the line everywhere, writing back dirty data.
    /// Returns the instruction's completion latency, which in the baseline
    /// depends on whether any copy existed — the flush+flush channel — and
    /// is constant under the Section VII-C mitigation.
    pub fn clflush(&mut self, addr: Addr) -> u64 {
        let line = LineAddr::from_raw(addr >> self.line_shift);
        let mut present = false;
        for core in 0..self.cfg.cores {
            if self.l1i[core].invalidate(line).is_some() {
                present = true;
            }
            if let Some(dirty) = self.l1d[core].invalidate(line) {
                present = true;
                if dirty {
                    self.l1d[core].stats_mut().writebacks += 1;
                }
            }
        }
        if let Some(hit) = self.llc.lookup(line) {
            present = true;
            self.dir[hit.flat] = DirEntry::default();
            if self.llc.invalidate(line) == Some(true) {
                self.llc.stats_mut().writebacks += 1;
            }
        }
        let constant_time = self
            .tc_cfg
            .map(|tc| tc.constant_time_clflush())
            .unwrap_or(false);
        if present || constant_time {
            self.cfg.latencies.flush_present
        } else {
            self.cfg.latencies.flush_absent
        }
    }

    /// Saves the caching context of `(core, thread)` across all levels at
    /// cycle `now`. Returns an empty snapshot unless the hierarchy runs
    /// TimeCache.
    pub fn save_context(&self, core: usize, thread: usize, now: u64) -> ContextSnapshot {
        self.check_context(core, thread);
        if !self.cfg.security.is_timecache() {
            // Nothing to save, so nothing for a save-time fault to strike:
            // baseline has no s-bits, and FTM's presence bits stay with
            // the core across context switches (which is exactly its
            // weakness).
            return ContextSnapshot::default();
        }
        if self
            .faults
            .fire(FaultKind::DropSnapshot, TriggerPoint::Save)
        {
            // DMA to kernel memory failed wholesale: nothing was saved. The
            // process will restore as fresh — conservative, never stale.
            return ContextSnapshot::default();
        }
        let mut snap = ContextSnapshot {
            l1i: self.l1i[core].save_context(thread, now),
            l1d: self.l1d[core].save_context(thread, now),
            llc: self.llc.save_context(self.llc_ctx(core, thread), now),
        };
        if self
            .faults
            .fire(FaultKind::CorruptSnapshot, TriggerPoint::Save)
        {
            // One strike corrupts every level's copy; each keeps the honest
            // checksum, so the restore-side integrity check catches it.
            snap.l1i = snap.l1i.as_ref().map(|s| self.faults.corrupt_snapshot(s));
            snap.l1d = snap.l1d.as_ref().map(|s| self.faults.corrupt_snapshot(s));
            snap.llc = snap.llc.as_ref().map(|s| self.faults.corrupt_snapshot(s));
        }
        snap
    }

    /// Restores a process's caching context onto `(core, thread)`;
    /// `snapshot = None` models a newly created process (all s-bits reset).
    /// No-op (zero cost) in baseline mode.
    pub fn restore_context(
        &mut self,
        core: usize,
        thread: usize,
        snapshot: Option<&ContextSnapshot>,
        now: u64,
    ) -> SwitchCost {
        self.check_context(core, thread);
        let mut cost = SwitchCost::default();
        if self.cfg.security.is_ftm() {
            return cost;
        }
        let llc_ctx = self.llc_ctx(core, thread);
        // Destructure so the caches and the injector are disjoint borrows —
        // no per-restore clone of the injector's shared plan.
        let Hierarchy {
            l1i,
            l1d,
            llc,
            faults,
            ..
        } = self;
        let parts: [(&mut Cache, usize, Option<&Snapshot>); 3] = [
            (
                &mut l1i[core],
                thread,
                snapshot.and_then(|s| s.l1i.as_ref()),
            ),
            (
                &mut l1d[core],
                thread,
                snapshot.and_then(|s| s.l1d.as_ref()),
            ),
            (llc, llc_ctx, snapshot.and_then(|s| s.llc.as_ref())),
        ];
        for (cache, ctx, snap) in parts {
            if let Some(out) = cache.restore_context_faulty(ctx, snap, now, faults) {
                cost.comparator_cycles = cost.comparator_cycles.max(out.comparator_cycles);
                cost.transfer_lines += out.transfer_lines as u64;
                cost.rollover |= out.rollover;
                cost.sbits_reset += out.sbits_reset as u64;
            }
        }
        cost
    }

    /// Statistics snapshot across all caches.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.iter().map(|c| *c.stats()).collect(),
            l1d: self.l1d.iter().map(|c| *c.stats()).collect(),
            llc: *self.llc.stats(),
        }
    }

    /// Clears statistics on every cache (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.reset_stats();
        }
        self.llc.reset_stats();
    }

    /// Direct read-only access to a core's L1I (diagnostics/tests).
    pub fn l1i(&self, core: usize) -> &Cache {
        &self.l1i[core]
    }

    /// Direct read-only access to a core's L1D (diagnostics/tests).
    pub fn l1d(&self, core: usize) -> &Cache {
        &self.l1d[core]
    }

    /// Direct read-only access to the LLC (diagnostics/tests).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn l1_mut(&mut self, core: usize, kind: AccessKind) -> &mut Cache {
        match kind {
            AccessKind::IFetch => &mut self.l1i[core],
            AccessKind::Load | AccessKind::Store => &mut self.l1d[core],
        }
    }

    /// The LLC slot of `line`, resident at `l1_flat` in `core`'s L1 of
    /// `kind`, read from its link instead of searching the LLC set.
    fn linked_llc_slot(
        &self,
        core: usize,
        kind: AccessKind,
        l1_flat: usize,
        line: LineAddr,
    ) -> usize {
        let slot = self.l1_links[core][l1_index(kind)][l1_flat];
        debug_assert_eq!(
            self.llc.lookup(line).map(|hit| hit.flat),
            Some(slot),
            "stale L1->LLC link for {line}"
        );
        slot
    }

    /// Latency probe below an L1 first access to the line at LLC slot
    /// `llc_slot` (inclusivity: an L1-resident line is LLC-resident):
    /// serviced at LLC latency if the LLC copy is visible to this context
    /// (unless the Section VII-B mitigation forces DRAM), else at DRAM
    /// latency with the LLC s-bit set along the way. Never fills anything.
    fn probe_below(&mut self, core: usize, thread: usize, llc_slot: usize) -> (u64, Level, bool) {
        let lat = self.cfg.latencies;
        let llc_ctx = self.llc_ctx(core, thread);
        self.llc.stats_mut().accesses += 1;
        self.llc.touch(llc_slot);
        if self.llc.visibility(llc_slot, llc_ctx) == Visibility::Visible {
            self.llc.stats_mut().hits += 1;
            let force_dram = self
                .tc_cfg
                .map(|tc| tc.dram_wait_on_remote_hit())
                .unwrap_or(false);
            if force_dram {
                (lat.dram, Level::Memory, false)
            } else {
                (lat.llc_hit, Level::LLC, false)
            }
        } else {
            self.llc.stats_mut().first_access += 1;
            self.llc.record_first_access(llc_slot, llc_ctx);
            (lat.dram, Level::Memory, true)
        }
    }

    /// Fills the LLC with `line`, handling inclusive back-invalidation of
    /// the victim and directory setup. Returns the flat index of the slot
    /// the line landed in (the caller's directory key).
    fn fill_llc(&mut self, line: LineAddr, llc_ctx: usize, now: u64) -> usize {
        let (slot, victim) = self.llc.fill(line, llc_ctx, now);
        let slot = slot.flat;
        if let Some(victim) = victim {
            // Inclusive LLC: evicting a line removes it from all L1s.
            // The victim occupied the same flat slot the new line now uses;
            // its directory entry is at that index.
            let [l1i, l1d] = std::mem::take(&mut self.dir[slot]).sharers;
            for core in cores_in(l1i) {
                self.l1i[core].invalidate(victim.line);
            }
            for core in cores_in(l1d) {
                if self.l1d[core].invalidate(victim.line) == Some(true) {
                    // Dirty L1 copy of a dying LLC line: straight to
                    // memory.
                    self.l1d[core].stats_mut().writebacks += 1;
                }
            }
            if victim.dirty {
                self.llc.stats_mut().writebacks += 1;
            }
        } else {
            // Even without a victim the slot's directory entry may be stale
            // (from an invalidated line): reset it.
            self.dir[slot] = DirEntry::default();
        }
        slot
    }

    /// Fills a private L1 with `line`, linking the landing slot to
    /// `llc_slot` (the LLC slot `line` occupies, which the caller just
    /// resolved), updating the directory and handling the victim
    /// write-back. Returns the flat index of the L1 slot the line landed
    /// in.
    fn fill_l1(
        &mut self,
        core: usize,
        thread: usize,
        kind: AccessKind,
        line: LineAddr,
        now: u64,
        llc_slot: usize,
    ) -> usize {
        debug_assert_eq!(
            self.llc.lookup(line).map(|hit| hit.flat),
            Some(llc_slot),
            "inclusive LLC lost an L1-resident line"
        );
        let l1 = l1_index(kind);
        let (slot, victim) = self.l1_mut(core, kind).fill(line, thread, now);
        let slot = slot.flat;
        if let Some(v) = victim {
            // The landing slot still links to the victim's LLC slot.
            let v_slot = self.linked_llc_slot(core, kind, slot, v.line);
            if v.dirty {
                self.l1_mut(core, kind).stats_mut().writebacks += 1;
                self.llc.set_dirty(v_slot, true);
            }
            let sharers = &mut self.dir[v_slot].sharers;
            debug_assert_eq!(
                sharers[1 - l1] >> core & 1 == 1,
                [&self.l1i[core], &self.l1d[core]][1 - l1]
                    .lookup(v.line)
                    .is_some(),
                "directory lost core {core}'s other L1 copy of {}",
                v.line
            );
            sharers[l1] &= !(1 << core);
        }
        self.l1_links[core][l1][slot] = llc_slot;
        self.dir[llc_slot].sharers[l1] |= 1 << core;
        slot
    }

    /// A store hit on `line`, resident at flat index `l1d_slot` in this
    /// core's L1D and at `llc_slot` in the LLC: mark the L1D copy dirty and
    /// invalidate remote copies. The caller resolved both slots; no lookups
    /// here.
    fn write_hit(&mut self, core: usize, line: LineAddr, l1d_slot: usize, llc_slot: usize) {
        self.l1d[core].set_dirty(l1d_slot, true);
        let me = 1 << core;
        let [l1i, l1d] = self.dir[llc_slot].sharers;
        for other in cores_in(l1i & !me) {
            self.l1i[other].invalidate(line);
        }
        for other in cores_in(l1d & !me) {
            if self.l1d[other].invalidate(line) == Some(true) {
                // Remote dirty copy written back before we overwrite.
                self.l1d[other].stats_mut().writebacks += 1;
                self.llc.set_dirty(llc_slot, true);
            }
        }
        self.dir[llc_slot].sharers = [l1i & me, me];
    }

    /// The core other than `core` whose L1D holds a modified copy of `line`
    /// (at LLC slot `llc_slot`), with the L1D slot of that copy. Only a
    /// sole L1D sharer can hold one, so this probes at most one L1D, and
    /// none unless that sharer is remote.
    fn remote_owner(&self, line: LineAddr, llc_slot: usize, core: usize) -> Option<(usize, usize)> {
        let l1d = self.dir[llc_slot].sharers[1];
        if !l1d.is_power_of_two() || l1d == 1 << core {
            return None;
        }
        let owner = l1d.trailing_zeros() as usize;
        let hit = self.l1d[owner].lookup(line);
        debug_assert!(hit.is_some(), "directory lists L1D{owner} for {line}");
        hit.filter(|hit| self.l1d[owner].is_dirty(hit.flat))
            .map(|hit| (owner, hit.flat))
    }

    /// Writes back the modified copy [`Hierarchy::remote_owner`] found,
    /// `(core, l1d_slot)`, to the LLC line at `llc_slot` (clean forwarding
    /// state afterwards).
    fn writeback_owner_copy(&mut self, (owner, l1d_slot): (usize, usize), llc_slot: usize) {
        self.l1d[owner].set_dirty(l1d_slot, false);
        self.l1d[owner].stats_mut().writebacks += 1;
        self.llc.set_dirty(llc_slot, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SecurityMode;

    fn hier(security: SecurityMode, cores: usize) -> Hierarchy {
        let mut cfg = HierarchyConfig::with_cores(cores);
        cfg.security = security;
        Hierarchy::new(cfg).unwrap()
    }

    fn tc() -> SecurityMode {
        SecurityMode::TimeCache(TimeCacheConfig::default())
    }

    #[test]
    fn dir_entry_is_packed() {
        assert_eq!(std::mem::size_of::<DirEntry>(), 8);
        assert!(crate::MAX_CORES <= u32::BITS as usize);
    }

    #[test]
    fn cores_in_lists_set_bits_in_order() {
        assert_eq!(cores_in(0).count(), 0);
        assert_eq!(cores_in(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
        assert_eq!(cores_in(1 << 31).collect::<Vec<_>>(), [31]);
    }

    #[test]
    fn cold_miss_then_hit_baseline() {
        let mut h = hier(SecurityMode::Baseline, 1);
        let a = h.access(0, 0, AccessKind::Load, 0x1000, 0);
        assert_eq!(a.served_by, Level::Memory);
        assert!(!a.l1_tag_hit);
        let b = h.access(0, 0, AccessKind::Load, 0x1000, 1);
        assert_eq!(b.served_by, Level::L1);
        assert_eq!(b.latency, h.config().latencies.l1_hit);
        let s = h.stats();
        assert_eq!(s.l1d[0].hits, 1);
        assert_eq!(s.l1d[0].misses, 1);
        assert_eq!(s.llc.misses, 1);
    }

    #[test]
    fn ifetch_routes_to_l1i() {
        let mut h = hier(SecurityMode::Baseline, 1);
        h.access(0, 0, AccessKind::IFetch, 0x2000, 0);
        let s = h.stats();
        assert_eq!(s.l1i[0].accesses, 1);
        assert_eq!(s.l1d[0].accesses, 0);
    }

    #[test]
    fn smt_sibling_first_access_is_delayed() {
        let mut cfg = HierarchyConfig::with_cores(1);
        cfg.smt_per_core = 2;
        cfg.security = tc();
        let mut h = Hierarchy::new(cfg).unwrap();

        // Thread 0 (victim) loads a shared line.
        h.access(0, 0, AccessKind::Load, 0x3000, 0);
        // Thread 1 (spy) reloads: tag hit but first access -> memory latency.
        let spy = h.access(0, 1, AccessKind::Load, 0x3000, 10);
        assert!(spy.l1_tag_hit);
        assert!(spy.first_access_l1);
        assert!(spy.first_access_llc);
        assert_eq!(spy.served_by, Level::Memory);
        assert_eq!(spy.latency, h.config().latencies.dram);
        // Second access by the spy is now a normal hit.
        let again = h.access(0, 1, AccessKind::Load, 0x3000, 20);
        assert_eq!(again.served_by, Level::L1);
    }

    #[test]
    fn baseline_smt_sibling_gets_fast_reload() {
        let mut cfg = HierarchyConfig::with_cores(1);
        cfg.smt_per_core = 2;
        let mut h = Hierarchy::new(cfg).unwrap();
        h.access(0, 0, AccessKind::Load, 0x3000, 0);
        let spy = h.access(0, 1, AccessKind::Load, 0x3000, 10);
        assert_eq!(spy.served_by, Level::L1); // the leak TimeCache closes
    }

    #[test]
    fn cross_core_first_access_at_llc() {
        let mut h = hier(tc(), 2);
        // Core 0 loads; line now in core 0's L1 and the LLC.
        h.access(0, 0, AccessKind::Load, 0x4000, 0);
        // Core 1 misses its L1, tag-hits the LLC, but s-bit is clear.
        let spy = h.access(1, 0, AccessKind::Load, 0x4000, 10);
        assert!(!spy.l1_tag_hit);
        assert!(spy.first_access_llc);
        assert_eq!(spy.latency, h.config().latencies.dram);
        // Now visible: a reload on core 1 hits its own L1.
        let again = h.access(1, 0, AccessKind::Load, 0x4000, 20);
        assert_eq!(again.served_by, Level::L1);
    }

    #[test]
    fn cross_core_baseline_llc_hit() {
        let mut h = hier(SecurityMode::Baseline, 2);
        h.access(0, 0, AccessKind::Load, 0x4000, 0);
        let spy = h.access(1, 0, AccessKind::Load, 0x4000, 10);
        assert_eq!(spy.served_by, Level::LLC);
        assert_eq!(spy.latency, h.config().latencies.llc_hit);
    }

    #[test]
    fn clflush_removes_line_everywhere() {
        let mut h = hier(SecurityMode::Baseline, 2);
        h.access(0, 0, AccessKind::Load, 0x5000, 0);
        h.access(1, 0, AccessKind::Load, 0x5000, 1);
        let lat_present = h.clflush(0x5000);
        assert_eq!(lat_present, h.config().latencies.flush_present);
        assert!(h.llc().lookup(LineAddr::from_addr(0x5000, 64)).is_none());
        let miss = h.access(0, 0, AccessKind::Load, 0x5000, 2);
        assert_eq!(miss.served_by, Level::Memory);
    }

    #[test]
    fn clflush_timing_leaks_in_baseline_and_not_with_mitigation() {
        let mut h = hier(SecurityMode::Baseline, 1);
        h.access(0, 0, AccessKind::Load, 0x6000, 0);
        let first = h.clflush(0x6000);
        let second = h.clflush(0x6000); // line gone: aborts early
        assert!(
            second < first,
            "flush+flush channel should exist in baseline"
        );

        let mut cfg = HierarchyConfig::with_cores(1);
        cfg.security =
            SecurityMode::TimeCache(TimeCacheConfig::default().with_constant_time_clflush(true));
        let mut h = Hierarchy::new(cfg).unwrap();
        h.access(0, 0, AccessKind::Load, 0x6000, 0);
        assert_eq!(h.clflush(0x6000), h.clflush(0x6000));
    }

    #[test]
    fn store_gains_exclusivity() {
        let mut h = hier(SecurityMode::Baseline, 2);
        h.access(0, 0, AccessKind::Load, 0x7000, 0);
        h.access(1, 0, AccessKind::Load, 0x7000, 1);
        // Core 1 writes: core 0's copy must be invalidated.
        h.access(1, 0, AccessKind::Store, 0x7000, 2);
        let reload = h.access(0, 0, AccessKind::Load, 0x7000, 3);
        assert!(!reload.l1_tag_hit, "core 0 copy should be gone");
        assert_eq!(reload.served_by, Level::RemoteL1);
    }

    #[test]
    fn remote_dirty_line_served_at_remote_latency_then_clean() {
        let mut h = hier(SecurityMode::Baseline, 2);
        h.access(0, 0, AccessKind::Store, 0x8000, 0);
        let spy = h.access(1, 0, AccessKind::Load, 0x8000, 1);
        assert_eq!(spy.served_by, Level::RemoteL1);
        assert_eq!(spy.latency, h.config().latencies.remote_l1);
        // After forwarding, a third core-1 access is a local hit.
        let again = h.access(1, 0, AccessKind::Load, 0x8000, 2);
        assert_eq!(again.served_by, Level::L1);
    }

    #[test]
    fn dram_wait_mitigation_hides_remote_timing() {
        let mut cfg = HierarchyConfig::with_cores(2);
        cfg.security =
            SecurityMode::TimeCache(TimeCacheConfig::default().with_dram_wait_on_remote_hit(true));
        let mut h = Hierarchy::new(cfg).unwrap();
        h.access(0, 0, AccessKind::Store, 0x8000, 0);
        // Core 1's first access must observe DRAM latency even though a
        // remote dirty copy exists.
        let spy = h.access(1, 0, AccessKind::Load, 0x8000, 1);
        assert_eq!(spy.latency, h.config().latencies.dram);
    }

    #[test]
    fn context_switch_isolation_on_one_core() {
        let mut h = hier(tc(), 1);
        // Process A loads a shared line and is preempted.
        h.access(0, 0, AccessKind::Load, 0x9000, 100);
        let snap_a = h.save_context(0, 0, 200);
        h.restore_context(0, 0, None, 200); // B scheduled (fresh)

        // B reloads the same shared line: tag hit, but must be delayed.
        let spy = h.access(0, 0, AccessKind::Load, 0x9000, 300);
        assert!(spy.l1_tag_hit);
        assert!(spy.first_access_l1);

        // B preempted, A resumes: A's own line is still visible.
        let snap_b = h.save_context(0, 0, 400);
        h.restore_context(0, 0, Some(&snap_a), 400);
        let a2 = h.access(0, 0, AccessKind::Load, 0x9000, 500);
        assert_eq!(a2.served_by, Level::L1);

        // B resumes; its first access already paid, so it hits now.
        let _ = h.save_context(0, 0, 600);
        h.restore_context(0, 0, Some(&snap_b), 600);
        let b2 = h.access(0, 0, AccessKind::Load, 0x9000, 700);
        assert_eq!(b2.served_by, Level::L1);
    }

    #[test]
    fn restore_resets_lines_filled_while_preempted() {
        let mut h = hier(tc(), 1);
        h.access(0, 0, AccessKind::Load, 0xA000, 100); // A's line
        let snap_a = h.save_context(0, 0, 200);
        h.restore_context(0, 0, None, 200);

        // B evicts nothing but loads a new line X at cycle 300.
        h.access(0, 0, AccessKind::Load, 0xB000, 300);
        let _ = h.save_context(0, 0, 400);

        // A resumes; X was filled after A's Ts -> not visible to A.
        let cost = h.restore_context(0, 0, Some(&snap_a), 400);
        assert!(!cost.rollover);
        let x = h.access(0, 0, AccessKind::Load, 0xB000, 500);
        assert!(x.l1_tag_hit);
        assert!(x.first_access_l1, "B's line must not be visible to A");
        // A's own line is untouched.
        let own = h.access(0, 0, AccessKind::Load, 0xA000, 600);
        assert_eq!(own.served_by, Level::L1);
    }

    #[test]
    fn switch_cost_reports_transfers_and_cycles() {
        let mut h = hier(tc(), 1);
        h.access(0, 0, AccessKind::Load, 0xC000, 0);
        let snap = h.save_context(0, 0, 10);
        let cost = h.restore_context(0, 0, Some(&snap), 20);
        // L1: 512 lines -> 64B -> 1 transfer each; LLC: 32768 lines -> 4KB
        // -> 64 transfers.
        assert_eq!(cost.transfer_lines, 1 + 1 + 64);
        assert_eq!(cost.comparator_cycles, 33);
        let baseline_cost = hier(SecurityMode::Baseline, 1).restore_context(0, 0, None, 0);
        assert_eq!(baseline_cost, SwitchCost::default());
    }

    #[test]
    fn inclusive_llc_eviction_back_invalidates_l1() {
        // Tiny hierarchy: LLC with 1-way sets so evictions are easy to force.
        let cfg = HierarchyConfig {
            l1i: crate::config::CacheConfig::new(256, 1, 64),
            l1d: crate::config::CacheConfig::new(256, 1, 64),
            llc: crate::config::CacheConfig::new(1024, 1, 64),
            ..HierarchyConfig::default()
        };
        let mut h = Hierarchy::new(cfg).unwrap();

        // 0x0 and 0x400 collide in the 16-set... (1024/64 = 16 sets) —
        // stride 1024 collides.
        h.access(0, 0, AccessKind::Load, 0x0, 0);
        assert!(h.l1d(0).lookup(LineAddr::from_addr(0x0, 64)).is_some());
        h.access(0, 0, AccessKind::Load, 0x400, 1); // evicts LLC line 0x0
        assert!(
            h.l1d(0).lookup(LineAddr::from_addr(0x0, 64)).is_none(),
            "L1 copy must be back-invalidated with the LLC line"
        );
    }

    #[test]
    fn l1_links_track_the_llc_slot_of_every_resident_line() {
        // 2 cores of 4-line L1s over an 8-line LLC: the L1s together hold
        // more lines than the LLC, so fills keep back-invalidating L1
        // copies. 24 shared lines, every access kind, clflushes, and fresh
        // restores (L1 first accesses, which read the link) in TimeCache.
        // The directory is checked too: each LLC line's L1I and L1D masks
        // are exactly the cores holding it there, and a dirty L1D copy is
        // its line's only L1 copy outside its own core, which is what lets
        // `access` finish a store hit on a dirty line inline.
        for security in [SecurityMode::Baseline, tc()] {
            let cfg = HierarchyConfig {
                cores: 2,
                l1i: crate::config::CacheConfig::new(256, 2, 64),
                l1d: crate::config::CacheConfig::new(256, 2, 64),
                llc: crate::config::CacheConfig::new(512, 2, 64),
                security,
                ..HierarchyConfig::default()
            };
            let mut h = Hierarchy::new(cfg).unwrap();
            let lines: Vec<LineAddr> = (0..24).map(LineAddr::from_raw).collect();
            let mut rng = 0x2545_F491_4F6C_DD1D_u64;
            let mut next = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let kinds = [AccessKind::IFetch, AccessKind::Load, AccessKind::Store];
            let l1_invalidations = |h: &Hierarchy| -> u64 {
                let s = h.stats();
                s.l1i.iter().chain(&s.l1d).map(|c| c.invalidations).sum()
            };
            let (mut back_invalidations, mut l1_first_accesses, mut dirty_copies) = (0, 0, 0);
            let mut dirty_store_hits = 0;
            for now in 0..12_000 {
                let core = next(2) as usize;
                let addr = lines[next(24) as usize].raw() * 64;
                match next(20) {
                    0 => {
                        h.clflush(addr);
                    }
                    1 => {
                        h.restore_context(core, 0, None, now);
                    }
                    _ => {
                        let kind = kinds[next(3) as usize];
                        let before = l1_invalidations(&h);
                        let line = LineAddr::from_raw(addr / 64);
                        let dirty_in_l1d = |h: &Hierarchy| {
                            h.l1d[core]
                                .lookup(line)
                                .is_some_and(|hit| h.l1d[core].is_dirty(hit.flat))
                        };
                        let dirty_before = dirty_in_l1d(&h);
                        let out = h.access(core, 0, kind, addr, now);
                        if kind.is_write() {
                            // Hit or miss, a store leaves its line dirty
                            // in this core's L1D.
                            assert!(dirty_in_l1d(&h), "store to {line} at {now}");
                            if dirty_before && out.served_by == Level::L1 {
                                dirty_store_hits += 1;
                            }
                        } else {
                            // A load or fetch invalidates L1 copies only by
                            // evicting their LLC line.
                            back_invalidations += l1_invalidations(&h) - before;
                        }
                        l1_first_accesses += u64::from(out.first_access_l1);
                    }
                }
                for core in 0..2 {
                    for (l1, links) in [&h.l1i[core], &h.l1d[core]]
                        .into_iter()
                        .zip(&h.l1_links[core])
                    {
                        for &line in &lines {
                            if let Some(hit) = l1.lookup(line) {
                                let llc = h.llc().lookup(line).expect("inclusive LLC");
                                assert_eq!(
                                    links[hit.flat],
                                    llc.flat,
                                    "{} {line} at {now}",
                                    l1.name()
                                );
                            }
                        }
                    }
                }
                for &line in &lines {
                    let Some(llc) = h.llc().lookup(line) else {
                        continue;
                    };
                    let holders = |l1s: &[Cache]| -> u32 {
                        (0..2)
                            .filter(|&core| l1s[core].lookup(line).is_some())
                            .fold(0, |mask, core| mask | 1 << core)
                    };
                    let (l1i, l1d) = (holders(&h.l1i), holders(&h.l1d));
                    assert_eq!(
                        h.dir[llc.flat].sharers,
                        [l1i, l1d],
                        "directory of {line} at {now}"
                    );
                    for core in cores_in(l1d) {
                        let at = h.l1d[core].lookup(line).unwrap().flat;
                        if h.l1d[core].is_dirty(at) {
                            dirty_copies += 1;
                            assert_eq!(l1d, 1 << core, "dirty {line} shared at {now}");
                            assert_eq!(
                                l1i & !(1 << core),
                                0,
                                "dirty {line} in a remote L1I at {now}"
                            );
                        }
                    }
                }
            }
            assert!(back_invalidations > 100, "{back_invalidations}");
            assert!(dirty_copies > 100, "{dirty_copies}");
            assert!(dirty_store_hits > 100, "{dirty_store_hits}");
            assert_eq!(security.is_timecache(), l1_first_accesses > 0);
        }
    }

    #[test]
    fn first_access_does_not_perturb_dirty_data() {
        let mut h = hier(tc(), 1);
        // A writes, B first-accesses (read), A resumes and reads: data path
        // statistics must show no spurious writeback of A's dirty line.
        h.access(0, 0, AccessKind::Store, 0xD000, 0);
        let snap_a = h.save_context(0, 0, 10);
        h.restore_context(0, 0, None, 10);
        h.access(0, 0, AccessKind::Load, 0xD000, 20); // B: first access
        let _ = h.save_context(0, 0, 30);
        h.restore_context(0, 0, Some(&snap_a), 30);
        let a = h.access(0, 0, AccessKind::Load, 0xD000, 40);
        assert_eq!(a.served_by, Level::L1);
        assert_eq!(h.stats().l1d[0].writebacks, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_rejected() {
        hier(SecurityMode::Baseline, 1).save_context(1, 0, 0);
    }

    #[test]
    fn save_time_corruption_is_caught_at_restore() {
        use timecache_core::{FaultPlan, TriggerPoint};

        let mut h = hier(tc(), 1);
        let inj = FaultInjector::new(FaultPlan::new(
            FaultKind::CorruptSnapshot,
            TriggerPoint::Save,
            0xBAD,
        ));
        h.attach_faults(&inj);

        // Process A loads a line, then is preempted; the save is corrupted
        // in flight.
        h.access(0, 0, AccessKind::Load, 0x9000, 100);
        let snap_a = h.save_context(0, 0, 200);
        assert_eq!(inj.injected(), 1);
        h.restore_context(0, 0, None, 200);

        // A resumes: the checksum mismatch must force a full reset, so even
        // A's own line costs a first access again — degraded, never stale.
        h.restore_context(0, 0, Some(&snap_a), 300);
        assert_eq!(inj.detected(), 3, "all three levels detected");
        let a = h.access(0, 0, AccessKind::Load, 0x9000, 400);
        assert!(a.l1_tag_hit);
        assert!(a.first_access_l1);
    }

    #[test]
    fn save_time_drop_restores_as_fresh() {
        use timecache_core::{FaultPlan, TriggerPoint};

        let mut h = hier(tc(), 1);
        let inj = FaultInjector::new(FaultPlan::new(
            FaultKind::DropSnapshot,
            TriggerPoint::Save,
            7,
        ));
        h.attach_faults(&inj);
        h.access(0, 0, AccessKind::Load, 0x9000, 100);
        let snap_a = h.save_context(0, 0, 200);
        assert_eq!(snap_a.storage_bytes(), 0, "nothing was saved");
        h.restore_context(0, 0, None, 200);
        h.restore_context(0, 0, Some(&snap_a), 300);
        let a = h.access(0, 0, AccessKind::Load, 0x9000, 400);
        assert!(a.first_access_l1, "fresh restore: own line re-paid");
    }
}
