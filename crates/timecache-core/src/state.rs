//! Per-cache-level TimeCache state machine.
//!
//! [`TimeCacheState`] aggregates the mechanism for one cache level: one
//! `Tc` fill timestamp per line, one [`SBitArray`] per hardware context
//! sharing the cache, and the save/restore/compare choreography performed
//! at context switches (Fig. 4 of the paper).

use crate::comparator::BitSerialComparator;
use crate::config::TimeCacheConfig;
use crate::fault::{FaultInjector, FaultKind, TriggerPoint};
use crate::sbit::SBitArray;
use crate::snapshot::Snapshot;

/// What a tag-hit access is allowed to observe, per Section V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// The requesting context's s-bit is set: service as an ordinary hit.
    Visible,
    /// The s-bit is clear: this is a **first access**. The request must be
    /// sent down the memory hierarchy and serviced with miss-equivalent
    /// latency; the returned data is discarded (the cached copy is newest)
    /// and the s-bit is then set via
    /// [`TimeCacheState::record_first_access`].
    FirstAccess,
}

/// The outcome of restoring a process's caching context onto a hardware
/// context (Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreOutcome {
    /// Whether counter rollover was detected since the process was
    /// preempted, forcing a conservative reset of all its s-bits.
    pub rollover: bool,
    /// Number of s-bits the comparator (or rollover reset) cleared relative
    /// to the restored snapshot.
    pub sbits_reset: usize,
    /// Hardware cycles spent in the bit-serial comparison sweep (zero when a
    /// rollover reset or a fresh-process reset made the sweep unnecessary).
    pub comparator_cycles: u64,
    /// 64-byte transfers performed to restore the snapshot from memory.
    pub transfer_lines: usize,
    /// Whether a fault forced this restore to fall back to the conservative
    /// full s-bit reset (lost/corrupt snapshot, comparator glitch, or a
    /// suppressed-but-real rollover caught by the software cross-check).
    /// Always `false` on the fault-free path.
    pub degraded: bool,
}

/// TimeCache hardware state for a single cache level shared by
/// `num_contexts` hardware contexts.
///
/// Line indices are flat (`set * ways + way` is the natural mapping for a
/// set-associative cache) and must be below `num_lines`.
///
/// # Examples
///
/// Cross-context isolation with save/restore across a context switch:
///
/// ```
/// use timecache_core::{FaultInjector, TimeCacheState, TimeCacheConfig, Visibility};
///
/// let off = FaultInjector::disabled();
/// let mut tc = TimeCacheState::new(256, 1, TimeCacheConfig::new(32));
///
/// // Process A runs on context 0 and fills line 7 at cycle 1000.
/// tc.on_fill(7, 0, 1000);
/// let snap_a = tc.save_context(0, 2000); // A preempted at cycle 2000
///
/// // Process B is scheduled (fresh context), fills line 9 at cycle 2500,
/// // and must not see A's line 7 as visible.
/// tc.restore_context_faulty(0, None, 2000, &off);
/// assert_eq!(tc.visibility(7, 0), Visibility::FirstAccess);
/// tc.on_fill(9, 0, 2500);
/// let _snap_b = tc.save_context(0, 3000);
///
/// // A resumes: its own line 7 is still visible (Tc=1000 <= Ts=2000), but
/// // B's line 9 (Tc=2500 > Ts=2000) is reset by the comparator.
/// let outcome = tc.restore_context_faulty(0, Some(&snap_a), 3000, &off);
/// assert_eq!(outcome.sbits_reset, 0); // line 9 was never set in A's snapshot
/// assert_eq!(tc.visibility(7, 0), Visibility::Visible);
/// assert_eq!(tc.visibility(9, 0), Visibility::FirstAccess);
/// ```
#[derive(Debug, Clone)]
pub struct TimeCacheState {
    config: TimeCacheConfig,
    num_lines: usize,
    /// Each line's fill timestamp, truncated to the counter width.
    tc: Vec<u64>,
    sbits: Vec<SBitArray>,
}

impl TimeCacheState {
    /// Creates TimeCache state for a cache of `num_lines` lines shared by
    /// `num_contexts` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if `num_lines` or `num_contexts` is zero.
    pub fn new(num_lines: usize, num_contexts: usize, config: TimeCacheConfig) -> Self {
        assert!(num_lines > 0, "cache must have at least one line");
        assert!(num_contexts > 0, "cache must serve at least one context");
        TimeCacheState {
            config,
            num_lines,
            tc: vec![0; num_lines],
            sbits: vec![SBitArray::new(num_lines); num_contexts],
        }
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> &TimeCacheConfig {
        &self.config
    }

    /// Number of cache lines covered.
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Number of hardware contexts sharing the cache.
    pub fn num_contexts(&self) -> usize {
        self.sbits.len()
    }

    /// A line was filled by `ctx` at (unbounded) cycle `now`: record `Tc`,
    /// set the filling context's s-bit, and reset every other context's
    /// s-bit for the line (Section V-A bullet list).
    ///
    /// # Panics
    ///
    /// Panics if `line` or `ctx` is out of range.
    #[inline]
    pub fn on_fill(&mut self, line: usize, ctx: usize, now: u64) {
        self.check(line, ctx);
        self.tc[line] = self.config.timestamp_width().truncate(now);
        for (c, map) in self.sbits.iter_mut().enumerate() {
            if c == ctx {
                map.set(line);
            } else {
                map.clear(line);
            }
        }
    }

    /// A line was evicted or invalidated: reset all contexts' s-bits.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[inline]
    pub fn on_evict(&mut self, line: usize) {
        assert!(line < self.num_lines, "line {line} out of range");
        for map in &mut self.sbits {
            map.clear(line);
        }
    }

    /// Consults the s-bit on a tag hit: is the access an ordinary hit or a
    /// first access that must be delayed?
    ///
    /// This is one indexed word read, inlined into every cache hit. The
    /// context assert stands in for the `Vec` index check; a `line` past
    /// the end is a caller bug that only debug builds name (a release
    /// build reads a cleared padding bit or panics on the word index).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range, and in debug builds if `line` is.
    #[inline]
    pub fn visibility(&self, line: usize, ctx: usize) -> Visibility {
        assert!(ctx < self.sbits.len(), "context {ctx} out of range");
        debug_assert!(line < self.num_lines, "line {line} out of range");
        if self.sbits[ctx].words()[line / 64] >> (line % 64) & 1 == 1 {
            Visibility::Visible
        } else {
            Visibility::FirstAccess
        }
    }

    /// After a first access has been serviced with miss-equivalent latency,
    /// set the context's s-bit so subsequent accesses hit normally.
    ///
    /// # Panics
    ///
    /// Panics if `line` or `ctx` is out of range.
    #[inline]
    pub fn record_first_access(&mut self, line: usize, ctx: usize) {
        self.check(line, ctx);
        self.sbits[ctx].set(line);
    }

    /// Saves the caching context of `ctx` at preemption time `now`
    /// (unbounded cycles; truncated to the counter width internally).
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn save_context(&self, ctx: usize, now: u64) -> Snapshot {
        assert!(ctx < self.sbits.len(), "context {ctx} out of range");
        Snapshot::new(self.sbits[ctx].clone(), now, self.config.timestamp_width())
    }

    /// Restores a process's caching context onto hardware context `ctx` at
    /// cycle `now`, then brings it up to date:
    ///
    /// * `snapshot == None` models a newly created process (Fig. 4a): all
    ///   s-bits for the context are reset.
    /// * On counter rollover since the snapshot's `Ts`
    ///   ([`Snapshot::rollover_since`]), all s-bits are conservatively
    ///   reset (Section VI-C).
    /// * Otherwise the snapshot is loaded and the bit-serial comparator
    ///   resets the s-bit of every line with `Tc > Ts`.
    ///
    /// Pass [`FaultInjector::disabled`] for a fault-free restore. An enabled
    /// injector may strike anywhere in the restore choreography; every
    /// strike degrades to the conservative full s-bit reset (or, for
    /// [`FaultKind::ForceRollover`], is conservative by construction) and is
    /// **never** allowed to leave a stale s-bit visible:
    ///
    /// * a dropped snapshot restores as a fresh process;
    /// * a corrupted snapshot is caught by [`Snapshot::integrity_ok`];
    /// * a suppressed rollover signal ([`FaultKind::DeferRollover`]) is
    ///   cross-checked against the kernel's full-precision `Ts` via
    ///   [`Snapshot::software_rollover_since`];
    /// * a glitched comparator mask is caught by running the bit-serial
    ///   sweep twice and comparing the masks (dual modular redundancy),
    ///   at twice the comparator cycle cost.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range or the snapshot's geometry (line
    /// count / timestamp width) does not match this cache.
    pub fn restore_context_faulty(
        &mut self,
        ctx: usize,
        snapshot: Option<&Snapshot>,
        now: u64,
        faults: &FaultInjector,
    ) -> RestoreOutcome {
        assert!(ctx < self.sbits.len(), "context {ctx} out of range");
        let dropped =
            snapshot.is_some() && faults.fire(FaultKind::DropSnapshot, TriggerPoint::Restore);
        let Some(snap) = snapshot.filter(|_| !dropped) else {
            let before = self.clear_ctx(ctx);
            return RestoreOutcome {
                rollover: false,
                sbits_reset: before,
                comparator_cycles: 0,
                transfer_lines: 0,
                degraded: dropped,
            };
        };
        let corrupted;
        let snap = if faults.fire(FaultKind::CorruptSnapshot, TriggerPoint::Restore) {
            corrupted = faults.corrupt_snapshot(snap);
            &corrupted
        } else {
            snap
        };
        assert_eq!(
            snap.sbits().len(),
            self.num_lines,
            "snapshot covers {} lines, cache has {}",
            snap.sbits().len(),
            self.num_lines
        );
        let width = self.config.timestamp_width();
        assert_eq!(
            snap.ts().width(),
            width,
            "snapshot timestamp width mismatch"
        );

        // Trusted software verifies the snapshot survived its stay in kernel
        // memory; on mismatch nothing it says can be believed, so restore as
        // a fresh process.
        if !snap.integrity_ok() {
            faults.note_detected();
            let before = self.clear_ctx(ctx);
            return RestoreOutcome {
                rollover: false,
                sbits_reset: before,
                comparator_cycles: 0,
                transfer_lines: snap.transfer_lines(),
                degraded: true,
            };
        }

        let deferred = faults.fire(FaultKind::DeferRollover, TriggerPoint::Rollover);
        let rollover_signal = if deferred {
            // The hardware signal is stuck low; the kernel cross-checks with
            // its full-precision Ts, which detects exactly the same wraps.
            let real = snap.software_rollover_since(now);
            if real {
                faults.note_detected();
            }
            real
        } else {
            snap.rollover_since(now)
        };
        let forced =
            !rollover_signal && faults.fire(FaultKind::ForceRollover, TriggerPoint::Rollover);
        if rollover_signal || forced {
            let restored = snap.sbits().count_set();
            self.clear_ctx(ctx);
            return RestoreOutcome {
                rollover: true,
                sbits_reset: restored,
                comparator_cycles: 0,
                transfer_lines: snap.transfer_lines(),
                degraded: (deferred && rollover_signal) || forced,
            };
        }

        self.sbits[ctx].copy_from(snap.sbits());
        let outcome = BitSerialComparator::compare(&self.tc, snap.ts());
        if faults.fire(FaultKind::FlipComparator, TriggerPoint::Compare) {
            // Dual modular redundancy: the sweep runs twice and the masks
            // must agree. A glitched copy disagrees with the clean one, so
            // the comparator result is distrusted and the context fully
            // reset — at twice the sweep's cycle cost.
            let mut flipped = outcome.reset_mask.clone();
            faults.corrupt_mask(&mut flipped);
            faults.note_detected();
            let before = self.clear_ctx(ctx);
            return RestoreOutcome {
                rollover: false,
                sbits_reset: before,
                comparator_cycles: outcome.cycles * 2,
                transfer_lines: snap.transfer_lines(),
                degraded: true,
            };
        }
        let reset = self.sbits[ctx].apply_reset_mask(&outcome.reset_mask);
        RestoreOutcome {
            rollover: false,
            sbits_reset: reset,
            comparator_cycles: outcome.cycles,
            transfer_lines: snap.transfer_lines(),
            degraded: false,
        }
    }

    /// The stored fill timestamp of a line (truncated). Mostly useful for
    /// tests and diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn tc_of(&self, line: usize) -> u64 {
        self.tc[line]
    }

    /// A copy of one context's s-bit array.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn sbits(&self, ctx: usize) -> SBitArray {
        assert!(ctx < self.sbits.len(), "context {ctx} out of range");
        self.sbits[ctx].clone()
    }

    /// Resets every s-bit of `ctx`; returns how many were set.
    fn clear_ctx(&mut self, ctx: usize) -> usize {
        let before = self.sbits[ctx].count_set();
        self.sbits[ctx].clear_all();
        before
    }

    #[inline]
    fn check(&self, line: usize, ctx: usize) {
        assert!(line < self.num_lines, "line {line} out of range");
        assert!(ctx < self.sbits.len(), "context {ctx} out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(lines: usize, ctxs: usize, ts_bits: u8) -> TimeCacheState {
        TimeCacheState::new(lines, ctxs, TimeCacheConfig::new(ts_bits))
    }

    #[test]
    fn fill_grants_visibility_to_filler_only() {
        let mut tc = state(64, 3, 32);
        tc.on_fill(10, 1, 500);
        assert_eq!(tc.visibility(10, 1), Visibility::Visible);
        assert_eq!(tc.visibility(10, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(10, 2), Visibility::FirstAccess);
        assert_eq!(tc.tc_of(10), 500);
    }

    #[test]
    fn refill_revokes_other_contexts() {
        let mut tc = state(64, 2, 32);
        tc.on_fill(3, 0, 100);
        tc.record_first_access(3, 1);
        assert_eq!(tc.visibility(3, 1), Visibility::Visible);
        // Line evicted and refilled by ctx 0: ctx 1 must pay again.
        tc.on_evict(3);
        tc.on_fill(3, 0, 900);
        assert_eq!(tc.visibility(3, 0), Visibility::Visible);
        assert_eq!(tc.visibility(3, 1), Visibility::FirstAccess);
    }

    #[test]
    fn evict_resets_all_contexts() {
        let mut tc = state(64, 2, 32);
        tc.on_fill(8, 0, 10);
        tc.record_first_access(8, 1);
        tc.on_evict(8);
        assert_eq!(tc.visibility(8, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(8, 1), Visibility::FirstAccess);
    }

    #[test]
    fn fresh_process_restore_clears_everything() {
        let mut tc = state(64, 1, 32);
        tc.on_fill(1, 0, 10);
        let out = tc.restore_context_faulty(0, None, 20, &FaultInjector::disabled());
        assert_eq!(out.sbits_reset, 1);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
    }

    #[test]
    fn restore_resets_lines_filled_while_preempted() {
        let mut tc = state(64, 1, 32);
        tc.on_fill(1, 0, 10); // process A's line
        let snap = tc.save_context(0, 100);

        // Process B's tenure: refills line 1 (eviction + new fill) and
        // fills line 2.
        tc.restore_context_faulty(0, None, 100, &FaultInjector::disabled());
        tc.on_evict(1);
        tc.on_fill(1, 0, 150);
        tc.on_fill(2, 0, 160);

        let out = tc.restore_context_faulty(0, Some(&snap), 200, &FaultInjector::disabled());
        assert!(!out.rollover);
        // A's saved s-bit for line 1 is stale (Tc=150 > Ts=100): reset.
        assert_eq!(out.sbits_reset, 1);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(2, 0), Visibility::FirstAccess);
        assert_eq!(out.comparator_cycles, 33);
        assert_eq!(out.transfer_lines, 1);
    }

    #[test]
    fn restore_preserves_surviving_lines() {
        let mut tc = state(64, 1, 32);
        tc.on_fill(5, 0, 10);
        let snap = tc.save_context(0, 100);
        tc.restore_context_faulty(0, None, 100, &FaultInjector::disabled()); // B runs, touches nothing
        let out = tc.restore_context_faulty(0, Some(&snap), 200, &FaultInjector::disabled());
        assert_eq!(out.sbits_reset, 0);
        assert_eq!(tc.visibility(5, 0), Visibility::Visible);
    }

    #[test]
    fn rollover_forces_full_reset() {
        let mut tc = state(64, 1, 8); // 8-bit counter: period 256
        tc.on_fill(5, 0, 10);
        let snap = tc.save_context(0, 250);
        // Resumes at raw cycle 260 -> truncated 4 < 250: rollover.
        let out = tc.restore_context_faulty(0, Some(&snap), 260, &FaultInjector::disabled());
        assert!(out.rollover);
        assert_eq!(out.sbits_reset, 1);
        assert_eq!(out.comparator_cycles, 0);
        assert_eq!(tc.visibility(5, 0), Visibility::FirstAccess);
    }

    #[test]
    fn rollover_never_grants_stale_visibility() {
        // Stress the paper's Section VI-C scenarios with an 8-bit counter.
        let mut tc = state(8, 1, 8);
        // Fill at cycle 200, preempt at 250.
        tc.on_fill(0, 0, 200);
        let snap = tc.save_context(0, 250);
        tc.restore_context_faulty(0, None, 250, &FaultInjector::disabled());
        // Another process fills line 1 at raw 300 (truncated 44).
        tc.on_fill(1, 0, 300);
        // A resumes at raw 310 (truncated 54 < 250): rollover reset; line 1
        // must not be visible even though its truncated Tc (44) < Ts (250).
        let out = tc.restore_context_faulty(0, Some(&snap), 310, &FaultInjector::disabled());
        assert!(out.rollover);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
    }

    #[test]
    fn no_rollover_spurious_reset_is_safe_not_wrong() {
        // Section VI-C: "assuming no rollover between Ts and resumption,
        // older cache lines with bigger Tc may cause unnecessary resets, but
        // correctness is maintained."
        let mut tc = state(8, 1, 8);
        tc.on_fill(0, 0, 230); // Tc = 230
                               // Process accessed it, preempted at raw 258 -> Ts truncates to 2.
        let snap = tc.save_context(0, 258);
        tc.restore_context_faulty(0, None, 258, &FaultInjector::disabled());
        // Resumes at raw 261 -> truncated 5; no rollover detected (5 >= 2).
        let out = tc.restore_context_faulty(0, Some(&snap), 261, &FaultInjector::disabled());
        assert!(!out.rollover);
        // Line 0 has Tc=230 > Ts=2: unnecessarily reset — extra miss, safe.
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
    }

    #[test]
    fn smt_contexts_are_isolated_without_switches() {
        // Two hyperthreads share the cache; no context switch involved.
        let mut tc = state(64, 2, 32);
        tc.on_fill(20, 0, 10); // victim thread fills
        assert_eq!(tc.visibility(20, 1), Visibility::FirstAccess);
        tc.record_first_access(20, 1);
        assert_eq!(tc.visibility(20, 1), Visibility::Visible);
        // Victim's visibility is unaffected by the spy's first access.
        assert_eq!(tc.visibility(20, 0), Visibility::Visible);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn context_bounds_checked() {
        state(8, 1, 32).visibility(0, 1);
    }

    #[test]
    #[should_panic(expected = "snapshot covers")]
    fn snapshot_geometry_checked() {
        let mut a = state(8, 1, 32);
        let b = state(16, 1, 32);
        let snap = b.save_context(0, 0);
        a.restore_context_faulty(0, Some(&snap), 0, &FaultInjector::disabled());
    }

    #[test]
    #[should_panic(expected = "timestamp width mismatch")]
    fn width_mismatch_rejected() {
        let mut a = state(8, 1, 32);
        let snap = state(8, 1, 16).save_context(0, 0);
        a.restore_context_faulty(0, Some(&snap), 0, &FaultInjector::disabled());
    }

    #[test]
    fn on_fill_truncates_to_width() {
        // The counter has no more wires than its width.
        let mut tc = state(4, 1, 8);
        tc.on_fill(0, 0, 0x1FF);
        assert_eq!(tc.tc_of(0), 0xFF);
    }

    #[test]
    fn refill_overwrites_old_timestamp() {
        // A refill overwrites every bit of the old value.
        let mut tc = state(4, 1, 8);
        tc.on_fill(1, 0, 0xFF);
        tc.on_fill(1, 0, 0x01);
        assert_eq!(tc.tc_of(1), 0x01);
        assert_eq!(tc.tc_of(0), 0);
    }

    #[test]
    fn fill_read_roundtrip() {
        let mut tc = state(200, 1, 16);
        for i in 0..200 {
            tc.on_fill(i, 0, (i as u64).wrapping_mul(2654435761));
        }
        for i in 0..200 {
            assert_eq!(tc.tc_of(i), (i as u64).wrapping_mul(2654435761) & 0xFFFF);
        }
    }

    // --- rollover edge cases (satellite: ISSUE 3) ---

    #[test]
    fn ts_equals_tc_tie_at_restore_keeps_visibility() {
        // Fill and preempt at the same cycle: Tc == Ts. The comparator
        // resets only Tc > Ts (strict), so the line the process itself
        // filled at the preemption instant stays visible — it paid for it.
        let mut tc = state(8, 1, 32);
        tc.on_fill(0, 0, 100);
        let snap = tc.save_context(0, 100);
        tc.restore_context_faulty(0, None, 100, &FaultInjector::disabled());
        let out = tc.restore_context_faulty(0, Some(&snap), 100, &FaultInjector::disabled());
        assert!(!out.rollover);
        assert_eq!(out.sbits_reset, 0);
        assert_eq!(tc.visibility(0, 0), Visibility::Visible);
    }

    #[test]
    fn wrap_exactly_at_u64_max_on_full_width_counter() {
        // A 64-bit counter never rolls over within u64 simulated time, even
        // at the very top of the range.
        let mut tc = state(8, 1, 64);
        tc.on_fill(0, 0, u64::MAX - 10);
        let snap = tc.save_context(0, u64::MAX - 5);
        tc.restore_context_faulty(0, None, u64::MAX - 5, &FaultInjector::disabled());
        let out = tc.restore_context_faulty(0, Some(&snap), u64::MAX, &FaultInjector::disabled());
        assert!(!out.rollover);
        assert_eq!(tc.visibility(0, 0), Visibility::Visible);
    }

    #[test]
    fn double_rollover_within_one_preemption_detected() {
        // 8-bit counter (period 256) preempted for two full periods plus a
        // bit: truncated values look forward-moving (15 >= 10), so only the
        // software elapsed-time check catches it.
        let mut tc = state(8, 1, 8);
        tc.on_fill(0, 0, 5);
        let snap = tc.save_context(0, 10);
        tc.restore_context_faulty(0, None, 10, &FaultInjector::disabled());
        let out =
            tc.restore_context_faulty(0, Some(&snap), 10 + 2 * 256 + 5, &FaultInjector::disabled());
        assert!(out.rollover);
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
    }

    // --- fault-injection paths ---

    use crate::fault::{FaultPlan, TriggerPoint as Tp};

    /// A state with one visible line (filled by ctx 0 at `fill`), saved at
    /// `save`, with another process's fill at `other` in between.
    fn faulted_scenario(
        ts_bits: u8,
        fill: u64,
        save: u64,
        other: u64,
    ) -> (TimeCacheState, Snapshot) {
        let mut tc = state(8, 1, ts_bits);
        tc.on_fill(0, 0, fill);
        let snap = tc.save_context(0, save);
        tc.restore_context_faulty(0, None, save, &FaultInjector::disabled());
        tc.on_evict(1);
        tc.on_fill(1, 0, other);
        (tc, snap)
    }

    #[test]
    fn dropped_snapshot_degrades_to_fresh_reset() {
        let (mut tc, snap) = faulted_scenario(32, 10, 100, 150);
        let inj = FaultInjector::new(FaultPlan::new(FaultKind::DropSnapshot, Tp::Restore, 1));
        let out = tc.restore_context_faulty(0, Some(&snap), 200, &inj);
        assert!(out.degraded);
        assert_eq!(out.transfer_lines, 0);
        // Conservative: even the process's own line must be re-paid.
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn corrupted_snapshot_is_detected_and_fully_reset() {
        let (mut tc, snap) = faulted_scenario(32, 10, 100, 150);
        let inj = FaultInjector::new(FaultPlan::new(FaultKind::CorruptSnapshot, Tp::Restore, 2));
        let out = tc.restore_context_faulty(0, Some(&snap), 200, &inj);
        assert!(out.degraded);
        assert!(!out.rollover);
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
        assert_eq!(inj.detected(), 1, "checksum must catch the corruption");
    }

    #[test]
    fn forced_rollover_is_conservative_not_leaky() {
        let (mut tc, snap) = faulted_scenario(32, 10, 100, 150);
        let inj = FaultInjector::new(FaultPlan::new(FaultKind::ForceRollover, Tp::Rollover, 3));
        let out = tc.restore_context_faulty(0, Some(&snap), 200, &inj);
        assert!(out.rollover);
        assert!(out.degraded);
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
    }

    #[test]
    fn deferred_rollover_is_caught_by_software_cross_check() {
        // Real rollover (8-bit counter, resume past the wrap) with the
        // hardware signal suppressed: the kernel's full-precision Ts check
        // must still force the full reset.
        let (mut tc, snap) = faulted_scenario(8, 200, 250, 300);
        let inj = FaultInjector::new(FaultPlan::new(FaultKind::DeferRollover, Tp::Rollover, 4));
        let out = tc.restore_context_faulty(0, Some(&snap), 310, &inj);
        assert!(out.rollover, "software cross-check must fire");
        assert!(out.degraded);
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
        assert_eq!(inj.detected(), 1);
    }

    #[test]
    fn deferred_rollover_without_real_rollover_changes_nothing() {
        let (mut tc, snap) = faulted_scenario(32, 10, 100, 150);
        let inj = FaultInjector::new(FaultPlan::new(FaultKind::DeferRollover, Tp::Rollover, 5));
        let out = tc.restore_context_faulty(0, Some(&snap), 200, &inj);
        assert!(!out.rollover);
        assert!(!out.degraded);
        // Normal comparator outcome: own old line visible, other's reset.
        assert_eq!(tc.visibility(0, 0), Visibility::Visible);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
    }

    #[test]
    fn comparator_glitch_is_detected_by_redundant_sweep() {
        let (mut tc, snap) = faulted_scenario(32, 10, 100, 150);
        let clean = {
            let (mut tc2, snap2) = faulted_scenario(32, 10, 100, 150);
            tc2.restore_context_faulty(0, Some(&snap2), 200, &FaultInjector::disabled())
        };
        let inj = FaultInjector::new(FaultPlan::new(FaultKind::FlipComparator, Tp::Compare, 6));
        let out = tc.restore_context_faulty(0, Some(&snap), 200, &inj);
        assert!(out.degraded);
        assert_eq!(out.comparator_cycles, clean.comparator_cycles * 2);
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
        assert_eq!(inj.detected(), 1);
    }

    #[test]
    fn rollover_during_injected_mid_save_abort_stays_safe() {
        // Satellite rollover edge: a save aborts (snapshot discarded by the
        // OS), then the counter rolls over before the process resumes. The
        // resume restores as a fresh process — the strictest possible
        // degradation — so the wrap cannot matter.
        let mut tc = state(8, 1, 8);
        tc.on_fill(0, 0, 200);
        // Save aborted: the OS keeps no snapshot (None). Another tenant
        // fills line 1 across the wrap.
        tc.restore_context_faulty(0, None, 250, &FaultInjector::disabled());
        tc.on_fill(1, 0, 300);
        let out = tc.restore_context_faulty(0, None, 320, &FaultInjector::disabled());
        assert!(!out.rollover);
        assert_eq!(tc.visibility(0, 0), Visibility::FirstAccess);
        assert_eq!(tc.visibility(1, 0), Visibility::FirstAccess);
        assert_eq!(out.transfer_lines, 0);
    }

    #[test]
    fn faulty_restore_with_disabled_injector_matches_plain_restore() {
        // A disabled injector restores exactly like an armed one that never
        // fires (rate 0) for every restore-time fault kind.
        let (mut a, snap_a) = faulted_scenario(32, 10, 100, 150);
        let plain = a.restore_context_faulty(0, Some(&snap_a), 200, &FaultInjector::disabled());
        assert!(!plain.degraded);
        for (kind, tp) in [
            (FaultKind::DropSnapshot, Tp::Restore),
            (FaultKind::CorruptSnapshot, Tp::Restore),
            (FaultKind::DeferRollover, Tp::Rollover),
            (FaultKind::ForceRollover, Tp::Rollover),
            (FaultKind::FlipComparator, Tp::Compare),
        ] {
            let (mut b, snap_b) = faulted_scenario(32, 10, 100, 150);
            let inj = FaultInjector::new(FaultPlan::new(kind, tp, 1).with_rate(0.0));
            let armed = b.restore_context_faulty(0, Some(&snap_b), 200, &inj);
            assert_eq!(plain, armed, "{kind:?}");
            assert_eq!((inj.injected(), inj.detected()), (0, 0));
        }
    }
}
