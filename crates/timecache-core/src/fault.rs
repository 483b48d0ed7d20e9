//! Deterministic, seed-driven fault injection for the TimeCache mechanism.
//!
//! TimeCache's security argument rests on its *rare* paths: the rollover
//! reset, the snapshot save/restore DMA, and the bit-serial comparator.
//! This module lets a harness strike those paths on purpose — forcing or
//! suppressing a rollover signal, corrupting or losing an s-bit snapshot,
//! glitching the comparator output, or interrupting a save mid-way — and
//! then verify that every recovery degrades to the paper's conservative
//! full s-bit reset (extra first-access misses) and **never** to a stale
//! hit an attacker could observe.
//!
//! The injector is a cheap cloneable handle, like the telemetry handle: a
//! disabled injector is a `None` and every probe site short-circuits on
//! one branch. Firing decisions come from a seeded [`crate::FastRng`], so
//! a fault campaign is a pure function of its [`FaultPlan`] and replays
//! bit-for-bit.

use crate::rng::FastRng;
use crate::snapshot::Snapshot;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Retained [`FaultRecord`]s between drains; beyond this the records are
/// dropped (the counters stay exact).
const MAX_RECORDS: usize = 1024;

/// The kinds of faults the injector can introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Assert the rollover signal at a restore even though no rollover
    /// happened. Purely conservative: extra s-bit resets, never a leak.
    ForceRollover,
    /// Suppress the hardware rollover signal at a restore (a stuck-low
    /// wire). Trusted software must catch the wrap by other means.
    DeferRollover,
    /// Lose an s-bit snapshot entirely (failed DMA): nothing reaches (or
    /// leaves) kernel memory.
    DropSnapshot,
    /// Flip one s-bit of a snapshot while it sits in kernel memory (bit
    /// rot, a misdirected DMA write).
    CorruptSnapshot,
    /// Flip one bit of the comparator's reset mask before it is applied.
    FlipComparator,
    /// Interrupt a context-switch save mid-way, so the partial snapshot
    /// cannot be trusted.
    AbortSave,
}

impl FaultKind {
    /// Every kind, in a stable order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::ForceRollover,
        FaultKind::DeferRollover,
        FaultKind::DropSnapshot,
        FaultKind::CorruptSnapshot,
        FaultKind::FlipComparator,
        FaultKind::AbortSave,
    ];

    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::ForceRollover => "force_rollover",
            FaultKind::DeferRollover => "defer_rollover",
            FaultKind::DropSnapshot => "drop_snapshot",
            FaultKind::CorruptSnapshot => "corrupt_snapshot",
            FaultKind::FlipComparator => "flip_comparator",
            FaultKind::AbortSave => "abort_save",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the context-switch choreography a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerPoint {
    /// While the outgoing process's snapshot is being saved.
    Save,
    /// While the incoming process's snapshot is being restored.
    Restore,
    /// During the bit-serial comparator sweep.
    Compare,
    /// At the rollover decision taken during a restore.
    Rollover,
}

impl TriggerPoint {
    /// Every trigger point, in a stable order.
    pub const ALL: [TriggerPoint; 4] = [
        TriggerPoint::Save,
        TriggerPoint::Restore,
        TriggerPoint::Compare,
        TriggerPoint::Rollover,
    ];

    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            TriggerPoint::Save => "save",
            TriggerPoint::Restore => "restore",
            TriggerPoint::Compare => "compare",
            TriggerPoint::Rollover => "rollover",
        }
    }
}

impl fmt::Display for TriggerPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A fault campaign: which fault, where it strikes, how often, and the
/// seed that makes the whole schedule reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// The trigger point it strikes at.
    pub trigger: TriggerPoint,
    /// RNG seed for the firing schedule (and for corruption choices).
    pub seed: u64,
    /// Probability in `[0, 1]` that an eligible trigger actually fires.
    pub rate: f64,
}

impl FaultPlan {
    /// A plan that fires at every eligible trigger (`rate = 1.0`).
    pub fn new(kind: FaultKind, trigger: TriggerPoint, seed: u64) -> Self {
        FaultPlan {
            kind,
            trigger,
            seed,
            rate: 1.0,
        }
    }

    /// Overrides the firing probability.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn with_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "rate must be in [0,1], got {rate}"
        );
        self.rate = rate;
        self
    }
}

/// One injection or one detection of the planned fault, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// The planned fault.
    pub kind: FaultKind,
    /// Where it strikes.
    pub trigger: TriggerPoint,
    /// False when the injector struck; true when the defense explicitly
    /// *detected* an injected fault (checksum mismatch, comparator
    /// redundancy mismatch, software rollover cross-check). One injection
    /// may be detected several times (a corrupted save is caught by each
    /// cache level that restores it) or never (faults whose effect is
    /// conservative by construction need no detection).
    pub detection: bool,
}

#[derive(Debug)]
struct InjectorInner {
    plan: FaultPlan,
    rng: RefCell<FastRng>,
    injected: Cell<u64>,
    detected: Cell<u64>,
    records: RefCell<Vec<FaultRecord>>,
}

impl InjectorInner {
    fn record(&self, detection: bool) {
        let mut records = self.records.borrow_mut();
        if records.len() < MAX_RECORDS {
            records.push(FaultRecord {
                kind: self.plan.kind,
                trigger: self.plan.trigger,
                detection,
            });
        }
    }
}

/// The fault-injection handle threaded through core, sim, and os.
///
/// Cloning is cheap and shares the schedule, counters, and records (like
/// the telemetry handle). The default handle is *disabled*: every probe
/// site pays one branch and nothing else.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Option<Rc<InjectorInner>>,
}

impl FaultInjector {
    /// A disabled injector: [`FaultInjector::fire`] always returns false.
    pub fn disabled() -> Self {
        FaultInjector::default()
    }

    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            inner: Some(Rc::new(InjectorInner {
                plan,
                rng: RefCell::new(FastRng::seed_from_u64(plan.seed)),
                injected: Cell::new(0),
                detected: Cell::new(0),
                records: RefCell::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle can inject anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The active plan, if enabled.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.inner.as_ref().map(|i| i.plan)
    }

    /// Rolls the dice for `(kind, trigger)`. Returns true — and counts and
    /// records the injection — when the plan targets exactly this
    /// combination and the seeded schedule says it fires here.
    #[inline]
    pub fn fire(&self, kind: FaultKind, trigger: TriggerPoint) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.plan.kind != kind || inner.plan.trigger != trigger {
            return false;
        }
        if inner.rng.borrow_mut().next_f64() >= inner.plan.rate {
            return false;
        }
        inner.injected.set(inner.injected.get() + 1);
        inner.record(false);
        true
    }

    /// Counts and records one explicit detection (and containment) of an
    /// injected fault by the defense.
    pub fn note_detected(&self) {
        let Some(inner) = &self.inner else { return };
        inner.detected.set(inner.detected.get() + 1);
        inner.record(true);
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.injected.get())
    }

    /// Total faults explicitly detected by the defense so far.
    pub fn detected(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.detected.get())
    }

    /// Drains the retained fault records (at most `MAX_RECORDS` between
    /// drains; the counters are never capped).
    pub fn take_records(&self) -> Vec<FaultRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => std::mem::take(&mut inner.records.borrow_mut()),
        }
    }

    /// Returns a copy of `snap` with one randomly chosen s-bit flipped.
    /// The stored checksum is deliberately **not** recomputed — a
    /// corrupted snapshot keeps the checksum of its honest original,
    /// exactly like bit rot in kernel memory, which is what lets
    /// [`Snapshot::integrity_ok`] catch it.
    pub fn corrupt_snapshot(&self, snap: &Snapshot) -> Snapshot {
        let Some(inner) = &self.inner else {
            return snap.clone();
        };
        let mut sbits = snap.sbits().clone();
        let line = inner.rng.borrow_mut().next_below(sbits.len() as u64) as usize;
        if sbits.get(line) {
            sbits.clear(line);
        } else {
            sbits.set(line);
        }
        Snapshot::from_raw_parts(sbits, snap.raw_ts(), snap.ts().width(), snap.checksum())
    }

    /// Flips one randomly chosen bit of a comparator reset mask in place.
    /// No-op when disabled or the mask is empty.
    pub fn corrupt_mask(&self, mask: &mut [u64]) {
        let Some(inner) = &self.inner else { return };
        if mask.is_empty() {
            return;
        }
        let mut rng = inner.rng.borrow_mut();
        let word = rng.next_below(mask.len() as u64) as usize;
        let bit = rng.next_below(64) as u32;
        mask[word] ^= 1u64 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbit::SBitArray;
    use crate::timestamp::TimestampWidth;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for kind in FaultKind::ALL {
            for trigger in TriggerPoint::ALL {
                assert!(!inj.fire(kind, trigger));
            }
        }
        assert_eq!(inj.injected(), 0);
        assert!(inj.take_records().is_empty());
    }

    #[test]
    fn fires_only_on_the_planned_combination() {
        let inj = FaultInjector::new(FaultPlan::new(
            FaultKind::DropSnapshot,
            TriggerPoint::Restore,
            42,
        ));
        assert!(!inj.fire(FaultKind::DropSnapshot, TriggerPoint::Save));
        assert!(!inj.fire(FaultKind::CorruptSnapshot, TriggerPoint::Restore));
        assert!(inj.fire(FaultKind::DropSnapshot, TriggerPoint::Restore));
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let fires = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(
                FaultPlan::new(FaultKind::AbortSave, TriggerPoint::Save, seed).with_rate(0.5),
            );
            (0..64)
                .map(|_| inj.fire(FaultKind::AbortSave, TriggerPoint::Save))
                .collect()
        };
        assert_eq!(fires(9), fires(9));
        assert_ne!(fires(9), fires(10));
        let hits = fires(9).iter().filter(|&&f| f).count();
        assert!((10..=54).contains(&hits), "rate 0.5 fired {hits}/64");
    }

    #[test]
    fn clones_share_counters() {
        let inj = FaultInjector::new(FaultPlan::new(
            FaultKind::ForceRollover,
            TriggerPoint::Rollover,
            1,
        ));
        let other = inj.clone();
        assert!(other.fire(FaultKind::ForceRollover, TriggerPoint::Rollover));
        assert_eq!(inj.injected(), 1);
        inj.note_detected();
        assert_eq!(other.detected(), 1);
        // The injection and its detection are separate records.
        let records = inj.take_records();
        assert_eq!(
            records.iter().map(|r| r.detection).collect::<Vec<_>>(),
            [false, true]
        );
        assert!(other.take_records().is_empty(), "drain is shared");
    }

    #[test]
    fn corruption_breaks_the_checksum_but_keeps_geometry() {
        let inj = FaultInjector::new(FaultPlan::new(
            FaultKind::CorruptSnapshot,
            TriggerPoint::Restore,
            7,
        ));
        let mut sbits = SBitArray::new(64);
        sbits.set(3);
        let snap = Snapshot::new(sbits, 500, TimestampWidth::new(32));
        assert!(snap.integrity_ok());
        let bad = inj.corrupt_snapshot(&snap);
        assert!(!bad.integrity_ok(), "one flipped bit must break integrity");
        assert_eq!(bad.sbits().len(), snap.sbits().len());
        assert_eq!(bad.raw_ts(), snap.raw_ts());
        assert_ne!(bad.sbits(), snap.sbits());
    }

    #[test]
    fn mask_corruption_changes_exactly_one_bit() {
        let inj = FaultInjector::new(FaultPlan::new(
            FaultKind::FlipComparator,
            TriggerPoint::Compare,
            11,
        ));
        let mut mask = vec![0u64; 4];
        inj.corrupt_mask(&mut mask);
        let set: u32 = mask.iter().map(|w| w.count_ones()).sum();
        assert_eq!(set, 1);
    }

    #[test]
    #[should_panic(expected = "rate must be in [0,1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::new(FaultKind::AbortSave, TriggerPoint::Save, 0).with_rate(1.5);
    }
}
