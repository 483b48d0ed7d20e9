//! Runtime security-invariant checker.
//!
//! TimeCache's guarantee (Ojha & Dwarkadas, ISCA 2021) is that cache
//! latency never tells a process about *another* process's accesses: every
//! process pays a first-access (miss-latency) penalty for each cache line
//! once per fill generation before it can observe a hit. This module checks
//! that property dynamically, from outside the defense's own bookkeeping:
//!
//! > A process must never observe a hit-latency access to a line it has not
//! > itself paid a memory-latency first access for since the line's current
//! > fill generation.
//!
//! The checker shadows the hierarchy with a *fill epoch* per line, bumped
//! whenever the line's contents are (re)established from memory — a true
//! LLC miss fill or a `clflush`. A process "pays" for a line by taking a
//! memory-latency access to it; payment is remembered per `(pid, line)`
//! together with the epoch it was made in. Any fast access (served by L1,
//! LLC, or a remote L1) whose payment is missing or stale is a violation:
//! the data's residency predates this process's own work, so its latency
//! leaks someone else's access pattern.
//!
//! With the TimeCache defense on, the s-bit machinery makes violations
//! impossible by construction (the first-access mechanism forces the
//! payment); with the defense off, classic Prime+Probe / Flush+Reload
//! sharing patterns trip it immediately. The fault-injection matrix
//! (`experiments fault-sweep`) relies on this asymmetry: zero violations
//! with the defense on — even under injected faults — and reliable
//! violations with it off.
//!
//! Checking costs two hash-map probes per memory access and is entirely
//! off the simulated timing path; it is gated behind
//! [`SystemConfig::check_invariants`](crate::SystemConfig::check_invariants).

use std::collections::HashMap;
use timecache_sim::{AccessOutcome, Level};

/// One observed breach of the first-access invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The observing process.
    pub pid: u32,
    /// The line (byte address >> line-size bits) whose latency leaked.
    pub line: u64,
    /// The observed (fast) latency in cycles.
    pub latency: u64,
    /// Which component served the access faster than memory.
    pub served_by: Level,
    /// Simulated cycle at which the access completed.
    pub cycle: u64,
}

/// Capped number of violations retained with full detail; the total count
/// keeps incrementing past the cap.
const MAX_RETAINED: usize = 256;

/// Shadow state for the first-access invariant. See the module docs.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    /// Current fill generation per line (missing = 0, the initial epoch).
    fill_epoch: HashMap<u64, u64>,
    /// Epoch in which each `(pid, line)` last paid memory latency.
    paid: HashMap<(u32, u64), u64>,
    violations: Vec<Violation>,
    total_violations: u64,
}

impl InvariantChecker {
    /// A fresh checker: no fills witnessed, no payments recorded.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Feeds one completed memory access through the checker.
    ///
    /// Returns the violation, if this access was one. Call *after* the
    /// hierarchy resolved the access, with the line index the hierarchy
    /// used (`addr >> line_bits`).
    pub fn observe(
        &mut self,
        pid: u32,
        line: u64,
        out: &AccessOutcome,
        cycle: u64,
    ) -> Option<Violation> {
        let epoch = self.fill_epoch.get(&line).copied().unwrap_or(0);
        let mut violation = None;
        if out.served_by != Level::Memory {
            // Fast path: only legitimate if this process paid for this line
            // in the line's current fill generation.
            if self.paid.get(&(pid, line)) != Some(&epoch) {
                let v = Violation {
                    pid,
                    line,
                    latency: out.latency,
                    served_by: out.served_by,
                    cycle,
                };
                self.total_violations += 1;
                if self.violations.len() < MAX_RETAINED {
                    self.violations.push(v);
                }
                violation = Some(v);
            }
        } else {
            // Memory latency paid. A true LLC miss (not a first-access
            // replay of already-resident data) re-establishes the line
            // from memory and opens a new fill generation.
            let epoch = if !out.l1_tag_hit && !out.first_access_llc {
                let e = self.fill_epoch.entry(line).or_insert(0);
                *e += 1;
                *e
            } else {
                epoch
            };
            self.paid.insert((pid, line), epoch);
        }
        violation
    }

    /// Records a `clflush` of `line`: the cached copy is gone, so the next
    /// residency is a new fill generation and every payment is stale.
    pub fn flush(&mut self, line: u64) {
        *self.fill_epoch.entry(line).or_insert(0) += 1;
    }

    /// Total violations observed, including any past the retention cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// The first `MAX_RETAINED` violations, in observation order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(served_by: Level, l1_tag_hit: bool, first_access_llc: bool) -> AccessOutcome {
        AccessOutcome {
            latency: if served_by == Level::Memory { 200 } else { 4 },
            served_by,
            l1_tag_hit,
            first_access_l1: false,
            first_access_llc,
        }
    }

    #[test]
    fn paying_then_hitting_is_clean() {
        let mut c = InvariantChecker::new();
        // True miss: fill + payment.
        assert!(c
            .observe(1, 0x40, &outcome(Level::Memory, false, false), 10)
            .is_none());
        // Subsequent hits at any level are earned.
        assert!(c
            .observe(1, 0x40, &outcome(Level::L1, true, false), 20)
            .is_none());
        assert!(c
            .observe(1, 0x40, &outcome(Level::LLC, false, false), 30)
            .is_none());
        assert_eq!(c.total_violations(), 0);
    }

    #[test]
    fn unpaid_fast_access_is_a_violation() {
        let mut c = InvariantChecker::new();
        // pid 1 fills the line; pid 2 then observes a fast hit it never
        // paid for — the classic shared-cache leak.
        c.observe(1, 0x40, &outcome(Level::Memory, false, false), 10);
        let v = c
            .observe(2, 0x40, &outcome(Level::LLC, false, false), 20)
            .expect("leak must be flagged");
        assert_eq!((v.pid, v.line, v.served_by), (2, 0x40, Level::LLC));
        assert_eq!(c.total_violations(), 1);
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn first_access_replay_pays_without_opening_a_new_generation() {
        let mut c = InvariantChecker::new();
        c.observe(1, 0x40, &outcome(Level::Memory, false, false), 10);
        // pid 2 takes a first-access miss on the resident line (TimeCache
        // defense): memory latency paid, data served from the same fill.
        c.observe(2, 0x40, &outcome(Level::Memory, false, true), 20);
        // Both processes may now hit.
        assert!(c
            .observe(1, 0x40, &outcome(Level::L1, true, false), 30)
            .is_none());
        assert!(c
            .observe(2, 0x40, &outcome(Level::LLC, false, false), 40)
            .is_none());
        assert_eq!(c.total_violations(), 0);
    }

    #[test]
    fn refill_invalidates_old_payments() {
        let mut c = InvariantChecker::new();
        c.observe(1, 0x40, &outcome(Level::Memory, false, false), 10);
        // Someone else evicts and refills the line: new generation.
        c.observe(2, 0x40, &outcome(Level::Memory, false, false), 20);
        // pid 1's old payment is stale; a fast hit now leaks pid 2's fill.
        assert!(c
            .observe(1, 0x40, &outcome(Level::LLC, false, false), 30)
            .is_some());
        assert_eq!(c.total_violations(), 1);
    }

    #[test]
    fn flush_forces_repayment() {
        let mut c = InvariantChecker::new();
        c.observe(1, 0x40, &outcome(Level::Memory, false, false), 10);
        c.flush(0x40);
        // Flush+Reload probe: a fast access after the flush is a leak.
        assert!(c
            .observe(1, 0x40, &outcome(Level::L1, true, false), 20)
            .is_some());
        // Repaying with a true miss restores the process's standing.
        c.observe(1, 0x40, &outcome(Level::Memory, false, false), 30);
        assert!(c
            .observe(1, 0x40, &outcome(Level::L1, true, false), 40)
            .is_none());
    }

    #[test]
    fn dram_wait_replay_with_l1_tag_hit_counts_as_payment() {
        let mut c = InvariantChecker::new();
        c.observe(1, 0x40, &outcome(Level::Memory, false, false), 10);
        // First access at the L1 that still waits for DRAM (tag hit, memory
        // latency): pays, but the resident fill is untouched.
        c.observe(2, 0x40, &outcome(Level::Memory, true, false), 20);
        assert!(c
            .observe(2, 0x40, &outcome(Level::L1, true, false), 30)
            .is_none());
        // pid 1's payment stayed valid throughout.
        assert!(c
            .observe(1, 0x40, &outcome(Level::L1, true, false), 40)
            .is_none());
    }

    #[test]
    fn retention_is_capped_but_counting_is_not() {
        let mut c = InvariantChecker::new();
        c.observe(1, 0, &outcome(Level::Memory, false, false), 0);
        for i in 0..(MAX_RETAINED as u64 + 10) {
            c.observe(2, 0, &outcome(Level::LLC, false, false), i);
        }
        assert_eq!(c.total_violations(), MAX_RETAINED as u64 + 10);
        assert_eq!(c.violations().len(), MAX_RETAINED);
    }
}
