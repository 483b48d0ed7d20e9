//! Per-cache and hierarchy-wide statistics.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Event counters for one cache level.
///
/// A **first-access miss** (`first_access`) is the paper's new miss class:
/// a tag hit whose requesting hardware context has a clear s-bit, serviced
/// with miss-equivalent latency. It is counted separately from true misses
/// so Fig. 8/9b ("delayed access MPKI") can be reproduced, and included in
/// `total_miss_like()` for Table II's MPKI columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (loads, stores, instruction fetches).
    pub accesses: u64,
    /// True hits: tag hit and (when TimeCache is on) s-bit set.
    pub hits: u64,
    /// True misses: tag miss, data fetched from below.
    pub misses: u64,
    /// First-access misses: tag hit, s-bit clear (TimeCache only).
    pub first_access: u64,
    /// Lines evicted by replacement.
    pub evictions: u64,
    /// Lines invalidated (coherence, back-invalidation, or clflush).
    pub invalidations: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Misses plus first-access misses: everything serviced with miss
    /// latency, the quantity behind Table II's MPKI columns.
    pub fn total_miss_like(&self) -> u64 {
        self.misses + self.first_access
    }

    /// Misses (including first-access misses) per thousand instructions.
    pub fn mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.total_miss_like(), instructions)
    }

    /// First-access misses per thousand instructions (Figs. 8 and 9b).
    pub fn first_access_mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.first_access, instructions)
    }
}

fn per_kilo(events: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / instructions as f64
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(mut self, rhs: CacheStats) -> CacheStats {
        self += rhs;
        self
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.first_access += rhs.first_access;
        self.evictions += rhs.evictions;
        self.invalidations += rhs.invalidations;
        self.writebacks += rhs.writebacks;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc {} hit {} miss {} first {} evict {} inval {} wb {}",
            self.accesses,
            self.hits,
            self.misses,
            self.first_access,
            self.evictions,
            self.invalidations,
            self.writebacks
        )
    }
}

/// Snapshot of statistics for every cache in a hierarchy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyStats {
    /// One entry per core, in core order.
    pub l1i: Vec<CacheStats>,
    /// One entry per core, in core order.
    pub l1d: Vec<CacheStats>,
    /// Shared last-level cache.
    pub llc: CacheStats,
}

impl HierarchyStats {
    /// Sum of first-access misses across every level.
    pub fn total_first_access(&self) -> u64 {
        self.l1i.iter().map(|s| s.first_access).sum::<u64>()
            + self.l1d.iter().map(|s| s.first_access).sum::<u64>()
            + self.llc.first_access
    }

    /// Aggregate L1I stats over all cores.
    pub fn l1i_total(&self) -> CacheStats {
        self.l1i.iter().copied().fold(CacheStats::new(), Add::add)
    }

    /// Aggregate L1D stats over all cores.
    pub fn l1d_total(&self) -> CacheStats {
        self.l1d.iter().copied().fold(CacheStats::new(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_arithmetic() {
        let s = CacheStats {
            accesses: 1000,
            hits: 900,
            misses: 80,
            first_access: 20,
            ..CacheStats::default()
        };
        assert_eq!(s.total_miss_like(), 100);
        assert!((s.mpki(10_000) - 10.0).abs() < 1e-9);
        assert!((s.first_access_mpki(10_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_instructions_yield_zero_mpki() {
        let s = CacheStats {
            misses: 5,
            ..CacheStats::default()
        };
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn add_and_add_assign_agree() {
        let a = CacheStats {
            accesses: 9,
            hits: 8,
            misses: 1,
            first_access: 0,
            evictions: 2,
            invalidations: 1,
            writebacks: 3,
        };
        let b = CacheStats {
            accesses: 4,
            hits: 1,
            misses: 2,
            first_access: 1,
            evictions: 0,
            invalidations: 5,
            writebacks: 1,
        };
        let mut assigned = a;
        assigned += b;
        assert_eq!(a + b, assigned);
        assert_eq!(b + a, assigned, "addition is commutative");
        assert_eq!(
            assigned.total_miss_like(),
            a.total_miss_like() + b.total_miss_like()
        );
    }

    #[test]
    fn zero_denominators_yield_zero_rates() {
        let s = CacheStats {
            misses: 3,
            first_access: 7,
            ..CacheStats::default()
        };
        assert_eq!(s.total_miss_like(), 10);
        // Zero instructions: every per-kilo rate is defined as zero.
        assert_eq!(s.mpki(0), 0.0);
        assert_eq!(s.first_access_mpki(0), 0.0);
    }

    #[test]
    fn add_accumulates_fieldwise() {
        let a = CacheStats {
            accesses: 1,
            hits: 2,
            misses: 3,
            first_access: 4,
            evictions: 5,
            invalidations: 6,
            writebacks: 7,
        };
        let sum = a + a;
        assert_eq!(sum.accesses, 2);
        assert_eq!(sum.writebacks, 14);
    }

    #[test]
    fn hierarchy_totals() {
        let unit = CacheStats {
            first_access: 1,
            ..CacheStats::default()
        };
        let h = HierarchyStats {
            l1i: vec![unit; 2],
            l1d: vec![unit; 2],
            llc: unit,
        };
        assert_eq!(h.total_first_access(), 5);
        assert_eq!(h.l1i_total().first_access, 2);
    }
}
