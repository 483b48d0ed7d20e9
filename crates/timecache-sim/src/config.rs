//! Hierarchy configuration and validation.

use crate::geometry::CacheGeometry;
use crate::index::IndexFn;
use crate::latency::LatencyConfig;
use std::error::Error;
use std::fmt;
use timecache_core::TimeCacheConfig;

/// Whether the hierarchy runs as a conventional cache or with a reuse
/// defense engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecurityMode {
    /// Conventional caches: residency is shared across all contexts — the
    /// configuration every reuse attack in the paper exploits.
    #[default]
    Baseline,
    /// TimeCache engaged at every level with the given mechanism config.
    TimeCache(TimeCacheConfig),
    /// First Time Miss (Ramkrishnan et al., ICPP 2020), the paper's closest
    /// prior work (Section VIII-B2): per-**core** presence bits at the LLC
    /// only. It delays a core's first access to an LLC line another core
    /// filled, but it has no per-process state and no context-switch
    /// handling — attacker and victim must be spatially isolated on
    /// different cores for it to help. Implemented as the comparison
    /// baseline showing why TimeCache's threat model is stronger (it also
    /// covers same-core time slicing and SMT).
    Ftm,
}

impl SecurityMode {
    /// True when the TimeCache defense is engaged.
    pub fn is_timecache(&self) -> bool {
        matches!(self, SecurityMode::TimeCache(_))
    }

    /// True when the FTM comparison baseline is engaged.
    pub fn is_ftm(&self) -> bool {
        matches!(self, SecurityMode::Ftm)
    }
}

/// Configuration for one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Physical shape.
    pub geometry: CacheGeometry,
    /// Set-index function.
    pub index: IndexFn,
}

impl CacheConfig {
    /// A cache with the given shape and modulo indexing (replacement is
    /// always exact LRU).
    pub fn new(size_bytes: u64, ways: u32, line_size: u64) -> Self {
        CacheConfig {
            geometry: CacheGeometry::new(size_bytes, ways, line_size),
            index: IndexFn::Modulo,
        }
    }
}

/// Most cores a hierarchy can have: the width of the LLC directory's
/// per-line sharer bitmask.
pub const MAX_CORES: usize = u32::BITS as usize;

/// Configuration for a full hierarchy: per-core split L1s over an inclusive
/// shared LLC.
///
/// The default reproduces the paper's Table I simulated system: one core,
/// no SMT, 32 KB 8-way L1I and L1D, 2 MB 16-way LLC, 64 B lines.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Number of cores, each with private L1I and L1D (at most
    /// [`MAX_CORES`]).
    pub cores: usize,
    /// Hardware threads (SMT contexts) per core.
    pub smt_per_core: usize,
    /// Per-core instruction cache.
    pub l1i: CacheConfig,
    /// Per-core data cache.
    pub l1d: CacheConfig,
    /// Shared, inclusive last-level cache.
    pub llc: CacheConfig,
    /// Latency model.
    pub latencies: LatencyConfig,
    /// Baseline or TimeCache.
    pub security: SecurityMode,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            cores: 1,
            smt_per_core: 1,
            l1i: CacheConfig::new(32 * 1024, 8, 64),
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            llc: CacheConfig::new(2 * 1024 * 1024, 16, 64),
            latencies: LatencyConfig::default(),
            security: SecurityMode::Baseline,
        }
    }
}

impl HierarchyConfig {
    /// The paper's Table I setup with the given number of cores.
    pub fn with_cores(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            ..HierarchyConfig::default()
        }
    }

    /// Returns a copy with a different LLC capacity (Fig. 10's sweep),
    /// keeping associativity and line size.
    pub fn with_llc_bytes(mut self, bytes: u64) -> Self {
        self.llc.geometry = CacheGeometry::new(
            bytes,
            self.llc.geometry.ways(),
            self.llc.geometry.line_size(),
        );
        self
    }

    /// Total hardware contexts (`cores * smt_per_core`), the number of
    /// s-bit planes the LLC carries.
    pub fn total_contexts(&self) -> usize {
        self.cores * self.smt_per_core
    }

    /// Checks structural invariants the hierarchy relies on.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint:
    /// zero cores/threads, more than [`MAX_CORES`] cores, mismatched line
    /// sizes, an LLC smaller than a single core's L1s (inclusivity would
    /// thrash), or inconsistent latencies.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("hierarchy needs at least one core"));
        }
        if self.smt_per_core == 0 {
            return Err(ConfigError::new("cores need at least one SMT context"));
        }
        if self.cores > MAX_CORES {
            return Err(ConfigError::new(format!(
                "{} cores exceed the directory sharer mask ({MAX_CORES} cores)",
                self.cores
            )));
        }
        let ls = self.llc.geometry.line_size();
        if self.l1i.geometry.line_size() != ls || self.l1d.geometry.line_size() != ls {
            return Err(ConfigError::new(
                "all cache levels must share one line size",
            ));
        }
        let l1_bytes = self.l1i.geometry.size_bytes() + self.l1d.geometry.size_bytes();
        if self.llc.geometry.size_bytes() < l1_bytes {
            return Err(ConfigError::new(
                "inclusive LLC must be at least as large as one core's L1s",
            ));
        }
        self.latencies.validate().map_err(ConfigError::new)?;
        Ok(())
    }
}

/// An invalid [`HierarchyConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid hierarchy config: {}", self.message)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let c = HierarchyConfig::default();
        assert_eq!(c.l1i.geometry.size_bytes(), 32 * 1024);
        assert_eq!(c.l1d.geometry.size_bytes(), 32 * 1024);
        assert_eq!(c.llc.geometry.size_bytes(), 2 * 1024 * 1024);
        assert_eq!(c.cores, 1);
        c.validate().unwrap();
    }

    #[test]
    fn llc_sweep_keeps_shape() {
        let c = HierarchyConfig::default().with_llc_bytes(8 * 1024 * 1024);
        assert_eq!(c.llc.geometry.size_bytes(), 8 * 1024 * 1024);
        assert_eq!(c.llc.geometry.ways(), 16);
        c.validate().unwrap();
    }

    #[test]
    fn rejects_zero_cores() {
        let c = HierarchyConfig {
            cores: 0,
            ..HierarchyConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_more_cores_than_the_sharer_mask() {
        HierarchyConfig::with_cores(MAX_CORES).validate().unwrap();
        for cores in [MAX_CORES + 1, 64, 65] {
            let err = HierarchyConfig::with_cores(cores).validate().unwrap_err();
            assert!(err.to_string().contains("sharer mask"), "{err}");
        }
    }

    #[test]
    fn rejects_mismatched_line_sizes() {
        let c = HierarchyConfig {
            l1d: CacheConfig::new(32 * 1024, 8, 32),
            ..HierarchyConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("line size"));
    }

    #[test]
    fn rejects_tiny_llc() {
        let c = HierarchyConfig::default().with_llc_bytes(32 * 1024);
        assert!(c.validate().is_err());
    }

    #[test]
    fn contexts_multiply() {
        let c = HierarchyConfig {
            cores: 2,
            smt_per_core: 2,
            ..HierarchyConfig::default()
        };
        assert_eq!(c.total_contexts(), 4);
    }
}
