//! # timecache-sim
//!
//! An execution-driven, cycle-accounted multi-level cache-hierarchy
//! simulator, built as the evaluation substrate for the TimeCache
//! reproduction (Ojha & Dwarkadas, ISCA 2021).
//!
//! The paper evaluates TimeCache inside gem5's `TimingSimpleCPU`; this crate
//! provides the equivalent level of modelling in pure Rust:
//!
//! * set-associative caches with exact-LRU replacement (the gem5 classic
//!   default the paper uses) and [index functions](index) (including a
//!   CEASER-like keyed hash),
//! * private per-core L1I/L1D caches and an inclusive shared LLC with an
//!   MSI-style directory ([`Hierarchy`]),
//! * SMT: multiple hardware contexts per core, each with its own TimeCache
//!   visibility state,
//! * `clflush` with optional constant-time semantics (Section VII-C),
//! * full latency accounting per access ([`AccessOutcome`]), and
//! * per-cache statistics: hits, misses, evictions, invalidations and
//!   **first-access misses** ([`CacheStats`]).
//!
//! The TimeCache mechanism itself lives in [`timecache_core`] and is engaged
//! per hierarchy via [`SecurityMode::TimeCache`].
//!
//! # Quick start
//!
//! ```
//! use timecache_sim::{Hierarchy, HierarchyConfig, SecurityMode, AccessKind, Level};
//!
//! let mut cfg = HierarchyConfig::default();       // paper's Table I setup
//! cfg.security = SecurityMode::TimeCache(Default::default());
//! let mut hier = Hierarchy::new(cfg).expect("valid config");
//!
//! // Context (core 0, thread 0) loads an address: cold miss, DRAM latency.
//! let miss = hier.access(0, 0, AccessKind::Load, 0x4000, 0);
//! assert_eq!(miss.served_by, Level::Memory);
//!
//! // Same context again: ordinary hit.
//! let hit = hier.access(0, 0, AccessKind::Load, 0x4000, 10);
//! assert_eq!(hit.served_by, Level::L1);
//! assert!(hit.latency < miss.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cache;
mod config;
mod geometry;
mod hierarchy;
pub mod index;
mod latency;
mod stats;

pub use addr::{Addr, LineAddr};
pub use cache::{Cache, LookupResult};
pub use config::{CacheConfig, ConfigError, HierarchyConfig, SecurityMode, MAX_CORES};
pub use geometry::CacheGeometry;
pub use hierarchy::{
    AccessKind, AccessOutcome, BatchClock, ContextSnapshot, Hierarchy, Level, SwitchCost,
};
pub use index::IndexFn;
pub use latency::LatencyConfig;
pub use stats::{CacheStats, HierarchyStats};
