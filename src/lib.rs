//! # timecache
//!
//! Umbrella crate for the TimeCache reproduction (Ojha & Dwarkadas,
//! *TimeCache: Using Time to Eliminate Cache Side Channels when Sharing
//! Software*, ISCA 2021).
//!
//! This crate re-exports the workspace's component crates under stable
//! module names so applications can depend on a single crate:
//!
//! * [`core`] — the TimeCache hardware mechanism (s-bits, timestamps,
//!   bit-serial comparator, snapshots).
//! * [`sim`] — the execution-driven multi-level cache-hierarchy simulator.
//! * [`os`] — processes, scheduler, and the full-system runner.
//! * [`workloads`] — synthetic SPEC/PARSEC-like workloads and the RSA
//!   (square-and-multiply) victim.
//! * [`attacks`] — reuse/contention attack programs and analysis.
//! * [`telemetry`] — the zero-dependency event log (context switches,
//!   rollovers, probes, faults, invariant violations) that `os` and
//!   `attacks` emit into.
//!
//! See the repository `README.md` for a guided tour and `examples/` for
//! runnable scenarios.

pub use timecache_attacks as attacks;
pub use timecache_core as core;
pub use timecache_os as os;
pub use timecache_sim as sim;
pub use timecache_telemetry as telemetry;
pub use timecache_workloads as workloads;
