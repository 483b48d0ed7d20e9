//! # timecache-workloads
//!
//! Workload generation for the TimeCache reproduction (Ojha & Dwarkadas,
//! ISCA 2021).
//!
//! The paper evaluates on SPEC2006 and PARSEC binaries under gem5 and
//! attacks the GnuPG RSA implementation. Neither the benchmark suites nor
//! gem5 checkpoints are redistributable here, so this crate provides:
//!
//! * [`synthetic`] — a parametric, execution-driven workload generator
//!   (working-set size, fresh-line rate, shared-library footprint, code
//!   locality) whose knobs map directly onto the cache-visible quantities
//!   the paper's results depend on;
//! * [`spec`] — per-benchmark presets for the SPEC2006 workloads of
//!   Table II, calibrated against the table's *baseline LLC MPKI* column;
//! * [`parsec`] — 2-thread shared-memory presets for the PARSEC workloads
//!   of Fig. 9;
//! * [`mixes`] — the exact same-benchmark and mixed pairings Table II runs;
//! * [`rsa`] — a from-scratch multi-precision integer library and
//!   left-to-right square-and-multiply modular exponentiation whose
//!   Square/Multiply/Reduce routines occupy distinct shared-code cache
//!   lines: the victim of the classic flush+reload key-extraction attack
//!   (Section VI-A.2).
//!
//! All randomness is seeded; identical parameters produce identical access
//! streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layout;
pub mod mixes;
pub mod parsec;
pub mod rsa;
pub mod spec;
pub mod synthetic;

pub use spec::SpecBenchmark;
pub use synthetic::{SyntheticParams, SyntheticWorkload};
