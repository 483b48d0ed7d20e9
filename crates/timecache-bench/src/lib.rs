//! # timecache-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! TimeCache paper's evaluation, plus dependency-free micro-benchmarks for
//! the mechanism itself (see [`microbench`]).
//!
//! Run experiments via the `experiments` binary:
//!
//! ```text
//! cargo run --release -p timecache-bench --bin experiments -- all
//! cargo run --release -p timecache-bench --bin experiments -- fig7
//! ```
//!
//! Each experiment prints a paper-style table to stdout and writes a CSV
//! under `results/`. Experiments declare the runs they read, and a
//! [`runner::RunTable`] simulates each distinct run once, fanned across
//! cores by the [`sweep`] engine; every function that sweeps takes the
//! worker count as an argument, which `experiments` reads from `--jobs N`
//! (default: all cores; `--jobs 1` reproduces serial execution
//! bit-for-bit). Passing
//! `--telemetry` (or running the dedicated `telemetry-demo` experiment)
//! additionally writes metrics, event-trace, profile, and manifest
//! artifacts via [`telemetry`]. See `DESIGN.md` for the experiment index
//! and `EXPERIMENTS.md` for paper-vs-measured records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp;
pub mod microbench;
pub mod output;
pub mod runner;
pub mod sweep;
pub mod telemetry;
