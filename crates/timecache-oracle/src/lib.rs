//! Correctness oracles for the TimeCache simulator.
//!
//! The optimized simulator in `timecache-sim` has accumulated hot-path
//! machinery (sentinel tag-folding, precomputed geometry, transposed
//! timestamp planes) that is hard to audit by eye. This crate checks it
//! against two independent oracles:
//!
//! * a **differential oracle** ([`refmodel`], [`diff`]): a deliberately
//!   slow, executable transcription of the paper's semantics, replayed in
//!   lock-step with the real [`timecache_sim::Hierarchy`] over randomly
//!   generated multi-process traces ([`generate`](mod@generate)), with greedy
//!   delta-debugging shrinking ([`shrink`](mod@shrink)) of any diverging trace; and
//! * a **statistical leakage oracle** ([`welch`], [`leakage`]): a
//!   TVLA-style Welch's t-test over attacker-observed latency samples
//!   (victim-accessed vs. not) applied uniformly to every attack channel,
//!   asserting the channel is wide open at baseline and closed under its
//!   defended configuration.
//!
//! Traces have a stable text format ([`trace`]) so shrunken divergences can
//! be checked in under `tests/corpus/` and replayed forever after.

pub mod diff;
pub mod generate;
pub mod leakage;
pub mod refmodel;
pub mod shrink;
pub mod trace;
pub mod welch;

pub use diff::{replay, run_random, Divergence, FoundDivergence, RandomReport, ReplaySummary};
pub use generate::generate;
pub use leakage::{assess, Assessment, Channel};
pub use refmodel::{BugKind, RefHierarchy};
pub use shrink::shrink;
pub use trace::{Event, TraceConfig, TraceDoc, TraceError};
pub use welch::{welch_t, LEAKAGE_THRESHOLD};
