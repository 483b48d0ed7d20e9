//! # timecache-attacks
//!
//! Cache side-channel attack programs and analysis tooling for the
//! TimeCache reproduction (Ojha & Dwarkadas, ISCA 2021).
//!
//! The crate implements, as runnable [`timecache_os::Program`]s:
//!
//! * [`flush_reload`] — the reuse attack TimeCache is built to stop,
//!   including the paper's Section VI-A.1 microbenchmark (flush → yield →
//!   victim writes → timed reads of a 256-line shared array);
//! * [`evict_reload`] — the flush-free reuse variant using eviction sets;
//! * [`rsa_attack`] — the classic flush+reload key extraction against the
//!   GnuPG-style square-and-multiply victim (Section VI-A.2);
//! * [`covert`] — the Spectre-style reuse covert channel and its capacity
//!   collapse under TimeCache (Section IX);
//! * [`prime_probe`] — a contention attack, shown *out of scope* for
//!   TimeCache but defeated by the CEASER-like keyed index;
//! * [`lru`] — the replacement-state attack of Section VII-A;
//! * [`coherence`] — invalidate+transfer (Section VII-B);
//! * [`flush_flush`] — timing `clflush` itself (Section VII-C);
//! * [`evict_time`] — the flush-based Evict+Time variant (Section VII-D);
//!
//! plus [`analysis`] (thresholding, hit decoding, key-recovery accuracy)
//! and [`harness`] (system assembly helpers shared by the experiments).
//!
//! Attacker programs expose their measurements through shared
//! [`std::rc::Rc`]`<`[`std::cell::RefCell`]`>` logs returned alongside the
//! program, so results can be read back after [`timecache_os::System::run`]
//! consumes the boxed program. These logs are the only record of a probe:
//! attacks emit no trace events, and their thresholds come from the
//! latency model ([`Threshold::calibrate`], [`Threshold::cross_core`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod coherence;
pub mod covert;
pub mod evict_reload;
pub mod evict_time;
pub mod flush_flush;
pub mod flush_reload;
pub mod harness;
pub mod lru;
pub mod prime_probe;
pub mod rsa_attack;
pub mod spectre;

pub use analysis::{KeyRecovery, Threshold};
pub use flush_reload::{FlushReloadAttacker, ProbeLog};
pub use harness::AttackOutcome;
