//! # timecache-core
//!
//! The hardware mechanism proposed by *TimeCache: Using Time to Eliminate
//! Cache Side Channels when Sharing Software* (Ojha & Dwarkadas, ISCA 2021),
//! implemented as a standalone, simulator-agnostic library.
//!
//! TimeCache eliminates **reuse-based** cache side channels (flush+reload,
//! evict+reload) by giving every hardware context a *private view* of cache
//! line residency: the first access by a context to a line that some other
//! context brought into the cache is serviced with miss-equivalent latency
//! (a **first-access miss**). A context only ever observes a cache hit for
//! lines it has itself paid a miss (or first-access miss) for, so cache
//! residency created by a victim is invisible to an attacker.
//!
//! The mechanism consists of:
//!
//! * a per-line, per-hardware-context **s-bit** ("has this context already
//!   accessed this resident line?") — [`SBitArray`];
//! * a per-line fill timestamp **Tc**, which the paper keeps in a transposed
//!   SRAM array so all lines' timestamps stream out one bit-plane per cycle;
//! * a **bit-serial, timestamp-parallel comparator** (Fig. 6 of the paper)
//!   that, on a context switch, resets the s-bits of every line filled after
//!   the resuming process was preempted (`Tc > Ts`) in time proportional to
//!   the timestamp *width*, not the number of lines — [`BitSerialComparator`],
//!   which computes that reset mask and charges the sweep's cycle cost;
//! * per-process **caching-context snapshots** saved/restored by trusted
//!   software at context switches — [`Snapshot`];
//! * everything glued together per cache level by [`TimeCacheState`].
//!
//! For robustness work the crate also ships a deterministic, seed-driven
//! [`FaultInjector`] that strikes the mechanism's rare paths (rollover,
//! snapshot save/restore, the comparator sweep) so harnesses can prove the
//! defense degrades conservatively — never to a stale hit — under faults;
//! see [`fault`](crate::FaultInjector) and
//! [`TimeCacheState::restore_context_faulty`].
//!
//! # Quick start
//!
//! ```
//! use timecache_core::{TimeCacheState, TimeCacheConfig, Visibility};
//!
//! // A cache with 128 lines shared by 2 hardware contexts, 32-bit timestamps.
//! let cfg = TimeCacheConfig::new(32);
//! let mut tc = TimeCacheState::new(128, 2, cfg);
//!
//! // Context 0 fills line 5 at cycle 100: line is visible to ctx 0 only.
//! tc.on_fill(5, 0, 100);
//! assert_eq!(tc.visibility(5, 0), Visibility::Visible);
//! assert_eq!(tc.visibility(5, 1), Visibility::FirstAccess);
//!
//! // Context 1 touches it: a first-access miss, after which it is visible.
//! tc.record_first_access(5, 1);
//! assert_eq!(tc.visibility(5, 1), Visibility::Visible);
//! ```
//!
//! The crate has no third-party dependencies and performs no I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod comparator;
mod config;
mod fault;
mod fnv;
mod rng;
mod sbit;
mod snapshot;
mod state;
mod timestamp;

pub use area::AreaModel;
pub use comparator::{BitSerialComparator, CompareOutcome};
pub use config::TimeCacheConfig;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultRecord, TriggerPoint};
pub use fnv::Fnv1a;
pub use rng::FastRng;
pub use sbit::SBitArray;
pub use snapshot::Snapshot;
pub use state::{RestoreOutcome, TimeCacheState, Visibility};
pub use timestamp::{TimestampWidth, WrappingTime};
