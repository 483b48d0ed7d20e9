//! # timecache-os
//!
//! A miniature operating-system model on top of [`timecache_sim`]: processes
//! running [`Program`]s, a round-robin scheduler with per-hardware-context
//! run queues and cycle quanta, and the trusted-software half of the
//! TimeCache defense — saving and restoring per-process caching contexts
//! (s-bit snapshots and `Ts`) at every context switch, with the associated
//! cost model (Section VI-D of the paper).
//!
//! The paper triggers snapshot save/restore on CR3 writes inside gem5; here
//! the scheduler performs the same sequence explicitly:
//!
//! 1. save the outgoing process's [`timecache_sim::ContextSnapshot`] with
//!    the current cycle as its `Ts`;
//! 2. restore the incoming process's snapshot (or reset for a new process);
//! 3. let hardware's bit-serial comparator reset stale s-bits;
//! 4. charge the switch cost: a base (null-switch) cost plus the s-bit DMA
//!    transfer cost.
//!
//! # Quick start
//!
//! ```
//! use timecache_os::{System, SystemConfig, programs::StridedLoop};
//!
//! let mut sys = System::new(SystemConfig::default()).expect("valid config");
//! // Two processes time-sliced on core 0, each touching 64 KiB privately.
//! sys.spawn(Box::new(StridedLoop::new(0x100_0000, 64 * 1024, 64)), 0, 0, Some(10_000));
//! sys.spawn(Box::new(StridedLoop::new(0x200_0000, 64 * 1024, 64)), 0, 0, Some(10_000));
//! let report = sys.run(20_000_000);
//! assert!(report.all_completed());
//! assert_eq!(report.processes.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod invariant;
mod metrics;
mod process;
mod program;
pub mod programs;
mod switch;
mod system;
pub mod vm;

pub use error::OsError;
pub use metrics::{ProcessMetrics, RunReport};
pub use process::{Pid, Process};
pub use program::{DataKind, Observation, Op, Program};
pub use switch::SwitchCostModel;
pub use system::{System, SystemConfig};
