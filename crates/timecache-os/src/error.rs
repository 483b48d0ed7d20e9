//! Typed errors for the OS model.
//!
//! The scheduler's fallible entry points ([`crate::System::try_spawn`] and
//! [`crate::System::try_extend_target`]) return these instead of
//! panicking, so harnesses can report a bad configuration as an error. The
//! `Display` strings are byte-for-byte the legacy panic messages, so the
//! panicking convenience wrappers (which simply `panic!("{err}")`) keep
//! every historical message intact.

use crate::process::Pid;

/// What went wrong inside the OS model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// A spawn named a (core, thread) pair the simulated machine lacks.
    NoSuchContext {
        /// Requested core index.
        core: usize,
        /// Requested SMT thread index on that core.
        thread: usize,
    },
    /// An operation named a [`Pid`] that was never spawned.
    NoSuchProcess(Pid),
    /// [`crate::System::try_extend_target`] was called on a process that
    /// was spawned without an instruction target.
    NoInstructionTarget(Pid),
    /// The process's program emitted `Done` on its own; its instruction
    /// target cannot be extended to keep it running.
    ProgramFinished(Pid),
}

impl std::fmt::Display for OsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsError::NoSuchContext { core, thread } => {
                write!(f, "no hardware context ({core},{thread})")
            }
            OsError::NoSuchProcess(pid) => write!(f, "{pid} does not exist"),
            OsError::NoInstructionTarget(pid) => {
                write!(f, "{pid} has no instruction target")
            }
            OsError::ProgramFinished(pid) => {
                write!(f, "{pid}'s program finished on its own; cannot extend")
            }
        }
    }
}

impl std::error::Error for OsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_the_legacy_panic_messages() {
        assert_eq!(
            OsError::NoSuchContext { core: 3, thread: 0 }.to_string(),
            "no hardware context (3,0)"
        );
        assert_eq!(
            OsError::NoSuchProcess(Pid(9)).to_string(),
            "pid9 does not exist"
        );
        assert_eq!(
            OsError::NoInstructionTarget(Pid(2)).to_string(),
            "pid2 has no instruction target"
        );
        assert_eq!(
            OsError::ProgramFinished(Pid(1)).to_string(),
            "pid1's program finished on its own; cannot extend"
        );
    }

    #[test]
    fn implements_the_std_error_trait() {
        let e: Box<dyn std::error::Error> = Box::new(OsError::NoSuchProcess(Pid(0)));
        assert!(e.to_string().contains("does not exist"));
    }
}
