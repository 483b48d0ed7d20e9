//! Processes: schedulable entities owning a program and a saved caching
//! context.

use crate::program::Program;
use std::fmt;
use timecache_sim::ContextSnapshot;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// The scheduler-visible state of a process.
pub struct Process {
    pid: Pid,
    name: String,
    pub(crate) program: Box<dyn Program>,
    /// `program.observes()`, read once here.
    pub(crate) observes: bool,
    /// Saved caching context (None until first preemption; also None in
    /// baseline mode, where snapshots are empty anyway). `has_run` tells the
    /// restore path whether None means "new process" or "baseline".
    pub(crate) snapshot: Option<ContextSnapshot>,
    pub(crate) has_run: bool,
    pub(crate) instructions: u64,
    pub(crate) cpu_cycles: u64,
    pub(crate) target_instructions: Option<u64>,
    pub(crate) completed: bool,
    /// Cycle (on its context clock) when the process completed.
    pub(crate) completion_cycle: Option<u64>,
}

impl Process {
    /// Wraps a program as a process. `target_instructions` optionally caps
    /// the run length (the paper simulates fixed instruction budgets).
    pub fn new(pid: Pid, program: Box<dyn Program>, target_instructions: Option<u64>) -> Self {
        let name = program.name().to_owned();
        Process {
            pid,
            name,
            observes: program.observes(),
            program,
            snapshot: None,
            has_run: false,
            instructions: 0,
            cpu_cycles: 0,
            target_instructions,
            completed: false,
            completion_cycle: None,
        }
    }

    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// CPU cycles consumed so far (excluding time spent preempted).
    pub fn cpu_cycles(&self) -> u64 {
        self.cpu_cycles
    }

    /// Whether the process has finished (program `Done` or target reached).
    pub fn completed(&self) -> bool {
        self.completed
    }
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("instructions", &self.instructions)
            .field("completed", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::Spin;

    #[test]
    fn wraps_program_metadata() {
        let p = Process::new(Pid(3), Box::new(Spin::new(5)), Some(100));
        assert_eq!(p.pid(), Pid(3));
        assert_eq!(p.name(), "spin");
        assert_eq!(p.instructions(), 0);
        assert!(!p.completed());
        assert_eq!(p.pid().to_string(), "pid3");
    }
}
