//! The program abstraction: a stream of instructions a process executes.
//!
//! Programs are *execution-driven* rather than trace files: each call to
//! [`Program::next_op`] produces the next instruction, so programs can react
//! to what they observe (an attacker times its loads via
//! [`Program::observe`] and decides what to probe next).

use timecache_sim::Addr;

/// The data side of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// A load.
    Load,
    /// A store.
    Store,
}

/// One step of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute one instruction fetched from `pc`, optionally performing a
    /// data access.
    Instr {
        /// Code address the instruction is fetched from.
        pc: Addr,
        /// Optional data access performed by the instruction.
        data: Option<(DataKind, Addr)>,
    },
    /// A `clflush target` instruction fetched from `pc`: evicts the line
    /// from the entire hierarchy.
    Flush {
        /// Code address the instruction is fetched from.
        pc: Addr,
        /// Byte address whose line is flushed.
        target: Addr,
    },
    /// Voluntarily yield the CPU (models `sched_yield`/`sleep`); the
    /// instruction at `pc` is still fetched and retired.
    Yield {
        /// Code address of the yielding instruction.
        pc: Addr,
    },
    /// The program has finished; the process terminates.
    Done,
}

/// What the hardware reported for the most recently executed op.
///
/// Delivered to [`Program::observe`] after every retired instruction of a
/// program whose [`Program::observes`] is true, mirroring what real attack
/// code gets from `rdtscp` around an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Index of the retired instruction within this process.
    pub instr_index: u64,
    /// Latency of the data access, if the op had one.
    pub data_latency: Option<u64>,
    /// Latency of the `clflush`, if the op was a flush.
    pub flush_latency: Option<u64>,
    /// Current cycle on this hardware context after the op.
    pub now: u64,
}

/// A process body: an instruction generator plus an observation sink.
///
/// Implementations live mostly in `timecache-workloads` (synthetic SPEC/
/// PARSEC-like generators, the RSA victim) and `timecache-attacks`
/// (flush+reload and friends); [`crate::programs`] provides small built-ins
/// for tests and examples.
pub trait Program {
    /// Produces the next instruction. Called once per retired instruction;
    /// return [`Op::Done`] to terminate the process.
    fn next_op(&mut self) -> Op;

    /// Receives timing feedback for the instruction that just retired.
    /// Programs that do not measure anything can keep the default no-op.
    fn observe(&mut self, _obs: Observation) {}

    /// Whether this program reads its observations. The scheduler asks
    /// once, when the process is spawned, and from then on builds and
    /// delivers an [`Observation`] per retired instruction only if the
    /// answer was true. A program that keeps the no-op
    /// [`Program::observe`] may return false to skip that work; one that
    /// overrides `observe` must keep the default.
    fn observes(&self) -> bool {
        true
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "program"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Two;

    impl Program for Two {
        fn next_op(&mut self) -> Op {
            Op::Done
        }
    }

    #[test]
    fn default_name_and_observe() {
        let mut p = Two;
        assert_eq!(p.name(), "program");
        p.observe(Observation {
            instr_index: 0,
            data_latency: None,
            flush_latency: None,
            now: 0,
        });
        assert_eq!(p.next_op(), Op::Done);
    }

    #[test]
    fn ops_are_value_types() {
        let a = Op::Instr {
            pc: 4,
            data: Some((DataKind::Load, 64)),
        };
        assert_eq!(a, a);
        assert_ne!(a, Op::Done);
    }
}
