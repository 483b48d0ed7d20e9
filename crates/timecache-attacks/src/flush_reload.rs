//! Flush+reload: the reuse attack TimeCache eliminates.
//!
//! The attacker shares memory with the victim. Each round it flushes the
//! shared lines from the whole hierarchy, yields the CPU so the victim can
//! run, then reloads each line with a timed access: a fast reload means the
//! victim touched the line. This module provides the generic attacker
//! program plus the paper's Section VI-A.1 microbenchmark shape (a parent
//! flushing and timing a 256-line shared array that the child writes).

use crate::analysis::Threshold;
use std::cell::RefCell;
use std::rc::Rc;
use timecache_os::{DataKind, Observation, Op, Program};
use timecache_sim::Addr;
use timecache_telemetry::{Telemetry, TraceEvent};

/// One probe measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Which round (flush→yield→reload cycle) this probe belongs to.
    pub round: u32,
    /// The probed address.
    pub addr: Addr,
    /// Measured reload latency.
    pub latency: u64,
    /// Whether the latency classifies as a hit under the attacker's
    /// calibrated threshold.
    pub hit: bool,
}

/// Shared log the attacker writes probes into; hold a clone to read results
/// after the run.
pub type ProbeLog = Rc<RefCell<Vec<Probe>>>;

/// Internal phase of the attacker's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Flushing target `i`.
    Flush(usize),
    /// Yielding to the victim.
    Sleep,
    /// Reloading target `i` (its latency arrives via `observe`).
    Probe(usize),
    /// All rounds done.
    Finished,
}

/// A flush+reload attacker probing a fixed set of shared addresses.
///
/// The program runs `rounds` rounds of *flush all → yield → reload all*,
/// recording every reload into its [`ProbeLog`].
pub struct FlushReloadAttacker {
    targets: Vec<Addr>,
    threshold: Threshold,
    rounds: u32,
    round: u32,
    phase: Phase,
    log: ProbeLog,
    pc: Addr,
    tel: Telemetry,
}

impl FlushReloadAttacker {
    /// Creates the attacker and the shared log its measurements land in.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or `rounds` is zero.
    pub fn new(targets: Vec<Addr>, threshold: Threshold, rounds: u32) -> (Self, ProbeLog) {
        assert!(!targets.is_empty(), "need at least one probe target");
        assert!(rounds > 0, "need at least one round");
        let log: ProbeLog = Rc::new(RefCell::new(Vec::new()));
        (
            FlushReloadAttacker {
                targets,
                threshold,
                rounds,
                round: 0,
                phase: Phase::Flush(0),
                log: Rc::clone(&log),
                pc: 0x6660_0000,
                tel: Telemetry::disabled(),
            },
            log,
        )
    }

    /// Emits a [`TraceEvent::Probe`] into `tel` for every reload: its
    /// latencies are the input to [`Threshold::from_histogram`]
    /// calibration. No-op when `tel` is disabled.
    pub fn with_telemetry(mut self, tel: &Telemetry) -> Self {
        self.tel = tel.clone();
        self
    }

    fn next_pc(&mut self) -> Addr {
        // A tight attack loop: 4 code lines.
        self.pc = (self.pc & !0xFF) | ((self.pc + 64) & 0xFF);
        self.pc
    }
}

impl Program for FlushReloadAttacker {
    fn next_op(&mut self) -> Op {
        match self.phase {
            Phase::Flush(i) => {
                let pc = self.next_pc();
                let target = self.targets[i];
                self.phase = if i + 1 < self.targets.len() {
                    Phase::Flush(i + 1)
                } else {
                    Phase::Sleep
                };
                Op::Flush { pc, target }
            }
            Phase::Sleep => {
                self.phase = Phase::Probe(0);
                Op::Yield { pc: self.next_pc() }
            }
            Phase::Probe(i) => {
                let pc = self.next_pc();
                Op::Instr {
                    pc,
                    data: Some((DataKind::Load, self.targets[i])),
                }
                // Phase advances in observe(), once the latency is known.
            }
            Phase::Finished => Op::Done,
        }
    }

    fn observe(&mut self, obs: Observation) {
        if let Phase::Probe(i) = self.phase {
            if let Some(latency) = obs.data_latency {
                let hit = self.threshold.is_hit(latency);
                self.log.borrow_mut().push(Probe {
                    round: self.round,
                    addr: self.targets[i],
                    latency,
                    hit,
                });
                self.tel.emit_at(
                    obs.now,
                    TraceEvent::Probe {
                        attack: "flush_reload",
                        latency,
                        hit,
                    },
                );
                self.phase = if i + 1 < self.targets.len() {
                    Phase::Probe(i + 1)
                } else {
                    self.round += 1;
                    if self.round >= self.rounds {
                        Phase::Finished
                    } else {
                        Phase::Flush(0)
                    }
                };
            }
        }
    }

    fn name(&self) -> &str {
        "flush-reload"
    }
}

impl std::fmt::Debug for FlushReloadAttacker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlushReloadAttacker")
            .field("targets", &self.targets.len())
            .field("round", &self.round)
            .field("rounds", &self.rounds)
            .finish()
    }
}

/// Summary of a microbenchmark run: probes and hits per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicrobenchResult {
    /// Total probes performed.
    pub probes: u64,
    /// Probes classified as hits — any nonzero value means the victim's
    /// accesses were observable (a successful attack).
    pub hits: u64,
    /// Rounds completed.
    pub rounds: u32,
}

/// Aggregates a probe log into a [`MicrobenchResult`].
pub fn summarize(log: &ProbeLog) -> MicrobenchResult {
    let probes = log.borrow();
    MicrobenchResult {
        probes: probes.len() as u64,
        hits: probes.iter().filter(|p| p.hit).count() as u64,
        rounds: probes.iter().map(|p| p.round + 1).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_emits_flush_yield_probe() {
        let (mut a, _log) =
            FlushReloadAttacker::new(vec![0x1000, 0x2000], Threshold::from_cycles(10), 2);
        assert!(matches!(a.next_op(), Op::Flush { target: 0x1000, .. }));
        assert!(matches!(a.next_op(), Op::Flush { target: 0x2000, .. }));
        assert!(matches!(a.next_op(), Op::Yield { .. }));
        assert!(matches!(
            a.next_op(),
            Op::Instr {
                data: Some((DataKind::Load, 0x1000)),
                ..
            }
        ));
        // Until the latency is observed the attacker stays on the probe.
        assert!(matches!(
            a.next_op(),
            Op::Instr {
                data: Some((DataKind::Load, 0x1000)),
                ..
            }
        ));
        a.observe(Observation {
            instr_index: 0,
            data_latency: Some(5),
            flush_latency: None,
            now: 0,
        });
        assert!(matches!(
            a.next_op(),
            Op::Instr {
                data: Some((DataKind::Load, 0x2000)),
                ..
            }
        ));
    }

    #[test]
    fn log_records_hits_and_rounds() {
        let (mut a, log) = FlushReloadAttacker::new(vec![0x40], Threshold::from_cycles(10), 2);
        // Round 0: flush, yield, probe (hit).
        a.next_op();
        a.next_op();
        a.next_op();
        a.observe(Observation {
            instr_index: 0,
            data_latency: Some(3),
            flush_latency: None,
            now: 0,
        });
        // Round 1: probe (miss).
        a.next_op();
        a.next_op();
        a.next_op();
        a.observe(Observation {
            instr_index: 1,
            data_latency: Some(300),
            flush_latency: None,
            now: 0,
        });
        assert_eq!(a.next_op(), Op::Done);

        let summary = summarize(&log);
        assert_eq!(summary.probes, 2);
        assert_eq!(summary.hits, 1);
        assert_eq!(summary.rounds, 2);
    }

    #[test]
    #[should_panic(expected = "at least one probe target")]
    fn empty_targets_rejected() {
        FlushReloadAttacker::new(vec![], Threshold::from_cycles(10), 1);
    }
}
