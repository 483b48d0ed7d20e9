//! Covert-channel capacity through shared-line reuse.
//!
//! The paper motivates TimeCache partly through Spectre-class attacks,
//! which use flush+reload over shared lines as their *covert channel*: the
//! transiently-leaked secret is encoded into cache residency and decoded by
//! a receiver timing reloads. This module builds that channel explicitly —
//! a sender encodes a bit string by touching (1) or skipping (0) one shared
//! line per window; a receiver flush+reloads it — and measures the raw
//! channel error rate and bandwidth under both modes.
//!
//! Under TimeCache every reload is a first access, so the receiver decodes
//! all-zeroes regardless of the payload: channel capacity collapses to
//! nothing, which is exactly the mechanism by which TimeCache "also
//! prevents speculative side channel leaks" (Section IX).

use crate::analysis::{mutual_information_bits, Threshold};
use crate::harness::{single_core_system, timecache_mode, AttackOutcome};
use std::cell::RefCell;
use std::rc::Rc;
use timecache_core::FastRng;
use timecache_os::{DataKind, Observation, Op, Program};
use timecache_sim::{Addr, SecurityMode};
use timecache_workloads::layout;

/// Received bits (one per window).
pub type BitLog = Rc<RefCell<Vec<bool>>>;

/// The sender: one window per payload bit — touch the line for a 1, idle
/// for a 0, then yield.
#[derive(Debug)]
struct Sender {
    line: Addr,
    payload: Vec<bool>,
    next: usize,
    phase: u8,
}

impl Program for Sender {
    fn next_op(&mut self) -> Op {
        match self.phase {
            0 => {
                self.phase = 1;
                let bit = self.payload.get(self.next).copied().unwrap_or(false);
                Op::Instr {
                    pc: 0x77C0_0000,
                    data: bit.then_some((DataKind::Load, self.line)),
                }
            }
            _ => {
                self.phase = 0;
                self.next += 1;
                if self.next > self.payload.len() + 4 {
                    Op::Done
                } else {
                    Op::Yield { pc: 0x77C0_0000 }
                }
            }
        }
    }

    fn name(&self) -> &str {
        "covert-sender"
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RxPhase {
    Flush,
    Sleep,
    Probe,
    Finished,
}

/// The receiver: flush → yield → timed reload, one window per bit.
struct Receiver {
    line: Addr,
    threshold: Threshold,
    windows: u32,
    window: u32,
    phase: RxPhase,
    log: BitLog,
    /// Cycle of the first and last decoded window (for bandwidth).
    first_cycle: Option<u64>,
    last_cycle: u64,
}

impl Receiver {
    fn new(line: Addr, threshold: Threshold, windows: u32) -> (Self, BitLog) {
        let log: BitLog = Rc::new(RefCell::new(Vec::new()));
        (
            Receiver {
                line,
                threshold,
                windows,
                window: 0,
                phase: RxPhase::Flush,
                log: Rc::clone(&log),
                first_cycle: None,
                last_cycle: 0,
            },
            log,
        )
    }
}

impl Program for Receiver {
    fn next_op(&mut self) -> Op {
        match self.phase {
            RxPhase::Flush => {
                self.phase = RxPhase::Sleep;
                Op::Flush {
                    pc: 0x66F0_0000,
                    target: self.line,
                }
            }
            RxPhase::Sleep => {
                self.phase = RxPhase::Probe;
                Op::Yield { pc: 0x66F0_0000 }
            }
            RxPhase::Probe => Op::Instr {
                pc: 0x66F0_0000,
                data: Some((DataKind::Load, self.line)),
            },
            RxPhase::Finished => Op::Done,
        }
    }

    fn observe(&mut self, obs: Observation) {
        if self.phase == RxPhase::Probe {
            if let Some(latency) = obs.data_latency {
                self.log.borrow_mut().push(self.threshold.is_hit(latency));
                self.first_cycle.get_or_insert(obs.now);
                self.last_cycle = obs.now;
                self.window += 1;
                self.phase = if self.window >= self.windows {
                    RxPhase::Finished
                } else {
                    RxPhase::Flush
                };
            }
        }
    }

    fn name(&self) -> &str {
        "covert-receiver"
    }
}

impl std::fmt::Debug for Receiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("window", &self.window)
            .finish()
    }
}

/// Capacity measurement for the reuse covert channel.
#[derive(Debug, Clone, PartialEq)]
pub struct CovertResult {
    /// Payload bits sent.
    pub sent: usize,
    /// Bits decoded correctly.
    pub correct: usize,
    /// Raw window rate in bits per million cycles.
    pub windows_per_mcycle: f64,
    /// Empirical mutual information between payload and decoded bits, in
    /// bits per window (1.0 = perfect channel, ~0 = closed).
    pub mutual_information: f64,
}

impl CovertResult {
    /// Fraction of payload bits decoded correctly (0.5 = coin-flip).
    pub fn accuracy(&self) -> f64 {
        self.correct as f64 / self.sent.max(1) as f64
    }

    /// Effective error-free bandwidth (accuracy-scaled window rate, zero
    /// once accuracy is at or below chance).
    pub fn effective_bandwidth(&self) -> f64 {
        ((self.accuracy() - 0.5).max(0.0) * 2.0) * self.windows_per_mcycle
    }

    /// The channel works if it beats guessing by a wide margin.
    pub fn leaks(&self) -> bool {
        self.accuracy() > 0.75
    }
}

/// Runs the covert channel with a pseudo-random `bits`-bit payload.
///
/// # Panics
///
/// Panics if `bits` is zero.
pub fn run_covert_channel(security: SecurityMode, bits: usize) -> CovertResult {
    assert!(bits > 0, "need at least one payload bit");
    let mut sys = single_core_system(security);
    let lat = sys.config().hierarchy.latencies;
    let line = layout::SHARED_SEGMENT + 0x5_0000;

    let mut rng = FastRng::seed_from_u64(0xC0FE ^ bits as u64);
    let payload: Vec<bool> = (0..bits).map(|_| rng.next_u64() & 1 == 1).collect();

    let (receiver, log) = Receiver::new(line, Threshold::calibrate(&lat), bits as u32);
    sys.spawn(Box::new(receiver), 0, 0, None);
    sys.spawn(
        Box::new(Sender {
            line,
            payload: payload.clone(),
            next: 0,
            phase: 0,
        }),
        0,
        0,
        None,
    );
    let report = sys.run(400_000_000);

    let decoded = log.borrow();
    let correct = payload
        .iter()
        .zip(decoded.iter())
        .filter(|(p, d)| p == d)
        .count();
    let observed: Vec<bool> = (0..bits)
        .map(|i| decoded.get(i).copied().unwrap_or(false))
        .collect();
    CovertResult {
        sent: bits,
        correct,
        windows_per_mcycle: decoded.len() as f64 * 1e6 / report.total_cycles.max(1) as f64,
        mutual_information: mutual_information_bits(&payload, &observed),
    }
}

/// Outcome rows for both modes.
pub fn demo() -> Vec<AttackOutcome> {
    let baseline = run_covert_channel(SecurityMode::Baseline, 128);
    let defended = run_covert_channel(timecache_mode(), 128);
    let fmt = |r: &CovertResult| {
        format!(
            "{:.1}% of {} bits, {:.2} bits MI/window, {:.1} usable bits/Mcycle",
            r.accuracy() * 100.0,
            r.sent,
            r.mutual_information,
            r.effective_bandwidth()
        )
    };
    vec![
        AttackOutcome::new(
            "reuse covert channel",
            "baseline",
            baseline.leaks(),
            fmt(&baseline),
        ),
        AttackOutcome::new(
            "reuse covert channel",
            "timecache",
            defended.leaks(),
            fmt(&defended),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_fidelity_channel_in_baseline() {
        let r = run_covert_channel(SecurityMode::Baseline, 64);
        assert!(r.accuracy() > 0.95, "{r:?}");
        assert!(r.effective_bandwidth() > 0.0);
    }

    #[test]
    fn channel_collapses_under_timecache() {
        let base = run_covert_channel(SecurityMode::Baseline, 64);
        let tc = run_covert_channel(timecache_mode(), 64);
        // The receiver decodes all zeroes; accuracy equals the fraction of
        // zero bits in the payload — chance level, never high fidelity.
        assert!(!tc.leaks(), "{tc:?}");
        assert!(tc.accuracy() < 0.7, "{tc:?}");
        // Any residual "bandwidth" is chance-level jitter, an order of
        // magnitude below the working baseline channel.
        assert!(
            tc.effective_bandwidth() < base.effective_bandwidth() / 10.0,
            "baseline {base:?} vs timecache {tc:?}"
        );
    }
}
