//! System-assembly helpers shared by the attack demonstrations and the
//! experiment harness.

use crate::analysis::Threshold;
use crate::flush_reload::{summarize, FlushReloadAttacker, MicrobenchResult};
use timecache_core::TimeCacheConfig;
use timecache_os::programs::SharedWriter;
use timecache_os::{System, SystemConfig};
use timecache_sim::{HierarchyConfig, SecurityMode};
use timecache_telemetry::Telemetry;
use timecache_workloads::layout;

/// Outcome of one attack demonstration, ready for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Attack name.
    pub attack: String,
    /// Security mode the system ran under.
    pub mode: String,
    /// Whether the attacker extracted the signal it was after.
    pub leaked: bool,
    /// A human-readable quantitative summary ("hits 256/256", "key 98 %").
    pub detail: String,
}

impl AttackOutcome {
    /// Builds an outcome row.
    pub fn new(
        attack: impl Into<String>,
        mode: impl Into<String>,
        leaked: bool,
        detail: impl Into<String>,
    ) -> Self {
        AttackOutcome {
            attack: attack.into(),
            mode: mode.into(),
            leaked,
            detail: detail.into(),
        }
    }
}

/// A single-core system configured for same-core, time-sliced attacks.
///
/// The quantum is deliberately small (the attacker self-preempts with
/// `Yield` anyway) and the hierarchy is the paper's Table I setup.
pub fn single_core_system(security: SecurityMode) -> System {
    let mut hierarchy = HierarchyConfig::with_cores(1);
    hierarchy.security = security;
    let cfg = SystemConfig {
        hierarchy,
        quantum_cycles: 200_000,
        ..SystemConfig::default()
    };
    System::new(cfg).expect("table-I config is valid")
}

/// A two-core system for cross-core attacks.
pub fn dual_core_system(security: SecurityMode) -> System {
    let mut hierarchy = HierarchyConfig::with_cores(2);
    hierarchy.security = security;
    let cfg = SystemConfig {
        hierarchy,
        quantum_cycles: 200_000,
        ..SystemConfig::default()
    };
    System::new(cfg).expect("table-I config is valid")
}

/// The TimeCache security mode with the paper's default parameters.
pub fn timecache_mode() -> SecurityMode {
    SecurityMode::TimeCache(TimeCacheConfig::default())
}

/// Runs the Section VI-A.1 microbenchmark: a parent (attacker) flushes a
/// 256-line shared array and yields; the child (victim) writes the array;
/// the parent then performs timed reads. Returns probes/hits.
///
/// In the baseline every probed line the victim wrote reloads fast; with
/// TimeCache the attacker "does not see any hit".
pub fn run_microbenchmark(security: SecurityMode, rounds: u32) -> MicrobenchResult {
    run_microbenchmark_with_telemetry(security, rounds, &Telemetry::disabled())
}

/// [`run_microbenchmark`] with observability: the system streams its
/// scheduler events into `tel`, and the attacker emits a probe event per
/// timed load (from whose latencies [`Threshold::from_histogram`] can
/// re-derive the decision boundary).
pub fn run_microbenchmark_with_telemetry(
    security: SecurityMode,
    rounds: u32,
    tel: &Telemetry,
) -> MicrobenchResult {
    let mut hierarchy = HierarchyConfig::with_cores(1);
    hierarchy.security = security;
    let cfg = SystemConfig {
        hierarchy,
        quantum_cycles: 200_000,
        telemetry: tel.clone(),
        ..SystemConfig::default()
    };
    let mut sys = System::new(cfg).expect("table-I config is valid");
    let lat = sys.config().hierarchy.latencies;
    let lines = 256u64;
    let targets: Vec<u64> = (0..lines)
        .map(|i| layout::SHARED_SEGMENT + i * layout::LINE)
        .collect();

    let (attacker, log) = FlushReloadAttacker::new(targets, Threshold::calibrate(&lat), rounds);
    let attacker = attacker.with_telemetry(tel);
    // Attacker first so its initial flush precedes the victim's writes.
    sys.spawn(Box::new(attacker), 0, 0, None);
    // The victim writes the shared array over and over, yielding between
    // sweeps (the paper's child process). Its instruction budget outlives
    // every attack round by a wide margin, then the run winds down.
    let victim_budget = (rounds as u64 + 16) * 4 * (lines + 1);
    sys.spawn(
        Box::new(SharedWriter::new(
            layout::SHARED_SEGMENT,
            lines,
            layout::LINE,
        )),
        0,
        0,
        Some(victim_budget),
    );

    sys.run(200_000_000);
    summarize(&log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbenchmark_leaks_in_baseline() {
        let r = run_microbenchmark(SecurityMode::Baseline, 3);
        assert_eq!(r.rounds, 3);
        // The victim writes every line between flush and reload: nearly all
        // probes must be hits.
        assert!(
            r.hits > r.probes * 9 / 10,
            "expected heavy leakage, got {}/{} hits",
            r.hits,
            r.probes
        );
    }

    #[test]
    fn microbenchmark_blind_under_timecache() {
        let r = run_microbenchmark(timecache_mode(), 3);
        assert_eq!(r.rounds, 3);
        assert_eq!(r.hits, 0, "attacker must not see any hit");
        assert_eq!(r.probes, 3 * 256);
    }

    #[test]
    fn telemetry_captures_probe_latencies() {
        use timecache_telemetry::{Histogram, TraceEvent};

        // The probe latencies the event log holds so far.
        let probe_histogram = |tel: &Telemetry| {
            let mut hist = Histogram::default();
            for rec in tel.tracer().unwrap().records() {
                if let TraceEvent::Probe { latency, .. } = rec.event {
                    hist.observe(latency);
                }
            }
            hist
        };

        // Both modes on one handle at the `security` experiment's 5 rounds
        // each: the event log keeps every probe, with nothing dropped.
        let tel = Telemetry::enabled();
        let base = run_microbenchmark_with_telemetry(SecurityMode::Baseline, 5, &tel);
        let hist = probe_histogram(&tel);
        assert_eq!(hist.count(), base.probes);

        // The baseline microbenchmark is all-hits (that's the leak), so its
        // own histogram has a single mode and no derivable boundary.
        assert_eq!(Threshold::from_histogram(&hist), None);

        // Feeding a TimeCache run (all miss-latency probes) into the *same*
        // handle makes the distribution bimodal — the known-cached /
        // known-flushed calibration a real attacker performs — and the
        // recovered boundary separates the latency model's extremes.
        let tc = run_microbenchmark_with_telemetry(timecache_mode(), 5, &tel);
        let hist = probe_histogram(&tel);
        let t = Threshold::from_histogram(&hist).expect("two modes present");
        let lat = timecache_sim::LatencyConfig::default();
        assert!(t.is_hit(lat.l1_hit));
        assert!(!t.is_hit(lat.dram));

        let tracer = tel.tracer().unwrap();
        let probe_events = tracer
            .records()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Probe { .. }))
            .count() as u64;
        assert_eq!(probe_events, base.probes + tc.probes);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn systems_construct() {
        let _ = single_core_system(SecurityMode::Baseline);
        let _ = dual_core_system(timecache_mode());
    }
}
