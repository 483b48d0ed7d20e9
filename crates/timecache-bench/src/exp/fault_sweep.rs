//! Fault-injection matrix: does the defense stay *safe* when its own
//! machinery misbehaves?
//!
//! Sweeps every fault scenario (forced/deferred rollover, dropped and
//! corrupted snapshots at save and restore, comparator glitches, mid-save
//! aborts) against both security modes, with the runtime security-invariant
//! checker ([`timecache_os::invariant`]) watching every access. The
//! expected asymmetry is the experiment's result:
//!
//! * **TimeCache**: zero invariant violations in every cell — injected
//!   faults degrade to conservative full s-bit resets (extra first-access
//!   misses), never to stale visibility;
//! * **Baseline**: violations in every cell — with no defense the second
//!   process freeloads on the first one's fills regardless of faults.
//!
//! The cells run through [`sweep::run`], each recording its own events,
//! so every artifact is byte-identical for any `--jobs` value. Artifacts:
//! `fault_matrix.csv`, `fault_matrix.json`, and `fault_sweep_events.jsonl`
//! with `fault_sweep_manifest.json`, whose `run` field is the cell's row in
//! the CSV.

use crate::output::{print_table, results_dir, write_artifact, write_csv};
use crate::runner::RunParams;
use crate::{sweep, telemetry};
use std::io;
use timecache_core::{FaultKind, FaultPlan, TimeCacheConfig, TriggerPoint};
use timecache_os::{programs::StridedLoop, System, SystemConfig};
use timecache_sim::{HierarchyConfig, SecurityMode};
use timecache_telemetry::Telemetry;

/// The fault scenarios: every kind at its interesting trigger point(s),
/// plus a fault-free control row.
pub const SCENARIOS: [(&str, Option<(FaultKind, TriggerPoint)>); 9] = [
    ("none", None),
    (
        "force_rollover@rollover",
        Some((FaultKind::ForceRollover, TriggerPoint::Rollover)),
    ),
    (
        "defer_rollover@rollover",
        Some((FaultKind::DeferRollover, TriggerPoint::Rollover)),
    ),
    (
        "drop_snapshot@save",
        Some((FaultKind::DropSnapshot, TriggerPoint::Save)),
    ),
    (
        "drop_snapshot@restore",
        Some((FaultKind::DropSnapshot, TriggerPoint::Restore)),
    ),
    (
        "corrupt_snapshot@save",
        Some((FaultKind::CorruptSnapshot, TriggerPoint::Save)),
    ),
    (
        "corrupt_snapshot@restore",
        Some((FaultKind::CorruptSnapshot, TriggerPoint::Restore)),
    ),
    (
        "flip_comparator@compare",
        Some((FaultKind::FlipComparator, TriggerPoint::Compare)),
    ),
    (
        "abort_save@save",
        Some((FaultKind::AbortSave, TriggerPoint::Save)),
    ),
];

/// Jobs in the matrix: each scenario under baseline and TimeCache.
pub const JOBS: usize = SCENARIOS.len() * 2;

/// One completed matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Scenario label from [`SCENARIOS`].
    pub scenario: String,
    /// "baseline" or "timecache".
    pub mode: String,
    /// Faults injected during the run.
    pub injected: u64,
    /// Detections of injected faults by the defense, each of which it
    /// neutralised. A fault can be detected more than once (a corrupted
    /// save is caught by each cache level that restores it), so this can
    /// exceed `injected`.
    pub detected: u64,
    /// Security-invariant violations observed.
    pub violations: u64,
    /// Total simulated cycles.
    pub cycles: u64,
}

impl Row {
    /// The cell's security verdict, given its mode.
    fn verdict(&self) -> &'static str {
        match (self.mode.as_str(), self.violations) {
            ("timecache", 0) => "secure",
            ("timecache", _) => "VIOLATED",
            (_, 0) => "quiet",
            (_, _) => "leaks",
        }
    }
}

/// What the matrix established, for the driver's exit policy.
#[derive(Debug)]
pub struct FaultSweepSummary {
    /// Violations summed over the TimeCache cells (must be 0).
    pub timecache_violations: u64,
    /// Violations summed over the baseline cells (must be > 0: the checker
    /// has to catch the undefended leak, or it proves nothing).
    pub baseline_violations: u64,
    /// Faults injected across all cells.
    pub total_injected: u64,
}

/// Instructions per process for one cell: enough for dozens of quanta
/// (and, at 14-bit timestamps, many rollovers) without dominating `all`.
fn cell_instructions(params: &RunParams) -> u64 {
    (params.measure_instructions / 1_000).clamp(2_000, 16_000)
}

/// Runs one cell of the matrix, emitting its events through `telemetry`.
fn run_cell(index: usize, params: &RunParams, telemetry: &Telemetry) -> Row {
    let (label, fault) = SCENARIOS[index / 2];
    let timecache = index % 2 == 1;
    // 14-bit timestamps roll over every 16 Ki cycles — every few quanta —
    // so the rollover fault scenarios exercise real rollover traffic.
    let (mode_name, security) = if timecache {
        (
            "timecache",
            SecurityMode::TimeCache(TimeCacheConfig::new(14)),
        )
    } else {
        ("baseline", SecurityMode::Baseline)
    };
    let mut hier = HierarchyConfig::with_cores(1);
    hier.security = security;
    let cfg = SystemConfig {
        hierarchy: hier,
        quantum_cycles: 6_000,
        check_invariants: true,
        fault_plan: fault.map(|(kind, trigger)| {
            FaultPlan::new(kind, trigger, 0xFA17 + index as u64).with_rate(0.5)
        }),
        telemetry: telemetry.clone(),
        ..SystemConfig::default()
    };
    let mut sys = System::new(cfg).expect("fault-sweep config is valid");
    let instructions = cell_instructions(params);
    // Two processes time-sliced on one core over the *same* buffer: the
    // canonical sharing pattern the invariant checker must judge.
    sys.spawn(
        Box::new(StridedLoop::new(0x10_0000, 32 * 1024, 64)),
        0,
        0,
        Some(instructions),
    );
    sys.spawn(
        Box::new(StridedLoop::new(0x10_0000, 32 * 1024, 64)),
        0,
        0,
        Some(instructions),
    );
    let report = sys.run(u64::MAX);
    assert!(report.all_completed(), "fault-sweep cell did not complete");
    Row {
        scenario: label.to_owned(),
        mode: mode_name.to_owned(),
        injected: sys.fault_injections(),
        detected: sys.fault_detections(),
        violations: sys.invariant_violations(),
        cycles: report.total_cycles,
    }
}

/// Runs the matrix on `jobs` workers, prints it, writes `fault_matrix.csv`
/// / `fault_matrix.json` and the cells' events, and returns the summary for
/// the exit policy.
pub fn run(params: &RunParams, jobs: usize) -> io::Result<FaultSweepSummary> {
    eprintln!(
        "running fault-injection matrix ({} scenarios x 2 modes, {} jobs)...",
        SCENARIOS.len(),
        jobs
    );
    let (rows, events): (Vec<Row>, Vec<_>) = sweep::run(jobs, JOBS, |i| {
        let (label, _) = SCENARIOS[i / 2];
        let mode = if i % 2 == 1 { "timecache" } else { "baseline" };
        sweep::progress(&format!("  running {label} [{mode}] ..."));
        telemetry::record(|tel| run_cell(i, params, tel))
    })
    .into_iter()
    .unzip();

    let header = [
        "scenario",
        "mode",
        "injected",
        "detected",
        "violations",
        "cycles",
        "verdict",
    ];
    let mut summary = FaultSweepSummary {
        timecache_violations: 0,
        baseline_violations: 0,
        total_injected: 0,
    };
    let mut table = Vec::with_capacity(JOBS);
    for row in &rows {
        if row.mode == "timecache" {
            summary.timecache_violations += row.violations;
        } else {
            summary.baseline_violations += row.violations;
        }
        summary.total_injected += row.injected;
        table.push(vec![
            row.scenario.clone(),
            row.mode.clone(),
            row.injected.to_string(),
            row.detected.to_string(),
            row.violations.to_string(),
            row.cycles.to_string(),
            row.verdict().to_owned(),
        ]);
    }
    print_table(
        "Fault-injection matrix (invariant: no unpaid fast access; TimeCache must stay secure)",
        &header,
        &table,
    );
    write_csv("fault_matrix.csv", &header, &table)?;

    let json = format!(
        "{{\"jobs\":{JOBS},\"total_injected\":{},\"timecache_violations\":{},\"baseline_violations\":{}}}",
        summary.total_injected, summary.timecache_violations, summary.baseline_violations
    );
    write_artifact(&results_dir()?.join("fault_matrix.json"), &json)?;
    telemetry::write_artifacts("fault_sweep", &events)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_reflect_mode_expectations() {
        let mut row = Row {
            scenario: "none".into(),
            mode: "baseline".into(),
            injected: 0,
            detected: 0,
            violations: 5,
            cycles: 1,
        };
        assert_eq!(row.verdict(), "leaks");
        row.violations = 0;
        assert_eq!(row.verdict(), "quiet");
        row.mode = "timecache".into();
        assert_eq!(row.verdict(), "secure");
        // Injected faults that were all detected leave the cell secure.
        row.injected = 12;
        row.detected = 12;
        assert_eq!(row.verdict(), "secure");
        row.violations = 1;
        assert_eq!(row.verdict(), "VIOLATED");
    }

    #[test]
    fn one_cell_of_each_mode_behaves() {
        let params = RunParams::quick();
        // corrupt_snapshot@restore under TimeCache: faults fire, all are
        // detected, and the invariant holds.
        let tc = run_cell(13, &params, &Telemetry::disabled());
        assert_eq!(tc.mode, "timecache");
        assert_eq!(tc.scenario, "corrupt_snapshot@restore");
        assert!(tc.injected > 0);
        assert_eq!(tc.violations, 0, "TimeCache cell must stay secure");
        // The same scenario under baseline leaks regardless of faults.
        let base = run_cell(12, &params, &Telemetry::disabled());
        assert_eq!(base.mode, "baseline");
        assert!(base.violations > 0, "undefended sharing must be caught");
    }
}
