//! Statistical leakage-assessment matrix (TVLA-style) over the full
//! attack-primitive suite.
//!
//! For every channel in [`timecache_oracle::Channel::ALL`] the sweep runs
//! the oracle's fixed-vs-random style assessment
//! ([`timecache_oracle::assess`]): the attacker's per-round measurements
//! are collected in two arms — victim active vs victim idle — under both
//! the undefended baseline and the channel's own defense configuration,
//! and Welch's t-statistic is computed per arm pair. The expected
//! asymmetry *is* the experiment's result:
//!
//! * **baseline**: |t| > 4.5 for every channel — the primitive works, so
//!   the two arms are distinguishable;
//! * **defended**: |t| < 4.5 for every channel — the defense collapses
//!   the arms into the same distribution.
//!
//! One job per channel, each running both arms. The sweep runs through
//! [`sweep::run`], and the CSV is byte-identical for any `--jobs` value
//! because every cell is a pure function of its index.
//! Artifacts: `leakage_matrix.csv` and `leakage_matrix.json`.

use crate::output::{print_table, results_dir, write_artifact, write_csv};
use crate::runner::RunParams;
use crate::sweep;
use std::io;
use timecache_oracle::{assess, Assessment, Channel, LEAKAGE_THRESHOLD};
use timecache_telemetry::encode;

/// Jobs in the matrix: one per attack primitive.
pub const JOBS: usize = Channel::ALL.len();

/// One completed matrix row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Channel name, e.g. "flush+reload".
    pub channel: String,
    /// The defense configuration the defended arm ran under.
    pub defense: String,
    /// Measurement rounds per arm.
    pub rounds: usize,
    /// Welch's t between the active/idle arms at baseline.
    pub t_baseline: f64,
    /// Welch's t between the active/idle arms under the defense.
    pub t_defended: f64,
}

impl Row {
    fn from_assessment(a: &Assessment) -> Row {
        Row {
            channel: a.channel.name().to_owned(),
            defense: a.channel.defense().to_owned(),
            rounds: a.rounds,
            t_baseline: a.t_baseline,
            t_defended: a.t_defended,
        }
    }

    /// The row's verdict against the TVLA threshold: the baseline arm must
    /// leak and the defended arm must not.
    fn verdict(&self) -> &'static str {
        match (
            self.t_baseline.abs() > LEAKAGE_THRESHOLD,
            self.t_defended.abs() < LEAKAGE_THRESHOLD,
        ) {
            (true, true) => "eliminated",
            (true, false) => "STILL LEAKS",
            (false, true) => "NO BASELINE LEAK",
            (false, false) => "BROKEN",
        }
    }
}

/// What the matrix established, for the driver's exit policy.
#[derive(Debug)]
pub struct LeakageSweepSummary {
    /// Rows where the baseline arm failed to leak (|t| <= 4.5): the
    /// primitive didn't demonstrate itself, so its defended silence proves
    /// nothing.
    pub baseline_silent: usize,
    /// Rows where the defended arm still leaks (|t| >= 4.5).
    pub defended_leaks: usize,
}

/// Measurement rounds per arm for one cell. Quick runs use the floor —
/// the arms are deterministic, so the t-statistic saturates quickly and
/// extra rounds only sharpen it.
fn cell_rounds(params: &RunParams) -> usize {
    (params.measure_instructions / 200_000).clamp(24, 96) as usize
}

/// Runs one row of the matrix and records its t-statistics as telemetry
/// gauges when a registry is attached.
fn run_cell(index: usize, params: &RunParams) -> Row {
    let channel = Channel::ALL[index];
    let a = assess(channel, cell_rounds(params));
    if let Some(reg) = crate::telemetry::current().registry() {
        for (config, t) in [("baseline", a.t_baseline), ("defended", a.t_defended)] {
            reg.gauge(
                "leakage_welch_t",
                "Welch's t-statistic between the victim-active and victim-idle arms.",
                &[("channel", channel.name()), ("config", config)],
            )
            .set(t);
        }
    }
    Row::from_assessment(&a)
}

/// Runs the matrix on `jobs` workers, prints it, writes
/// `leakage_matrix.csv` / `leakage_matrix.json`, and returns the summary
/// for the exit policy.
pub fn run(params: &RunParams, jobs: usize) -> io::Result<LeakageSweepSummary> {
    eprintln!(
        "running leakage-assessment matrix ({} channels x 2 configs, {} jobs)...",
        Channel::ALL.len(),
        jobs
    );
    let rows = sweep::run(jobs, JOBS, |i| {
        sweep::progress(&format!("  assessing {} ...", Channel::ALL[i].name()));
        run_cell(i, params)
    });

    let header = [
        "channel",
        "defense",
        "rounds",
        "t_baseline",
        "t_defended",
        "verdict",
    ];
    let summary = LeakageSweepSummary {
        baseline_silent: rows
            .iter()
            .filter(|row| row.t_baseline.abs() <= LEAKAGE_THRESHOLD)
            .count(),
        defended_leaks: rows
            .iter()
            .filter(|row| row.t_defended.abs() >= LEAKAGE_THRESHOLD)
            .count(),
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                row.channel.clone(),
                row.defense.clone(),
                row.rounds.to_string(),
                format!("{:.2}", row.t_baseline),
                format!("{:.2}", row.t_defended),
                row.verdict().to_owned(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Leakage assessment (Welch's t, threshold {LEAKAGE_THRESHOLD}: baseline must \
             exceed it, defended must stay below)"
        ),
        &header,
        &table,
    );
    write_csv("leakage_matrix.csv", &header, &table)?;

    let mut json = format!("{{\"jobs\":{JOBS},\"threshold\":{LEAKAGE_THRESHOLD},\"rows\":[");
    for (k, row) in rows.iter().enumerate() {
        if k > 0 {
            json.push(',');
        }
        json.push_str("{\"channel\":");
        encode::json_string(&mut json, &row.channel);
        json.push_str(",\"defense\":");
        encode::json_string(&mut json, &row.defense);
        let _ = std::fmt::Write::write_fmt(
            &mut json,
            format_args!(
                ",\"rounds\":{},\"t_baseline\":{},\"t_defended\":{},\"verdict\":",
                row.rounds, row.t_baseline, row.t_defended
            ),
        );
        encode::json_string(&mut json, row.verdict());
        json.push('}');
    }
    let _ = std::fmt::Write::write_fmt(
        &mut json,
        format_args!(
            "],\"baseline_silent\":{},\"defended_leaks\":{}}}",
            summary.baseline_silent, summary.defended_leaks
        ),
    );
    write_artifact(&results_dir()?.join("leakage_matrix.json"), &json)?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_cover_both_failure_directions() {
        let mut row = Row {
            channel: "covert".into(),
            defense: "timecache".into(),
            rounds: 24,
            t_baseline: 80.0,
            t_defended: 9.0,
        };
        assert_eq!(row.verdict(), "STILL LEAKS");
        row.t_defended = 0.3;
        assert_eq!(row.verdict(), "eliminated");
        // A defense that collapses the arms exactly gives t = 0.
        row.t_defended = 0.0;
        assert_eq!(row.verdict(), "eliminated");
        row.t_baseline = 1.0;
        assert_eq!(row.verdict(), "NO BASELINE LEAK");
        row.t_defended = 9.0;
        assert_eq!(row.verdict(), "BROKEN");
    }

    #[test]
    fn one_cell_passes_end_to_end() {
        let params = RunParams::quick();
        let row = run_cell(0, &params);
        assert_eq!(row.channel, Channel::ALL[0].name());
        assert_eq!(row.rounds, cell_rounds(&params));
        assert!(row.t_baseline.abs() > LEAKAGE_THRESHOLD);
        assert!(row.t_defended.abs() < LEAKAGE_THRESHOLD);
        assert_eq!(row.verdict(), "eliminated");
    }
}
