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
//! One job per channel (each job runs both arms, so a row is internally
//! consistent even if another row fails). The sweep runs through
//! [`sweep::run_checkpointed`], so a killed run resumes from
//! `leakage_matrix.partial.jsonl`, and the CSV is byte-identical for any
//! `--jobs` value because every cell is a pure function of its index.
//! Artifacts: `leakage_matrix.csv` and `leakage_matrix.json`.

use crate::output::{print_table, results_dir, write_artifact, write_csv};
use crate::runner::RunParams;
use crate::sweep::{self, JobFailure, SweepPolicy};
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

    /// One-line journal encoding. The t-statistics use `f64`'s shortest
    /// round-trip `Display`, so decode(encode(row)) == row exactly and a
    /// resumed sweep reproduces the same CSV bytes as a fresh one.
    fn encode(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.channel, self.defense, self.rounds, self.t_baseline, self.t_defended
        )
    }

    fn decode(line: &str) -> Option<Row> {
        let mut parts = line.split('|');
        let channel = parts.next()?.to_owned();
        let defense = parts.next()?.to_owned();
        let rounds = parts.next()?.parse().ok()?;
        let t_baseline = parts.next()?.parse().ok()?;
        let t_defended = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Row {
            channel,
            defense,
            rounds,
            t_baseline,
            t_defended,
        })
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
    /// Completed rows where the baseline arm failed to leak (|t| <= 4.5):
    /// the primitive didn't demonstrate itself, so its defended silence
    /// proves nothing.
    pub baseline_silent: usize,
    /// Completed rows where the defended arm still leaks (|t| >= 4.5).
    pub defended_leaks: usize,
    /// Rows that completed.
    pub rows_completed: usize,
    /// Cells that kept panicking past the retry budget.
    pub failures: Vec<JobFailure>,
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

/// Runs the matrix, prints it, writes `leakage_matrix.csv` /
/// `leakage_matrix.json`, and returns the summary for the exit policy.
pub fn run(params: &RunParams) -> io::Result<LeakageSweepSummary> {
    eprintln!(
        "running leakage-assessment matrix ({} channels x 2 configs, {} jobs)...",
        Channel::ALL.len(),
        sweep::jobs()
    );
    let dir = results_dir()?;
    let tag = format!("r{}", cell_rounds(params));
    let outcome = sweep::run_checkpointed(
        &dir,
        "leakage_matrix",
        &tag,
        JOBS,
        SweepPolicy::default(),
        Row::encode,
        Row::decode,
        |i| {
            sweep::progress(&format!("  assessing {} ...", Channel::ALL[i].name()));
            run_cell(i, params)
        },
    )?;

    let failed: std::collections::HashMap<usize, &JobFailure> =
        outcome.failures.iter().map(|f| (f.index, f)).collect();
    let header = [
        "channel",
        "defense",
        "rounds",
        "t_baseline",
        "t_defended",
        "verdict",
    ];
    let mut table = Vec::with_capacity(JOBS);
    let mut summary = LeakageSweepSummary {
        baseline_silent: 0,
        defended_leaks: 0,
        rows_completed: 0,
        failures: outcome.failures.clone(),
    };
    for (i, slot) in outcome.results.iter().enumerate() {
        let channel = Channel::ALL[i];
        match slot {
            Some(row) => {
                summary.rows_completed += 1;
                if row.t_baseline.abs() <= LEAKAGE_THRESHOLD {
                    summary.baseline_silent += 1;
                }
                if row.t_defended.abs() >= LEAKAGE_THRESHOLD {
                    summary.defended_leaks += 1;
                }
                table.push(vec![
                    row.channel.clone(),
                    row.defense.clone(),
                    row.rounds.to_string(),
                    format!("{:.2}", row.t_baseline),
                    format!("{:.2}", row.t_defended),
                    row.verdict().to_owned(),
                ]);
            }
            None => {
                let message = failed
                    .get(&i)
                    .map(|f| f.message.as_str())
                    .unwrap_or("unknown failure");
                table.push(vec![
                    channel.name().to_owned(),
                    channel.defense().to_owned(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("failed: {message}"),
                ]);
            }
        }
    }
    print_table(
        &format!(
            "Leakage assessment (Welch's t, threshold {LEAKAGE_THRESHOLD}: baseline must \
             exceed it, defended must stay below)"
        ),
        &header,
        &table,
    );
    write_csv("leakage_matrix.csv", &header, &table)?;

    let mut json = String::from("{\"jobs\":");
    let _ = std::fmt::Write::write_fmt(&mut json, format_args!("{JOBS}"));
    let _ = std::fmt::Write::write_fmt(
        &mut json,
        format_args!(",\"threshold\":{LEAKAGE_THRESHOLD},\"rows\":["),
    );
    let mut first = true;
    for slot in outcome.results.iter() {
        let Some(row) = slot else { continue };
        if !first {
            json.push(',');
        }
        first = false;
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
    json.push_str("],\"failed\":[");
    for (k, f) in summary.failures.iter().enumerate() {
        if k > 0 {
            json.push(',');
        }
        let _ = std::fmt::Write::write_fmt(
            &mut json,
            format_args!(
                "{{\"job\":{},\"attempts\":{},\"message\":",
                f.index, f.attempts
            ),
        );
        encode::json_string(&mut json, &f.message);
        json.push('}');
    }
    let _ = std::fmt::Write::write_fmt(
        &mut json,
        format_args!(
            "],\"baseline_silent\":{},\"defended_leaks\":{}}}",
            summary.baseline_silent, summary.defended_leaks
        ),
    );
    let json_path = dir.join("leakage_matrix.json");
    write_artifact(&json_path, &json)?;

    if !summary.failures.is_empty() {
        eprintln!(
            "{} of {JOBS} cells failed after retries (see leakage_matrix.csv)",
            summary.failures.len()
        );
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_roundtrip_through_the_journal_encoding() {
        let row = Row {
            channel: "flush+reload".into(),
            defense: "timecache".into(),
            rounds: 40,
            t_baseline: 123.456789012345,
            t_defended: 0.0,
        };
        assert_eq!(Row::decode(&row.encode()), Some(row.clone()));
        assert_eq!(row.verdict(), "eliminated");
        assert_eq!(Row::decode("only|three|fields"), None);
        assert_eq!(Row::decode("a|b|1|2.0|3.0|extra"), None);
    }

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
        row.t_baseline = 1.0;
        assert_eq!(row.verdict(), "NO BASELINE LEAK");
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
