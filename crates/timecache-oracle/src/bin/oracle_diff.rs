//! Differential-oracle campaign runner (the `oracle-differential` CI job).
//!
//! Replays a fixed-seed batch of random traces through the reference model
//! and the real simulator. On a divergence, prints the minimized trace in
//! corpus format (ready to check into `tests/corpus/`) and exits nonzero.
//!
//! ```text
//! oracle_diff [--traces N] [--seed S] [--bug NAME] [--telemetry]
//! ```
//!
//! `--bug` injects a deliberate defect into the reference model
//! (`skip-grant-on-fill`, `skip-sbit-clear-on-evict`,
//! `first-access-treated-as-hit`, `ignore-rollover`) to demonstrate the
//! harness catching it; such runs exit nonzero *by design*.
//!
//! A clean run's summary line also reports the campaign's host cost:
//! elapsed wall-clock seconds and traces replayed per second.

use std::process::ExitCode;
use std::time::Instant;
use timecache_oracle::{run_random, BugKind};
use timecache_telemetry::Telemetry;

fn parse_bug(name: &str) -> BugKind {
    match name {
        "skip-grant-on-fill" => BugKind::SkipGrantOnFill,
        "skip-sbit-clear-on-evict" => BugKind::SkipSbitClearOnEvict,
        "first-access-treated-as-hit" => BugKind::FirstAccessTreatedAsHit,
        "ignore-rollover" => BugKind::IgnoreRollover,
        other => {
            eprintln!("unknown --bug {other:?}");
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    let mut traces: u64 = 10_000;
    let mut seed: u64 = 0xD1FF;
    let mut bug: Option<BugKind> = None;
    let mut telemetry = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--traces" => {
                traces = value("--traces").parse().unwrap_or_else(|e| {
                    eprintln!("bad --traces: {e}");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("bad --seed: {e}");
                    std::process::exit(2);
                })
            }
            "--bug" => bug = Some(parse_bug(&value("--bug"))),
            "--telemetry" => telemetry = true,
            "--help" | "-h" => {
                println!("usage: oracle_diff [--traces N] [--seed S] [--bug NAME] [--telemetry]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let tel = if telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let start = Instant::now();
    let report = run_random(traces, seed, bug, &tel);
    let elapsed = start.elapsed().as_secs_f64();
    match report.divergence {
        None => {
            println!(
                "oracle-differential: {} traces from seed {:#x}, zero divergences \
                 in {elapsed:.2} s ({:.0} traces/s)",
                report.traces,
                seed,
                report.traces as f64 / elapsed.max(f64::MIN_POSITIVE)
            );
            ExitCode::SUCCESS
        }
        Some(found) => {
            eprintln!(
                "oracle-differential: divergence at generator seed {} (trace {}/{})",
                found.seed, report.traces, traces
            );
            eprintln!("{}", found.divergence);
            eprintln!(
                "minimized to {} events; corpus format:\n{}",
                found.shrunk.events.len(),
                found.shrunk.to_text()
            );
            ExitCode::FAILURE
        }
    }
}
