//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! experiments [--quick] [--telemetry] [--jobs N] [--max-failures N]
//!             <all|table1|table2|fig7|fig8|fig9|fig10|security|rollover|
//!              switchcost|other-attacks|ftm|area|ablation|telemetry-demo|
//!              bench-sweep|fault-sweep|leakage-sweep>
//! ```
//!
//! `--quick` shrinks the instruction budgets (useful for smoke-testing the
//! harness; reported numbers will be noisier). `--jobs N` sets the sweep
//! engine's worker count (default: all cores; `--jobs 1` reproduces serial
//! execution bit-for-bit). `--telemetry` records metrics, events, and
//! phase profiles for every system the experiment builds, and writes
//! `<id>_metrics.prom` / `<id>_metrics.json` / `<id>_events.jsonl` /
//! `<id>_profile.json` / `<id>_manifest.json` under `results/` next to the
//! experiment's CSV. `bench-sweep` times the SPEC sweep serially vs in
//! parallel plus per-access simulator cost and writes `BENCH_sweep.json`.
//! `fault-sweep` runs the fault-injection matrix (checkpointed to
//! `fault_matrix.partial.jsonl`, so interrupted runs resume); it exits
//! nonzero if any TimeCache cell violates the security invariant, if the
//! baseline rows fail to exhibit the expected leak, or if more than
//! `--max-failures` cells (default 0) keep panicking past the retry budget.
//! `leakage-sweep` runs the TVLA-style statistical leakage assessment over
//! every attack primitive (checkpointed to `leakage_matrix.partial.jsonl`)
//! and exits nonzero unless every channel's baseline arm leaks
//! (|t| > 4.5) and its defended arm stays silent (|t| < 4.5).

use std::io;
use timecache_bench::runner::RunParams;
use timecache_bench::{exp, sweep, telemetry};
use timecache_workloads::mixes;
use timecache_workloads::parsec::ParsecBenchmark;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--telemetry] [--jobs N] [--max-failures N] \
         <all|table1|table2|fig7|fig8|fig9|fig10|security|rollover|switchcost|\
         other-attacks|ftm|area|ablation|telemetry-demo|bench-sweep|fault-sweep|\
         leakage-sweep>"
    );
    std::process::exit(2);
}

/// Extracts `--jobs N` / `--jobs=N` from `args`, removing the consumed
/// elements. Exits with usage on a malformed value.
fn parse_jobs(args: &mut Vec<String>) -> Option<usize> {
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        let consumed = if args[i] == "--jobs" {
            let Some(value) = args.get(i + 1) else {
                eprintln!("--jobs requires a value");
                usage();
            };
            jobs = value.parse().ok().filter(|&n| n >= 1);
            if jobs.is_none() {
                eprintln!("--jobs expects a positive integer, got {value:?}");
                usage();
            }
            2
        } else if let Some(value) = args[i].strip_prefix("--jobs=") {
            jobs = value.parse().ok().filter(|&n| n >= 1);
            if jobs.is_none() {
                eprintln!("--jobs expects a positive integer, got {value:?}");
                usage();
            }
            1
        } else {
            i += 1;
            continue;
        };
        args.drain(i..i + consumed);
    }
    jobs
}

/// Extracts `--max-failures N` / `--max-failures=N` from `args` (the
/// `fault-sweep` failure tolerance; zero when absent).
fn parse_max_failures(args: &mut Vec<String>) -> usize {
    let mut max = 0;
    let mut i = 0;
    while i < args.len() {
        let consumed = if args[i] == "--max-failures" {
            let Some(value) = args.get(i + 1) else {
                eprintln!("--max-failures requires a value");
                usage();
            };
            match value.parse() {
                Ok(n) => max = n,
                Err(_) => {
                    eprintln!("--max-failures expects a non-negative integer, got {value:?}");
                    usage();
                }
            }
            2
        } else if let Some(value) = args[i].strip_prefix("--max-failures=") {
            match value.parse() {
                Ok(n) => max = n,
                Err(_) => {
                    eprintln!("--max-failures expects a non-negative integer, got {value:?}");
                    usage();
                }
            }
            1
        } else {
            i += 1;
            continue;
        };
        args.drain(i..i + consumed);
    }
    max
}

/// Exit-code policy for `fault-sweep`: the run "passes" only if the matrix
/// demonstrated what it claims — TimeCache invariant-clean, baseline
/// demonstrably leaky, and no more worker failures than tolerated.
fn fault_sweep_exit_code(
    summary: &exp::fault_sweep::FaultSweepSummary,
    max_failures: usize,
) -> i32 {
    let mut code = 0;
    if summary.failures.len() > max_failures {
        eprintln!(
            "FAIL: {} worker failures exceed --max-failures {max_failures}",
            summary.failures.len()
        );
        code = 1;
    }
    if summary.timecache_violations > 0 {
        eprintln!(
            "FAIL: {} invariant violations under TimeCache",
            summary.timecache_violations
        );
        code = 1;
    }
    if summary.baseline_rows_completed > 0 && summary.baseline_violations == 0 {
        eprintln!("FAIL: baseline rows completed without the expected leak");
        code = 1;
    }
    code
}

/// Exit-code policy for `leakage-sweep`: every completed row must show the
/// expected asymmetry (baseline leaks, defense silences), and no more
/// cells than tolerated may fail outright.
fn leakage_sweep_exit_code(
    summary: &exp::leakage_sweep::LeakageSweepSummary,
    max_failures: usize,
) -> i32 {
    let mut code = 0;
    if summary.failures.len() > max_failures {
        eprintln!(
            "FAIL: {} worker failures exceed --max-failures {max_failures}",
            summary.failures.len()
        );
        code = 1;
    }
    if summary.defended_leaks > 0 {
        eprintln!(
            "FAIL: {} channels still leak under their defense (|t| >= 4.5)",
            summary.defended_leaks
        );
        code = 1;
    }
    if summary.baseline_silent > 0 {
        eprintln!(
            "FAIL: {} channels failed to leak at baseline (|t| <= 4.5), so the \
             defended silence proves nothing",
            summary.baseline_silent
        );
        code = 1;
    }
    code
}

fn announce_spec_sweep() {
    eprintln!(
        "running SPEC sweep ({} pairs, 2 modes, {} jobs)...",
        mixes::all_pairs().len(),
        sweep::jobs()
    );
}

fn announce_parsec_sweep() {
    eprintln!(
        "running PARSEC sweep ({} benchmarks, 2 modes, {} jobs)...",
        ParsecBenchmark::ALL.len(),
        sweep::jobs()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let with_telemetry = args.iter().any(|a| a == "--telemetry");
    args.retain(|a| a != "--quick" && a != "--telemetry");
    if let Some(jobs) = parse_jobs(&mut args) {
        sweep::set_jobs(jobs);
    }
    let max_failures = parse_max_failures(&mut args);
    let which = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let params = if quick {
        RunParams::quick()
    } else {
        RunParams::default()
    };
    if with_telemetry {
        telemetry::enable();
    }

    match run(which, &params, max_failures, with_telemetry) {
        Ok(0) => {}
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("experiments: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs experiment `which` and returns its exit code; an I/O failure
/// writing an artifact is returned as the error.
fn run(
    which: &str,
    params: &RunParams,
    max_failures: usize,
    with_telemetry: bool,
) -> io::Result<i32> {
    let mut exit_code = 0;
    match which {
        "table1" => exp::table1::run()?,
        "table2" | "fig7" | "fig8" => {
            announce_spec_sweep();
            let sweep = exp::spec_sweep(params);
            match which {
                "fig7" => exp::fig7::run(&sweep)?,
                "fig8" => exp::fig8::run(&sweep)?,
                _ => {
                    announce_parsec_sweep();
                    let parsec = exp::fig9::sweep(params);
                    exp::table2::run(&sweep, &parsec)?;
                }
            }
        }
        "fig9" => {
            announce_parsec_sweep();
            let parsec = exp::fig9::sweep(params);
            exp::fig9::run(&parsec)?;
        }
        "fig10" => exp::fig10::run(params)?,
        "security" => exp::security::run()?,
        "rollover" => exp::rollover::run(params)?,
        "switchcost" => exp::switchcost::run(params)?,
        "other-attacks" => exp::other_attacks::run()?,
        "ftm" => exp::ftm::run(params)?,
        "area" => exp::area::run()?,
        "ablation" => exp::ablation::run(params)?,
        "telemetry-demo" => exp::telemetry_demo::run(params)?,
        "bench-sweep" => exp::bench_sweep::run(params)?,
        "fault-sweep" => {
            let summary = exp::fault_sweep::run(params)?;
            exit_code = fault_sweep_exit_code(&summary, max_failures);
        }
        "leakage-sweep" => {
            let summary = exp::leakage_sweep::run(params)?;
            exit_code = leakage_sweep_exit_code(&summary, max_failures);
        }
        "all" => {
            exp::table1::run()?;
            announce_spec_sweep();
            let sweep = exp::spec_sweep(params);
            exp::fig7::run(&sweep)?;
            exp::fig8::run(&sweep)?;
            announce_parsec_sweep();
            let parsec = exp::fig9::sweep(params);
            exp::fig9::run(&parsec)?;
            exp::table2::run(&sweep, &parsec)?;
            exp::fig10::run(params)?;
            exp::security::run()?;
            exp::rollover::run(params)?;
            exp::switchcost::run(params)?;
            exp::other_attacks::run()?;
            exp::ftm::run(params)?;
            exp::area::run()?;
            exp::ablation::run(params)?;
        }
        _ => usage(),
    }

    if with_telemetry {
        telemetry::write_artifacts(&which.replace('-', "_"))?;
    }
    Ok(exit_code)
}
