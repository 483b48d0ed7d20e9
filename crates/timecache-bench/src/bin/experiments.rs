//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! experiments [--quick] [--jobs N]
//!             <all|table1|table2|fig7|fig8|fig9|fig10|security|rollover|
//!              switchcost|other-attacks|ftm|area|ablation|fault-sweep|
//!              leakage-sweep>
//! ```
//!
//! Each simulating experiment declares the runs it reads
//! ([`exp::EXPERIMENTS`]). `all` takes the union of every experiment's
//! runs, simulates each distinct run once, then renders the experiments in
//! order from that one table; a single id simulates only its own runs.
//! Either way `<id>_runs.jsonl` under `results/` records every simulated
//! run, one JSON object per line: its workload, mode, parameters, cycles,
//! instructions, switch counts and per-cache statistics. Each run also
//! records its rare events (context switches, rollover resets, faults,
//! invariant violations) into a log of its own; `<id>_events.jsonl` lists
//! them in run order, each line tagged with its run's line in
//! `<id>_runs.jsonl`, and `<id>_manifest.json` sums their counts.
//!
//! `--quick` shrinks the instruction budgets (useful for smoke-testing the
//! harness; reported numbers will be noisier). `--jobs N` sets the sweep
//! engine's worker count, passed to every sweep (default: all cores; every
//! artifact, the event log included, is byte-identical for every `N`).
//! `fault-sweep` runs the
//! fault-injection matrix, writing each cell's events the same way
//! (`fault_sweep_events.jsonl`), and exits nonzero if any TimeCache cell
//! violates the security invariant or if the baseline rows fail to exhibit
//! the expected leak. `leakage-sweep` runs the TVLA-style statistical leakage
//! assessment over every attack primitive and exits nonzero unless every
//! channel's baseline arm leaks (|t| > 4.5) and its defended arm stays
//! silent (|t| < 4.5). A panicking cell aborts either sweep with a nonzero
//! exit.

use std::io;
use timecache_bench::exp;
use timecache_bench::runner::RunParams;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--jobs N] \
         <all|table1|table2|fig7|fig8|fig9|fig10|security|rollover|switchcost|\
         other-attacks|ftm|area|ablation|fault-sweep|leakage-sweep>"
    );
    std::process::exit(2);
}

/// Removes every `FLAG V` / `FLAG=V` from `args` and returns the values
/// in order. Exits with usage when `FLAG` is the last argument.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Vec<String> {
    let prefix = format!("{flag}=");
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if i + 1 == args.len() {
                eprintln!("{flag} requires a value");
                usage();
            }
            values.push(args.remove(i + 1));
            args.remove(i);
        } else if let Some(value) = args[i].strip_prefix(&prefix) {
            values.push(value.to_owned());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    values
}

/// Reports a malformed flag value and exits with usage.
fn bad_value(flag: &str, expects: &str, value: &str) -> ! {
    eprintln!("{flag} expects {expects}, got {value:?}");
    usage();
}

/// Exit-code policy for `fault-sweep`: the run "passes" only if the matrix
/// demonstrated what it claims — TimeCache invariant-clean and baseline
/// demonstrably leaky.
fn fault_sweep_exit_code(summary: &exp::fault_sweep::FaultSweepSummary) -> i32 {
    let mut code = 0;
    if summary.timecache_violations > 0 {
        eprintln!(
            "FAIL: {} invariant violations under TimeCache",
            summary.timecache_violations
        );
        code = 1;
    }
    if summary.baseline_violations == 0 {
        eprintln!("FAIL: baseline rows completed without the expected leak");
        code = 1;
    }
    code
}

/// Exit-code policy for `leakage-sweep`: every row must show the expected
/// asymmetry (baseline leaks, defense silences).
fn leakage_sweep_exit_code(summary: &exp::leakage_sweep::LeakageSweepSummary) -> i32 {
    let mut code = 0;
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let mut jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for value in take_flag(&mut args, "--jobs") {
        jobs = value
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| bad_value("--jobs", "a positive integer", &value));
    }
    let which = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let params = if quick {
        RunParams::quick()
    } else {
        RunParams::default()
    };

    match run(which, &params, jobs) {
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
fn run(which: &str, params: &RunParams, jobs: usize) -> io::Result<i32> {
    let id = which.replace('-', "_");
    let mut exit_code = 0;
    match which {
        "all" => exp::run(&id, &exp::EXPERIMENTS, params, jobs)?,
        "fault-sweep" => {
            let summary = exp::fault_sweep::run(params, jobs)?;
            exit_code = fault_sweep_exit_code(&summary);
        }
        "leakage-sweep" => {
            let summary = exp::leakage_sweep::run(params, jobs)?;
            exit_code = leakage_sweep_exit_code(&summary);
        }
        _ => match exp::EXPERIMENTS.iter().position(|e| e.id == which) {
            Some(i) => exp::run(&id, &exp::EXPERIMENTS[i..=i], params, jobs)?,
            None => usage(),
        },
    }
    Ok(exit_code)
}
