//! The parallel sweep engine's contract: worker count changes wall-clock
//! only, never results — and a run's events, like its metrics, are the
//! same in any table and at any worker count.

use timecache_bench::exp::spec_keys;
use timecache_bench::runner::{RunKey, RunParams, RunTable};
use timecache_bench::sweep;
use timecache_telemetry::trace;

/// A reduced profile so the sweep finishes in seconds.
fn tiny_params() -> RunParams {
    RunParams {
        warmup_instructions: 20_000,
        measure_instructions: 80_000,
        quantum_cycles: 50_000,
        ..RunParams::default()
    }
}

#[test]
fn jobs_1_and_jobs_4_produce_identical_comparisons() {
    // Both modes of the first four Table II pairs.
    let keys = &spec_keys(&tiny_params())[..8];

    let serial = RunTable::build(keys, 1);
    let parallel = RunTable::build(keys, 4);

    assert!(keys.iter().all(|key| serial.get(key).cycles > 0));
    // RunTable derives PartialEq: every metric of every run must match
    // bit-for-bit, in key order.
    assert_eq!(serial, parallel);
}

#[test]
fn wait_bound_jobs_overlap_regardless_of_host_cpus() {
    // The engine's scalability contract, separated from the host's core
    // count: jobs that *wait* (sleep) instead of compute overlap under the
    // worker pool even on a single-CPU machine. Eight 20 ms jobs take
    // ~160 ms serially; four workers should finish two rounds in ~40 ms.
    // The 2.5x floor leaves headroom for scheduler jitter (the ideal is
    // 4x) while still failing if workers ever serialize.
    let job = |i: usize| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        i
    };

    let t0 = std::time::Instant::now();
    let serial = sweep::run(1, 8, job);
    let serial_s = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let parallel = sweep::run(4, 8, job);
    let parallel_s = t0.elapsed().as_secs_f64();

    assert_eq!(serial, (0..8).collect::<Vec<_>>());
    assert_eq!(serial, parallel);
    let speedup = serial_s / parallel_s;
    assert!(
        speedup >= 2.5,
        "4-worker pool overlapped wait-bound jobs only {speedup:.2}x \
         (serial {serial_s:.3}s, parallel {parallel_s:.3}s)"
    );
}

/// The lines of `run` in `events` (an `<id>_events.jsonl` text), with
/// their `"run":i,` prefix stripped.
fn run_lines(events: &str, run: usize) -> Vec<String> {
    let prefix = format!("{{\"run\":{run},");
    events
        .lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .map(|rest| format!("{{{rest}"))
        .collect()
}

#[test]
fn a_runs_events_match_in_any_table_and_at_any_worker_count() {
    let keys = &spec_keys(&tiny_params())[..4];
    // The run records and the event log of one table.
    let records = |keys: &[RunKey], jobs: usize| {
        let table = RunTable::build(keys, jobs);
        (table.to_jsonl(), trace::to_jsonl(table.events()))
    };

    let (serial_runs, serial_events) = records(keys, 1);
    let (parallel_runs, parallel_events) = records(keys, 4);
    assert_eq!(serial_runs.lines().count(), keys.len());
    assert_eq!(serial_runs, parallel_runs);
    assert_eq!(serial_events, parallel_events);
    // Every line names a run of the table.
    for line in serial_events.lines() {
        let run: usize = line
            .strip_prefix("{\"run\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|run| run.parse().ok())
            .unwrap_or_else(|| panic!("no run index: {line}"));
        assert!(run < keys.len(), "{line}");
    }

    // The third run's events, alone in a table of its own and third in the
    // larger one: the same lines, and a log that dropped nothing.
    let (_, alone) = records(&keys[2..3], 1);
    let lines = run_lines(&alone, 0);
    assert_eq!(lines.len(), alone.lines().count());
    assert!(lines[0].starts_with("{\"seq\":0,"), "{}", lines[0]);
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"switch_restore\"")),
        "the run logged no switches"
    );
    assert_eq!(lines, run_lines(&serial_events, 2));
    assert_eq!(lines, run_lines(&parallel_events, 2));
}
