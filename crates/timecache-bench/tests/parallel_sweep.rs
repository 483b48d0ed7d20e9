//! The parallel sweep engine's contract: worker count changes wall-clock
//! only, never results — and per-worker event logs merge to the log a
//! serial run records.

use timecache_bench::exp::spec_keys;
use timecache_bench::runner::{RunParams, RunTable};
use timecache_bench::{sweep, telemetry};

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

#[test]
fn parallel_sweep_run_records_and_events_match_serial() {
    let keys = &spec_keys(&tiny_params())[..4];
    // The run records and the event log of one sweep on `jobs` workers,
    // under a fresh handle; workers record into their own handles, merged
    // back at join.
    let records = |jobs: usize| {
        let tel = telemetry::enable();
        let table = RunTable::build(keys, jobs);
        telemetry::disable();
        let tracer = tel.tracer().unwrap();
        assert_eq!(tracer.dropped(), 0);
        (table.to_jsonl(), tracer.to_jsonl())
    };

    let (serial_runs, serial_events) = records(1);
    let (parallel_runs, parallel_events) = records(4);
    assert_eq!(serial_runs.lines().count(), keys.len());
    assert!(
        serial_events.contains("\"type\":\"switch_restore\""),
        "the serial sweep logged no switches"
    );
    assert_eq!(serial_runs, parallel_runs);
    assert_eq!(serial_events, parallel_events);
}
