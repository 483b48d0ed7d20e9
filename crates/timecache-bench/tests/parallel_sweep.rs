//! The parallel sweep engine's contract: worker count changes wall-clock
//! only, never results — and per-worker telemetry merges to the same
//! counters a serial run records.

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
fn parallel_sweep_telemetry_matches_serial_counters() {
    let keys = &spec_keys(&tiny_params())[..4];

    // Serial run with a fresh handle.
    let serial_tel = telemetry::enable();
    let serial = RunTable::build(keys, 1);
    telemetry::disable();

    // Parallel run with another fresh handle; workers record into their
    // own registries, merged back at join.
    let parallel_tel = telemetry::enable();
    let parallel = RunTable::build(keys, 4);
    telemetry::disable();

    assert_eq!(serial, parallel);
    let serial_reg = serial_tel.registry().unwrap();
    let parallel_reg = parallel_tel.registry().unwrap();
    for (cache, outcome) in [
        ("l1d", "hit"),
        ("l1d", "miss"),
        ("l1d", "first_access"),
        ("llc", "hit"),
        ("llc", "miss"),
        ("llc", "first_access"),
    ] {
        let labels = [("cache", cache), ("outcome", outcome)];
        let s = serial_reg.counter_value("sim_cache_accesses_total", &labels);
        let p = parallel_reg.counter_value("sim_cache_accesses_total", &labels);
        assert_eq!(s, p, "counter mismatch for {cache}/{outcome}");
        assert!(
            s.unwrap_or(0) > 0 || outcome == "first_access",
            "serial run recorded nothing for {cache}/{outcome}"
        );
    }
    assert_eq!(
        serial_reg.counter_value("sim_switch_restores_total", &[]),
        parallel_reg.counter_value("sim_switch_restores_total", &[]),
    );
}
