//! The first-access invariant ("no process observes a hit on a line it has
//! not itself paid a miss for") checked on the experiments' own workload
//! streams, not only on the hand-built strided loops of the unit tests:
//! `2Xwrf` (two processes time-sliced on one core over shared code text)
//! and `x264` (two threads on two cores sharing data through the LLC).
//! Each run is built as `runner` builds it, with
//! `SystemConfig::check_invariants` on, and kept short.

use timecache_bench::runner::{timecache_mode, RunParams};
use timecache_os::{System, SystemConfig};
use timecache_sim::{HierarchyConfig, SecurityMode};
use timecache_workloads::parsec::ParsecBenchmark;
use timecache_workloads::{SpecBenchmark, SyntheticWorkload};

const WARMUP: u64 = 100_000;
const MEASURE: u64 = 200_000;

/// Runs `programs` (the second on core `cores - 1`) for a warm-up and a
/// measured phase, as `runner` does, and returns the invariant violations.
fn violations(programs: [SyntheticWorkload; 2], cores: usize, security: SecurityMode) -> u64 {
    let params = RunParams::quick();
    let mut hier = HierarchyConfig::with_cores(cores).with_llc_bytes(params.llc_bytes);
    hier.security = security;
    let cfg = SystemConfig {
        hierarchy: hier,
        quantum_cycles: params.quantum_cycles,
        check_invariants: true,
        ..SystemConfig::default()
    };
    let mut sys = System::new(cfg).expect("valid config");
    let [first, second] = programs;
    let pids = [
        sys.try_spawn(Box::new(first), 0, 0, Some(WARMUP)),
        sys.try_spawn(Box::new(second), cores - 1, 0, Some(WARMUP)),
    ]
    .map(|pid| pid.expect("context exists"));
    assert!(
        sys.run(u64::MAX).all_completed(),
        "warm-up did not complete"
    );
    sys.reset_stats();
    for pid in pids {
        sys.try_extend_target(pid, MEASURE).expect("extend target");
    }
    assert!(
        sys.run(u64::MAX).all_completed(),
        "measurement did not complete"
    );
    sys.invariant_violations()
}

fn wrf_pair() -> [SyntheticWorkload; 2] {
    [
        SpecBenchmark::Wrf.workload(0),
        SpecBenchmark::Wrf.workload(1),
    ]
}

fn x264_threads() -> [SyntheticWorkload; 2] {
    [0, 1].map(|thread| ParsecBenchmark::X264.thread_workload(thread))
}

#[test]
fn shared_text_2xwrf_is_invariant_clean_under_timecache_only() {
    let tc = timecache_mode(&RunParams::quick());
    assert_eq!(violations(wrf_pair(), 1, tc), 0);
    assert!(violations(wrf_pair(), 1, SecurityMode::Baseline) > 0);
}

#[test]
fn two_core_x264_is_invariant_clean_under_timecache_only() {
    let tc = timecache_mode(&RunParams::quick());
    assert_eq!(violations(x264_threads(), 2, tc), 0);
    assert!(violations(x264_threads(), 2, SecurityMode::Baseline) > 0);
}
