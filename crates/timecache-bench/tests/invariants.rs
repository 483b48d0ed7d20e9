//! The first-access invariant ("no process observes a hit on a line it has
//! not itself paid a miss for") checked on the experiments' own workload
//! streams, not only on the hand-built strided loops of the unit tests:
//! `2Xwrf` (two processes time-sliced on one core over shared code text)
//! and `x264` (two threads on two cores sharing data through the LLC).
//! Each run is built as `runner` builds it, with
//! `SystemConfig::check_invariants` on, and kept short. The checker is off
//! the timing path, so each run's measured results equal an unchecked
//! run's, and the tests pin them too.

use timecache_bench::runner::{timecache_mode, RunParams};
use timecache_os::{RunReport, System, SystemConfig};
use timecache_sim::{HierarchyConfig, SecurityMode};
use timecache_workloads::parsec::ParsecBenchmark;
use timecache_workloads::{SpecBenchmark, SyntheticWorkload};

const WARMUP: u64 = 100_000;
const MEASURE: u64 = 200_000;

/// What a measured phase produced: the simulated results pinned below.
#[derive(Debug, PartialEq, Eq)]
struct Measured {
    total_cycles: u64,
    timecache_switch_cycles: u64,
    context_switches: u64,
    /// First accesses at L1I, L1D (each summed over cores) and the LLC.
    first_access: [u64; 3],
    /// Misses at L1I, L1D (each summed over cores) and the LLC.
    misses: [u64; 3],
    /// Coherence, back-invalidation and `clflush` invalidations, per level.
    invalidations: [u64; 3],
    /// Dirty lines written back, per level.
    writebacks: [u64; 3],
}

impl Measured {
    fn of(report: &RunReport) -> Self {
        let levels = [
            report.stats.l1i_total(),
            report.stats.l1d_total(),
            report.stats.llc,
        ];
        Measured {
            total_cycles: report.total_cycles,
            timecache_switch_cycles: report.timecache_switch_cycles,
            context_switches: report.context_switches,
            first_access: levels.map(|s| s.first_access),
            misses: levels.map(|s| s.misses),
            invalidations: levels.map(|s| s.invalidations),
            writebacks: levels.map(|s| s.writebacks),
        }
    }
}

// Recorded from these runs before the limited-pointer sharer tracking was
// deleted; `invalidations` and `writebacks` were recorded later, while the
// directory still stored a dirty owner next to one mask per core. They pin
// the simulator's results exactly, with no tolerance: only a reviewed
// change to the simulated semantics may update them, and that change must
// say so.

const WRF_TIMECACHE: Measured = Measured {
    total_cycles: 25_090_586,
    timecache_switch_cycles: 109_650,
    context_switches: 51,
    first_access: [509, 0, 38],
    misses: [376_642, 110_294, 1_850],
    invalidations: [0, 0, 0],
    writebacks: [0, 34_650, 0],
};

const WRF_BASELINE: Measured = Measured {
    total_cycles: 24_504_140,
    timecache_switch_cycles: 0,
    context_switches: 49,
    first_access: [0, 0, 0],
    misses: [376_454, 110_262, 1_850],
    invalidations: [0, 0, 0],
    writebacks: [0, 34_637, 0],
};

const X264_TIMECACHE: Measured = Measured {
    total_cycles: 6_476_002,
    timecache_switch_cycles: 0,
    context_switches: 0,
    first_access: [0, 0, 4_299],
    misses: [76_845, 111_950, 1_640],
    invalidations: [0, 214, 0],
    writebacks: [0, 46_769, 0],
};

const X264_BASELINE: Measured = Measured {
    total_cycles: 5_797_768,
    timecache_switch_cycles: 0,
    context_switches: 0,
    first_access: [0, 0, 0],
    misses: [76_845, 111_953, 1_640],
    invalidations: [0, 205, 0],
    writebacks: [0, 46_768, 0],
};

/// Runs `programs` (the second on core `cores - 1`) for a warm-up and a
/// measured phase, as `runner` does, and returns the invariant violations
/// and the measured phase's report.
fn count_violations(
    programs: [SyntheticWorkload; 2],
    cores: usize,
    security: SecurityMode,
) -> (u64, RunReport) {
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
    let report = sys.run(u64::MAX);
    assert!(report.all_completed(), "measurement did not complete");
    (sys.invariant_violations(), report)
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
    let (tc_violations, tc_report) = count_violations(wrf_pair(), 1, tc);
    assert_eq!(tc_violations, 0);
    assert_eq!(Measured::of(&tc_report), WRF_TIMECACHE);
    let (base_violations, base_report) = count_violations(wrf_pair(), 1, SecurityMode::Baseline);
    assert!(base_violations > 0);
    assert_eq!(Measured::of(&base_report), WRF_BASELINE);
}

#[test]
fn two_core_x264_is_invariant_clean_under_timecache_only() {
    let tc = timecache_mode(&RunParams::quick());
    let (tc_violations, tc_report) = count_violations(x264_threads(), 2, tc);
    assert_eq!(tc_violations, 0);
    assert_eq!(Measured::of(&tc_report), X264_TIMECACHE);
    let (base_violations, base_report) =
        count_violations(x264_threads(), 2, SecurityMode::Baseline);
    assert!(base_violations > 0);
    assert_eq!(Measured::of(&base_report), X264_BASELINE);
}
