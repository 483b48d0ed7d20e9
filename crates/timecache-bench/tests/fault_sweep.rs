//! End-to-end contract of the fault-injection and leakage matrices: the
//! security verdicts come out with the expected asymmetry (TimeCache
//! secure under every injected fault, baseline leaky; every channel leaks
//! at baseline and is silenced by its defense), and the quick-profile
//! artifacts are pinned by FNV-1a digests, so a change to any cell shows
//! up here before it reaches EXPERIMENTS.md.

use std::fs;
use std::path::PathBuf;
use timecache_bench::exp::{fault_sweep, leakage_sweep};
use timecache_bench::runner::RunParams;
use timecache_core::Fnv1a;

/// Points `TIMECACHE_RESULTS` at a per-process temp directory, once: the
/// tests run on parallel threads and share the variable.
fn results_dir() -> PathBuf {
    static SET: std::sync::Once = std::sync::Once::new();
    let dir = std::env::temp_dir().join(format!("tc-matrix-test-{}", std::process::id()));
    SET.call_once(|| std::env::set_var("TIMECACHE_RESULTS", &dir));
    dir
}

/// FNV-1a (64-bit) over a file's bytes.
fn digest(path: PathBuf) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&fs::read(&path).unwrap_or_else(|e| panic!("{path:?}: {e}")));
    h.finish()
}

#[test]
fn fault_matrix_is_secure_and_pinned() {
    let dir = results_dir();
    let summary = fault_sweep::run(&RunParams::quick(), 2).expect("write fault matrix");
    assert_eq!(
        summary.timecache_violations, 0,
        "TimeCache must stay invariant-clean under every fault scenario"
    );
    assert!(
        summary.baseline_violations > 0,
        "the checker must catch the undefended baseline leak"
    );
    assert!(
        summary.total_injected > 0,
        "fault scenarios must actually inject faults"
    );
    let csv = fs::read_to_string(dir.join("fault_matrix.csv")).unwrap();
    assert_eq!(
        csv.lines().count(),
        fault_sweep::JOBS + 1,
        "header + one row per cell"
    );
    assert!(!csv.contains("VIOLATED"));
    assert!(csv.contains("leaks"));
    assert_eq!(digest(dir.join("fault_matrix.csv")), 0xc573_4810_1858_d03f);
    assert_eq!(digest(dir.join("fault_matrix.json")), 0xe485_693f_3846_f8b4);
    // Each event names its cell's row, and no cell's log dropped any.
    // Per cell, the log holds one line per injection and per detection
    // and a single invariant-violation witness when the cell has any.
    let events = fs::read_to_string(dir.join("fault_sweep_events.jsonl")).unwrap();
    let mut tally = vec![[0u64; 3]; fault_sweep::JOBS];
    for line in events.lines() {
        let run: usize = line["{\"run\":".len()..line.find(",\"seq\"").unwrap()]
            .parse()
            .unwrap();
        assert!(run < fault_sweep::JOBS, "{line}");
        for (i, kind) in ["fault_injected", "fault_detected", "invariant_violation"]
            .iter()
            .enumerate()
        {
            if line.contains(&format!("\"type\":\"{kind}\"")) {
                tally[run][i] += 1;
            }
        }
    }
    for (row, counts) in csv.lines().skip(1).zip(&tally) {
        let cols: Vec<u64> = row.split(',').map(|c| c.parse().unwrap_or(0)).collect();
        let (injected, detected, violations) = (cols[2], cols[3], cols[4]);
        let witnesses = u64::from(violations > 0);
        assert_eq!(*counts, [injected, detected, witnesses], "{row}");
    }
    let manifest = fs::read_to_string(dir.join("fault_sweep_manifest.json")).unwrap();
    assert!(manifest.contains("\"events_dropped\":0,"), "{manifest}");
}

#[test]
fn leakage_matrix_is_eliminated_and_pinned() {
    let dir = results_dir();
    let summary = leakage_sweep::run(&RunParams::quick(), 2).expect("write leakage matrix");
    assert_eq!(
        summary.baseline_silent, 0,
        "every channel must leak at baseline"
    );
    assert_eq!(
        summary.defended_leaks, 0,
        "every defense must silence its channel"
    );
    assert_eq!(
        digest(dir.join("leakage_matrix.csv")),
        0x54da_aea7_81f3_8aaa
    );
    assert_eq!(
        digest(dir.join("leakage_matrix.json")),
        0xe5d7_e97a_0390_cfd9
    );
}
