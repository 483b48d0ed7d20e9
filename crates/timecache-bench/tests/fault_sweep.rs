//! End-to-end contract of the fault-injection matrix: the artifact is
//! complete even when a worker panics, an interrupted run resumes from the
//! checkpoint journal to a byte-identical final CSV, and the security
//! verdicts come out with the expected asymmetry (TimeCache secure,
//! baseline leaky) under every injected fault.
//!
//! Everything lives in ONE `#[test]` because the scenario toggles
//! process-wide environment variables (`TIMECACHE_RESULTS`,
//! `TIMECACHE_FAULT_SWEEP_PANIC`); a single test body keeps them
//! race-free without cross-test locking.

use std::fs;
use timecache_bench::exp::fault_sweep::{self, JOBS};
use timecache_bench::runner::RunParams;

#[test]
fn fault_matrix_is_resilient_checkpointed_and_secure() {
    let dir = std::env::temp_dir().join(format!("tc-fault-sweep-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    std::env::set_var("TIMECACHE_RESULTS", &dir);
    let csv = dir.join("fault_matrix.csv");
    let json = dir.join("fault_matrix.json");
    let journal = dir.join("fault_matrix.partial.jsonl");
    let params = RunParams::quick();

    // --- Clean run: full matrix, expected verdicts, journal cleaned up.
    let summary = fault_sweep::run(&params, 2).expect("write fault matrix");
    assert!(summary.failures.is_empty(), "clean run must not fail cells");
    assert_eq!(
        summary.timecache_violations, 0,
        "TimeCache must stay invariant-clean under every fault scenario"
    );
    assert!(
        summary.baseline_violations > 0,
        "the checker must catch the undefended baseline leak"
    );
    assert_eq!(summary.baseline_rows_completed, JOBS / 2);
    assert!(
        summary.total_injected > 0,
        "fault scenarios must actually inject faults"
    );
    let clean_csv = fs::read(&csv).unwrap();
    let clean_text = String::from_utf8(clean_csv.clone()).unwrap();
    assert_eq!(
        clean_text.lines().count(),
        JOBS + 1,
        "header + one row per cell"
    );
    assert!(!clean_text.contains("VIOLATED"));
    assert!(clean_text.contains("leaks"));
    assert!(!journal.exists(), "clean finish must remove the journal");
    let json_text = fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"timecache_violations\":0"));
    assert!(json_text.contains("\"failed\":[]"));

    // --- Forced worker panic: the cell fails (it is not retried), but the
    // artifact is still complete (the failed row is listed) and the
    // journal survives for resumption.
    fs::remove_file(&csv).unwrap();
    std::env::set_var("TIMECACHE_FAULT_SWEEP_PANIC", "4");
    let broken = fault_sweep::run(&params, 2).expect("write fault matrix");
    std::env::remove_var("TIMECACHE_FAULT_SWEEP_PANIC");
    assert_eq!(broken.failures.len(), 1);
    assert_eq!(broken.failures[0].index, 4);
    assert!(broken.failures[0].message.contains("injected worker panic"));
    assert_eq!(
        broken.baseline_rows_completed,
        JOBS / 2 - 1,
        "job 4 is a baseline cell and did not complete"
    );
    let broken_text = fs::read_to_string(&csv).unwrap();
    assert_eq!(
        broken_text.lines().count(),
        JOBS + 1,
        "failed cell still gets a row"
    );
    assert!(broken_text.contains("failed: injected worker panic"));
    assert!(
        journal.exists(),
        "failures must keep the checkpoint journal"
    );
    assert!(fs::read_to_string(&json).unwrap().contains("\"job\":4"));

    // --- Resume: only the failed cell reruns (the journal already holds
    // the other 17 rows) and the final CSV is byte-identical to the
    // uninterrupted run's.
    let resumed = fault_sweep::run(&params, 2).expect("write fault matrix");
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.timecache_violations, 0);
    assert!(resumed.baseline_violations > 0);
    assert_eq!(
        fs::read(&csv).unwrap(),
        clean_csv,
        "resumed run must reproduce the clean CSV byte-for-byte"
    );
    assert!(!journal.exists());

    let _ = fs::remove_dir_all(&dir);
}
