//! The `experiments` binary's error exits: an unwritable results directory
//! is reported as an error and exits 1, instead of panicking (exit 101); a
//! malformed flag or an unknown experiment prints usage and exits 2.

use std::process::Command;

#[test]
fn unwritable_results_dir_exits_1_with_message() {
    // `/dev/null` is a file, so no directory can be created beneath it.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("table1")
        .env("TIMECACHE_RESULTS", "/dev/null/x")
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("experiments: creating /dev/null/x: "),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Runs `experiments` with `args` and asserts it exits 2 with the usage
/// message, preceded by `message` when one is given.
fn assert_usage_error(args: &[&str], message: Option<&str>) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    if let Some(message) = message {
        assert!(
            stderr.starts_with(&format!("{message}\n")),
            "{args:?}: stderr: {stderr}"
        );
    }
    assert!(
        stderr.contains("usage: experiments [--quick]"),
        "{args:?}: stderr: {stderr}"
    );
}

#[test]
fn malformed_flags_exit_2_with_usage() {
    assert_usage_error(
        &["--jobs", "0", "table1"],
        Some("--jobs expects a positive integer, got \"0\""),
    );
    assert_usage_error(
        &["--jobs=x", "table1"],
        Some("--jobs expects a positive integer, got \"x\""),
    );
    assert_usage_error(&["table1", "--jobs"], Some("--jobs requires a value"));
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    // `bench-sweep` was removed; `perfbench` measures what it reported.
    assert_usage_error(&["bench-sweep"], None);
    assert_usage_error(&[], None);
    // An unknown flag before the id is read as the experiment id.
    assert_usage_error(&["--retries", "1", "fault-sweep"], None);
}
