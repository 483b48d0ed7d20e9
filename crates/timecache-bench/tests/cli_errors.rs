//! The `experiments` binary reports an unwritable results directory as an
//! error and exits 1, instead of panicking (exit 101).

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
