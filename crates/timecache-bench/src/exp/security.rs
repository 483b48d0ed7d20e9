//! Section VI-A: security evaluation — the microbenchmark (VI-A.1) and
//! the RSA flush+reload key extraction (VI-A.2), under both modes.

use crate::output::{print_table, write_csv};
use std::io;
use timecache_attacks::harness::{run_microbenchmark, timecache_mode};
use timecache_attacks::rsa_attack::run_rsa_attack;
use timecache_sim::SecurityMode;
use timecache_workloads::rsa::Mpi;

/// Runs both security demonstrations and prints pass/fail rows.
pub fn run() -> io::Result<()> {
    let header = ["experiment", "mode", "signal", "verdict"];
    let mut rows = Vec::new();

    // VI-A.1 microbenchmark: 256-line shared array, 5 rounds.
    for (mode, name) in [
        (SecurityMode::Baseline, "baseline"),
        (timecache_mode(), "timecache"),
    ] {
        let r = run_microbenchmark(mode, 5);
        let leaked = r.hits > 0;
        rows.push(vec![
            "microbenchmark (VI-A.1)".into(),
            name.into(),
            format!("{}/{} probe hits", r.hits, r.probes),
            if leaked {
                "LEAKS".into()
            } else {
                "defended".into()
            },
        ]);
    }

    // VI-A.2 RSA: 64-bit exponent for a quick but meaningful extraction.
    let key = Mpi::from_u64(0xC3A5_96E7_D188_3C2B);
    for (mode, name) in [
        (SecurityMode::Baseline, "baseline"),
        (timecache_mode(), "timecache"),
    ] {
        let r = run_rsa_attack(mode, &key);
        rows.push(vec![
            "rsa flush+reload (VI-A.2)".into(),
            name.into(),
            format!(
                "{:.1}% key bits, {}/{} windows decoded",
                r.accuracy * 100.0,
                r.decoded_windows,
                r.total_windows
            ),
            if r.decoded_windows > 0 {
                "LEAKS".into()
            } else {
                "defended".into()
            },
        ]);
    }

    print_table("Security evaluation (Section VI-A)", &header, &rows);
    println!("expected: baseline rows LEAK (attack works), timecache rows are defended");
    write_csv("security_vi_a.csv", &header, &rows)?;
    Ok(())
}
