//! Section VI-C: timestamp rollover. Narrow counters roll over constantly;
//! the defense must stay *correct* (the attack remains blind) at the cost
//! of extra first-access misses. This experiment sweeps the counter width
//! and reports both.

use crate::output::{print_table, write_csv};
use crate::runner::{compare_spec_pair, RunParams};
use crate::sweep;
use std::io;
use timecache_attacks::harness::run_microbenchmark;
use timecache_core::TimeCacheConfig;
use timecache_sim::SecurityMode;
use timecache_workloads::mixes;

/// Counter widths to sweep: 32 bits (the paper's choice, never rolls over
/// within a run), down to widths that roll over every few quanta.
pub const WIDTHS: [u8; 4] = [32, 26, 22, 20];

/// Runs the width sweep on one representative pair and re-checks security
/// at every width.
pub fn run(params: &RunParams) -> io::Result<()> {
    let spec = mixes::all_pairs()
        .into_iter()
        .find(|p| p.label() == "2Xperlbench")
        .expect("perlbench pair exists");

    let header = ["ts-width", "overhead", "llc-fa-mpki", "attack-hits"];
    // One engine job per counter width; the security re-check rides along
    // in the job so an assertion failure surfaces at join.
    let rows = sweep::run(WIDTHS.len(), |i| {
        let width = WIDTHS[i];
        sweep::progress(&format!("  width {width} bits ..."));
        let p = RunParams {
            timestamp_bits: width,
            ..*params
        };
        let cmp = compare_spec_pair(&spec, &p);
        // Security must hold at every width: rollover only adds misses.
        let mb = run_microbenchmark(SecurityMode::TimeCache(TimeCacheConfig::new(width)), 3);
        assert_eq!(mb.hits, 0, "rollover must never re-open the channel");
        vec![
            format!("{width}"),
            format!("{:.4}", cmp.overhead()),
            format!("{:.4}", cmp.timecache.llc_first_access_mpki()),
            format!("{}/{}", mb.hits, mb.probes),
        ]
    });
    print_table(
        "Section VI-C: timestamp width sweep (2Xperlbench; rollover adds misses, never hits)",
        &header,
        &rows,
    );
    write_csv("vi_c_rollover.csv", &header, &rows)?;
    Ok(())
}
