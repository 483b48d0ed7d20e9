//! Section VI-C: timestamp rollover. Narrow counters roll over constantly;
//! the defense must stay *correct* (the attack remains blind) at the cost
//! of extra first-access misses. This experiment sweeps the counter width
//! and reports both.

use crate::output::{print_table, write_csv};
use crate::runner::{timecache_mode, RunKey, RunParams, RunTable, Workload};
use std::io;
use timecache_attacks::harness::run_microbenchmark;
use timecache_workloads::SpecBenchmark::Perlbench;

/// Counter widths to sweep: 32 bits (the paper's choice, never rolls over
/// within a run), down to widths that roll over every few quanta.
pub const WIDTHS: [u8; 4] = [32, 26, 22, 20];

/// The representative pair the width sweep runs.
const PAIR: Workload = Workload::Spec(Perlbench, Perlbench);

fn with_width(params: &RunParams, timestamp_bits: u8) -> RunParams {
    RunParams {
        timestamp_bits,
        ..*params
    }
}

/// Both modes of 2Xperlbench at every width. The baseline ignores the
/// width, so all widths share the SPEC sweep's baseline run.
pub fn keys(params: &RunParams) -> Vec<RunKey> {
    WIDTHS
        .iter()
        .flat_map(|&width| RunKey::pair(PAIR, &with_width(params, width)))
        .collect()
}

/// Renders the width sweep and re-checks security at every width.
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    let header = ["ts-width", "overhead", "llc-fa-mpki", "attack-hits"];
    let rows: Vec<Vec<String>> = WIDTHS
        .iter()
        .map(|&width| {
            let p = with_width(params, width);
            let cmp = table.compare(PAIR, &p);
            // Security must hold at every width: rollover only adds misses.
            let mb = run_microbenchmark(timecache_mode(&p), 3);
            assert_eq!(mb.hits, 0, "rollover must never re-open the channel");
            vec![
                format!("{width}"),
                format!("{:.4}", cmp.overhead()),
                format!("{:.4}", cmp.timecache.llc_first_access_mpki()),
                format!("{}/{}", mb.hits, mb.probes),
            ]
        })
        .collect();
    print_table(
        "Section VI-C: timestamp width sweep (2Xperlbench; rollover adds misses, never hits)",
        &header,
        &rows,
    );
    write_csv("vi_c_rollover.csv", &header, &rows)?;
    Ok(())
}
