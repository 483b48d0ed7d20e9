//! Fig. 8: delayed-access (first-access) MPKI at each cache level for the
//! single-core SPEC runs.

use crate::exp::spec_comparisons;
use crate::output::{print_table, write_csv};
use crate::runner::{RunParams, RunTable};
use std::io;

/// Renders Fig. 8's per-level first-access MPKI series from the SPEC
/// sweep ([`crate::exp::spec_keys`]; TimeCache runs, the baseline has no
/// first accesses by construction).
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    let sweep = spec_comparisons(table, params);
    let header = ["workload", "l1i-fa-mpki", "l1d-fa-mpki", "llc-fa-mpki"];
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|cmp| {
            vec![
                cmp.label.clone(),
                format!("{:.4}", cmp.timecache.l1i_first_access_mpki()),
                format!("{:.4}", cmp.timecache.l1d_first_access_mpki()),
                format!("{:.4}", cmp.timecache.llc_first_access_mpki()),
            ]
        })
        .collect();
    print_table(
        "Fig. 8: delayed-access (first-access) MPKI per cache level",
        &header,
        &rows,
    );
    // The paper's qualitative observation: the LLC retains more shared
    // content, so its first-access MPKI dominates the L1s' for most
    // workloads.
    let llc_dominates = sweep
        .iter()
        .filter(|c| {
            c.timecache.llc_first_access_mpki()
                >= c.timecache.l1d_first_access_mpki().max(0.0001) * 0.5
        })
        .count();
    println!(
        "LLC first-access MPKI >= half of L1D's in {llc_dominates}/{} workloads",
        sweep.len()
    );
    write_csv("fig8_first_access_mpki.csv", &header, &rows)?;
    Ok(())
}
