//! Fig. 7: single-core SPEC2006 normalized execution time under TimeCache
//! (paper: geometric-mean overhead 1.13 %).

use crate::exp::spec_comparisons;
use crate::output::{geomean, print_table, write_csv};
use crate::runner::{Comparison, RunParams, RunTable};
use std::io;
use timecache_workloads::mixes;

/// Renders Fig. 7's series (normalized execution time per workload pair)
/// from the SPEC sweep ([`crate::exp::spec_keys`]).
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    let specs = mixes::all_pairs();
    let sweep = spec_comparisons(table, params);
    let header = ["workload", "normalized-exec-time", "paper"];
    let rows: Vec<Vec<String>> = specs
        .iter()
        .zip(&sweep)
        .map(|(spec, cmp)| {
            vec![
                spec.label(),
                format!("{:.4}", cmp.overhead()),
                format!("{:.4}", spec.paper_overhead),
            ]
        })
        .collect();
    print_table(
        "Fig. 7: normalized execution time (TimeCache / baseline), single core",
        &header,
        &rows,
    );
    let overheads: Vec<f64> = sweep.iter().map(Comparison::overhead).collect();
    println!(
        "geomean overhead: measured {:.2}%  paper {:.2}%",
        (geomean(&overheads) - 1.0) * 100.0,
        (mixes::PAPER_SPEC_GEOMEAN_OVERHEAD - 1.0) * 100.0
    );
    write_csv("fig7_normalized_time.csv", &header, &rows)?;
    Ok(())
}
