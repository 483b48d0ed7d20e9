//! Fig. 9: 2-core, 2-thread PARSEC normalized execution time (paper:
//! average overhead 0.8 %) and per-cache delayed-access MPKI.

use crate::exp::parsec_comparisons;
use crate::output::{geomean, print_table, write_csv};
use crate::runner::{Comparison, RunParams, RunTable};
use std::io;
use timecache_workloads::mixes;
use timecache_workloads::parsec::ParsecBenchmark;

/// Renders Fig. 9a (normalized time) and Fig. 9b (per-cache first-access
/// MPKI) from the PARSEC sweep ([`crate::exp::parsec_keys`]).
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    let sweep = parsec_comparisons(table, params);
    // Fig. 9a.
    let header_a = ["benchmark", "normalized-exec-time", "paper"];
    let rows_a: Vec<Vec<String>> = ParsecBenchmark::ALL
        .into_iter()
        .zip(&sweep)
        .map(|(b, cmp)| {
            vec![
                b.name().to_owned(),
                format!("{:.4}", cmp.overhead()),
                format!("{:.4}", b.paper_overhead()),
            ]
        })
        .collect();
    print_table(
        "Fig. 9a: PARSEC normalized execution time (2 threads, 2 cores)",
        &header_a,
        &rows_a,
    );
    let overheads: Vec<f64> = sweep.iter().map(Comparison::overhead).collect();
    println!(
        "mean overhead: measured {:.2}%  paper {:.2}%",
        (geomean(&overheads) - 1.0) * 100.0,
        (mixes::PAPER_PARSEC_MEAN_OVERHEAD - 1.0) * 100.0
    );
    write_csv("fig9a_parsec_normalized_time.csv", &header_a, &rows_a)?;

    // Fig. 9b: per-cache delayed-access MPKI; L1s must be zero because the
    // threads never share a core.
    let header_b = ["benchmark", "l1i-fa-mpki", "l1d-fa-mpki", "llc-fa-mpki"];
    let rows_b: Vec<Vec<String>> = sweep
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
        "Fig. 9b: PARSEC delayed-access MPKI per cache",
        &header_b,
        &rows_b,
    );
    write_csv("fig9b_parsec_first_access_mpki.csv", &header_b, &rows_b)?;
    Ok(())
}
