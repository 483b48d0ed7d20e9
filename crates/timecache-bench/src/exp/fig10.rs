//! Fig. 10: sensitivity of the overhead to LLC size. The paper reports the
//! geometric-mean overhead falling from 1.13 % at 2 MB to 0.4 % at 4 MB
//! and 0.1 % at 8 MB — larger caches evict shared lines less often, so
//! fewer first-access misses recur.

use crate::exp::{spec_comparisons, spec_keys};
use crate::output::{geomean, print_table, write_csv};
use crate::runner::{Comparison, RunKey, RunParams, RunTable};
use std::io;

/// Paper-reported geomean overheads per LLC size.
pub const PAPER_OVERHEADS: [(u64, f64); 3] = [
    (2 * 1024 * 1024, 1.0113),
    (4 * 1024 * 1024, 1.004),
    (8 * 1024 * 1024, 1.001),
];

fn with_llc(params: &RunParams, llc_bytes: u64) -> RunParams {
    RunParams {
        llc_bytes,
        ..*params
    }
}

/// The SPEC sweep at each LLC size; at the default 2 MB it is the sweep
/// Fig. 7 reads.
pub fn keys(params: &RunParams) -> Vec<RunKey> {
    PAPER_OVERHEADS
        .iter()
        .flat_map(|&(bytes, _)| spec_keys(&with_llc(params, bytes)))
        .collect()
}

/// Prints the overhead trend across LLC sizes.
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    let header = ["llc", "geomean-overhead", "paper"];
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (bytes, paper) in PAPER_OVERHEADS {
        let sweep = spec_comparisons(table, &with_llc(params, bytes));
        let overheads: Vec<f64> = sweep.iter().map(Comparison::overhead).collect();
        let g = geomean(&overheads);
        measured.push(g);
        rows.push(vec![
            format!("{} MB", bytes >> 20),
            format!("{g:.4}"),
            format!("{paper:.4}"),
        ]);
    }
    print_table("Fig. 10: overhead vs LLC size", &header, &rows);
    if measured.windows(2).all(|w| w[1] <= w[0] + 0.002) {
        println!("trend: overhead shrinks with LLC size (matches the paper)");
    } else {
        println!("trend: WARNING — overhead did not shrink monotonically");
    }
    write_csv("fig10_llc_sensitivity.csv", &header, &rows)?;
    Ok(())
}
