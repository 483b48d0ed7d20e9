//! Table II: per-workload normalized execution time and LLC MPKI
//! (baseline vs TimeCache), paper-reported values alongside measured ones.

use crate::exp::{parsec_comparisons, parsec_keys, spec_comparisons, spec_keys};
use crate::output::{geomean, print_table, write_csv};
use crate::runner::{Comparison, RunKey, RunParams, RunTable};
use std::io;
use timecache_workloads::mixes;
use timecache_workloads::parsec::ParsecBenchmark;

/// The SPEC and PARSEC sweeps.
pub fn keys(params: &RunParams) -> Vec<RunKey> {
    [spec_keys(params), parsec_keys(params)].concat()
}

/// Renders Table II from the SPEC sweep, with the PARSEC comparisons
/// appended below as the paper's table does.
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    let specs = mixes::all_pairs();
    let sweep = spec_comparisons(table, params);
    let parsec = parsec_comparisons(table, params);

    let header = [
        "workload",
        "overhead",
        "mpki-base",
        "mpki-tc",
        "paper-ovh",
        "paper-mpki-base",
        "paper-mpki-tc",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (spec, cmp) in specs.iter().zip(&sweep) {
        rows.push(vec![
            spec.label(),
            format!("{:.4}", cmp.overhead()),
            format!("{:.4}", cmp.baseline.llc_mpki()),
            format!("{:.4}", cmp.timecache.llc_mpki()),
            format!("{:.4}", spec.paper_overhead),
            format!("{:.4}", spec.paper_mpki_baseline),
            format!("{:.4}", spec.paper_mpki_timecache),
        ]);
    }
    let overheads: Vec<f64> = sweep.iter().map(Comparison::overhead).collect();
    rows.push(vec![
        "geomean(spec)".into(),
        format!("{:.4}", geomean(&overheads)),
        String::new(),
        String::new(),
        format!("{:.4}", mixes::PAPER_SPEC_GEOMEAN_OVERHEAD),
        String::new(),
        String::new(),
    ]);

    for (bench, cmp) in ParsecBenchmark::ALL.into_iter().zip(&parsec) {
        rows.push(vec![
            cmp.label.clone(),
            format!("{:.4}", cmp.overhead()),
            format!("{:.4}", cmp.baseline.llc_mpki()),
            format!("{:.4}", cmp.timecache.llc_mpki()),
            format!("{:.4}", bench.paper_overhead()),
            format!("{:.4}", bench.paper_baseline_mpki()),
            String::new(),
        ]);
    }
    let po: Vec<f64> = parsec.iter().map(Comparison::overhead).collect();
    rows.push(vec![
        "geomean(parsec)".into(),
        format!("{:.4}", geomean(&po)),
        String::new(),
        String::new(),
        format!("{:.4}", mixes::PAPER_PARSEC_MEAN_OVERHEAD),
        String::new(),
        String::new(),
    ]);

    print_table(
        "Table II: execution-time overhead and LLC MPKI (measured vs paper)",
        &header,
        &rows,
    );
    write_csv("table2_overhead_mpki.csv", &header, &rows)?;
    Ok(())
}
