//! Table II: per-workload normalized execution time and LLC MPKI
//! (baseline vs TimeCache), paper-reported values alongside measured ones.

use crate::output::{geomean, print_table, write_csv};
use crate::runner::Comparison;
use std::io;
use timecache_workloads::mixes;

/// Renders Table II from a completed SPEC sweep (and optionally the PARSEC
/// comparisons appended below, as the paper's table does).
pub fn run(sweep: &[Comparison], parsec: &[Comparison]) -> io::Result<()> {
    let specs = mixes::all_pairs();
    assert_eq!(sweep.len(), specs.len(), "sweep must cover all pairs");

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
    for (spec, cmp) in specs.iter().zip(sweep) {
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

    for cmp in parsec {
        let bench = timecache_workloads::parsec::ParsecBenchmark::ALL
            .into_iter()
            .find(|b| b.name() == cmp.label)
            .expect("parsec label");
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
    if !parsec.is_empty() {
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
    }

    print_table(
        "Table II: execution-time overhead and LLC MPKI (measured vs paper)",
        &header,
        &rows,
    );
    write_csv("table2_overhead_mpki.csv", &header, &rows)?;
    Ok(())
}
