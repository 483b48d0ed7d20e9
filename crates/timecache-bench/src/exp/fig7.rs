//! Fig. 7: single-core SPEC2006 normalized execution time under TimeCache
//! (paper: geometric-mean overhead 1.13 %).

use crate::output::{geomean, print_table, write_csv};
use crate::runner::{Comparison, RunParams, RunTable, Workload};
use std::io;
use timecache_workloads::mixes::{self, PairSpec};

/// Renders Fig. 7's series (normalized execution time per workload pair)
/// from the SPEC sweep ([`crate::exp::spec_keys`]).
pub fn render(table: &RunTable, params: &RunParams) -> io::Result<()> {
    render_pairs(&mixes::all_pairs(), table, params)
}

/// [`render`] for the rows of `specs` only.
fn render_pairs(specs: &[PairSpec], table: &RunTable, params: &RunParams) -> io::Result<()> {
    let sweep: Vec<Comparison> = specs
        .iter()
        .map(|spec| table.compare(Workload::spec(spec), params))
        .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{self, Experiment};
    use crate::runner::RunKey;

    /// Both modes of the first four Table II pairs.
    fn first_four_keys(params: &RunParams) -> Vec<RunKey> {
        exp::spec_keys(params)[..8].to_vec()
    }

    fn render_first_four(table: &RunTable, params: &RunParams) -> io::Result<()> {
        render_pairs(&mixes::all_pairs()[..4], table, params)
    }

    /// The value of `"name":` in one flat run record, quotes included.
    fn field<'a>(record: &'a str, name: &str) -> &'a str {
        let key = format!("\"{name}\":");
        let start = record.find(&key).unwrap_or_else(|| panic!("no {name}")) + key.len();
        let rest = &record[start..];
        &rest[..rest.find([',', '}']).expect("value ends")]
    }

    #[test]
    fn run_records_rebuild_the_normalized_times() {
        let dir = crate::output::test_results_dir();
        let params = RunParams {
            warmup_instructions: 20_000,
            measure_instructions: 80_000,
            quantum_cycles: 50_000,
            ..RunParams::default()
        };
        let fig7 = Experiment::new("fig7", first_four_keys, render_first_four);
        exp::run("fig7", &[fig7], &params, 2).unwrap();
        let runs = std::fs::read_to_string(dir.join("fig7_runs.jsonl")).unwrap();
        let csv = std::fs::read_to_string(dir.join("fig7_normalized_time.csv")).unwrap();

        // One line per distinct key, in key order.
        let records: Vec<&str> = runs.lines().collect();
        let keys: Vec<String> = records
            .iter()
            .map(|r| format!("{} {}", field(r, "workload"), field(r, "mode")))
            .collect();
        let expected: Vec<String> = mixes::all_pairs()[..4]
            .iter()
            .flat_map(|pair| {
                ["baseline", "timecache"].map(|mode| format!("\"{}\" \"{mode}\"", pair.label()))
            })
            .collect();
        assert_eq!(keys, expected);

        // Each CSV cell is the pair's TimeCache cycles over its baseline's.
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 4);
        for (pair, row) in records.chunks(2).zip(rows) {
            let cycles = |r: &str| field(r, "cycles").parse::<u64>().expect("cycles") as f64;
            let normalized = format!("{:.4}", cycles(pair[1]) / cycles(pair[0]));
            let cells: Vec<&str> = row.split(',').collect();
            assert_eq!(format!("\"{}\"", cells[0]), field(pair[0], "workload"));
            assert_eq!(cells[1], normalized, "{row}");
        }
    }
}
