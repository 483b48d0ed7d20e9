//! One module per paper artifact (table or figure). An experiment that
//! simulates declares the runs it needs as [`RunKey`]s and renders its
//! table and CSV from a shared [`RunTable`]; [`EXPERIMENTS`] lists every id
//! `experiments all` runs, and [`run`] simulates the union of their keys
//! once, records each run and its events, and renders each experiment.

pub mod ablation;
pub mod area;
pub mod fault_sweep;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod ftm;
pub mod leakage_sweep;
pub mod other_attacks;
pub mod rollover;
pub mod security;
pub mod switchcost;
pub mod table1;
pub mod table2;

use crate::output::{results_dir, write_artifact};
use crate::runner::{Comparison, RunKey, RunParams, RunTable, Workload};
use crate::telemetry;
use std::io;
use timecache_workloads::mixes;
use timecache_workloads::parsec::ParsecBenchmark;

/// One `experiments` id: the runs it needs and how it renders them.
pub struct Experiment {
    /// The id `experiments` accepts.
    pub id: &'static str,
    /// The runs the experiment reads (none for analytical experiments).
    pub(crate) keys: fn(&RunParams) -> Vec<RunKey>,
    /// Prints the experiment's tables and writes its CSVs from a table
    /// holding at least its keys.
    pub(crate) render: fn(&RunTable, &RunParams) -> io::Result<()>,
}

impl Experiment {
    const fn new(
        id: &'static str,
        keys: fn(&RunParams) -> Vec<RunKey>,
        render: fn(&RunTable, &RunParams) -> io::Result<()>,
    ) -> Experiment {
        Experiment { id, keys, render }
    }
}

/// Every experiment `all` runs, in `all`'s order.
pub const EXPERIMENTS: [Experiment; 13] = [
    Experiment::new("table1", no_runs, |_, _| table1::run()),
    Experiment::new("fig7", spec_keys, fig7::render),
    Experiment::new("fig8", spec_keys, fig8::render),
    Experiment::new("fig9", parsec_keys, fig9::render),
    Experiment::new("table2", table2::keys, table2::render),
    Experiment::new("fig10", fig10::keys, fig10::render),
    Experiment::new("security", no_runs, |_, _| security::run()),
    Experiment::new("rollover", rollover::keys, rollover::render),
    Experiment::new("switchcost", switchcost::keys, switchcost::render),
    Experiment::new("other-attacks", no_runs, |_, _| other_attacks::run()),
    Experiment::new("ftm", ftm::keys, ftm::render),
    Experiment::new("area", no_runs, |_, _| area::run()),
    Experiment::new("ablation", ablation::keys, ablation::render),
];

/// Every key `experiments` requests, in order and with repeats.
fn keys(experiments: &[Experiment], params: &RunParams) -> Vec<RunKey> {
    experiments.iter().flat_map(|e| (e.keys)(params)).collect()
}

/// Simulates each distinct run `experiments` need once on `jobs` workers,
/// writes the runs to `<id>_runs.jsonl` ([`RunTable::to_jsonl`]) and their
/// events to `<id>_events.jsonl` and `<id>_manifest.json`
/// ([`telemetry::write_artifacts`]; nothing when they need no runs), then
/// renders the experiments in order.
///
/// # Errors
///
/// Returns the first error writing an artifact.
pub fn run(
    id: &str,
    experiments: &[Experiment],
    params: &RunParams,
    jobs: usize,
) -> io::Result<()> {
    let table = RunTable::build(&keys(experiments, params), jobs);
    if !table.is_empty() {
        let path = results_dir()?.join(format!("{id}_runs.jsonl"));
        write_artifact(&path, &table.to_jsonl())?;
        telemetry::write_artifacts(id, table.events())?;
    }
    experiments
        .iter()
        .try_for_each(|e| (e.render)(&table, params))
}

fn no_runs(_: &RunParams) -> Vec<RunKey> {
    Vec::new()
}

/// The Table II SPEC sweep: every pair from [`mixes::all_pairs`] under
/// both modes. Fig. 7, Fig. 8, Table II and (at each LLC size) Fig. 10
/// read it.
pub fn spec_keys(params: &RunParams) -> Vec<RunKey> {
    mixes::all_pairs()
        .iter()
        .flat_map(|pair| RunKey::pair(Workload::spec(pair), params))
        .collect()
}

/// The SPEC sweep's comparisons, in [`mixes::all_pairs`] order.
pub(crate) fn spec_comparisons(table: &RunTable, params: &RunParams) -> Vec<Comparison> {
    mixes::all_pairs()
        .iter()
        .map(|pair| table.compare(Workload::spec(pair), params))
        .collect()
}

/// The PARSEC sweep: every benchmark under both modes.
pub fn parsec_keys(params: &RunParams) -> Vec<RunKey> {
    ParsecBenchmark::ALL
        .into_iter()
        .flat_map(|bench| RunKey::pair(Workload::Parsec(bench), params))
        .collect()
}

/// The PARSEC sweep's comparisons, in [`ParsecBenchmark::ALL`] order.
pub(crate) fn parsec_comparisons(table: &RunTable, params: &RunParams) -> Vec<Comparison> {
    ParsecBenchmark::ALL
        .into_iter()
        .map(|bench| table.compare(Workload::Parsec(bench), params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_simulates_171_distinct_runs_of_349_requested() {
        let params = RunParams::quick();
        let requested = keys(&EXPERIMENTS, &params);
        // fig7, fig8, table2 and fig10 (at 2 MB) each request the 48-run
        // SPEC sweep. Before the run table, `all` shared only the SPEC and
        // PARSEC sweeps, by hand, and simulated 242 runs.
        assert_eq!(requested.len(), 349);
        assert_eq!(crate::runner::distinct(&requested).len(), 171);

        let spec = spec_keys(&params);
        let ftm_tc: Vec<RunKey> = ftm::keys(&params)
            .into_iter()
            .filter(|k| k.security.is_timecache())
            .collect();
        assert_eq!(ftm_tc.len(), 4);
        assert!(ftm_tc.iter().all(|k| spec.contains(k)), "{ftm_tc:?}");
        // Every width's baseline and the 32-bit TimeCache run are SPEC-sweep
        // runs; only the three narrow TimeCache runs are new.
        let (wide, narrow): (Vec<RunKey>, Vec<RunKey>) = rollover::keys(&params)
            .into_iter()
            .partition(|k| k.params.timestamp_bits == 32);
        assert_eq!(wide.len(), 5);
        assert!(wide.iter().all(|k| spec.contains(k)), "{wide:?}");
        assert_eq!(narrow.len(), 3);
        assert!(narrow.iter().all(|k| !spec.contains(k)), "{narrow:?}");
    }
}
