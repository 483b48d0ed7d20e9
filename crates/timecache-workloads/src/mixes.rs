//! The workload pairings evaluated in Table II / Fig. 7.
//!
//! The paper's single-core experiments run two processes time-sliced on one
//! core: fifteen same-benchmark pairs ("2Xlbm", ...) and nine mixed pairs
//! ("leslie+gobmk", ...). Each [`PairSpec`] also carries the paper-reported
//! normalized execution time and LLC MPKI values so the experiment harness
//! can print paper-vs-measured tables for `EXPERIMENTS.md`.

use crate::spec::SpecBenchmark;

/// One Table II row: a pair of benchmarks plus the paper's reported values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSpec {
    /// First process's benchmark.
    pub a: SpecBenchmark,
    /// Second process's benchmark.
    pub b: SpecBenchmark,
    /// Table II "Overhead" (normalized execution time, TimeCache/baseline).
    pub paper_overhead: f64,
    /// Table II "MPKI LLC Baseline".
    pub paper_mpki_baseline: f64,
    /// Table II "MPKI LLC TimeCache".
    pub paper_mpki_timecache: f64,
}

impl PairSpec {
    /// Table II's row label: "2Xlbm" or "leslie+gobmk".
    pub fn label(&self) -> String {
        pair_label(self.a, self.b)
    }
}

/// Table II's row label for processes running `a` and `b`: "2Xlbm" or
/// "leslie+gobmk".
pub fn pair_label(a: SpecBenchmark, b: SpecBenchmark) -> String {
    if a == b {
        format!("2X{}", a.name())
    } else {
        format!("{}+{}", a.name(), b.name())
    }
}

/// The fifteen same-benchmark pairs of Table II, with paper values.
pub fn same_benchmark_pairs() -> Vec<PairSpec> {
    use SpecBenchmark::*;
    [
        (Specrand, 0.9908, 0.0035, 0.0238),
        (Lbm, 1.0039, 14.0349, 14.138),
        (Leslie3d, 1.0751, 20.6163, 24.3556),
        (Gobmk, 0.9961, 3.2832, 3.3361),
        (Libquantum, 1.0001, 5.8532, 5.8831),
        (Wrf, 1.0135, 4.7286, 4.8964),
        (Calculix, 1.0548, 0.2099, 0.2672),
        (Sjeng, 0.999, 16.7773, 16.8382),
        (Perlbench, 1.0134, 1.021, 1.1582),
        (Astar, 1.0107, 0.5654, 0.6144),
        (H264ref, 1.014, 0.555, 0.5953),
        (Milc, 1.0026, 16.4722, 16.5295),
        (Sphinx3, 0.9982, 0.2648, 0.3118),
        (Namd, 1.0108, 0.1623, 0.2181),
        (Gromacs, 0.9992, 0.292, 0.3703),
    ]
    .into_iter()
    .map(|(x, o, mb, mt)| PairSpec {
        a: x,
        b: x,
        paper_overhead: o,
        paper_mpki_baseline: mb,
        paper_mpki_timecache: mt,
    })
    .collect()
}

/// The nine mixed pairs of Table II, with paper values.
pub fn mixed_pairs() -> Vec<PairSpec> {
    use SpecBenchmark::*;
    [
        (Leslie3d, Gobmk, 0.9996, 22.3133, 22.3669),
        (Namd, Lbm, 1.0579, 6.3764, 7.1136),
        (Milc, Zeusmp, 1.0024, 12.5757, 12.6121),
        (Lbm, Wrf, 1.0007, 9.7181, 9.7898),
        (H264ref, Sjeng, 1.0108, 9.0769, 9.1915),
        (Perlbench, Wrf, 1.0143, 1.3984, 1.4626),
        (Cactus, Leslie3d, 1.0034, 21.2749, 21.3736),
        (Gobmk, Astar, 0.9994, 1.1053, 1.1469),
        (Zeusmp, Gromacs, 1.0035, 5.6352, 5.5924),
    ]
    .into_iter()
    .map(|(a, b, o, mb, mt)| PairSpec {
        a,
        b,
        paper_overhead: o,
        paper_mpki_baseline: mb,
        paper_mpki_timecache: mt,
    })
    .collect()
}

/// All 24 Table II SPEC rows, same-benchmark pairs first.
pub fn all_pairs() -> Vec<PairSpec> {
    let mut v = same_benchmark_pairs();
    v.extend(mixed_pairs());
    v
}

/// The paper's reported geometric-mean overhead for the SPEC runs (1.13 %).
pub const PAPER_SPEC_GEOMEAN_OVERHEAD: f64 = 1.0113;

/// The paper's reported average overhead for the PARSEC runs (0.8 %).
pub const PAPER_PARSEC_MEAN_OVERHEAD: f64 = 1.008;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_match_table_ii() {
        assert_eq!(same_benchmark_pairs().len(), 15);
        assert_eq!(mixed_pairs().len(), 9);
        assert_eq!(all_pairs().len(), 24);
    }

    #[test]
    fn labels_render_like_the_table() {
        assert_eq!(same_benchmark_pairs()[1].label(), "2Xlbm");
        assert_eq!(mixed_pairs()[0].label(), "leslie3d+gobmk");
    }

    #[test]
    fn paper_geomean_consistent_with_rows() {
        // The geometric mean of the overhead column should sit near the
        // paper's stated 1.13 % average.
        let rows = all_pairs();
        let log_sum: f64 = rows.iter().map(|r| r.paper_overhead.ln()).sum();
        let geomean = (log_sum / rows.len() as f64).exp();
        assert!(
            (geomean - PAPER_SPEC_GEOMEAN_OVERHEAD).abs() < 0.005,
            "geomean {geomean}"
        );
    }

    #[test]
    fn timecache_mpki_not_lower_than_baseline_mostly() {
        // First-access misses add MPKI in all but one noisy row
        // (zeusmp+gromacs, which the paper reports slightly below
        // baseline).
        let below: Vec<_> = all_pairs()
            .into_iter()
            .filter(|r| r.paper_mpki_timecache < r.paper_mpki_baseline)
            .map(|r| r.label())
            .collect();
        assert_eq!(below, vec!["zeusmp+gromacs".to_owned()]);
    }
}
