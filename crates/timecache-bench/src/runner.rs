//! Shared machinery for the performance experiments: build a system, run a
//! warm-up phase, then measure a fixed instruction budget; and the
//! [`RunTable`] that simulates each distinct [`RunKey`] the experiments
//! declare exactly once.

use crate::sweep;
use timecache_core::TimeCacheConfig;
use timecache_os::{System, SystemConfig};
use timecache_sim::{HierarchyConfig, HierarchyStats, SecurityMode};
use timecache_workloads::mixes::{self, PairSpec};
use timecache_workloads::parsec::ParsecBenchmark;
use timecache_workloads::SpecBenchmark;

/// Parameters of one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Instructions per process before measurement starts (cache and s-bit
    /// state reaches steady state).
    pub warmup_instructions: u64,
    /// Instructions per process in the measured phase.
    pub measure_instructions: u64,
    /// LLC capacity in bytes (Fig. 10 sweeps this).
    pub llc_bytes: u64,
    /// Scheduler quantum in cycles.
    pub quantum_cycles: u64,
    /// TimeCache timestamp width in bits.
    pub timestamp_bits: u8,
    /// Ablation: discard snapshots at context switches (see
    /// [`SystemConfig::discard_snapshots`]).
    pub discard_snapshots: bool,
}

impl Default for RunParams {
    /// The measurement profile: a 1 M-cycle quantum (0.5 ms at 2 GHz, a
    /// busy-system CFS slice) and a 16 M-instruction measured phase per
    /// process, giving each run tens of quanta so the paper's steady-state
    /// (not transient) overhead is what gets measured; the 4 M-instruction
    /// warm-up absorbs the initial mutual first-access transient. The
    /// context-switch DMA is priced as the paper does: a constant 1.08 us
    /// per switch.
    fn default() -> Self {
        RunParams {
            warmup_instructions: 4_000_000,
            measure_instructions: 16_000_000,
            llc_bytes: 2 * 1024 * 1024,
            quantum_cycles: 1_000_000,
            timestamp_bits: 32,
            discard_snapshots: false,
        }
    }
}

impl RunParams {
    /// A faster profile for tests and smoke runs (transient-heavy: treat
    /// its absolute overheads as smoke signals only).
    pub fn quick() -> Self {
        RunParams {
            warmup_instructions: 200_000,
            measure_instructions: 800_000,
            quantum_cycles: 500_000,
            ..RunParams::default()
        }
    }
}

/// Measured-phase metrics for one (workload, security mode) run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeMetrics {
    /// Cycles consumed by the measured phase.
    pub cycles: u64,
    /// Instructions retired in the measured phase (both processes).
    pub instructions: u64,
    /// Cache statistics for the measured phase only.
    pub stats: HierarchyStats,
    /// TimeCache context-switch bookkeeping cycles in the measured phase
    /// (the warm-up's are subtracted).
    pub tc_switch_cycles: u64,
    /// Context switches over the whole run, warm-up included
    /// ([`System::reset_stats`] clears only the cache statistics).
    pub context_switches: u64,
}

impl ModeMetrics {
    /// LLC MPKI (misses + first-access misses per kilo-instruction).
    pub fn llc_mpki(&self) -> f64 {
        self.stats.llc.mpki(self.instructions)
    }

    /// First-access MPKI at the LLC.
    pub fn llc_first_access_mpki(&self) -> f64 {
        self.stats.llc.first_access_mpki(self.instructions)
    }

    /// First-access MPKI at the (aggregated) L1I.
    pub fn l1i_first_access_mpki(&self) -> f64 {
        self.stats.l1i_total().first_access_mpki(self.instructions)
    }

    /// First-access MPKI at the (aggregated) L1D.
    pub fn l1d_first_access_mpki(&self) -> f64 {
        self.stats.l1d_total().first_access_mpki(self.instructions)
    }
}

/// Baseline + TimeCache measurements for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Row label ("2Xlbm", "fluidanimate", ...).
    pub label: String,
    /// Conventional-cache metrics.
    pub baseline: ModeMetrics,
    /// TimeCache metrics.
    pub timecache: ModeMetrics,
}

impl Comparison {
    /// Normalized execution time: TimeCache cycles / baseline cycles (the
    /// y-axis of Figs. 7 and 9a; Table II's overhead column).
    pub fn overhead(&self) -> f64 {
        self.timecache.cycles as f64 / self.baseline.cycles.max(1) as f64
    }
}

/// The TimeCache security mode a parameter set selects (the counterpart of
/// [`SecurityMode::Baseline`] in every comparison).
pub fn timecache_mode(params: &RunParams) -> SecurityMode {
    SecurityMode::TimeCache(TimeCacheConfig::new(params.timestamp_bits))
}

/// What one run simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// A SPEC pair: two processes time-sliced on one core.
    Spec(SpecBenchmark, SpecBenchmark),
    /// A PARSEC benchmark: two threads on two cores.
    Parsec(ParsecBenchmark),
}

impl Workload {
    /// The workload of a Table II SPEC row.
    pub fn spec(pair: &PairSpec) -> Workload {
        Workload::Spec(pair.a, pair.b)
    }

    /// Row label ("2Xlbm", "leslie3d+gobmk", "fluidanimate").
    pub fn label(self) -> String {
        match self {
            Workload::Spec(a, b) => mixes::pair_label(a, b),
            Workload::Parsec(bench) => bench.name().to_owned(),
        }
    }

    /// Warms up both programs, then measures
    /// `params.measure_instructions` of each.
    fn run(self, security: SecurityMode, params: &RunParams) -> ModeMetrics {
        let (cores, [first, second]) = match self {
            Workload::Spec(a, b) => (1, [a.workload(0), b.workload(1)]),
            Workload::Parsec(bench) => (2, [bench.thread_workload(0), bench.thread_workload(1)]),
        };
        let mut hier = HierarchyConfig::with_cores(cores).with_llc_bytes(params.llc_bytes);
        hier.security = security;
        let cfg = SystemConfig {
            hierarchy: hier,
            quantum_cycles: params.quantum_cycles,
            discard_snapshots: params.discard_snapshots,
            telemetry: crate::telemetry::current(),
            ..SystemConfig::default()
        };
        let mut sys = System::new(cfg).expect("experiment config is valid");
        let warmup = Some(params.warmup_instructions);
        // The second program shares core 0 on one core and owns core 1 on two.
        let pids = [
            sys.spawn(Box::new(first), 0, 0, warmup),
            sys.spawn(Box::new(second), cores - 1, 0, warmup),
        ];
        let warm = sys.run(u64::MAX);
        assert!(warm.all_completed(), "warmup did not complete");
        let warm_cycles = sys.total_cycles();

        sys.reset_stats();
        for pid in pids {
            sys.try_extend_target(pid, params.measure_instructions)
                .expect("a warmed-up process accepts a measurement target");
        }
        let report = sys.run(u64::MAX);
        assert!(report.all_completed(), "measurement did not complete");

        ModeMetrics {
            cycles: report.total_cycles - warm_cycles,
            instructions: 2 * params.measure_instructions,
            stats: report.stats,
            tc_switch_cycles: report.timecache_switch_cycles - warm.timecache_switch_cycles,
            context_switches: report.context_switches,
        }
    }
}

/// Runs one mode of a SPEC pair: two processes time-sliced on one core.
pub fn run_spec_pair_mode(
    spec: &PairSpec,
    security: SecurityMode,
    params: &RunParams,
) -> ModeMetrics {
    Workload::spec(spec).run(security, params)
}

/// Runs one mode of a PARSEC benchmark: two threads on two cores.
pub fn run_parsec_mode(
    bench: ParsecBenchmark,
    security: SecurityMode,
    params: &RunParams,
) -> ModeMetrics {
    Workload::Parsec(bench).run(security, params)
}

/// One run: a workload under a security mode with the parameters it reads.
/// Equal keys produce equal [`ModeMetrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunKey {
    pub(crate) workload: Workload,
    pub(crate) security: SecurityMode,
    /// Normalised by [`RunKey::new`].
    pub(crate) params: RunParams,
}

impl RunKey {
    /// The key of `workload` under `security`. Only [`timecache_mode`]
    /// reads [`RunParams::timestamp_bits`], so other modes get the default
    /// width and share one key across a width sweep.
    pub fn new(workload: Workload, security: SecurityMode, params: &RunParams) -> RunKey {
        let mut params = *params;
        if !security.is_timecache() {
            params.timestamp_bits = RunParams::default().timestamp_bits;
        }
        RunKey {
            workload,
            security,
            params,
        }
    }

    /// The baseline and TimeCache keys of one [`Comparison`].
    pub fn pair(workload: Workload, params: &RunParams) -> [RunKey; 2] {
        [SecurityMode::Baseline, timecache_mode(params)]
            .map(|mode| RunKey::new(workload, mode, params))
    }
}

/// `keys` without repeats, in first-occurrence order. `SecurityMode` has
/// no `Hash`; a linear scan is cheap at a few hundred keys.
pub(crate) fn distinct(keys: &[RunKey]) -> Vec<RunKey> {
    let mut distinct: Vec<RunKey> = Vec::new();
    for key in keys {
        if !distinct.contains(key) {
            distinct.push(*key);
        }
    }
    distinct
}

/// The metrics of distinct runs, each simulated once.
#[derive(Debug, PartialEq)]
pub struct RunTable {
    runs: Vec<(RunKey, ModeMetrics)>,
}

impl RunTable {
    /// Simulates each distinct key of `keys` once with [`sweep::run`] on
    /// `jobs` workers, keeping first-occurrence order.
    pub fn build(keys: &[RunKey], jobs: usize) -> RunTable {
        let distinct = distinct(keys);
        if !distinct.is_empty() {
            sweep::progress(&format!(
                "running {} distinct runs ({} requested) on {jobs} jobs ...",
                distinct.len(),
                keys.len()
            ));
        }
        let metrics = sweep::run(jobs, distinct.len(), |i| {
            let key = &distinct[i];
            let mode = match key.security {
                SecurityMode::Baseline => "baseline",
                SecurityMode::TimeCache(_) => "timecache",
                SecurityMode::Ftm => "ftm",
            };
            sweep::progress(&format!("  running {} [{mode}] ...", key.workload.label()));
            key.workload.run(key.security, &key.params)
        });
        RunTable {
            runs: distinct.into_iter().zip(metrics).collect(),
        }
    }

    /// The metrics of `key`.
    ///
    /// # Panics
    ///
    /// Panics if the table was built without `key`.
    pub fn get(&self, key: &RunKey) -> &ModeMetrics {
        let run = self.runs.iter().find(|(k, _)| k == key);
        &run.unwrap_or_else(|| panic!("run table has no {key:?}")).1
    }

    /// The [`Comparison`] of `workload` at `params` (both keys of
    /// [`RunKey::pair`] must be in the table).
    pub fn compare(&self, workload: Workload, params: &RunParams) -> Comparison {
        let [baseline, timecache] =
            RunKey::pair(workload, params).map(|key| self.get(&key).clone());
        Comparison {
            label: workload.label(),
            baseline,
            timecache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecache_workloads::mixes;

    #[test]
    fn spec_pair_produces_sane_metrics() {
        let w = Workload::spec(&mixes::same_benchmark_pairs()[0]); // 2Xspecrand: cheap
        let params = RunParams::quick();
        let cmp = RunTable::build(&RunKey::pair(w, &params), 1).compare(w, &params);
        assert_eq!(cmp.label, "2Xspecrand");
        assert!(cmp.baseline.cycles > 0);
        assert!(
            cmp.overhead() > 0.5 && cmp.overhead() < 2.0,
            "{}",
            cmp.overhead()
        );
        // Baseline never sees first-access misses.
        assert_eq!(cmp.baseline.stats.total_first_access(), 0);
        assert!(cmp.baseline.context_switches > 0);
    }

    #[test]
    fn parsec_two_cores_have_no_l1_first_access() {
        let params = RunParams::quick();
        let bench = ParsecBenchmark::Blackscholes;
        let tc = run_parsec_mode(bench, timecache_mode(&params), &params);
        // Threads never share a core: L1 first-access misses are zero
        // (Fig. 9b), LLC may have some.
        assert_eq!(tc.l1i_first_access_mpki(), 0.0);
        assert_eq!(tc.l1d_first_access_mpki(), 0.0);
        assert_eq!(tc.context_switches, 0);
    }

    #[test]
    fn build_keeps_each_distinct_key_once_with_direct_run_metrics() {
        let params = RunParams {
            warmup_instructions: 20_000,
            measure_instructions: 80_000,
            quantum_cycles: 50_000,
            ..RunParams::default()
        };
        let pair = mixes::all_pairs()[0];
        let [base, tc] = RunKey::pair(Workload::spec(&pair), &params);
        let bench = ParsecBenchmark::Blackscholes;
        let parsec = RunKey::new(Workload::Parsec(bench), timecache_mode(&params), &params);
        // A baseline ignores the timestamp width: this is `base` again.
        let narrow = RunParams {
            timestamp_bits: 20,
            ..params
        };
        let narrow_base = RunKey::new(Workload::spec(&pair), SecurityMode::Baseline, &narrow);

        let table = RunTable::build(&[base, tc, parsec, base, narrow_base, parsec, tc], 2);

        let keys: Vec<RunKey> = table.runs.iter().map(|(key, _)| *key).collect();
        assert_eq!(keys, [base, tc, parsec]);
        let direct = [
            run_spec_pair_mode(&pair, SecurityMode::Baseline, &params),
            run_spec_pair_mode(&pair, timecache_mode(&params), &params),
            run_parsec_mode(bench, timecache_mode(&params), &params),
        ];
        for ((key, metrics), direct) in table.runs.iter().zip(&direct) {
            assert_eq!(metrics, direct, "{key:?}");
        }
    }
}
