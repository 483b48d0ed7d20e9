//! The three simulation workloads: their seeded runs, the sliced
//! `System::run(max_cycles)` loop, the per-run correctness checks, and
//! the timed loop behind their end-to-end metrics.

use crate::calib::Meter;
use crate::util::{self, fnv1a, mix};
use crate::{Outcome, Workload};
use std::collections::BTreeMap;
use std::time::Instant;
use timecache_bench::runner::{self, ModeMetrics, RunParams};
use timecache_os::{Pid, Program, RunReport, System, SystemConfig};
use timecache_sim::{HierarchyConfig, SecurityMode};
use timecache_telemetry::Telemetry;
use timecache_workloads::parsec::ParsecBenchmark;
use timecache_workloads::{SpecBenchmark, SyntheticParams, SyntheticWorkload};

/// Simulated cycles one timed op advances the global clock by.
pub const SLICE_CYCLES: u64 = 50_000;

/// Digests of every run's simulated outputs at seed 0, generated from
/// `runner::run_spec_pair_mode` / `run_parsec_mode` (`--print-digests`).
const PINNED: &str = include_str!("../digests.txt");

/// The run length every simulation workload uses: the quick profile, whose
/// pinned digests the default seed must reproduce.
pub fn params() -> RunParams {
    RunParams::quick()
}

/// One simulated process: its generator knobs, where its private arena
/// and shared text sit, and the core it is pinned to.
#[derive(Debug, Clone)]
pub struct Proc {
    pub params: SyntheticParams,
    pub bench_id: usize,
    pub instance: usize,
    pub core: usize,
}

impl Proc {
    /// A fresh generator for this process.
    pub fn program(&self) -> SyntheticWorkload {
        SyntheticWorkload::new(self.params.clone(), self.bench_id, self.instance)
    }
}

/// One (workload pairing, security mode) simulation.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Table II row label, e.g. "2Xmilc".
    pub label: String,
    pub timecache: bool,
    pub cores: usize,
    pub procs: Vec<Proc>,
}

impl RunSpec {
    /// "base" or "tc".
    pub fn mode(&self) -> &'static str {
        if self.timecache {
            "tc"
        } else {
            "base"
        }
    }

    /// The system configuration `runner` builds for this run.
    pub fn config(&self, params: &RunParams, telemetry: &Telemetry) -> SystemConfig {
        let mut hierarchy =
            HierarchyConfig::with_cores(self.cores).with_llc_bytes(params.llc_bytes);
        hierarchy.security = if self.timecache {
            runner::timecache_mode(params)
        } else {
            SecurityMode::Baseline
        };
        SystemConfig {
            hierarchy,
            quantum_cycles: params.quantum_cycles,
            discard_snapshots: params.discard_snapshots,
            telemetry: telemetry.clone(),
            ..SystemConfig::default()
        }
    }
}

/// Seed 0 keeps a preset's own RNG seed, so the default seed reproduces
/// exactly what the experiment harness runs; any other seed re-keys every
/// process's generator while keeping the preset's cache behaviour.
fn seeded(mut p: SyntheticParams, seed: u64) -> SyntheticParams {
    if seed != 0 {
        p.seed ^= mix(seed);
    }
    p
}

fn spec_pair(a: SpecBenchmark, b: SpecBenchmark, seed: u64) -> (String, Vec<Proc>, usize) {
    let label = if a == b {
        format!("2X{}", a.name())
    } else {
        format!("{}+{}", a.name(), b.name())
    };
    // Two processes time-sliced on core 0, as instances 0 and 1
    // (`SpecBenchmark::workload`).
    let procs = [a, b]
        .into_iter()
        .enumerate()
        .map(|(instance, bench)| Proc {
            params: seeded(bench.params(), seed),
            bench_id: bench.bench_id(),
            instance,
            core: 0,
        })
        .collect();
    (label, procs, 1)
}

fn parsec(bench: ParsecBenchmark, seed: u64) -> (String, Vec<Proc>, usize) {
    // Two threads on two cores; instances 16 and 17 are the thread-local
    // arenas `ParsecBenchmark::thread_workload` uses.
    let procs = (0..2)
        .map(|thread| Proc {
            params: seeded(bench.params(), seed),
            bench_id: bench.bench_id(),
            instance: 16 + thread,
            core: thread,
        })
        .collect();
    (bench.name().to_owned(), procs, 2)
}

/// The runs one pass of a simulation workload performs, in order: every
/// pairing in baseline, then in TimeCache mode.
pub fn runs(workload: Workload, seed: u64) -> Vec<RunSpec> {
    use SpecBenchmark::*;
    let pairings = match workload {
        Workload::SpecResident => vec![
            spec_pair(Specrand, Specrand, seed),
            spec_pair(Namd, Namd, seed),
            spec_pair(Gromacs, Gromacs, seed),
        ],
        Workload::SpecThrash => vec![
            spec_pair(Milc, Milc, seed),
            spec_pair(Cactus, Leslie3d, seed),
            spec_pair(Wrf, Wrf, seed),
        ],
        Workload::ParsecTelemetry => vec![
            parsec(ParsecBenchmark::X264, seed),
            parsec(ParsecBenchmark::Fluidanimate, seed),
        ],
        Workload::Verify => unreachable!("verify is not a simulation workload"),
    };
    [false, true]
        .into_iter()
        .flat_map(|timecache| {
            pairings.iter().map(move |(label, procs, cores)| RunSpec {
                label: label.clone(),
                timecache,
                cores: *cores,
                procs: procs.clone(),
            })
        })
        .collect()
}

/// What one timed op did.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Instructions retired during the op.
    pub instructions: u64,
    /// The warm-up phase of the simulated run completed during the op (the
    /// run then reset statistics and extended the targets).
    pub warm_done: bool,
    /// The run finished during the op.
    pub done: bool,
}

/// Drives one run the way `runner` does — a simulated warm-up phase,
/// `reset_stats`, then the measured phase — but in fixed slices of
/// simulated time, each one `System::run(max_cycles)` call.
pub struct SlicedRun {
    sys: System,
    pids: Vec<Pid>,
    measure: u64,
    instructions: u64,
    warm: Option<(u64, u64)>,
    last: Option<RunReport>,
    /// Set when a check failed; the run's ops all count as failed.
    pub error: Option<String>,
}

impl SlicedRun {
    /// Builds the system and spawns `programs` (one per `spec.procs`, same
    /// order) capped at the warm-up length.
    pub fn new(
        spec: &RunSpec,
        params: &RunParams,
        telemetry: &Telemetry,
        programs: Vec<Box<dyn Program>>,
    ) -> SlicedRun {
        let mut sys = System::new(spec.config(params, telemetry)).expect("valid config");
        let pids = programs
            .into_iter()
            .zip(&spec.procs)
            .map(|(prog, p)| sys.spawn(prog, p.core, 0, Some(params.warmup_instructions)))
            .collect();
        SlicedRun {
            sys,
            pids,
            measure: params.measure_instructions,
            instructions: 0,
            warm: None,
            last: None,
            error: None,
        }
    }

    /// [`SlicedRun::new`] with the run's own generators.
    pub fn fresh(spec: &RunSpec, params: &RunParams, telemetry: &Telemetry) -> SlicedRun {
        let programs = spec
            .procs
            .iter()
            .map(|p| Box::new(p.program()) as Box<dyn Program>)
            .collect();
        SlicedRun::new(spec, params, telemetry, programs)
    }

    /// Runs one slice. Checks after every slice that a baseline run has
    /// seen no first-access miss.
    pub fn op(&mut self, baseline: bool) -> Slice {
        let cap = self.sys.total_cycles() + SLICE_CYCLES;
        let report = self.sys.run(cap);
        let retired = report.total_instructions - self.instructions;
        self.instructions = report.total_instructions;
        if baseline && report.stats.total_first_access() != 0 {
            self.error
                .get_or_insert_with(|| "baseline run saw a first-access miss".into());
        }
        let mut slice = Slice {
            instructions: retired,
            warm_done: false,
            done: false,
        };
        if report.all_completed() {
            if self.warm.is_none() {
                self.warm = Some((self.sys.total_cycles(), report.timecache_switch_cycles));
                self.sys.reset_stats();
                for &pid in &self.pids {
                    if let Err(e) = self.sys.try_extend_target(pid, self.measure) {
                        self.error.get_or_insert_with(|| e.to_string());
                    }
                }
                slice.warm_done = true;
            } else {
                slice.done = true;
            }
        } else if retired == 0 {
            // Nothing runnable yet not complete: a process stalled.
            self.error
                .get_or_insert_with(|| "a process did not complete".into());
            slice.done = true;
        }
        self.last = Some(report);
        slice
    }

    /// Runs every remaining slice.
    pub fn finish(&mut self, baseline: bool) {
        while !self.op(baseline).done {}
    }

    /// The measured-phase outputs, exactly as `runner` reports them.
    /// `None` before the run has finished.
    pub fn metrics(&self) -> Option<ModeMetrics> {
        let (warm_cycles, warm_tc) = self.warm?;
        let report = self.last.as_ref()?;
        Some(ModeMetrics {
            cycles: report.total_cycles - warm_cycles,
            instructions: self.pids.len() as u64 * self.measure,
            stats: report.stats.clone(),
            tc_switch_cycles: report.timecache_switch_cycles - warm_tc,
            context_switches: report.context_switches,
        })
    }

    /// The last slice's report.
    pub fn report(&self) -> Option<&RunReport> {
        self.last.as_ref()
    }
}

/// Digest of a run's simulated outputs: cycles, instructions, every
/// `CacheStats` field of every cache, TimeCache switch cycles and the
/// switch count.
pub fn digest(m: &ModeMetrics) -> u64 {
    let mut s = format!(
        "{} {} {} {}",
        m.cycles, m.instructions, m.tc_switch_cycles, m.context_switches
    );
    for c in m.stats.l1i.iter().chain(&m.stats.l1d).chain([&m.stats.llc]) {
        s.push_str(&format!(
            " {} {} {} {} {} {} {}",
            c.accesses,
            c.hits,
            c.misses,
            c.first_access,
            c.evictions,
            c.invalidations,
            c.writebacks
        ));
    }
    fnv1a(s.as_bytes())
}

/// `(label, mode) -> digest` from the pinned file.
pub fn pinned() -> BTreeMap<(String, String), u64> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (label, mode, hex) = (f.next()?, f.next()?, f.next()?);
            Some((
                (label.to_owned(), mode.to_owned()),
                u64::from_str_radix(hex, 16).ok()?,
            ))
        })
        .collect()
}

/// The digests file, computed from today's `runner` entry points.
pub fn print_digests() -> String {
    let params = params();
    let mut out = String::from(
        "# Simulated-output digests at seed 0 (label, mode, FNV-1a of cycles,\n\
         # instructions, HierarchyStats, TimeCache switch cycles, switches),\n\
         # computed from runner::run_spec_pair_mode / run_parsec_mode with\n\
         # RunParams::quick(). Regenerate with `perfbench --print-digests`.\n",
    );
    let pairs = timecache_workloads::mixes::all_pairs();
    for w in [
        Workload::SpecResident,
        Workload::SpecThrash,
        Workload::ParsecTelemetry,
    ] {
        for spec in runs(w, 0) {
            let security = if spec.timecache {
                runner::timecache_mode(&params)
            } else {
                SecurityMode::Baseline
            };
            let m = match w {
                Workload::ParsecTelemetry => {
                    let bench = ParsecBenchmark::ALL
                        .into_iter()
                        .find(|b| b.name() == spec.label)
                        .expect("parsec label");
                    runner::run_parsec_mode(bench, security, &params)
                }
                _ => {
                    let pair = pairs
                        .iter()
                        .find(|p| p.label() == spec.label)
                        .expect("Table II pair");
                    runner::run_spec_pair_mode(pair, security, &params)
                }
            };
            out.push_str(&format!(
                "{} {} {:016x}\n",
                spec.label,
                spec.mode(),
                digest(&m)
            ));
        }
    }
    out
}

/// Checks a finished run: every process completed, the digest matches the
/// pinned one at seed 0, and matches the first pass's at any seed.
pub fn check_run(
    d: &mut SlicedRun,
    spec: &RunSpec,
    seed: u64,
    reference: &mut BTreeMap<(String, String), u64>,
) {
    let key = (spec.label.clone(), spec.mode().to_owned());
    let Some(m) = d.metrics() else {
        d.error.get_or_insert_with(|| "run did not finish".into());
        return;
    };
    if !d.report().is_some_and(RunReport::all_completed) {
        d.error
            .get_or_insert_with(|| "a process is incomplete".into());
    }
    let got = digest(&m);
    if seed == 0 && pinned().get(&key) != Some(&got) {
        d.error.get_or_insert_with(|| {
            format!("{key:?}: digest {got:016x} differs from the pinned one")
        });
    }
    let want = *reference.entry(key.clone()).or_insert(got);
    if want != got {
        d.error
            .get_or_insert_with(|| format!("{key:?}: digest changed between passes"));
    }
}

/// Geomean of TimeCache / baseline cycles over a pass's pairings, in
/// percent (100 = no overhead).
pub fn tc_overhead_pct(metrics: &[(RunSpec, ModeMetrics)]) -> f64 {
    let base: BTreeMap<&str, u64> = metrics
        .iter()
        .filter(|(s, _)| !s.timecache)
        .map(|(s, m)| (s.label.as_str(), m.cycles))
        .collect();
    let logs: Vec<f64> = metrics
        .iter()
        .filter(|(s, _)| s.timecache)
        .filter_map(|(s, m)| Some((m.cycles as f64 / *base.get(s.label.as_str())? as f64).ln()))
        .collect();
    100.0 * (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// The telemetry a workload's end-to-end runs use: `parsec-telemetry`
/// enables it exactly as `experiments --telemetry` does (one enabled
/// handle, events on); the others run with it off.
pub fn telemetry_for(workload: Workload) -> Telemetry {
    match workload {
        Workload::ParsecTelemetry => Telemetry::enabled(),
        _ => Telemetry::disabled(),
    }
}

/// Host ns per simulated instruction of one whole run of `spec`, untimed
/// per op — the warm-up chunk.
pub fn run_ns_per_instr(spec: &RunSpec, params: &RunParams, telemetry: &Telemetry) -> f64 {
    let mut d = SlicedRun::fresh(spec, params, telemetry);
    let t = Instant::now();
    d.finish(!spec.timecache);
    let instructions = d.report().map_or(1, |r| r.total_instructions.max(1));
    t.elapsed().as_nanos() as f64 / instructions as f64
}

/// Set-up samples a run takes at least, repeating the construction of a
/// pass's systems after the timed passes when there were fewer passes.
pub const SETUP_SAMPLES: usize = 25;

/// The end-to-end measurement of a simulation workload: untimed warm-up,
/// then whole passes (every run of the workload, each constructed before
/// its pass's first timed op) until `seconds` have elapsed.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let specs = runs(workload, seed);
    let params = params();
    let (warm, warm_chunks) =
        util::warm_up(|| run_ns_per_instr(&specs[0], &params, &telemetry_for(workload)));

    let build = || -> Vec<SlicedRun> {
        let telemetry = telemetry_for(workload);
        specs
            .iter()
            .map(|s| SlicedRun::fresh(s, &params, &telemetry))
            .collect()
    };
    let mut meter = Meter::default();
    let mut reference = BTreeMap::new();
    let (mut instructions, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let mut errors = Vec::new();
    let mut first_pass = Vec::new();
    let (start, mut setups) = (Instant::now(), 0);
    while start.elapsed().as_secs_f64() < seconds {
        util::release_free_memory();
        let t = Instant::now();
        let mut sliced = build();
        meter.setup(t.elapsed());
        setups += 1;

        for (spec, d) in specs.iter().zip(sliced.iter_mut()) {
            let mut run_ops = 0;
            loop {
                let t = Instant::now();
                let s = d.op(!spec.timecache);
                meter.op(t.elapsed());
                instructions += s.instructions;
                run_ops += 1;
                if s.done {
                    break;
                }
            }
            check_run(d, spec, seed, &mut reference);
            attempted += run_ops;
            if let Some(e) = &d.error {
                failed += run_ops;
                errors.push(format!("{} [{}]: {e}", spec.label, spec.mode()));
            }
            if first_pass.len() < specs.len() {
                if let Some(m) = d.metrics() {
                    first_pass.push((spec.clone(), m));
                }
            }
        }
    }
    for _ in setups..SETUP_SAMPLES {
        util::release_free_memory();
        let t = Instant::now();
        let sliced = build();
        meter.setup(t.elapsed());
        drop(sliced);
    }

    let mut outcome = Outcome::new(attempted, failed, errors);
    outcome.warm_up(warm, warm_chunks);
    outcome.note("threads", 1);
    outcome.note(
        "telemetry_sinks",
        if telemetry_for(workload).is_enabled() {
            "[\"counters\",\"histograms\",\"profiler\",\"events\"]"
        } else {
            "[]"
        },
    );
    outcome.end_to_end(&mut meter, instructions, tc_overhead_pct(&first_pass));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sliced(spec: &RunSpec) -> ModeMetrics {
        let mut d = SlicedRun::fresh(spec, &params(), &Telemetry::disabled());
        d.finish(!spec.timecache);
        assert_eq!(d.error, None);
        d.metrics().expect("finished")
    }

    #[test]
    fn sliced_runs_match_runner_in_both_modes() {
        let pair = timecache_workloads::mixes::same_benchmark_pairs()[0];
        assert_eq!(pair.label(), "2Xspecrand");
        for spec in runs(Workload::SpecResident, 0)
            .into_iter()
            .filter(|s| s.label == "2Xspecrand")
        {
            let security = if spec.timecache {
                runner::timecache_mode(&params())
            } else {
                SecurityMode::Baseline
            };
            assert_eq!(
                sliced(&spec),
                runner::run_spec_pair_mode(&pair, security, &params()),
                "{}",
                spec.mode()
            );
        }
    }

    #[test]
    fn pinned_digests_are_todays_runner_outputs() {
        assert_eq!(print_digests(), PINNED);
    }

    #[test]
    fn seeds_rekey_the_generators_but_keep_the_pairings() {
        let a = runs(Workload::SpecThrash, 0);
        let b = runs(Workload::SpecThrash, 7);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.label, x.timecache), (&y.label, y.timecache));
            assert_ne!(x.procs[0].params.seed, y.procs[0].params.seed);
        }
    }
}
