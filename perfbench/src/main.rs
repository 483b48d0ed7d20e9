//! Host-cost benchmark of the TimeCache simulator.
//!
//! ```text
//! perfbench --workload <spec-resident|spec-thrash|parsec-telemetry|verify>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-digests
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no benchmark tracing;
//! `--trace 1` builds the per-layer ledger by timing calls into the
//! simulator crates' public functions. Both print a manifest line, then the
//! result as the last line of standard output. See `README.md` for the
//! workloads, the metrics and what each should move.

mod calib;
mod ledger;
mod sim;
mod util;
mod verify;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `2Xspecrand`, `2Xnamd`, `2Xgromacs` on one core: LLC-resident, so
    /// host time goes to the scheduler step, generation and L1 hits.
    SpecResident,
    /// `2Xmilc`, `cactus+leslie3d`, `2Xwrf` on one core: DRAM, fill and
    /// back-invalidation traffic plus shared-code first accesses.
    SpecThrash,
    /// `x264`, `fluidanimate` as two threads on two cores with telemetry
    /// on: the only workload with live sinks and coherence traffic.
    ParsecTelemetry,
    /// The differential oracle campaign, the leakage assessment and the
    /// fault matrix.
    Verify,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SpecResident,
        Workload::SpecThrash,
        Workload::ParsecTelemetry,
        Workload::Verify,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SpecResident => "spec-resident",
            Workload::SpecThrash => "spec-thrash",
            Workload::ParsecTelemetry => "parsec-telemetry",
            Workload::Verify => "verify",
        }
    }
}

/// Everything one invocation measured: op counts, failures, metrics and
/// the manifest entries describing how it ran.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    manifest: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, errors: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failed,
            errors,
            ..Outcome::default()
        }
    }

    /// Records a metric. Non-finite values (an empty ratio) read as 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a manifest entry; `json` must already be a JSON value.
    pub fn note(&mut self, key: &'static str, json: impl ToString) {
        self.manifest.push((key, json.to_string()));
    }

    /// Records the untimed host warm-up in the manifest.
    pub fn warm_up(&mut self, wall: Duration, chunks: usize) {
        self.note("warm_up_s", wall.as_secs_f64());
        self.note("warm_up_chunks", chunks);
    }

    /// Records the end-to-end metrics every workload reports from a
    /// finished meter and the simulated work its ops did (instructions, or
    /// trace events for `verify`).
    pub fn end_to_end(&mut self, meter: &mut calib::Meter, work: u64, tc_pct: f64) {
        // Read before the rescaled copies of the op times are allocated.
        let rss = util::peak_rss_mb();
        let (mut op_us, mut setup_s) = meter.finish();
        self.note("setup_samples", setup_s.len());
        self.note("ops_timed", op_us.len());
        self.note("raw_sim_mips", work as f64 / meter.raw_op_ns * 1e3);
        self.note("calibration_samples", meter.samples.len());
        self.note(
            "calibration_slowness_median",
            util::median(&mut meter.samples),
        );
        let cal = meter.calibrator();
        self.note(
            "calibration_cache_ns_median",
            util::median(&mut cal.cache_ns),
        );
        self.note(
            "calibration_alloc_ns_median",
            util::median(&mut cal.alloc_ns),
        );
        let mips = work as f64 / op_us.iter().sum::<f64>();
        self.metric("setup_s", util::median(&mut setup_s), "s");
        self.metric("sim_mips", mips, "M/s");
        self.metric("op_us_p50", util::median(&mut op_us), "us");
        let (p, pct) = util::tail(&mut op_us);
        self.note("op_us_tail_percentile", pct);
        self.metric("op_us_p99", p, "us");
        self.metric("peak_rss_mb", rss, "MB");
        self.metric("tc_overhead_pct", tc_pct, "%");
    }

    /// Puts the recorded per-layer metrics in report order, adding the
    /// `ops_failed_ratio`; a layer the workload does not run reads 0.
    pub fn per_layer(&mut self) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("ops_failed_ratio", ratio, "ratio");
        let mut measured: std::collections::BTreeMap<String, f64> =
            self.metrics.drain(..).map(|(n, v, _)| (n, v)).collect();
        for (name, unit) in per_layer() {
            let value = measured.remove(&name).unwrap_or(0.0);
            self.metrics.push((name, value, unit));
        }
        assert!(measured.is_empty(), "unlisted metrics: {measured:?}");
    }
}

/// Every per-layer metric, in report order, with its unit.
fn per_layer() -> Vec<(String, &'static str)> {
    let named = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut v = named(&[
        ("workloads.next_op_ns", "ns"),
        ("workloads.ops", "count"),
        ("os.run_ns_per_instr", "ns/instr"),
        ("os.sched_self_ns_per_instr", "ns/instr"),
        ("os.switches", "count"),
        ("os.instr_per_switch", "count"),
    ]);
    for mode in ["base", "tc"] {
        for class in ledger::CLASSES {
            v.push((format!("sim.{mode}.{class}.ns"), "ns"));
            v.push((format!("sim.{mode}.{class}.count"), "count"));
        }
    }
    v.extend(named(&[
        ("sim.clflush.ns", "ns"),
        ("sim.clflush.count", "count"),
        ("switch.save_us", "us"),
        ("switch.restore_us", "us"),
        ("sim.access_ns_per_instr", "ns/instr"),
        ("sim.batch_ns_per_access", "ns"),
        ("sim.loop_ns_per_access", "ns"),
        ("switch.ns_per_instr", "ns/instr"),
        ("telemetry.counters_ns_per_instr", "ns/instr"),
        ("telemetry.events_ns_per_instr", "ns/instr"),
        ("telemetry.events_dropped_ratio", "ratio"),
        ("oracle.generate_us", "us"),
        ("oracle.replay_us", "us"),
        ("oracle.traces", "count"),
        ("oracle.divergences", "count"),
        ("attacks.assess_ms", "ms"),
        ("fault.matrix_ms", "ms"),
        ("fault.timecache_violations", "count"),
        ("bench.tracing_overhead_ns_per_instr", "ns/instr"),
        ("ops_failed_ratio", "ratio"),
    ]));
    v
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-digests"] {
        print!("{}", sim::print_digests());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>\n       perfbench --print-digests",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };

    let timer_ns = util::timer_cost_ns();
    let mut outcome = match (args.workload, args.trace) {
        (Workload::Verify, false) => verify::measure(args.seed, args.seconds),
        (Workload::Verify, true) => verify::ledger(args.seed, timer_ns),
        (w, false) => sim::measure(w, args.seed, args.seconds),
        (w, true) => ledger::run(w, args.seed, timer_ns),
    };
    outcome.note("timer_cost_ns", timer_ns);
    if args.trace {
        outcome.per_layer();
    }

    for e in &outcome.errors {
        eprintln!("perfbench: failed: {e}");
    }
    let commit = util::git_commit().map_or("null".to_owned(), |c| json_str(&c));
    let source = util::tree_digest(std::path::Path::new("crates"))
        .map_or("null".to_owned(), |d| json_str(&format!("{d:016x}")));
    let mut manifest = format!(
        "{{\"manifest\":{{\"commit\":{commit},\"source_fnv\":{source},\"workload\":{},\
         \"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::host_cpus()
    );
    for (k, v) in &outcome.manifest {
        let _ = write!(manifest, ",{}:{v}", json_str(k));
    }
    manifest.push_str("}}");
    println!("{manifest}");

    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<String> = ["setup_s", "sim_mips", "op_us_p50", "op_us_p99"]
            .into_iter()
            .chain(["peak_rss_mb", "tc_overhead_pct"])
            .map(str::to_owned)
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .chain(Workload::ALL.map(|w| w.name().to_owned()))
            .collect();
        for name in &names {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        assert_eq!(json.matches("\"name\":").count(), names.len());
    }
}
