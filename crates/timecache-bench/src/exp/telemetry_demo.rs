//! `telemetry-demo`: an end-to-end tour of the observability spine.
//!
//! Runs a SPEC pair under TimeCache and the Section VI-A.1 flush+reload
//! microbenchmark with telemetry enabled, prints the headline counters and
//! the per-process phase breakdown, and writes the full artifact set
//! (Prometheus text + JSON metrics, JSONL event trace, phase profile, run
//! manifest) under `results/`.

use crate::output::print_table;
use crate::runner::{run_spec_pair_mode, timecache_mode as tc_mode, Comparison, RunParams};
use crate::telemetry;
use std::io;
use timecache_attacks::harness::{run_microbenchmark_with_telemetry, timecache_mode};
use timecache_sim::SecurityMode;
use timecache_telemetry::Phase;
use timecache_workloads::mixes;

/// Runs the demo and writes the `telemetry_demo_*` artifacts.
pub fn run(params: &RunParams) -> io::Result<()> {
    let tel = telemetry::enable();

    let spec = &mixes::same_benchmark_pairs()[0];
    eprintln!("  running {} with telemetry ...", spec.label());
    let cmp = Comparison {
        label: spec.label(),
        baseline: run_spec_pair_mode(spec, SecurityMode::Baseline, params),
        timecache: run_spec_pair_mode(spec, tc_mode(params), params),
    };
    eprintln!("  running flush+reload microbenchmark with telemetry ...");
    let micro = run_microbenchmark_with_telemetry(timecache_mode(), 3, &tel);

    let reg = tel.registry().expect("telemetry is enabled");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for cache in ["l1i", "l1d", "llc"] {
        for outcome in ["hit", "first_access", "miss"] {
            let v = reg
                .counter_value(
                    "sim_cache_accesses_total",
                    &[("cache", cache), ("outcome", outcome)],
                )
                .unwrap_or(0);
            rows.push(vec![
                format!("sim_cache_accesses_total{{cache={cache},outcome={outcome}}}"),
                v.to_string(),
            ]);
        }
    }
    for name in [
        "os_context_switches_total",
        "os_snapshot_saves_total",
        "sim_switch_restores_total",
        "sim_switch_transfer_lines_total",
        "sim_clflush_total",
    ] {
        rows.push(vec![
            name.to_string(),
            reg.counter_value(name, &[]).unwrap_or(0).to_string(),
        ]);
    }
    print_table(
        "telemetry-demo: headline counters (SPEC pair + flush+reload)",
        &["metric", "value"],
        &rows,
    );

    let prof = tel.profiler().expect("telemetry is enabled");
    let prows: Vec<Vec<String>> = (0..prof.num_processes() as u32)
        .map(|pid| {
            let pc = prof.process_cycles(pid);
            vec![
                format!("pid {pid}"),
                pc.get(Phase::Compute).to_string(),
                pc.get(Phase::MemoryStall).to_string(),
                pc.get(Phase::SwitchCost).to_string(),
                pc.total().to_string(),
            ]
        })
        .collect();
    print_table(
        "telemetry-demo: per-process phase cycles",
        &["process", "compute", "memory-stall", "switch-cost", "total"],
        &prows,
    );

    println!(
        "spec overhead {:.4}; microbenchmark {}/{} probe hits (TimeCache)",
        cmp.overhead(),
        micro.hits,
        micro.probes
    );

    telemetry::write_artifacts("telemetry_demo")?;
    telemetry::disable();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_writes_the_full_artifact_set() {
        let dir = crate::output::test_results_dir();
        run(&RunParams::quick()).unwrap();
        for suffix in [
            "metrics.prom",
            "metrics.json",
            "events.jsonl",
            "profile.json",
            "manifest.json",
        ] {
            let path = dir.join(format!("telemetry_demo_{suffix}"));
            let meta = std::fs::metadata(&path).expect("artifact exists");
            assert!(meta.len() > 0, "{path:?} is empty");
        }
        let prom = std::fs::read_to_string(dir.join("telemetry_demo_metrics.prom")).unwrap();
        assert!(prom.contains("sim_cache_accesses_total"));
        assert!(prom.contains("attack_probe_latency_cycles_bucket"));
    }
}
