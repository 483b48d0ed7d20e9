//! Performance tracking for the harness itself: end-to-end SPEC-sweep
//! wall-clock at `--jobs 1` vs a parallel worker count (with a
//! byte-identity check on the derived CSV), a host-independent
//! engine-overlap probe, plus per-access simulator timings — written to
//! `BENCH_sweep.json` so the perf trajectory is tracked from run to run.
//!
//! # Reading the sweep numbers honestly
//!
//! The simulation jobs are CPU-bound, so the `sweep.speedup` ceiling is
//! `sweep.host_cpus`: on a single-CPU host the parallel arm *cannot* beat
//! serial no matter how many workers run (and pays a little scheduling
//! overhead). The recorded `jobs_parallel` is the worker count actually
//! handed to the engine — never assumed. The `engine_overlap` section
//! isolates the engine itself from the host's core count by sweeping jobs
//! that *wait* instead of compute (sleeps overlap even on one CPU): its
//! speedup shows what the worker pool delivers the moment jobs stop being
//! CPU-bound or more CPUs appear.

use crate::exp::spec_sweep;
use crate::microbench::Bencher;
use crate::output::write_artifact;
use crate::runner::{Comparison, RunParams};
use crate::sweep;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;
use timecache_core::TimeCacheConfig;
use timecache_sim::{AccessKind, BatchClock, Hierarchy, HierarchyConfig, SecurityMode};
use timecache_telemetry::encode;

/// Worker count for the parallel arm when the host (or a `--jobs 1`
/// override) offers no parallelism: still exercise the engine with a real
/// multi-worker pool and let `host_cpus` tell the reader what the speedup
/// ceiling was.
const FALLBACK_PARALLEL_JOBS: usize = 4;

/// Jobs and workers for the engine-overlap probe.
const OVERLAP_JOBS: usize = 8;
const OVERLAP_WORKERS: usize = 4;
const OVERLAP_SLEEP_MS: u64 = 25;

/// Renders a sweep as the CSV the figures derive from; used to verify the
/// parallel engine is byte-identical to serial execution.
fn sweep_csv(sweep: &[Comparison]) -> String {
    let header = ["pair", "baseline-cycles", "timecache-cycles", "overhead"];
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|cmp| {
            vec![
                cmp.label.clone(),
                cmp.baseline.cycles.to_string(),
                cmp.timecache.cycles.to_string(),
                format!("{:.6}", cmp.overhead()),
            ]
        })
        .collect();
    encode::csv_table(&header, &rows)
}

fn hierarchy(security: SecurityMode) -> Hierarchy {
    let mut cfg = HierarchyConfig::with_cores(1);
    cfg.security = security;
    Hierarchy::new(cfg).expect("valid")
}

/// Median ns/iter for an L1-hit access loop and a DRAM-miss stream under
/// one security mode.
fn per_access_ns(b: &mut Bencher, name: &str, security: SecurityMode) -> (f64, f64) {
    let hit = {
        let mut h = hierarchy(security);
        for i in 0..256u64 {
            h.access(0, 0, AccessKind::Load, i * 64, i);
        }
        let mut now = 1_000u64;
        let mut i = 0u64;
        b.bench(&format!("sweep/l1-hit/{name}"), || {
            now += 1;
            i = (i + 1) % 256;
            black_box(h.access(0, 0, AccessKind::Load, i * 64, now))
        })
        .median_ns
    };
    let miss = {
        let mut h = hierarchy(security);
        let mut now = 0u64;
        let mut addr = 0u64;
        b.bench(&format!("sweep/dram-miss/{name}"), || {
            now += 1;
            addr = (addr + 64) % (64 << 20);
            black_box(h.access(0, 0, AccessKind::Load, 0x4000_0000 + addr, now))
        })
        .median_ns
    };
    (hit, miss)
}

/// Median ns per access for the same DRAM-miss stream submitted through
/// [`Hierarchy::access_batch`] in 256-access batches.
fn per_access_ns_batched(b: &mut Bencher, name: &str, security: SecurityMode) -> f64 {
    const BATCH: usize = 256;
    let mut h = hierarchy(security);
    let mut now = 0u64;
    let mut addr = 0u64;
    let mut reqs: Vec<(AccessKind, u64)> = Vec::with_capacity(BATCH);
    b.bench(&format!("sweep/dram-miss-batched/{name}"), || {
        reqs.clear();
        for _ in 0..BATCH {
            addr = (addr + 64) % (64 << 20);
            reqs.push((AccessKind::Load, 0x4000_0000 + addr));
        }
        now += BATCH as u64;
        black_box(h.access_batch(0, 0, &reqs, now, BatchClock::Stride(1)).1)
    })
    .median_ns
        / BATCH as f64
}

/// Wall-clock of `OVERLAP_JOBS` sleep-bound jobs under `workers` workers.
/// Sleeping jobs overlap regardless of the host's CPU count, so this times
/// the engine's dispatch/join machinery, not the host.
fn overlap_ms(workers: usize) -> f64 {
    let t0 = Instant::now();
    let done = sweep::run_with_jobs(OVERLAP_JOBS, workers, |i| {
        std::thread::sleep(std::time::Duration::from_millis(OVERLAP_SLEEP_MS));
        i
    });
    assert_eq!(done, (0..OVERLAP_JOBS).collect::<Vec<_>>());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times the full SPEC sweep serially and in parallel, checks the outputs
/// match byte-for-byte, probes engine overlap with wait-bound jobs,
/// measures per-access cost (looped and batched), and writes
/// `BENCH_sweep.json`.
pub fn run(params: &RunParams) -> io::Result<()> {
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // The worker count the parallel arm will *actually* run with. A host
    // (or --jobs override) without parallelism still gets a real pool so
    // the engine path is exercised; host_cpus is recorded alongside so the
    // speedup reads as what it is.
    let prior_jobs = sweep::jobs();
    let parallel_jobs = match prior_jobs {
        0 | 1 => FALLBACK_PARALLEL_JOBS,
        n => n,
    };

    eprintln!("timing serial sweep (--jobs 1)...");
    sweep::set_jobs(1);
    let t0 = Instant::now();
    let serial = spec_sweep(params);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    eprintln!("timing parallel sweep (--jobs {parallel_jobs}, {host_cpus} host cpus)...");
    sweep::set_jobs(parallel_jobs);
    let t0 = Instant::now();
    let parallel = spec_sweep(params);
    let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;

    let serial_csv = sweep_csv(&serial);
    let parallel_csv = sweep_csv(&parallel);
    let identical = serial_csv == parallel_csv;
    assert!(
        identical,
        "parallel sweep output must be byte-identical to serial"
    );

    sweep::set_jobs(prior_jobs);

    let speedup = serial_ms / parallel_ms.max(1e-9);
    println!(
        "sweep wall-clock: serial {serial_ms:.0} ms, {parallel_jobs} jobs {parallel_ms:.0} ms \
         ({speedup:.2}x on {host_cpus} host cpus), csv identical: {identical}"
    );

    let overlap_serial_ms = overlap_ms(1);
    let overlap_parallel_ms = overlap_ms(OVERLAP_WORKERS);
    let overlap_speedup = overlap_serial_ms / overlap_parallel_ms.max(1e-9);
    println!(
        "engine overlap ({OVERLAP_JOBS} wait-bound jobs): serial {overlap_serial_ms:.0} ms, \
         {OVERLAP_WORKERS} workers {overlap_parallel_ms:.0} ms ({overlap_speedup:.2}x)"
    );

    let mut b = Bencher::new();
    let (base_hit, base_miss) = per_access_ns(&mut b, "baseline", SecurityMode::Baseline);
    let (tc_hit, tc_miss) = per_access_ns(
        &mut b,
        "timecache",
        SecurityMode::TimeCache(TimeCacheConfig::default()),
    );
    let tc_miss_batched = per_access_ns_batched(
        &mut b,
        "timecache",
        SecurityMode::TimeCache(TimeCacheConfig::default()),
    );

    let mut json = String::from("{");
    encode::json_string(&mut json, "sweep");
    json.push_str(&format!(
        ":{{\"pairs\":{},\"runs\":{},\"host_cpus\":{host_cpus},\
         \"jobs_parallel\":{parallel_jobs},\
         \"serial_ms\":{serial_ms:.1},\"parallel_ms\":{parallel_ms:.1},\
         \"speedup\":{speedup:.3},\"csv_identical\":{identical}}},",
        serial.len(),
        serial.len() * 2,
    ));
    encode::json_string(&mut json, "engine_overlap");
    json.push_str(&format!(
        ":{{\"jobs\":{OVERLAP_JOBS},\"workers\":{OVERLAP_WORKERS},\
         \"serial_ms\":{overlap_serial_ms:.1},\"parallel_ms\":{overlap_parallel_ms:.1},\
         \"speedup\":{overlap_speedup:.3}}},"
    ));
    encode::json_string(&mut json, "per_access_ns");
    json.push_str(&format!(
        ":{{\"l1_hit_baseline\":{base_hit:.2},\"l1_hit_timecache\":{tc_hit:.2},\
         \"dram_miss_baseline\":{base_miss:.2},\"dram_miss_timecache\":{tc_miss:.2},\
         \"dram_miss_timecache_batched\":{tc_miss_batched:.2}}}}}"
    ));

    write_artifact(Path::new("BENCH_sweep.json"), &json)?;
    Ok(())
}
