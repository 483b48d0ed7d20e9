//! The `verify` workload: the differential oracle campaign starting at the
//! seed, the leakage assessment of every attack channel, and the fault
//! matrix — the code paths no simulation workload runs (the reference
//! model, `access_batch`, clflush-heavy attacks, fault-injected
//! save/restore, the invariant checker).

use crate::calib::Meter;
use crate::ledger::Acc;
use crate::util;
use crate::Outcome;
use std::collections::BTreeMap;
use std::time::Instant;
use timecache_bench::exp::fault_sweep::SCENARIOS;
use timecache_core::{FaultPlan, TimeCacheConfig};
use timecache_oracle::{assess, generate, replay, Channel, Event, TraceDoc};
use timecache_os::{programs::StridedLoop, System, SystemConfig};
use timecache_sim::{AccessKind, Addr, BatchClock, ContextSnapshot, Hierarchy, SecurityMode};

/// Traces generated per pass (one set-up sample).
const BLOCK: u64 = 2_048;
/// Welch's-t rounds per arm, as the quick `leakage-sweep` uses.
const ROUNDS: usize = 24;
/// Instructions per process in a fault-matrix cell, as the quick
/// `fault-sweep` uses.
const CELL_INSTRUCTIONS: u64 = 2_000;

/// First generator seed of the campaign: each benchmark seed owns a
/// disjoint range, and seed 0 is the `oracle_diff` default campaign.
fn campaign_start(seed: u64) -> u64 {
    seed << 32
}

fn block(start: u64) -> Vec<TraceDoc> {
    (0..BLOCK)
        .map(|i| generate(start.wrapping_add(i)))
        .collect()
}

/// The same trace with TimeCache (and its mitigations) off.
fn baseline_twin(doc: &TraceDoc) -> TraceDoc {
    let mut twin = doc.clone();
    twin.cfg.ts_bits = None;
    twin.cfg.constant_time_clflush = false;
    twin.cfg.dram_wait = false;
    twin
}

/// Blocks whose TimeCache traces `tc_overhead_pct` averages over.
const TC_BLOCKS: u64 = 4;

/// Geomean over the TimeCache traces of the campaign's first
/// [`TC_BLOCKS`] blocks of their final cycle over their baseline twin's, in
/// percent. Every twin is itself a differential replay. Returns the
/// percentage, the twins replayed, and one error per divergence.
fn tc_overhead(start: u64) -> (f64, u64, Vec<String>) {
    let (mut logs, mut twins, mut errors) = (0.0, 0u64, Vec::new());
    for p in 0..TC_BLOCKS {
        for doc in block(start.wrapping_add(p * BLOCK)) {
            if doc.cfg.ts_bits.is_none() {
                continue;
            }
            twins += 1;
            match (replay(&doc, None), replay(&baseline_twin(&doc), None)) {
                (Ok(tc), Ok(base)) => {
                    logs += (tc.final_cycle as f64 / base.final_cycle as f64).ln();
                }
                (_, Err(d)) | (Err(d), _) => errors.push(format!("baseline twin diverged: {d}")),
            }
        }
    }
    let ok = twins - errors.len() as u64;
    (100.0 * (logs / ok.max(1) as f64).exp(), twins, errors)
}

/// One fault-matrix cell, built exactly as `fault-sweep` builds it: two
/// processes over one buffer on one core, the invariant checker on, the
/// scenario's fault plan at rate 0.5. Returns (TimeCache?, violations,
/// all processes completed).
fn fault_cell(index: usize) -> (bool, u64, bool) {
    let (_, fault) = SCENARIOS[index / 2];
    let timecache = index % 2 == 1;
    let mut hierarchy = timecache_sim::HierarchyConfig::with_cores(1);
    hierarchy.security = if timecache {
        SecurityMode::TimeCache(TimeCacheConfig::new(14))
    } else {
        SecurityMode::Baseline
    };
    let cfg = SystemConfig {
        hierarchy,
        quantum_cycles: 6_000,
        check_invariants: true,
        fault_plan: fault.map(|(kind, trigger)| {
            FaultPlan::new(kind, trigger, 0xFA17 + index as u64).with_rate(0.5)
        }),
        ..SystemConfig::default()
    };
    let mut sys = System::new(cfg).expect("fault-matrix config is valid");
    for _ in 0..2 {
        sys.spawn(
            Box::new(StridedLoop::new(0x10_0000, 32 * 1024, 64)),
            0,
            0,
            Some(CELL_INSTRUCTIONS),
        );
    }
    let report = sys.run(u64::MAX);
    (
        timecache,
        sys.invariant_violations(),
        report.all_completed(),
    )
}

/// Runs the leakage assessment and the fault matrix; returns the ops
/// attempted (channels + cells), failures, assess ms, matrix ms and
/// TimeCache violations.
fn security_checks(errors: &mut Vec<String>) -> (u64, u64, f64, f64, u64) {
    let mut failed = 0;
    let t = Instant::now();
    for channel in Channel::ALL {
        let a = assess(channel, ROUNDS);
        if !a.pass() {
            failed += 1;
            errors.push(format!(
                "{}: leakage verdict is not eliminated",
                channel.name()
            ));
        }
    }
    let assess_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut violations = 0;
    let cells = SCENARIOS.len() * 2;
    for index in 0..cells {
        let (timecache, v, completed) = fault_cell(index);
        if timecache {
            violations += v;
        }
        if !completed || (timecache && v != 0) {
            failed += 1;
            errors.push(format!(
                "fault cell {index}: {v} violations, completed {completed}"
            ));
        }
    }
    let matrix_ms = t.elapsed().as_secs_f64() * 1e3;
    (
        (Channel::ALL.len() + cells) as u64,
        failed,
        assess_ms,
        matrix_ms,
        violations,
    )
}

/// Host ns per replayed event over the first 512 traces at `start` — the
/// warm-up chunk.
fn replay_ns_per_event(docs: &[TraceDoc]) -> f64 {
    let t = Instant::now();
    let events: usize = docs
        .iter()
        .map(|d| replay(d, None).map_or(0, |s| s.events))
        .sum();
    t.elapsed().as_nanos() as f64 / events.max(1) as f64
}

/// The end-to-end measurement: one op is one differential trace replay;
/// each pass generates its block of traces before its first timed op.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let start = campaign_start(seed);
    let warm_docs: Vec<TraceDoc> = block(start).into_iter().take(512).collect();
    let (warm, chunks) = util::warm_up(|| replay_ns_per_event(&warm_docs));

    let mut meter = Meter::default();
    let mut errors = Vec::new();
    let (mut events, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let clock = Instant::now();
    let mut pass = 0;
    while clock.elapsed().as_secs_f64() < seconds {
        util::release_free_memory();
        let t = Instant::now();
        let docs = block(start.wrapping_add(pass * BLOCK));
        meter.setup(t.elapsed());
        for doc in &docs {
            let t = Instant::now();
            let r = replay(doc, None);
            meter.op(t.elapsed());
            events += doc.events.len() as u64;
            attempted += 1;
            if let Err(d) = r {
                failed += 1;
                errors.push(format!("divergence: {d}"));
            }
        }
        pass += 1;
    }
    for p in pass..crate::sim::SETUP_SAMPLES as u64 {
        util::release_free_memory();
        let t = Instant::now();
        let docs = block(start.wrapping_add(p * BLOCK));
        meter.setup(t.elapsed());
        drop(docs);
    }
    let (tc_pct, twins, diverged) = tc_overhead(start);
    failed += diverged.len() as u64;
    errors.extend(diverged);
    let (ops, bad, _, _, _) = security_checks(&mut errors);

    let mut out = Outcome::new(attempted + twins + ops, failed + bad, errors);
    out.warm_up(warm, chunks);
    out.note("threads", 1);
    out.note("telemetry_sinks", "[]");
    out.end_to_end(&mut meter, events, tc_pct);
    out
}

/// How a trace's access runs are pushed into the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Each access timed and classed on its own ([`Acc::access`]).
    Classed,
    /// One `access` call per access, the run timed as a whole.
    Loop,
    /// One `access_batch` call per run.
    Batch,
}

/// Replays `doc` into a fresh `Hierarchy` the way the differential oracle's
/// replay drives its simulator side (same clock, same switch/fork rules), without
/// the reference model. Returns host ns spent in the access runs (for the
/// loop and batch paths), the accesses replayed, and the final statistics.
fn drive(doc: &TraceDoc, path: Path, acc: &mut Acc) -> (f64, u64, timecache_sim::HierarchyStats) {
    let mut h = Hierarchy::new(doc.cfg.hierarchy()).expect("trace configs are valid");
    let (cores, smt) = (doc.cfg.cores, doc.cfg.smt);
    let mut current: Vec<u32> = (0..(cores * smt) as u32).collect();
    let mut snaps: BTreeMap<u32, ContextSnapshot> = BTreeMap::new();
    let mut now = 1u64;
    let (mut run_ns, mut accesses) = (0.0, 0u64);
    let mut batch: Vec<(AccessKind, Addr)> = Vec::new();
    let mut step = 0;
    while step < doc.events.len() {
        match doc.events[step] {
            Event::Access { core, thread, .. } => {
                let (core, thread) = (core % cores, thread % smt);
                batch.clear();
                while let Some(&Event::Access {
                    core: c,
                    thread: t,
                    kind,
                    addr,
                }) = doc.events.get(step)
                {
                    if (c % cores, t % smt) != (core, thread) {
                        break;
                    }
                    batch.push((kind, addr));
                    step += 1;
                }
                accesses += batch.len() as u64;
                match path {
                    Path::Classed => {
                        for &(kind, addr) in &batch {
                            now += acc.access(&mut h, core, thread, kind, addr, now).latency + 1;
                        }
                    }
                    Path::Loop => {
                        let t = Instant::now();
                        for &(kind, addr) in &batch {
                            now += h.access(core, thread, kind, addr, now).latency + 1;
                        }
                        run_ns += t.elapsed().as_nanos() as f64 - acc.timer_ns;
                    }
                    Path::Batch => {
                        let t = Instant::now();
                        let (_, end) =
                            h.access_batch(core, thread, &batch, now, BatchClock::LatencyPlus(1));
                        run_ns += t.elapsed().as_nanos() as f64 - acc.timer_ns;
                        now = end;
                    }
                }
                continue;
            }
            Event::Flush { addr } => now += acc.clflush(&mut h, addr) + 1,
            Event::Switch { core, thread, pid } => {
                let (core, thread) = (core % cores, thread % smt);
                let ctx = core * smt + thread;
                if current[ctx] != pid {
                    let old = current[ctx];
                    snaps.insert(old, acc.save(&h, core, thread, now));
                    let cost = acc.restore(&mut h, core, thread, snaps.get(&pid), now);
                    current[ctx] = pid;
                    now += cost.comparator_cycles + cost.transfer_lines + 1;
                }
            }
            Event::Fork {
                core,
                thread,
                child,
            } => {
                let (core, thread) = (core % cores, thread % smt);
                snaps.insert(child, acc.save(&h, core, thread, now));
                now += 1;
            }
        }
        step += 1;
    }
    (run_ns, accesses, h.stats())
}

/// The campaign rows every traced run reports: `oracle.*`, the
/// `access_batch` versus per-access loop pair, `attacks.assess_ms` and
/// `fault.*`, measured on the first block of the campaign at `seed`. Their
/// checks count as ops of `out`. Returns the block and each trace's final
/// statistics on the loop path.
pub fn campaign_layers(
    seed: u64,
    timer_ns: f64,
    meter: &mut Meter,
    out: &mut Outcome,
) -> (Vec<TraceDoc>, Vec<timecache_sim::HierarchyStats>) {
    let start = campaign_start(seed);
    let errors = &mut out.errors;
    let ((docs, gen_ns, replay_ns, divergences), _, scale) = meter.scaled(|| {
        let (mut gen_ns, mut replay_ns, mut divergences) = (0.0, 0.0, 0u64);
        let mut docs = Vec::with_capacity(BLOCK as usize);
        for i in 0..BLOCK {
            let t = Instant::now();
            let doc = generate(start.wrapping_add(i));
            gen_ns += t.elapsed().as_nanos() as f64 - timer_ns;
            let t = Instant::now();
            let r = replay(&doc, None);
            replay_ns += t.elapsed().as_nanos() as f64 - timer_ns;
            if let Err(d) = r {
                divergences += 1;
                errors.push(format!("divergence: {d}"));
            }
            docs.push(doc);
        }
        (docs, gen_ns, replay_ns, divergences)
    });
    let (gen_ns, replay_ns) = (gen_ns * scale, replay_ns * scale);

    // The same traces through the per-access loop and `access_batch`, each
    // timed per access run.
    let mut untimed = Acc::new(timer_ns);
    let mut path = |path: Path| {
        let ((ns, accesses, stats), _, scale) = meter.scaled(|| {
            let (mut ns, mut accesses) = (0.0, 0);
            let stats: Vec<_> = docs
                .iter()
                .map(|doc| {
                    let (t, n, s) = drive(doc, path, &mut untimed);
                    ns += t;
                    accesses += n;
                    s
                })
                .collect();
            (ns, accesses, stats)
        });
        (ns * scale / accesses as f64, stats)
    };
    let (loop_ns, looped) = path(Path::Loop);
    let (batch_ns, batched) = path(Path::Batch);
    let ((ops, bad, assess_ms, matrix_ms, violations), _, scale) =
        meter.scaled(|| security_checks(&mut out.errors));

    out.attempted += BLOCK + 1 + ops;
    out.failed += divergences + bad;
    if looped != batched {
        out.failed += 1;
        out.errors
            .push("access_batch and the per-access loop disagree".into());
    }
    out.metric("sim.batch_ns_per_access", batch_ns, "ns");
    out.metric("sim.loop_ns_per_access", loop_ns, "ns");
    out.metric("oracle.generate_us", gen_ns / BLOCK as f64 / 1e3, "us");
    out.metric("oracle.replay_us", replay_ns / BLOCK as f64 / 1e3, "us");
    out.metric("oracle.traces", BLOCK as f64, "count");
    out.metric("oracle.divergences", divergences as f64, "count");
    out.metric("attacks.assess_ms", assess_ms * scale, "ms");
    out.metric("fault.matrix_ms", matrix_ms * scale, "ms");
    out.metric("fault.timecache_violations", violations as f64, "count");
    (docs, looped)
}

/// The traced run of `verify`: the campaign rows, plus every access of the
/// block's traces timed and classed on its own.
pub fn ledger(seed: u64, timer_ns: f64) -> Outcome {
    let warm_docs: Vec<TraceDoc> = block(campaign_start(seed)).into_iter().take(512).collect();
    let (warm, chunks) = util::warm_up(|| replay_ns_per_event(&warm_docs));

    let mut meter = Meter::default();
    let mut out = Outcome::default();
    let (docs, looped) = campaign_layers(seed, timer_ns, &mut meter, &mut out);

    let mut classed = Acc::new(timer_ns);
    let (classed_stats, _, scale) = meter.scaled(|| {
        docs.iter()
            .map(|doc| drive(doc, Path::Classed, &mut classed).2)
            .collect::<Vec<_>>()
    });
    let mut acc = Acc::new(timer_ns);
    acc.absorb(&classed, scale);
    out.attempted += 1;
    if classed_stats != looped {
        out.failed += 1;
        out.errors
            .push("the classed replay disagrees with the per-access loop".into());
    }

    out.warm_up(warm, chunks);
    out.note("threads", 1);
    out.note("telemetry_sinks", "[]");
    acc.report(&mut out);
    // A trace event stands in for an instruction, as in `sim_mips`.
    let events: usize = docs.iter().map(|d| d.events.len()).sum();
    let per_event = |ns: f64| ns / events as f64;
    out.metric(
        "sim.access_ns_per_instr",
        per_event(acc.access_ns()),
        "ns/instr",
    );
    out.metric(
        "switch.ns_per_instr",
        per_event(acc.save.0 + acc.restore.0),
        "ns/instr",
    );
    out
}
