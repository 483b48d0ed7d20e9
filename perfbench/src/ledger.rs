//! The per-layer ledger (`--trace 1`) of the simulation workloads.
//!
//! Everything here times calls into public functions of the simulator
//! crates from the outside; nothing inside them is instrumented:
//!
//! * `os`: `System::run` per simulated instruction, telemetry off;
//! * `workloads`: the same seeded programs driven standalone;
//! * `sim` and `switch`: every process is wrapped in a [`Logged`] program
//!   that records its ops and observations in global execution order; the
//!   log is replayed into a fresh `Hierarchy` ([`Shadow`]) through
//!   `access`, `clflush`, `save_context` and `restore_context`, each call
//!   timed and classed by its `AccessOutcome` and `CacheStats` deltas. The
//!   ledger is valid only if the replay ends with the `System`'s
//!   `HierarchyStats`, clocks and switch count;
//! * `telemetry`: the same run with counters and profiler on, then with
//!   events on too.
//!
//! Each run of the workload goes through all of these back to back, so the
//! differences between them see the same host state.

use crate::calib::Meter;
use crate::sim::{self, RunSpec, SlicedRun};
use crate::util;
use crate::{Outcome, Workload};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use timecache_bench::runner::RunParams;
use timecache_os::{DataKind, Observation, Op, Program, SwitchCostModel};
use timecache_sim::{
    AccessKind, AccessOutcome, Addr, ContextSnapshot, Hierarchy, HierarchyStats, Level,
};
use timecache_telemetry::Telemetry;

/// Access classes, in metric order.
pub const CLASSES: [&str; 7] = [
    "l1_hit",
    "l1_first",
    "llc_hit",
    "llc_first",
    "remote_l1",
    "dram",
    "dram_backinval",
];

/// Host-time accumulators for individually timed hierarchy calls, per
/// security mode (0 = baseline, 1 = TimeCache) and class.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    pub timer_ns: f64,
    pub ns: [[f64; 7]; 2],
    pub count: [[u64; 7]; 2],
    pub clflush: (f64, u64),
    pub save: (f64, u64),
    pub restore: (f64, u64),
}

fn l1_invalidations(h: &Hierarchy) -> u64 {
    (0..h.config().cores)
        .map(|c| h.l1i(c).stats().invalidations + h.l1d(c).stats().invalidations)
        .sum()
}

/// The class of one access. `backinval` says the L1s lost lines during it,
/// which on a true LLC miss can only be inclusive back-invalidation.
pub fn class(out: &AccessOutcome, backinval: bool) -> usize {
    if out.first_access_l1 {
        1
    } else if out.l1_tag_hit {
        0
    } else if out.served_by == Level::RemoteL1 {
        4
    } else if out.first_access_llc {
        3
    } else if out.served_by == Level::LLC {
        2
    } else if backinval {
        6
    } else {
        5
    }
}

impl Acc {
    pub fn new(timer_ns: f64) -> Acc {
        Acc {
            timer_ns,
            ..Acc::default()
        }
    }

    fn elapsed(&self, t: Instant) -> f64 {
        t.elapsed().as_nanos() as f64 - self.timer_ns
    }

    /// `Hierarchy::access`, timed and classed.
    pub fn access(
        &mut self,
        h: &mut Hierarchy,
        core: usize,
        thread: usize,
        kind: AccessKind,
        addr: Addr,
        now: u64,
    ) -> AccessOutcome {
        let mode = usize::from(h.config().security.is_timecache());
        let inv = l1_invalidations(h);
        let t = Instant::now();
        let out = h.access(core, thread, kind, addr, now);
        let ns = self.elapsed(t);
        let c = class(&out, l1_invalidations(h) != inv);
        self.ns[mode][c] += ns;
        self.count[mode][c] += 1;
        out
    }

    /// `Hierarchy::clflush`, timed.
    pub fn clflush(&mut self, h: &mut Hierarchy, addr: Addr) -> u64 {
        let t = Instant::now();
        let lat = h.clflush(addr);
        self.clflush.0 += self.elapsed(t);
        self.clflush.1 += 1;
        lat
    }

    /// `Hierarchy::save_context`, timed.
    pub fn save(&mut self, h: &Hierarchy, core: usize, thread: usize, now: u64) -> ContextSnapshot {
        let t = Instant::now();
        let snap = h.save_context(core, thread, now);
        self.save.0 += self.elapsed(t);
        self.save.1 += 1;
        snap
    }

    /// `Hierarchy::restore_context`, timed.
    pub fn restore(
        &mut self,
        h: &mut Hierarchy,
        core: usize,
        thread: usize,
        snap: Option<&ContextSnapshot>,
        now: u64,
    ) -> timecache_sim::SwitchCost {
        let t = Instant::now();
        let cost = h.restore_context(core, thread, snap, now);
        self.restore.0 += self.elapsed(t);
        self.restore.1 += 1;
        cost
    }

    /// Adds `other`'s timings rescaled by `scale`, and its counts.
    pub fn absorb(&mut self, other: &Acc, scale: f64) {
        for m in 0..2 {
            for c in 0..CLASSES.len() {
                self.ns[m][c] += other.ns[m][c] * scale;
                self.count[m][c] += other.count[m][c];
            }
        }
        for (mine, theirs) in [
            (&mut self.clflush, other.clflush),
            (&mut self.save, other.save),
            (&mut self.restore, other.restore),
        ] {
            mine.0 += theirs.0 * scale;
            mine.1 += theirs.1;
        }
    }

    /// Total host ns in timed access and clflush calls.
    pub fn access_ns(&self) -> f64 {
        self.ns.iter().flatten().sum::<f64>() + self.clflush.0
    }

    /// Reports `sim.<base|tc>.<class>.{ns,count}`, `sim.clflush.*` and
    /// `switch.save_us` / `switch.restore_us`.
    pub fn report(&self, out: &mut Outcome) {
        for (m, mode) in ["base", "tc"].into_iter().enumerate() {
            for (c, name) in CLASSES.into_iter().enumerate() {
                let n = self.count[m][c];
                out.metric(
                    format!("sim.{mode}.{name}.ns"),
                    (self.ns[m][c] / n as f64).max(0.0),
                    "ns",
                );
                out.metric(format!("sim.{mode}.{name}.count"), n as f64, "count");
            }
        }
        out.metric(
            "sim.clflush.ns",
            (self.clflush.0 / self.clflush.1 as f64).max(0.0),
            "ns",
        );
        out.metric("sim.clflush.count", self.clflush.1 as f64, "count");
        out.metric(
            "switch.save_us",
            (self.save.0 / self.save.1 as f64 / 1e3).max(0.0),
            "us",
        );
        out.metric(
            "switch.restore_us",
            (self.restore.0 / self.restore.1 as f64 / 1e3).max(0.0),
            "us",
        );
    }
}

/// One retired instruction as the log keeps it.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    pc: Addr,
    /// Data address, or the flushed address.
    addr: Addr,
    /// Context clock after the instruction (`Observation::now`).
    now: u64,
    proc: u16,
    kind: u8,
}

const NO_DATA: u8 = 0;
const LOAD: u8 = 1;
const STORE: u8 = 2;
const FLUSH: u8 = 3;
const YIELD: u8 = 4;

/// A program wrapper that logs every retired instruction.
pub struct Logged {
    inner: Box<dyn Program>,
    proc: u16,
    pending: Op,
    log: Rc<RefCell<Vec<Entry>>>,
}

impl Logged {
    pub fn new(inner: Box<dyn Program>, proc: u16, log: Rc<RefCell<Vec<Entry>>>) -> Logged {
        Logged {
            inner,
            proc,
            pending: Op::Done,
            log,
        }
    }
}

impl Program for Logged {
    fn next_op(&mut self) -> Op {
        self.pending = self.inner.next_op();
        self.pending
    }

    fn observe(&mut self, obs: Observation) {
        self.inner.observe(obs);
        let (pc, addr, kind) = match self.pending {
            Op::Instr { pc, data: None } => (pc, 0, NO_DATA),
            Op::Instr {
                pc,
                data: Some((DataKind::Load, a)),
            } => (pc, a, LOAD),
            Op::Instr {
                pc,
                data: Some((DataKind::Store, a)),
            } => (pc, a, STORE),
            Op::Flush { pc, target } => (pc, target, FLUSH),
            Op::Yield { pc } => (pc, 0, YIELD),
            Op::Done => return,
        };
        self.log.borrow_mut().push(Entry {
            pc,
            addr,
            now: obs.now,
            proc: self.proc,
            kind,
        });
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[derive(Debug, Default)]
struct Ctx {
    core: usize,
    clock: u64,
    current: Option<usize>,
    last: Option<usize>,
    ever_dispatched: bool,
}

#[derive(Debug)]
struct ProcState {
    ctx: usize,
    snapshot: Option<ContextSnapshot>,
    has_run: bool,
    instructions: u64,
    target: u64,
}

/// The shadow hierarchy a run's log is replayed into. It re-derives the
/// scheduler's save/restore points from the log alone: a process leaving
/// its context before reaching its target was preempted (saved), and a
/// context changing occupant restores the incoming process's snapshot. On
/// multi-context runs that is exact only when they never switch, which the
/// final statistics comparison enforces.
pub struct Shadow {
    pub hier: Hierarchy,
    l1_hit: u64,
    switch_cost: SwitchCostModel,
    ctxs: Vec<Ctx>,
    procs: Vec<ProcState>,
    pub switches: u64,
    pub clock_mismatches: u64,
    /// Statistics of the simulated warm-up phase, taken before the reset.
    pub warm_stats: Option<HierarchyStats>,
}

impl Shadow {
    pub fn new(spec: &RunSpec, params: &RunParams) -> Shadow {
        let cfg = spec.config(params, &Telemetry::disabled());
        let ctxs = (0..spec.cores)
            .map(|core| Ctx {
                core,
                ..Ctx::default()
            })
            .collect();
        Shadow {
            hier: Hierarchy::new(cfg.hierarchy.clone()).expect("valid config"),
            l1_hit: cfg.hierarchy.latencies.l1_hit,
            switch_cost: cfg.switch_cost,
            ctxs,
            procs: spec
                .procs
                .iter()
                .map(|p| ProcState {
                    ctx: p.core,
                    snapshot: None,
                    has_run: false,
                    instructions: 0,
                    target: params.warmup_instructions,
                })
                .collect(),
            switches: 0,
            clock_mismatches: 0,
            warm_stats: None,
        }
    }

    /// The runner's phase boundary: statistics reset, targets extended.
    pub fn boundary(&mut self, measure: u64) {
        self.warm_stats = Some(self.hier.stats());
        self.hier.reset_stats();
        for p in &mut self.procs {
            p.target += measure;
        }
    }

    /// Replays one logged instruction.
    pub fn replay(&mut self, e: &Entry, acc: &mut Acc) {
        let p = usize::from(e.proc);
        let c = self.procs[p].ctx;
        let core = self.ctxs[c].core;
        if self.ctxs[c].current != Some(p) {
            let now = self.ctxs[c].clock;
            if let Some(q) = self.ctxs[c].current {
                self.procs[q].snapshot = Some(acc.save(&self.hier, core, 0, now));
            }
            if self.ctxs[c].last != Some(p) {
                let snap = if self.procs[p].has_run {
                    self.procs[p].snapshot.clone()
                } else {
                    None
                };
                let cost = acc.restore(&mut self.hier, core, 0, snap.as_ref(), now);
                if self.ctxs[c].ever_dispatched {
                    self.ctxs[c].clock += self.switch_cost.cycles(&cost);
                    self.switches += 1;
                }
            }
            let ctx = &mut self.ctxs[c];
            ctx.ever_dispatched = true;
            ctx.last = Some(p);
            ctx.current = Some(p);
            self.procs[p].has_run = true;
        }

        let now = self.ctxs[c].clock;
        let mut cycles = 1;
        let fetch = acc.access(&mut self.hier, core, 0, AccessKind::IFetch, e.pc, now);
        cycles += fetch.latency.saturating_sub(self.l1_hit);
        match e.kind {
            LOAD | STORE => {
                let kind = if e.kind == LOAD {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                let out = acc.access(&mut self.hier, core, 0, kind, e.addr, now + cycles);
                cycles += out.latency.saturating_sub(self.l1_hit);
            }
            FLUSH => cycles += acc.clflush(&mut self.hier, e.addr),
            _ => {}
        }
        self.ctxs[c].clock += cycles;
        if self.ctxs[c].clock != e.now {
            self.clock_mismatches += 1;
        }
        let proc = &mut self.procs[p];
        proc.instructions += 1;
        if proc.instructions >= proc.target {
            self.ctxs[c].current = None;
        }
    }

    /// The largest context clock.
    pub fn total_cycles(&self) -> u64 {
        self.ctxs.iter().map(|c| c.clock).max().unwrap_or(0)
    }
}

/// Builds `spec`'s system with every program wrapped in [`Logged`].
pub fn logged_run(spec: &RunSpec, params: &RunParams) -> (SlicedRun, Rc<RefCell<Vec<Entry>>>) {
    let instructions = (params.warmup_instructions + params.measure_instructions) as usize;
    let log = Rc::new(RefCell::new(Vec::with_capacity(
        instructions * spec.procs.len(),
    )));
    let programs = spec
        .procs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Box::new(Logged::new(Box::new(p.program()), i as u16, log.clone())) as Box<dyn Program>
        })
        .collect();
    (
        SlicedRun::new(spec, params, &Telemetry::disabled(), programs),
        log,
    )
}

/// Finishes a logged run; returns the log length at the warm-up/measure
/// boundary.
pub fn finish_logged(
    d: &mut SlicedRun,
    log: &RefCell<Vec<Entry>>,
    baseline: bool,
) -> Option<usize> {
    let mut boundary = None;
    loop {
        let s = d.op(baseline);
        if s.warm_done {
            boundary = Some(log.borrow().len());
        }
        if s.done {
            return boundary;
        }
    }
}

/// What replaying a log showed.
pub struct Replayed {
    /// Instructions each process retired.
    pub ops: Vec<u64>,
    /// Sum of logged instruction addresses, per process (checks the
    /// standalone generators reproduce the same stream).
    pub pc_sums: Vec<u64>,
    /// Why the ledger of this run is invalid, if it is.
    pub error: Option<String>,
}

/// Replays a finished logged run into `shadow` (fresh, built for the
/// same run) and compares the shadow with the `System`.
pub fn shadow_replay(
    shadow: &mut Shadow,
    params: &RunParams,
    d: &SlicedRun,
    log: &[Entry],
    boundary: Option<usize>,
    acc: &mut Acc,
) -> Replayed {
    let procs = shadow.procs.len();
    let mut ops = vec![0; procs];
    let mut pc_sums = vec![0u64; procs];
    for (i, e) in log.iter().enumerate() {
        if Some(i) == boundary {
            shadow.boundary(params.measure_instructions);
        }
        shadow.replay(e, acc);
        let p = usize::from(e.proc);
        ops[p] += 1;
        pc_sums[p] = pc_sums[p].wrapping_add(e.pc);
    }

    let report = d.report().expect("the run finished");
    let error = if shadow.hier.stats() != report.stats {
        Some("shadow-replay HierarchyStats differ from the System's".into())
    } else if shadow.total_cycles() != report.total_cycles
        || shadow.clock_mismatches != 0
        || shadow.switches != report.context_switches
    {
        Some(format!(
            "shadow clocks or switches differ ({} clock mismatches)",
            shadow.clock_mismatches
        ))
    } else {
        None
    };
    Replayed {
        ops,
        pc_sums,
        error,
    }
}

/// Drives fresh copies of `spec`'s programs standalone for `ops[i]` ops
/// each; returns the per-process instruction-address sums.
fn generate_standalone(spec: &RunSpec, ops: &[u64]) -> Vec<u64> {
    spec.procs
        .iter()
        .zip(ops)
        .map(|(p, &n)| {
            let mut prog: Box<dyn Program> = Box::new(p.program());
            let mut sum = 0u64;
            for _ in 0..n {
                if let Op::Instr { pc, .. } = black_box(prog.next_op()) {
                    sum = sum.wrapping_add(pc);
                }
            }
            sum
        })
        .collect()
}

/// The traced run of a simulation workload. Each run of the workload is
/// executed plain, with counters, with events and logged, back to back, so
/// the differences between them see the same host state; every timing is
/// rescaled by the calibration kernel.
pub fn run(workload: Workload, seed: u64, timer_ns: f64) -> Outcome {
    let specs = sim::runs(workload, seed);
    let params = sim::params();
    let (warm, chunks) =
        util::warm_up(|| sim::run_ns_per_instr(&specs[0], &params, &Telemetry::disabled()));

    let mut meter = Meter::default();
    let mut acc = Acc::new(timer_ns);
    // One events-on handle for the whole pass, as `parsec-telemetry` uses.
    let events = Telemetry::enabled();
    let (mut plain_ns, mut counters_ns, mut events_ns, mut logged_ns, mut gen_ns) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut instructions, mut switches, mut ops_total) = (0u64, 0u64, 0u64);
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut reference = BTreeMap::new();
    for spec in &specs {
        let base = !spec.timecache;
        let mut d = SlicedRun::fresh(spec, &params, &Telemetry::disabled());
        plain_ns += meter.scaled(|| d.finish(base)).1;
        let report = d.report().expect("the run finished");
        instructions += report.total_instructions;
        switches += report.context_switches;

        let counters = Telemetry::enabled();
        counters.set_trace_events(false);
        let mut d = SlicedRun::fresh(spec, &params, &counters);
        counters_ns += meter.scaled(|| d.finish(base)).1;
        let mut d = SlicedRun::fresh(spec, &params, &events);
        events_ns += meter.scaled(|| d.finish(base)).1;

        let (mut d, log) = logged_run(spec, &params);
        let (boundary, ns, _) = meter.scaled(|| finish_logged(&mut d, &log, base));
        logged_ns += ns;
        let log = std::mem::take(&mut *log.borrow_mut());
        let mut run_acc = Acc::new(timer_ns);
        let mut shadow = Shadow::new(spec, &params);
        let (replayed, _, scale) =
            meter.scaled(|| shadow_replay(&mut shadow, &params, &d, &log, boundary, &mut run_acc));
        drop(log);
        acc.absorb(&run_acc, scale);

        let (sums, ns, _) = meter.scaled(|| generate_standalone(spec, &replayed.ops));
        gen_ns += ns;
        ops_total += replayed.ops.iter().sum::<u64>();

        attempted += 1;
        let mut error = replayed.error;
        if sums != replayed.pc_sums {
            error.get_or_insert_with(|| "standalone generation differs from the log".into());
        }
        sim::check_run(&mut d, spec, seed, &mut reference);
        if let Some(e) = d.error.or(error) {
            failed += 1;
            errors.push(format!("{} [{}]: {e}", spec.label, spec.mode()));
        }
    }
    let tracer = events.tracer().expect("enabled");

    let per_instr = |ns: f64| ns / instructions as f64;
    let run_per_instr = per_instr(plain_ns);
    let next_op_ns = gen_ns / ops_total as f64;
    let access_per_instr = per_instr(acc.access_ns());
    let switch_per_instr = per_instr(acc.save.0 + acc.restore.0);

    let mut out = Outcome::new(attempted, failed, errors);
    out.warm_up(warm, chunks);
    out.note("threads", 1);
    out.note(
        "telemetry_sinks",
        "[\"counters\",\"histograms\",\"profiler\",\"events\"]",
    );
    out.note("calibration_samples", meter.samples.len());
    out.metric("workloads.next_op_ns", next_op_ns, "ns");
    out.metric("workloads.ops", ops_total as f64, "count");
    out.metric("os.run_ns_per_instr", run_per_instr, "ns/instr");
    out.metric(
        "os.sched_self_ns_per_instr",
        run_per_instr - per_instr(gen_ns) - access_per_instr - switch_per_instr,
        "ns/instr",
    );
    out.metric("os.switches", switches as f64, "count");
    out.metric(
        "os.instr_per_switch",
        if switches == 0 {
            0.0
        } else {
            instructions as f64 / switches as f64
        },
        "count",
    );
    acc.report(&mut out);
    out.metric("sim.access_ns_per_instr", access_per_instr, "ns/instr");
    out.metric("switch.ns_per_instr", switch_per_instr, "ns/instr");
    out.metric(
        "telemetry.counters_ns_per_instr",
        per_instr(counters_ns - plain_ns),
        "ns/instr",
    );
    out.metric(
        "telemetry.events_ns_per_instr",
        per_instr(events_ns - counters_ns),
        "ns/instr",
    );
    out.metric(
        "telemetry.events_dropped_ratio",
        tracer.dropped() as f64 / tracer.recorded() as f64,
        "ratio",
    );
    out.metric(
        "bench.tracing_overhead_ns_per_instr",
        per_instr(logged_ns - plain_ns),
        "ns/instr",
    );
    crate::verify::campaign_layers(seed, timer_ns, &mut meter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecache_os::RunReport;

    /// Logs, replays and checks one run; returns the shadow and the run's
    /// class counts.
    fn replay(spec: &RunSpec) -> (Replayed, Shadow, Acc, RunReport) {
        let params = sim::params();
        let (mut d, log) = logged_run(spec, &params);
        let boundary = finish_logged(&mut d, &log, !spec.timecache);
        let log = std::mem::take(&mut *log.borrow_mut());
        let mut acc = Acc::new(0.0);
        let mut shadow = Shadow::new(spec, &params);
        let r = shadow_replay(&mut shadow, &params, &d, &log, boundary, &mut acc);
        (r, shadow, acc, d.report().expect("finished").clone())
    }

    #[test]
    fn shadow_replay_reproduces_the_system_on_one_pair_per_workload() {
        for (workload, label) in [
            (Workload::SpecResident, "2Xspecrand"),
            (Workload::SpecThrash, "2Xwrf"),
            (Workload::ParsecTelemetry, "x264"),
        ] {
            for spec in sim::runs(workload, 0).iter().filter(|s| s.label == label) {
                let (r, shadow, acc, report) = replay(spec);
                assert_eq!(r.error, None, "{label} {}", spec.mode());
                assert_eq!(shadow.hier.stats(), report.stats);

                // Every access lands in exactly one class: the classes sum
                // to the L1 accesses, and all but L1 hits reach the LLC.
                let warm = shadow.warm_stats.clone().expect("boundary seen");
                let end = shadow.hier.stats();
                let l1 = |s: &HierarchyStats| s.l1i_total().accesses + s.l1d_total().accesses;
                let m = usize::from(spec.timecache);
                let counts = acc.count[m];
                assert_eq!(acc.count[1 - m], [0; 7]);
                assert_eq!(counts.iter().sum::<u64>(), l1(&warm) + l1(&end));
                assert_eq!(
                    counts[1..].iter().sum::<u64>(),
                    warm.llc.accesses + end.llc.accesses,
                    "{label} {}",
                    spec.mode()
                );
                if !spec.timecache {
                    assert_eq!(counts[1] + counts[3], 0, "baseline has no first accesses");
                }
            }
        }
    }
}
