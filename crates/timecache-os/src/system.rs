//! The full-system runner: cores, scheduler, and the hierarchy.

use crate::error::OsError;
use crate::invariant::InvariantChecker;
use crate::metrics::{ProcessMetrics, RunReport};
use crate::process::{Pid, Process};
use crate::program::{DataKind, Observation, Op, Program};
use crate::switch::SwitchCostModel;
use std::collections::VecDeque;
use timecache_core::{FaultInjector, FaultKind, FaultPlan, TriggerPoint};
use timecache_sim::{AccessKind, AccessOutcome, ConfigError, Hierarchy, HierarchyConfig, Level};
use timecache_telemetry::{ServedBy, Telemetry, TraceEvent};

/// System-level configuration: the hierarchy plus scheduling parameters.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Cache hierarchy configuration (cores, sizes, security mode).
    pub hierarchy: HierarchyConfig,
    /// Scheduler time slice in cycles. The default, 2 M cycles, is 1 ms at
    /// the paper's 2 GHz — the low end of typical Linux time slices.
    pub quantum_cycles: u64,
    /// Context-switch cost model.
    pub switch_cost: SwitchCostModel,
    /// Ablation knob: when set, the scheduler never saves or restores
    /// s-bit snapshots — every switch resets the caching context, which is
    /// behaviourally equivalent to flushing visibility on context switches
    /// (the expensive design Section V-B argues against).
    pub discard_snapshots: bool,
    /// Observability handle. Disabled by default; when enabled, the system
    /// streams its rare events (snapshot saves, restores with the charged
    /// DMA cost, rollover resets, injected faults, invariant violations)
    /// into its tracer.
    pub telemetry: Telemetry,
    /// Robustness testing: when set, a seed-driven [`FaultInjector`] built
    /// from this plan is attached to the hierarchy (snapshot drop/corrupt,
    /// rollover force/defer, comparator glitches) and to the scheduler's
    /// save path (mid-save aborts). `None` — the default — injects nothing
    /// and costs one branch per trigger site.
    pub fault_plan: Option<FaultPlan>,
    /// When true, every memory access is fed through the
    /// [`InvariantChecker`]: a process observing a hit-latency access to a
    /// line it has not itself paid a first-access miss for (since the
    /// line's current fill generation) is recorded as a violation. Off by
    /// default; entirely outside the simulated timing path.
    pub check_invariants: bool,
}

/// How many times an injected mid-save abort ([`FaultKind::AbortSave`]) is
/// retried before the save is abandoned. An abandoned save leaves the
/// process without a snapshot, so its next restore degrades to a
/// conservative full s-bit reset — safe, merely slower.
const SAVE_RETRY_LIMIT: u32 = 3;

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::default(),
            quantum_cycles: 2_000_000,
            switch_cost: SwitchCostModel::default(),
            discard_snapshots: false,
            telemetry: Telemetry::disabled(),
            fault_plan: None,
            check_invariants: false,
        }
    }
}

/// Per-hardware-context scheduler state.
#[derive(Debug)]
struct ContextState {
    core: usize,
    thread: usize,
    /// Local cycle clock of this context.
    clock: u64,
    /// Runnable processes (indices into `System::processes`).
    queue: VecDeque<usize>,
    /// Currently dispatched process.
    current: Option<usize>,
    /// Cycles left in the current quantum.
    quantum_left: u64,
    /// Whether any process has ever been dispatched here (the first
    /// dispatch is free: the machine is booting, not switching).
    ever_dispatched: bool,
    /// The process that most recently occupied this context. Re-dispatching
    /// the same process with no intervening occupant is not a context
    /// switch (the paper's trigger is a CR3 *change*): the hardware s-bits
    /// are already this process's own and stay untouched.
    last_process: Option<usize>,
}

/// A simulated machine: a [`Hierarchy`], a set of processes, and a
/// round-robin scheduler per hardware context.
///
/// Multi-context execution is interleaved causally: the context with the
/// smallest local clock always executes next, so cross-context interactions
/// (shared lines, coherence) happen in global time order.
pub struct System {
    cfg: SystemConfig,
    hier: Hierarchy,
    processes: Vec<Process>,
    /// Hardware-context index each process is pinned to, parallel to
    /// `processes`.
    affinity: Vec<usize>,
    contexts: Vec<ContextState>,
    switches: u64,
    switch_cycles: u64,
    tc_switch_cycles: u64,
    /// Shared with the hierarchy; disabled (one branch per site) unless a
    /// [`SystemConfig::fault_plan`] was supplied.
    faults: FaultInjector,
    /// Allocated only when [`SystemConfig::check_invariants`] is set.
    invariants: Option<Box<InvariantChecker>>,
    /// `log2(line size)`, for mapping byte addresses to checker lines.
    line_shift: u32,
}

impl System {
    /// Builds a system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the hierarchy configuration is invalid.
    pub fn new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        let mut hier = Hierarchy::new(cfg.hierarchy.clone())?;
        let faults = match cfg.fault_plan {
            Some(plan) => FaultInjector::new(plan),
            None => FaultInjector::disabled(),
        };
        hier.attach_faults(&faults);
        let invariants = cfg.check_invariants.then(Box::<InvariantChecker>::default);
        let line_shift = hier.line_size().trailing_zeros();
        let contexts = (0..cfg.hierarchy.cores)
            .flat_map(|core| {
                (0..cfg.hierarchy.smt_per_core).map(move |thread| ContextState {
                    core,
                    thread,
                    clock: 0,
                    queue: VecDeque::new(),
                    current: None,
                    quantum_left: 0,
                    ever_dispatched: false,
                    last_process: None,
                })
            })
            .collect();
        Ok(System {
            cfg,
            hier,
            processes: Vec::new(),
            affinity: Vec::new(),
            contexts,
            switches: 0,
            switch_cycles: 0,
            tc_switch_cycles: 0,
            faults,
            invariants,
            line_shift,
        })
    }

    /// Spawns `program` pinned to hardware context `(core, thread)`,
    /// optionally capped at `target_instructions`. Returns the new pid.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NoSuchContext`] if `(core, thread)` does not
    /// exist on the simulated machine.
    pub fn try_spawn(
        &mut self,
        program: Box<dyn Program>,
        core: usize,
        thread: usize,
        target_instructions: Option<u64>,
    ) -> Result<Pid, OsError> {
        let ctx = self
            .context_index(core, thread)
            .ok_or(OsError::NoSuchContext { core, thread })?;
        let pid = Pid(self.processes.len() as u32);
        self.processes
            .push(Process::new(pid, program, target_instructions));
        self.affinity.push(ctx);
        let idx = self.processes.len() - 1;
        self.contexts[ctx].queue.push_back(idx);
        Ok(pid)
    }

    /// [`System::try_spawn`], for callers that treat a bad placement as a
    /// programming error.
    ///
    /// # Panics
    ///
    /// Panics if `(core, thread)` does not exist.
    pub fn spawn(
        &mut self,
        program: Box<dyn Program>,
        core: usize,
        thread: usize,
        target_instructions: Option<u64>,
    ) -> Pid {
        self.try_spawn(program, core, thread, target_instructions)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The simulated hierarchy (for inspection).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The telemetry handle the system emits events through (disabled
    /// unless one was supplied via [`SystemConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.cfg.telemetry
    }

    /// Clears cache statistics (e.g. after a warm-up run).
    pub fn reset_stats(&mut self) {
        self.hier.reset_stats();
    }

    /// Faults injected so far by the configured [`SystemConfig::fault_plan`]
    /// (0 when no plan is set).
    pub fn fault_injections(&self) -> u64 {
        self.faults.injected()
    }

    /// Injected faults the defense detected and neutralised (snapshot
    /// checksum mismatches, comparator-redundancy disagreements, software
    /// rollover cross-checks).
    pub fn fault_detections(&self) -> u64 {
        self.faults.detected()
    }

    /// Total security-invariant violations observed (0 when
    /// [`SystemConfig::check_invariants`] is off).
    pub fn invariant_violations(&self) -> u64 {
        self.invariants.as_ref().map_or(0, |i| i.total_violations())
    }

    /// The invariant checker, when enabled — for inspecting retained
    /// [`crate::invariant::Violation`] details.
    pub fn invariants(&self) -> Option<&InvariantChecker> {
        self.invariants.as_deref()
    }

    /// The largest context clock so far (total simulated cycles).
    ///
    /// Returns 0 on a freshly built system — no instruction has advanced
    /// any context clock yet. The `unwrap_or(0)` also covers the
    /// degenerate zero-context machine, which [`Hierarchy::new`] rejects
    /// (`cores` must be nonzero), so in practice `max()` always sees at
    /// least one clock; 0 therefore always means "nothing has run".
    pub fn total_cycles(&self) -> u64 {
        self.contexts.iter().map(|c| c.clock).max().unwrap_or(0)
    }

    /// Extends a completed (or running) process's instruction target by
    /// `extra` instructions and re-queues it if it had finished, enabling
    /// warm-up/measure phased runs:
    ///
    /// ```
    /// use timecache_os::{System, SystemConfig, programs::Spin};
    ///
    /// let mut sys = System::new(SystemConfig::default()).expect("valid");
    /// let pid = sys.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(1_000));
    /// sys.run(u64::MAX);                  // warm-up phase
    /// let warm = sys.total_cycles();
    /// sys.reset_stats();
    /// sys.try_extend_target(pid, 4_000).expect("pid has a target");
    /// let report = sys.run(u64::MAX);     // measurement phase
    /// assert!(report.total_cycles > warm);
    /// assert_eq!(report.process(pid).unwrap().instructions, 5_000);
    /// ```
    ///
    /// # Errors
    ///
    /// [`OsError::NoSuchProcess`] if `pid` was never spawned,
    /// [`OsError::NoInstructionTarget`] if it was spawned uncapped, and
    /// [`OsError::ProgramFinished`] if its program already returned `Done`
    /// on its own (there is nothing left to run).
    pub fn try_extend_target(&mut self, pid: Pid, extra: u64) -> Result<(), OsError> {
        let pi = self
            .processes
            .iter()
            .position(|p| p.pid() == pid)
            .ok_or(OsError::NoSuchProcess(pid))?;
        let p = &mut self.processes[pi];
        let target = p
            .target_instructions
            .ok_or(OsError::NoInstructionTarget(pid))?;
        if !(p.completed || p.instructions < target) {
            return Err(OsError::ProgramFinished(pid));
        }
        p.target_instructions = Some(target + extra);
        if p.completed {
            p.completed = false;
            p.completion_cycle = None;
            // Re-queue on the context that hosted it (processes are pinned).
            let ctx = self.affinity[pi];
            self.contexts[ctx].queue.push_back(pi);
        }
        Ok(())
    }

    /// Runs until every process completes or the global clock passes
    /// `max_cycles` (a safety valve for non-terminating programs; those are
    /// reported with `completed == false`).
    ///
    /// Contexts execute in global `(clock, context index)` order. The
    /// chosen context runs a burst of instructions while it stays first in
    /// that order: stepping one context never changes another's clock or
    /// runnability, so the burst bound computed at selection stays exact
    /// and the interleaving is the same as re-selecting after every step.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        while let Some((ctx, limit)) = self.next_runnable_context(max_cycles) {
            if self.contexts[ctx].current.is_none() {
                self.dispatch(ctx);
                continue;
            }
            loop {
                self.step(ctx);
                let c = &self.contexts[ctx];
                if c.current.is_none() || c.clock >= limit {
                    break;
                }
            }
        }
        self.report()
    }

    // ------------------------------------------------------------------

    fn context_index(&self, core: usize, thread: usize) -> Option<usize> {
        self.contexts
            .iter()
            .position(|c| c.core == core && c.thread == thread)
    }

    /// The context with the smallest clock that still has work to do (the
    /// lowest index among ties), and the clock it may run up to while it
    /// stays first: `min(max_cycles, clock_j + [j > ctx])` over every other
    /// runnable context `j`. One scan computes both.
    fn next_runnable_context(&self, max_cycles: u64) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        let mut limit = max_cycles;
        for (i, c) in self.contexts.iter().enumerate() {
            if (c.current.is_none() && c.queue.is_empty()) || c.clock >= max_cycles {
                continue;
            }
            match best {
                // `i` comes after the leader, which still goes first at a
                // tie.
                Some((_, lead)) if c.clock >= lead => limit = limit.min(c.clock + 1),
                // A new leader: the old one (lower index, and no later
                // than any context seen so far) now bounds it at its clock.
                Some((_, lead)) => {
                    limit = limit.min(lead);
                    best = Some((i, c.clock));
                }
                None => best = Some((i, c.clock)),
            }
        }
        best.map(|(i, _)| (i, limit))
    }

    /// Brings the next queued process onto the context, restoring its
    /// caching context and charging the switch cost (except at boot).
    fn dispatch(&mut self, ctx: usize) {
        let Some(next) = self.contexts[ctx].queue.pop_front() else {
            return;
        };
        let (core, thread) = (self.contexts[ctx].core, self.contexts[ctx].thread);
        let now = self.contexts[ctx].clock;

        // No CR3 change, no switch: the same process resuming on the same
        // context keeps its live hardware s-bits (this happens when a
        // single-process context renews across phased runs).
        if self.contexts[ctx].last_process != Some(next) {
            let snapshot = if self.processes[next].has_run && !self.cfg.discard_snapshots {
                self.processes[next].snapshot.clone()
            } else {
                None
            };
            let cost = self
                .hier
                .restore_context(core, thread, snapshot.as_ref(), now);

            if self.contexts[ctx].ever_dispatched {
                let cycles = self.cfg.switch_cost.cycles(&cost);
                self.contexts[ctx].clock += cycles;
                self.switches += 1;
                self.switch_cycles += cycles;
                self.tc_switch_cycles += self.cfg.switch_cost.timecache_overhead_cycles(&cost);

                let pid = self.processes[next].pid().0;
                let tel = &self.cfg.telemetry;
                tel.emit_at(
                    now,
                    TraceEvent::SwitchRestore {
                        core: core as u32,
                        thread: thread as u32,
                        pid,
                        comparator_cycles: cost.comparator_cycles,
                        transfer_lines: cost.transfer_lines,
                        charged_cycles: cycles,
                        sbits_reset: cost.sbits_reset,
                    },
                );
                if cost.rollover {
                    tel.emit_at(
                        now,
                        TraceEvent::RolloverReset {
                            core: core as u32,
                            thread: thread as u32,
                            pid,
                        },
                    );
                }
            }
            self.drain_fault_records(now);
        }
        self.contexts[ctx].ever_dispatched = true;
        self.contexts[ctx].last_process = Some(next);
        self.contexts[ctx].current = Some(next);
        self.contexts[ctx].quantum_left = self.cfg.quantum_cycles;
        self.processes[next].has_run = true;
    }

    /// Executes one instruction of the context's current process.
    fn step(&mut self, ctx: usize) {
        // `run` only steps contexts with a dispatched process; an empty
        // context is a scheduler bug, but degrade to a no-op (the run loop
        // will dispatch or finish) rather than bringing the System down.
        let Some(pi) = self.contexts[ctx].current else {
            return;
        };
        let (core, thread) = (self.contexts[ctx].core, self.contexts[ctx].thread);
        let l1_hit = self.cfg.hierarchy.latencies.l1_hit;

        let op = self.processes[pi].program.next_op();
        if op == Op::Done {
            self.complete(ctx, pi);
            return;
        }

        let now = self.contexts[ctx].clock;
        let mut cycles = 1u64; // base CPI of the in-order core
        let mut data_latency = None;
        let mut flush_latency = None;
        let mut yielded = false;

        let pc = match op {
            Op::Instr { pc, .. } | Op::Flush { pc, .. } | Op::Yield { pc } => pc,
            Op::Done => unreachable!(),
        };
        // Instruction fetch: hits are fully pipelined; only miss latency
        // beyond an L1 hit stalls the core.
        let ifetch = self.hier.access(core, thread, AccessKind::IFetch, pc, now);
        cycles += ifetch.latency.saturating_sub(l1_hit);
        self.check_invariant(pi, pc, &ifetch, now + cycles);

        match op {
            Op::Instr { data, .. } => {
                if let Some((kind, addr)) = data {
                    let ak = match kind {
                        DataKind::Load => AccessKind::Load,
                        DataKind::Store => AccessKind::Store,
                    };
                    let out = self.hier.access(core, thread, ak, addr, now + cycles);
                    cycles += out.latency.saturating_sub(l1_hit);
                    data_latency = Some(out.latency);
                    self.check_invariant(pi, addr, &out, now + cycles);
                }
            }
            Op::Flush { target, .. } => {
                let lat = self.hier.clflush(target);
                cycles += lat;
                flush_latency = Some(lat);
                let line = target >> self.line_shift;
                if let Some(inv) = self.invariants.as_mut() {
                    inv.flush(line);
                }
            }
            Op::Yield { .. } => {
                yielded = true;
            }
            Op::Done => unreachable!(),
        }

        self.contexts[ctx].clock += cycles;
        self.contexts[ctx].quantum_left = self.contexts[ctx].quantum_left.saturating_sub(cycles);
        self.processes[pi].instructions += 1;
        self.processes[pi].cpu_cycles += cycles;

        if self.processes[pi].observes {
            let obs = Observation {
                instr_index: self.processes[pi].instructions - 1,
                data_latency,
                flush_latency,
                now: self.contexts[ctx].clock,
            };
            self.processes[pi].program.observe(obs);
        }

        let target_hit = self.processes[pi]
            .target_instructions
            .is_some_and(|t| self.processes[pi].instructions >= t);
        if target_hit {
            self.complete(ctx, pi);
            return;
        }

        if yielded || self.contexts[ctx].quantum_left == 0 {
            self.preempt(ctx, pi);
        }
    }

    /// Takes the current process off the context after a yield or quantum
    /// expiry, saving its caching context, and re-queues it.
    fn preempt(&mut self, ctx: usize, pi: usize) {
        let (core, thread) = (self.contexts[ctx].core, self.contexts[ctx].thread);
        let now = self.contexts[ctx].clock;
        if self.contexts[ctx].queue.is_empty() {
            // Nobody to switch to: keep running with a fresh quantum.
            self.contexts[ctx].quantum_left = self.cfg.quantum_cycles;
            return;
        }
        if !self.cfg.discard_snapshots {
            // An injected mid-save abort (AbortSave) models the switch path
            // being interrupted while the s-bit DMA is in flight: the OS
            // retries a bounded number of times, then abandons the save.
            // An abandoned save is safe — the process simply has no
            // snapshot, so its next restore falls back to a conservative
            // full s-bit reset (fresh-process treatment).
            let mut attempts = 0u32;
            let snapshot = loop {
                if self.faults.fire(FaultKind::AbortSave, TriggerPoint::Save) {
                    attempts += 1;
                    if attempts > SAVE_RETRY_LIMIT {
                        break None;
                    }
                    continue;
                }
                break Some(self.hier.save_context(core, thread, now));
            };
            let saved = snapshot.is_some();
            self.processes[pi].snapshot = snapshot;
            if saved {
                self.cfg.telemetry.emit_at(
                    now,
                    TraceEvent::SwitchSave {
                        core: core as u32,
                        thread: thread as u32,
                        pid: self.processes[pi].pid().0,
                    },
                );
            }
            self.drain_fault_records(now);
        }
        self.contexts[ctx].queue.push_back(pi);
        self.contexts[ctx].current = None;
    }

    /// Feeds one resolved access through the invariant checker (no-op
    /// unless [`SystemConfig::check_invariants`] is set), tracing any
    /// violation.
    fn check_invariant(&mut self, pi: usize, addr: u64, out: &AccessOutcome, cycle: u64) {
        let Some(inv) = self.invariants.as_mut() else {
            return;
        };
        let pid = self.processes[pi].pid().0;
        let line = addr >> self.line_shift;
        if let Some(v) = inv.observe(pid, line, out, cycle) {
            self.cfg.telemetry.emit_at(
                cycle,
                TraceEvent::InvariantViolation {
                    pid: v.pid,
                    line: v.line,
                    latency: v.latency,
                    served_by: served_by(v.served_by),
                },
            );
        }
    }

    /// Emits the injector's accumulated [`timecache_core::FaultRecord`]s
    /// as trace events. Called after each save/restore choreography (the
    /// only places faults fire).
    fn drain_fault_records(&mut self, cycle: u64) {
        if !self.faults.is_enabled() {
            return;
        }
        for rec in self.faults.take_records() {
            self.cfg.telemetry.emit_at(
                cycle,
                TraceEvent::FaultInjected {
                    kind: rec.kind.as_str(),
                    trigger: rec.trigger.as_str(),
                    detected: rec.detected,
                },
            );
        }
    }

    /// Marks a process finished and frees the context.
    fn complete(&mut self, ctx: usize, pi: usize) {
        self.processes[pi].completed = true;
        self.processes[pi].completion_cycle = Some(self.contexts[ctx].clock);
        self.contexts[ctx].current = None;
    }

    fn report(&self) -> RunReport {
        let processes = self
            .processes
            .iter()
            .map(|p| ProcessMetrics {
                pid: p.pid(),
                name: p.name().to_owned(),
                instructions: p.instructions,
                cpu_cycles: p.cpu_cycles,
                completion_cycle: p.completion_cycle,
                completed: p.completed,
            })
            .collect();
        RunReport {
            processes,
            // Same `unwrap_or(0)` edge as `System::total_cycles`: 0 means
            // the report was taken before anything ran.
            total_cycles: self.contexts.iter().map(|c| c.clock).max().unwrap_or(0),
            total_instructions: self.processes.iter().map(|p| p.instructions).sum(),
            context_switches: self.switches,
            switch_cycles: self.switch_cycles,
            timecache_switch_cycles: self.tc_switch_cycles,
            stats: self.hier.stats(),
        }
    }
}

/// The event-log name of the level that served an access.
fn served_by(level: Level) -> ServedBy {
    match level {
        Level::L1 => ServedBy::L1,
        Level::LLC => ServedBy::Llc,
        Level::RemoteL1 => ServedBy::RemoteL1,
        Level::Memory => ServedBy::Memory,
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("processes", &self.processes.len())
            .field("contexts", &self.contexts.len())
            .field("switches", &self.switches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{SharedWriter, Spin, StridedLoop};
    use timecache_sim::{Level, SecurityMode};

    fn sys(security: SecurityMode, cores: usize) -> System {
        let mut cfg = SystemConfig::default();
        cfg.hierarchy.cores = cores;
        cfg.hierarchy.security = security;
        cfg.quantum_cycles = 10_000;
        System::new(cfg).unwrap()
    }

    #[test]
    fn single_process_runs_to_target() {
        let mut s = sys(SecurityMode::Baseline, 1);
        s.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(1000));
        let r = s.run(10_000_000);
        assert!(r.all_completed());
        assert_eq!(r.processes[0].instructions, 1000);
        assert_eq!(r.context_switches, 0, "nothing to switch to");
        assert!(r.total_cycles >= 1000);
    }

    #[test]
    fn program_done_terminates() {
        let mut s = sys(SecurityMode::Baseline, 1);
        s.spawn(Box::new(Spin::new(50)), 0, 0, None);
        let r = s.run(1_000_000);
        assert!(r.all_completed());
        assert_eq!(r.processes[0].instructions, 50);
    }

    #[test]
    fn two_processes_round_robin() {
        let mut s = sys(SecurityMode::Baseline, 1);
        s.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(30_000));
        s.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(30_000));
        let r = s.run(100_000_000);
        assert!(r.all_completed());
        assert!(r.context_switches >= 4, "switches: {}", r.context_switches);
        assert!(r.switch_cycles > 0);
        // Baseline: no TimeCache bookkeeping.
        assert_eq!(r.timecache_switch_cycles, 0);
    }

    #[test]
    fn timecache_switches_cost_more() {
        use timecache_core::TimeCacheConfig;
        let mut base = sys(SecurityMode::Baseline, 1);
        base.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(20_000));
        base.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(20_000));
        let rb = base.run(100_000_000);

        let mut tc = sys(SecurityMode::TimeCache(TimeCacheConfig::default()), 1);
        tc.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(20_000));
        tc.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(20_000));
        let rt = tc.run(100_000_000);

        assert!(rt.timecache_switch_cycles > 0);
        assert!(rt.switch_cycles > rb.switch_cycles);
    }

    #[test]
    fn yield_hands_over_the_cpu() {
        // A SharedWriter yields after each sweep; a Spin shares the core.
        let mut s = sys(SecurityMode::Baseline, 1);
        s.spawn(Box::new(SharedWriter::new(0x9000, 4, 64)), 0, 0, Some(100));
        s.spawn(Box::new(SharedWriter::new(0xA000, 4, 64)), 0, 0, Some(100));
        let r = s.run(10_000_000);
        assert!(r.all_completed());
        // Both writers yield every 5 instructions, forcing many switches —
        // far more than the quantum alone (10k cycles) would produce.
        assert!(r.context_switches > 20, "switches {}", r.context_switches);
    }

    #[test]
    fn multicore_contexts_advance_in_causal_order() {
        let mut s = sys(SecurityMode::Baseline, 2);
        s.spawn(
            Box::new(StridedLoop::new(0x10_0000, 4096, 64)),
            0,
            0,
            Some(5000),
        );
        s.spawn(
            Box::new(StridedLoop::new(0x20_0000, 4096, 64)),
            1,
            0,
            Some(5000),
        );
        let r = s.run(10_000_000);
        assert!(r.all_completed());
        assert_eq!(r.context_switches, 0);
        let s = &r.stats;
        assert!(s.l1d[0].accesses > 0 && s.l1d[1].accesses > 0);
    }

    #[test]
    fn memory_traffic_is_accounted() {
        let mut s = sys(SecurityMode::Baseline, 1);
        s.spawn(
            Box::new(StridedLoop::new(0x10_0000, 256 * 1024, 64)),
            0,
            0,
            Some(8192),
        );
        let r = s.run(100_000_000);
        // 256 KiB working set exceeds the 32 KiB L1D: every load misses L1.
        assert!(r.stats.l1d[0].misses > 3000, "{:?}", r.stats.l1d[0]);
        // CPI well above 1 due to stalls.
        assert!(r.processes[0].cpi() > 1.5);
    }

    #[test]
    fn run_limit_stops_nonterminating_programs() {
        let mut s = sys(SecurityMode::Baseline, 1);
        s.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, None);
        let r = s.run(10_000);
        assert!(!r.all_completed());
        assert!(r.total_cycles >= 10_000);
    }

    #[test]
    fn spawn_checks_context() {
        let mut s = sys(SecurityMode::Baseline, 1);
        let err = s.try_spawn(Box::new(Spin::new(1)), 3, 0, None).unwrap_err();
        assert_eq!(err, OsError::NoSuchContext { core: 3, thread: 0 });
        assert_eq!(err.to_string(), "no hardware context (3,0)");
    }

    #[test]
    fn extend_target_supports_phased_runs() {
        let mut s = sys(SecurityMode::Baseline, 1);
        let a = s.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(1_000));
        let b = s.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(1_000));
        let warm = s.run(u64::MAX);
        assert!(warm.all_completed());
        let warm_cycles = s.total_cycles();

        s.reset_stats();
        s.try_extend_target(a, 2_000).unwrap();
        s.try_extend_target(b, 2_000).unwrap();
        let r = s.run(u64::MAX);
        assert!(r.all_completed());
        assert_eq!(r.process(a).unwrap().instructions, 3_000);
        assert_eq!(r.process(b).unwrap().instructions, 3_000);
        assert!(r.total_cycles > warm_cycles);
    }

    #[test]
    fn extend_target_checks_pid() {
        let mut s = sys(SecurityMode::Baseline, 1);
        let err = s.try_extend_target(crate::Pid(9), 1).unwrap_err();
        assert_eq!(err, OsError::NoSuchProcess(crate::Pid(9)));
        assert!(err.to_string().contains("does not exist"));
    }

    #[test]
    fn extend_target_requires_an_instruction_target() {
        let mut s = sys(SecurityMode::Baseline, 1);
        let pid = s.spawn(Box::new(Spin::new(50)), 0, 0, None);
        assert_eq!(
            s.try_extend_target(pid, 1),
            Err(OsError::NoInstructionTarget(pid))
        );
    }

    #[test]
    fn total_cycles_is_zero_only_before_anything_runs() {
        let mut s = sys(SecurityMode::Baseline, 1);
        // Freshly booted: every context clock is 0, so max() is Some(0) —
        // indistinguishable from the defensive unwrap_or(0) and correct
        // either way: nothing has run.
        assert_eq!(s.total_cycles(), 0);
        s.spawn(Box::new(Spin::new(10)), 0, 0, None);
        assert_eq!(s.total_cycles(), 0, "spawning does not advance clocks");
        let r = s.run(1_000);
        assert!(s.total_cycles() > 0);
        assert_eq!(r.total_cycles, s.total_cycles());
    }

    #[test]
    fn telemetry_mirrors_scheduler_accounting() {
        use timecache_core::TimeCacheConfig;

        let mut cfg = SystemConfig::default();
        cfg.hierarchy.security = SecurityMode::TimeCache(TimeCacheConfig::default());
        cfg.quantum_cycles = 10_000;
        cfg.telemetry = Telemetry::enabled();
        let tel = cfg.telemetry.clone();
        let mut s = System::new(cfg).unwrap();
        let pids = [0, 1].map(|_| s.spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(40_000)));
        // Warm-up, reset, measure: the counters keep both phases.
        let warm = s.run(100_000_000);
        assert!(warm.all_completed());
        s.reset_stats();
        for pid in pids {
            s.try_extend_target(pid, 40_000).unwrap();
        }
        let r = s.run(100_000_000);
        assert!(r.all_completed());
        // More accesses than the event ring holds: a per-access trace
        // would overflow it.
        assert!(r.total_instructions > timecache_telemetry::DEFAULT_TRACE_CAPACITY as u64);

        // Every save and restore is in the event log, none dropped, and the
        // restores carry the scheduler's switch accounting exactly.
        let tracer = tel.tracer().unwrap();
        assert_eq!(tracer.dropped(), 0);
        let (mut saves, mut restores, mut charged) = (0u64, 0u64, 0u64);
        for rec in tracer.records() {
            match rec.event {
                TraceEvent::SwitchSave { .. } => saves += 1,
                TraceEvent::SwitchRestore { charged_cycles, .. } => {
                    restores += 1;
                    charged += charged_cycles;
                }
                _ => {}
            }
        }
        assert_eq!(restores, r.context_switches);
        assert_eq!(charged, r.switch_cycles);
        // A preemption saves and then switches; a completion only switches.
        assert!(
            saves > 0 && saves <= restores,
            "{saves} saves, {restores} restores"
        );
    }

    /// Two processes time-sliced on one context, both walking the same
    /// small buffer — the canonical shared-cache setup the invariant
    /// checker must judge correctly in both security modes.
    fn shared_buffer_system(security: SecurityMode, plan: Option<FaultPlan>) -> System {
        let mut cfg = SystemConfig::default();
        cfg.hierarchy.security = security;
        cfg.quantum_cycles = 10_000;
        cfg.check_invariants = true;
        cfg.fault_plan = plan;
        cfg.telemetry = Telemetry::enabled();
        let mut s = System::new(cfg).unwrap();
        s.spawn(
            Box::new(StridedLoop::new(0x10_0000, 16 * 1024, 64)),
            0,
            0,
            Some(8_000),
        );
        s.spawn(
            Box::new(StridedLoop::new(0x10_0000, 16 * 1024, 64)),
            0,
            0,
            Some(8_000),
        );
        s
    }

    #[test]
    fn invariant_checker_flags_baseline_sharing() {
        let mut s = shared_buffer_system(SecurityMode::Baseline, None);
        let tel = s.telemetry().clone();
        let r = s.run(u64::MAX);
        assert!(r.all_completed());
        // With no defense, the second process hits lines the first one
        // fetched without ever paying a miss for them: a leak.
        assert!(s.invariant_violations() > 0);
        let v = s.invariants().unwrap().violations()[0];
        assert_ne!(v.served_by, Level::Memory);
        // The event log holds each violation once.
        let tracer = tel.tracer().unwrap();
        assert_eq!(tracer.dropped(), 0);
        let logged = tracer
            .records()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::InvariantViolation { .. }))
            .count() as u64;
        assert_eq!(logged, s.invariant_violations());
    }

    #[test]
    fn invariant_checker_is_clean_under_timecache() {
        use timecache_core::TimeCacheConfig;
        let mut s = shared_buffer_system(SecurityMode::TimeCache(TimeCacheConfig::default()), None);
        let r = s.run(u64::MAX);
        assert!(r.all_completed());
        assert_eq!(
            s.invariant_violations(),
            0,
            "first: {:?}",
            s.invariants().unwrap().violations().first()
        );
    }

    #[test]
    fn injected_snapshot_corruption_is_detected_and_stays_invariant_clean() {
        use timecache_core::TimeCacheConfig;
        let plan = FaultPlan::new(FaultKind::CorruptSnapshot, TriggerPoint::Restore, 0xC0DE);
        let mut s = shared_buffer_system(
            SecurityMode::TimeCache(TimeCacheConfig::default()),
            Some(plan),
        );
        let tel = s.telemetry().clone();
        let r = s.run(u64::MAX);
        assert!(r.all_completed());
        assert!(s.fault_injections() > 0);
        // Every corrupted snapshot trips the integrity checksum.
        assert_eq!(s.fault_detections(), s.fault_injections());
        assert_eq!(s.invariant_violations(), 0);

        // The event log holds each injection once, with its verdict.
        let tracer = tel.tracer().unwrap();
        assert_eq!(tracer.dropped(), 0);
        let (mut injected, mut detected) = (0u64, 0u64);
        for rec in tracer.records() {
            if let TraceEvent::FaultInjected {
                kind, detected: d, ..
            } = rec.event
            {
                assert_eq!(kind, "corrupt_snapshot");
                injected += 1;
                detected += u64::from(d);
            }
        }
        assert_eq!(injected, s.fault_injections());
        assert_eq!(detected, s.fault_detections());
    }

    #[test]
    fn aborted_saves_degrade_to_fresh_restores() {
        use timecache_core::TimeCacheConfig;
        // Rate 1.0: every save attempt aborts, exhausting the retry budget,
        // so no process ever keeps a snapshot.
        let plan = FaultPlan::new(FaultKind::AbortSave, TriggerPoint::Save, 0xAB0);
        let mut s = shared_buffer_system(
            SecurityMode::TimeCache(TimeCacheConfig::default()),
            Some(plan),
        );
        let tel = s.telemetry().clone();
        let r = s.run(u64::MAX);
        assert!(r.all_completed());
        assert!(s.fault_injections() > 0);
        assert_eq!(s.invariant_violations(), 0, "losing snapshots must be safe");
        let tracer = tel.tracer().unwrap();
        assert_eq!(tracer.dropped(), 0);
        let mut aborts_before = Vec::new();
        let mut pending = 0u32;
        for rec in tracer.records() {
            match rec.event {
                TraceEvent::FaultInjected { kind, .. } => {
                    assert_eq!(kind, "abort_save");
                    pending += 1;
                }
                TraceEvent::SwitchRestore { .. } => {
                    aborts_before.push(std::mem::take(&mut pending))
                }
                // No snapshot ever completed, so none was logged as saved.
                other => panic!("unexpected event {other:?}"),
            }
        }
        // Each preemption burned the full retry budget plus the final try
        // before its switch. The last switch follows a completion, which
        // saves nothing.
        let (last, preemptions) = aborts_before.split_last().expect("switches happened");
        assert!(!preemptions.is_empty());
        assert!(
            preemptions.iter().all(|&n| n == SAVE_RETRY_LIMIT + 1),
            "{aborts_before:?}"
        );
        assert_eq!((*last, pending), (0, 0));
    }

    /// Global observation log: `(pid, instr_index, now)` in retirement
    /// order across every process of a system.
    type ObsLog = std::rc::Rc<std::cell::RefCell<Vec<(u32, u64, u64)>>>;

    /// Appends every observation of the wrapped program to a shared log.
    struct Logged {
        inner: Box<dyn Program>,
        pid: u32,
        log: ObsLog,
    }

    impl Program for Logged {
        fn next_op(&mut self) -> Op {
            self.inner.next_op()
        }

        fn observe(&mut self, obs: Observation) {
            self.log
                .borrow_mut()
                .push((self.pid, obs.instr_index, obs.now));
            self.inner.observe(obs);
        }
    }

    /// Spins, and reads no observations: being handed one is a bug.
    struct Blind(Spin);

    impl Program for Blind {
        fn next_op(&mut self) -> Op {
            self.0.next_op()
        }

        fn observe(&mut self, _obs: Observation) {
            panic!("observation delivered to a program that reads none");
        }

        fn observes(&self) -> bool {
            false
        }
    }

    #[test]
    fn observations_reach_only_the_programs_that_read_them() {
        use crate::vm::{Vm, VmProgram};
        let log = ObsLog::default();
        let cfg = SystemConfig {
            quantum_cycles: 5_000,
            ..SystemConfig::default()
        };
        let mut s = System::new(cfg).unwrap();
        s.spawn(Box::new(Blind(Spin::new(u64::MAX))), 0, 0, Some(3_000));
        let strided = StridedLoop::new(0x10_0000, 16 * 1024, 64);
        let logged = Logged {
            inner: Box::new(strided),
            pid: 1,
            log: log.clone(),
        };
        let pid = s.spawn(Box::new(logged), 0, 0, Some(2_000));
        let r = s.run(u64::MAX);
        assert!(r.all_completed());
        assert!(r.context_switches > 0);
        assert_eq!(r.process(pid).unwrap().instructions, 2_000);
        // One observation per retired instruction, in order, the one that
        // reaches the target included.
        let log = log.borrow();
        let indices: Vec<u64> = log.iter().map(|&(_, idx, _)| idx).collect();
        assert_eq!(indices, (0..2_000).collect::<Vec<_>>());

        let vm = Vm::new();
        let space = vm.new_space();
        assert!(!VmProgram::new(Blind(Spin::new(1)), vm.clone(), space).observes());
        assert!(VmProgram::new(Spin::new(1), vm, space).observes());
    }

    /// 2 cores x 2 SMT contexts, all tied at clock 0, with yielding
    /// writers sharing lines across cores, a self-terminating spin, and
    /// unequal instruction targets.
    fn interleaving_system(log: &ObsLog) -> System {
        use timecache_core::TimeCacheConfig;
        let mut cfg = SystemConfig::default();
        cfg.hierarchy.cores = 2;
        cfg.hierarchy.smt_per_core = 2;
        cfg.hierarchy.security = SecurityMode::TimeCache(TimeCacheConfig::default());
        cfg.quantum_cycles = 2_000;
        let mut s = System::new(cfg).unwrap();
        let mut spawn = |inner: Box<dyn Program>, core, thread, target| {
            let logged = Logged {
                inner,
                pid: s.processes.len() as u32,
                log: log.clone(),
            };
            s.spawn(Box::new(logged), core, thread, target);
        };
        spawn(Box::new(SharedWriter::new(0x9000, 4, 64)), 0, 0, Some(400));
        spawn(Box::new(Spin::new(u64::MAX)), 0, 0, Some(900));
        let strided = StridedLoop::new(0x10_0000, 16 * 1024, 64);
        spawn(Box::new(strided), 0, 1, Some(1_500));
        spawn(Box::new(SharedWriter::new(0x9000, 6, 64)), 0, 1, Some(300));
        spawn(Box::new(Spin::new(600)), 1, 0, None);
        spawn(Box::new(SharedWriter::new(0x9040, 3, 64)), 1, 0, Some(350));
        let strided = StridedLoop::new(0x20_0000, 64 * 1024, 64);
        spawn(Box::new(strided), 1, 1, Some(1_200));
        spawn(Box::new(SharedWriter::new(0xA000, 5, 64)), 1, 1, Some(250));
        s
    }

    #[test]
    fn scheduler_order_is_pinned_and_slice_invariant() {
        let full_log = ObsLog::default();
        let full = interleaving_system(&full_log).run(u64::MAX);
        assert!(full.all_completed());
        assert!(full.context_switches > 0);

        let sliced_log = ObsLog::default();
        let mut s = interleaving_system(&sliced_log);
        let mut cap = 0;
        let sliced = loop {
            cap += 7;
            let r = s.run(cap);
            if r.all_completed() {
                break r;
            }
        };
        assert_eq!(sliced, full);
        let (a, b) = (sliced_log.borrow(), full_log.borrow());
        let first_diff = a.iter().zip(b.iter()).position(|(x, y)| x != y);
        assert_eq!(first_diff, None, "sliced and full logs diverge");
        assert_eq!(a.len(), b.len());

        // FNV-1a over the log: any change to the (clock, context index)
        // tie-break or to the interleaving shows up here.
        let log = full_log.borrow();
        assert_eq!(log.len() as u64, full.total_instructions);
        let mut fnv = timecache_core::Fnv1a::new();
        for &(pid, idx, now) in log.iter() {
            fnv.write_u64(u64::from(pid));
            fnv.write_u64(idx);
            fnv.write_u64(now);
        }
        let h = fnv.finish();
        assert_eq!(h, 0x94a6_7fef_e090_8c5b, "interleaving digest {h:#018x}");
    }

    #[test]
    fn fault_rate_is_respected_between_runs_with_the_same_seed() {
        use timecache_core::TimeCacheConfig;
        let run = || {
            let plan =
                FaultPlan::new(FaultKind::DropSnapshot, TriggerPoint::Restore, 77).with_rate(0.5);
            let mut s = shared_buffer_system(
                SecurityMode::TimeCache(TimeCacheConfig::default()),
                Some(plan),
            );
            let r = s.run(u64::MAX);
            assert!(r.all_completed());
            (s.fault_injections(), r.total_cycles)
        };
        let (a_inj, a_cycles) = run();
        let (b_inj, b_cycles) = run();
        assert!(a_inj > 0);
        // Same seed, same schedule: bit-identical runs.
        assert_eq!(a_inj, b_inj);
        assert_eq!(a_cycles, b_cycles);
    }
}
