//! Per-phase cycle attribution: where did the simulated cycles go?
//!
//! The paper's overhead story decomposes into exactly three places a cycle
//! can be spent: useful compute (the in-order core's base CPI), memory
//! stall (everything above an L1 hit, including first-access delays), and
//! context-switch cost (the base switch plus TimeCache's s-bit DMA and
//! comparator sweep). The [`Profiler`] accumulates that split per process
//! and per hardware context.

use crate::encode;
use std::cell::RefCell;
use std::rc::Rc;

/// The phase a simulated cycle is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Base execution cycles (one per retired instruction).
    Compute,
    /// Stall cycles waiting on the memory hierarchy beyond an L1 hit
    /// (true misses, first-access delays, flushes).
    MemoryStall,
    /// Context-switch cycles (base cost + s-bit DMA + comparator sweep).
    SwitchCost,
}

/// Number of distinct phases.
pub const NUM_PHASES: usize = 3;

impl Phase {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::MemoryStall => "memory_stall",
            Phase::SwitchCost => "switch_cost",
        }
    }

    /// All phases, in export order.
    pub fn all() -> [Phase; NUM_PHASES] {
        [Phase::Compute, Phase::MemoryStall, Phase::SwitchCost]
    }

    fn index(self) -> usize {
        match self {
            Phase::Compute => 0,
            Phase::MemoryStall => 1,
            Phase::SwitchCost => 2,
        }
    }
}

/// What a profiled scope refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// A process, by pid.
    Process(u32),
    /// A hardware context, by flat index (`core * smt + thread`).
    Context(u32),
}

/// Cycle totals for one scope, indexed by phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// `cycles[phase]` per [`Phase::all`] order.
    pub cycles: [u64; NUM_PHASES],
}

impl PhaseCycles {
    /// Cycles attributed to one phase.
    pub fn get(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Total cycles across phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

#[derive(Debug, Default)]
struct ProfInner {
    processes: Vec<PhaseCycles>,
    contexts: Vec<PhaseCycles>,
}

/// The phase profiler. Cloning shares the accumulation tables. Tables grow
/// on first sight of a scope index; recording into a known scope is two
/// array indexings and an add.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Rc<RefCell<ProfInner>>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Attributes `cycles` to `phase` within `scope`.
    #[inline]
    pub fn record(&self, scope: Scope, phase: Phase, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let (table, idx) = match scope {
            Scope::Process(pid) => (&mut inner.processes, pid as usize),
            Scope::Context(ctx) => (&mut inner.contexts, ctx as usize),
        };
        if idx >= table.len() {
            table.resize(idx + 1, PhaseCycles::default());
        }
        table[idx].cycles[phase.index()] += cycles;
    }

    /// Phase totals for a process (zeroes if never seen).
    pub fn process_cycles(&self, pid: u32) -> PhaseCycles {
        self.inner
            .borrow()
            .processes
            .get(pid as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Phase totals for a hardware context (zeroes if never seen).
    pub fn context_cycles(&self, ctx: u32) -> PhaseCycles {
        self.inner
            .borrow()
            .contexts
            .get(ctx as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Number of process scopes seen.
    pub fn num_processes(&self) -> usize {
        self.inner.borrow().processes.len()
    }

    /// Number of context scopes seen.
    pub fn num_contexts(&self) -> usize {
        self.inner.borrow().contexts.len()
    }

    /// Captures the accumulation tables as owned plain data (`Send`), for
    /// transfer across a thread boundary and [`Profiler::merge`].
    pub fn snapshot(&self) -> ProfileSnapshot {
        let inner = self.inner.borrow();
        ProfileSnapshot {
            processes: inner.processes.clone(),
            contexts: inner.contexts.clone(),
        }
    }

    /// Adds a snapshot's cycle totals into this profiler, element-wise per
    /// scope and phase (tables grow as needed). Merging N worker snapshots
    /// yields the same totals as one serial profiler recording everything.
    pub fn merge(&self, snap: &ProfileSnapshot) {
        fn add_into(table: &mut Vec<PhaseCycles>, add: &[PhaseCycles]) {
            if table.len() < add.len() {
                table.resize(add.len(), PhaseCycles::default());
            }
            for (dst, src) in table.iter_mut().zip(add) {
                for (d, s) in dst.cycles.iter_mut().zip(&src.cycles) {
                    *d += s;
                }
            }
        }
        let mut inner = self.inner.borrow_mut();
        add_into(&mut inner.processes, &snap.processes);
        add_into(&mut inner.contexts, &snap.contexts);
    }

    /// Renders the profile as a JSON document:
    /// `{"processes": [...], "contexts": [...]}` with per-phase cycles.
    pub fn render_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{");
        for (ti, (key, table)) in [
            ("processes", &inner.processes),
            ("contexts", &inner.contexts),
        ]
        .iter()
        .enumerate()
        {
            if ti > 0 {
                out.push(',');
            }
            encode::json_string(&mut out, key);
            out.push_str(":[");
            for (i, pc) in table.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"id\":{i}"));
                for phase in Phase::all() {
                    out.push_str(&format!(",\"{}\":{}", phase.as_str(), pc.get(phase)));
                }
                out.push_str(&format!(",\"total\":{}}}", pc.total()));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// A plain-data copy of a profiler's tables, safe to send across threads
/// (see [`Profiler::snapshot`] / [`Profiler::merge`]).
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    processes: Vec<PhaseCycles>,
    contexts: Vec<PhaseCycles>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_scope_and_phase() {
        let p = Profiler::new();
        p.record(Scope::Process(0), Phase::Compute, 10);
        p.record(Scope::Process(0), Phase::Compute, 5);
        p.record(Scope::Process(0), Phase::MemoryStall, 7);
        p.record(Scope::Process(2), Phase::SwitchCost, 3);
        p.record(Scope::Context(1), Phase::Compute, 9);

        assert_eq!(p.process_cycles(0).get(Phase::Compute), 15);
        assert_eq!(p.process_cycles(0).get(Phase::MemoryStall), 7);
        assert_eq!(p.process_cycles(0).total(), 22);
        assert_eq!(p.process_cycles(1), PhaseCycles::default());
        assert_eq!(p.process_cycles(2).get(Phase::SwitchCost), 3);
        assert_eq!(p.context_cycles(1).get(Phase::Compute), 9);
        assert_eq!(p.num_processes(), 3);
        assert_eq!(p.num_contexts(), 2);
    }

    #[test]
    fn snapshot_merge_matches_serial_recording() {
        fn assert_send<T: Send>() {}
        assert_send::<ProfileSnapshot>();
        let serial = Profiler::new();
        let merged = Profiler::new();
        for worker in 0..3u32 {
            let w = Profiler::new();
            serial.record(Scope::Process(worker), Phase::Compute, 10);
            w.record(Scope::Process(worker), Phase::Compute, 10);
            serial.record(Scope::Context(0), Phase::SwitchCost, 5);
            w.record(Scope::Context(0), Phase::SwitchCost, 5);
            merged.merge(&w.snapshot());
        }
        assert_eq!(serial.render_json(), merged.render_json());
        assert_eq!(merged.context_cycles(0).get(Phase::SwitchCost), 15);
    }

    #[test]
    fn json_lists_all_scopes() {
        let p = Profiler::new();
        p.record(Scope::Process(1), Phase::MemoryStall, 4);
        let json = p.render_json();
        assert!(json.contains("\"processes\":["));
        assert!(json.contains("\"memory_stall\":4"));
        assert!(json.contains("\"contexts\":[]"));
        // Process 0 exists as an all-zero row (dense table).
        assert!(json.contains("{\"id\":0,\"compute\":0"));
    }
}
