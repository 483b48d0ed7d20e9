//! The differential driver: replays one trace through the real
//! [`Hierarchy`] and the reference model in lock-step, comparing every
//! observable — per-access [`timecache_sim::AccessOutcome`] (latency class,
//! serving level, first-access decisions), `clflush` latencies, context
//! [`timecache_sim::SwitchCost`]s, and the final
//! [`timecache_sim::HierarchyStats`].
//!
//! The driver owns the pieces the `System` scheduler would normally supply:
//! a per-hardware-context *current pid*, per-pid snapshot tables (one per
//! side), and a global cycle clock advanced by the real side's latencies so
//! both models see identical timestamps. A `Switch` to the incumbent pid is
//! a no-op (the OS layer's CR3 rule); a `Switch` to a never-seen pid
//! restores `None`, i.e. a fresh process.

use std::collections::BTreeMap;

use crate::generate::generate;
use crate::refmodel::{BugKind, RefContextSnapshot, RefHierarchy};
use crate::shrink::shrink;
use crate::trace::{Event, TraceDoc};
use timecache_sim::{ContextSnapshot, Hierarchy};

/// A reference-vs-simulator disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Event index the disagreement surfaced at (`None`: the final
    /// statistics comparison after the last event).
    pub step: Option<usize>,
    /// The event being replayed, if any.
    pub event: Option<Event>,
    /// Which observable disagreed.
    pub field: &'static str,
    /// The real simulator's value (Debug-formatted).
    pub real: String,
    /// The reference model's value (Debug-formatted).
    pub reference: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(step) => write!(f, "step {step} ({:?}): ", self.event)?,
            None => write!(f, "after final event: ")?,
        }
        write!(
            f,
            "{} diverged\n  simulator: {}\n  reference: {}",
            self.field, self.real, self.reference
        )
    }
}

/// Successful replay summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Events replayed.
    pub events: usize,
    /// Driver cycle clock after the last event.
    pub final_cycle: u64,
}

/// Compares one observable by value. This runs for every replayed event,
/// so the `Debug` strings are built only for the divergence report.
fn check<T: std::fmt::Debug + PartialEq>(
    step: usize,
    event: Event,
    field: &'static str,
    real: &T,
    reference: &T,
) -> Result<(), Divergence> {
    if real == reference {
        Ok(())
    } else {
        Err(Divergence {
            step: Some(step),
            event: Some(event),
            field,
            real: format!("{real:?}"),
            reference: format!("{reference:?}"),
        })
    }
}

/// Replays `doc` through both models. `bug`, if set, is injected into the
/// *reference* side — divergence detection is symmetric, so mutation tests
/// use this to prove the harness catches s-bit defects.
pub fn replay(doc: &TraceDoc, bug: Option<BugKind>) -> Result<ReplaySummary, Divergence> {
    let cfg = doc.cfg.hierarchy();
    let mut reference = RefHierarchy::new(&cfg, bug);
    let mut real = Hierarchy::new(cfg).expect("trace configs are always valid");

    let cores = doc.cfg.cores;
    let smt = doc.cfg.smt;
    // Hardware context i boots running pid i.
    let mut current: Vec<u32> = (0..(cores * smt) as u32).collect();
    let mut snaps_real: BTreeMap<u32, ContextSnapshot> = BTreeMap::new();
    let mut snaps_ref: BTreeMap<u32, RefContextSnapshot> = BTreeMap::new();
    let mut now: u64 = 1;

    for (step, &ev) in doc.events.iter().enumerate() {
        match ev {
            Event::Access {
                core,
                thread,
                kind,
                addr,
            } => {
                let (core, thread) = (core % cores, thread % smt);
                let a = real.access(core, thread, kind, addr, now);
                let b = reference.access(core, thread, kind, addr, now);
                check(step, ev, "access outcome", &a, &b)?;
                now += a.latency + 1;
            }
            Event::Flush { addr } => {
                let a = real.clflush(addr);
                let b = reference.clflush(addr);
                check(step, ev, "clflush latency", &a, &b)?;
                now += a + 1;
            }
            Event::Switch { core, thread, pid } => {
                let (core, thread) = (core % cores, thread % smt);
                let ctx = core * smt + thread;
                if current[ctx] == pid {
                    continue;
                }
                let old = current[ctx];
                snaps_real.insert(old, real.save_context(core, thread, now));
                snaps_ref.insert(old, reference.save_context(core, thread, now));
                let a = real.restore_context(core, thread, snaps_real.get(&pid), now);
                let b = reference.restore_context(core, thread, snaps_ref.get(&pid), now);
                check(step, ev, "switch cost", &a, &b)?;
                current[ctx] = pid;
                now += a.comparator_cycles + a.transfer_lines + 1;
            }
            Event::Fork {
                core,
                thread,
                child,
            } => {
                // The child inherits the running parent's caching context
                // as of the fork instant (COW address-space sharing).
                let (core, thread) = (core % cores, thread % smt);
                snaps_real.insert(child, real.save_context(core, thread, now));
                snaps_ref.insert(child, reference.save_context(core, thread, now));
                now += 1;
            }
        }
    }

    let a = real.stats();
    let b = reference.stats();
    if a != b {
        return Err(Divergence {
            step: None,
            event: None,
            field: "final statistics",
            real: format!("{a:?}"),
            reference: format!("{b:?}"),
        });
    }
    Ok(ReplaySummary {
        events: doc.events.len(),
        final_cycle: now,
    })
}

/// A divergence found by [`run_random`], already minimized.
#[derive(Debug, Clone)]
pub struct FoundDivergence {
    /// Generator seed of the offending trace.
    pub seed: u64,
    /// The (re-derived, post-shrink) divergence.
    pub divergence: Divergence,
    /// The minimized trace; serialize with
    /// [`TraceDoc::to_text`] and check it into `tests/corpus/`.
    pub shrunk: TraceDoc,
}

/// Outcome of a random differential campaign.
#[derive(Debug, Clone)]
pub struct RandomReport {
    /// Traces replayed (including the diverging one, if any).
    pub traces: u64,
    /// First divergence found, shrunk; `None` means a clean run.
    pub divergence: Option<FoundDivergence>,
}

/// Replays `count` generated traces starting at `seed`, stopping at (and
/// shrinking) the first divergence.
pub fn run_random(count: u64, seed: u64, bug: Option<BugKind>) -> RandomReport {
    for i in 0..count {
        let s = seed.wrapping_add(i);
        let doc = generate(s);
        if replay(&doc, bug).is_err() {
            let shrunk = shrink(&doc, |c| replay(c, bug).is_err());
            let divergence = replay(&shrunk, bug).expect_err("shrink preserves failure");
            return RandomReport {
                traces: i + 1,
                divergence: Some(FoundDivergence {
                    seed: s,
                    divergence,
                    shrunk,
                }),
            };
        }
    }
    RandomReport {
        traces: count,
        divergence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecache_sim::SwitchCost;

    #[test]
    fn generated_traces_agree_smoke() {
        for seed in 0..200 {
            let doc = generate(seed);
            if let Err(d) = replay(&doc, None) {
                panic!("seed {seed} diverged: {d}\ntrace:\n{}", doc.to_text());
            }
        }
    }

    #[test]
    fn check_compares_by_value_and_formats_only_on_divergence() {
        let ev = Event::Flush { addr: 0x40 };
        assert_eq!(check(3, ev, "clflush latency", &7u64, &7u64), Ok(()));

        let real = SwitchCost::default();
        let reference = SwitchCost {
            rollover: true,
            ..real
        };
        let d = check(5, ev, "switch cost", &real, &reference).expect_err("values differ");
        assert_eq!(d.step, Some(5));
        assert_eq!(d.event, Some(ev));
        assert_eq!(d.field, "switch cost");
        assert_eq!(d.real, format!("{real:?}"));
        assert_eq!(d.reference, format!("{reference:?}"));
    }

    #[test]
    fn replay_is_deterministic() {
        let doc = generate(7);
        assert_eq!(replay(&doc, None), replay(&doc, None));
    }
}
