//! Structured event tracing: a bounded ring buffer of typed simulator
//! events with monotonic sequence numbers and JSONL export.
//!
//! Events are `Copy` and carry only scalars and `&'static str` names, so
//! recording one is a couple of stores into a preallocated ring — no heap
//! allocation on the hot path. The sequence number survives ring overwrite
//! (dropped events leave a visible gap), which keeps exported traces
//! record/replay-friendly: a consumer can detect truncation and two runs of
//! a deterministic simulation produce identical JSONL byte-for-byte.

use crate::encode;
use std::cell::RefCell;
use std::rc::Rc;

/// The memory operation kind, mirrored from the simulator (the telemetry
/// crate sits below `timecache-sim` in the dependency graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// Instruction fetch.
    IFetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessOp {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            AccessOp::IFetch => "ifetch",
            AccessOp::Load => "load",
            AccessOp::Store => "store",
        }
    }
}

/// Which component serviced (or bounded the latency of) an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The core's private L1.
    L1,
    /// The shared last-level cache.
    Llc,
    /// A remote core's private cache.
    RemoteL1,
    /// Main memory.
    Memory,
}

impl ServedBy {
    /// Stable lowercase name used in exports and as a histogram label.
    pub fn as_str(self) -> &'static str {
        match self {
            ServedBy::L1 => "l1",
            ServedBy::Llc => "llc",
            ServedBy::RemoteL1 => "remote_l1",
            ServedBy::Memory => "memory",
        }
    }
}

/// One typed simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// One memory access completed, with its outcome per level.
    /// `FirstAccess` outcomes are visible as the `first_access_*` flags —
    /// the paper's new miss class.
    Access {
        /// Core performing the access.
        core: u32,
        /// SMT thread within the core.
        thread: u32,
        /// Fetch/load/store.
        op: AccessOp,
        /// Component that determined the latency.
        served_by: ServedBy,
        /// Observed latency in cycles.
        latency: u64,
        /// Whether the L1 had a tag hit.
        l1_tag_hit: bool,
        /// First-access miss charged at the L1 (tag hit, s-bit clear).
        first_access_l1: bool,
        /// First-access miss charged at the LLC.
        first_access_llc: bool,
        /// The accessed line address.
        line: u64,
    },
    /// A line was evicted by replacement.
    Eviction {
        /// Cache name ("L1I", "L1D", "LLC").
        cache: &'static str,
        /// The displaced line address.
        line: u64,
        /// Whether the victim held modified data.
        dirty: bool,
    },
    /// A line was invalidated (coherence, back-invalidation, `clflush`).
    Invalidation {
        /// Cache name.
        cache: &'static str,
        /// The invalidated line address.
        line: u64,
        /// Whether the line was dirty.
        dirty: bool,
    },
    /// A dirty line was written back.
    Writeback {
        /// Cache name.
        cache: &'static str,
        /// The written-back line address.
        line: u64,
    },
    /// A process's caching context was saved at a context switch.
    SwitchSave {
        /// Core of the hardware context.
        core: u32,
        /// SMT thread of the hardware context.
        thread: u32,
        /// Process whose context was saved.
        pid: u32,
    },
    /// A process's caching context was restored at a context switch,
    /// including the comparator sweep and the s-bit snapshot DMA (priced at
    /// the paper's constant 1.08 µs charge under the default cost model).
    SwitchRestore {
        /// Core of the hardware context.
        core: u32,
        /// SMT thread of the hardware context.
        thread: u32,
        /// Incoming process.
        pid: u32,
        /// Bit-serial comparator cycles (max across levels).
        comparator_cycles: u64,
        /// 64-byte snapshot transfers summed across levels.
        transfer_lines: u64,
        /// Total cycles charged for the switch (base + DMA + comparator).
        charged_cycles: u64,
        /// s-bits reset by the comparator sweep.
        sbits_reset: u64,
    },
    /// Timestamp rollover was detected during a restore: every s-bit of
    /// the affected context is conservatively reset.
    RolloverReset {
        /// Core of the hardware context.
        core: u32,
        /// SMT thread of the hardware context.
        thread: u32,
        /// Incoming process.
        pid: u32,
    },
    /// An attacker probe measurement (reload/time step of an attack
    /// program), feeding threshold calibration.
    Probe {
        /// Attack name ("flush_reload", "evict_time", ...).
        attack: &'static str,
        /// Measured latency in cycles.
        latency: u64,
        /// Whether the attacker classified it as a hit.
        hit: bool,
    },
    /// The fault injector struck. `detected` records whether the defense
    /// explicitly caught the fault (checksum / redundancy / software
    /// rollover cross-check) rather than being conservative by construction.
    FaultInjected {
        /// Fault kind name ("drop_snapshot", "flip_comparator", ...).
        kind: &'static str,
        /// Trigger point name ("save", "restore", "compare", "rollover").
        trigger: &'static str,
        /// Whether the defense explicitly detected the fault.
        detected: bool,
    },
    /// The security-invariant checker caught a process observing a
    /// hit-latency access to a line it has not itself paid a first-access
    /// miss for since its `Ts` — a defense failure.
    InvariantViolation {
        /// The observing process.
        pid: u32,
        /// The line address (line-granular, not byte).
        line: u64,
        /// The observed (too fast) latency in cycles.
        latency: u64,
        /// The component that serviced the access.
        served_by: ServedBy,
    },
}

impl TraceEvent {
    /// Stable event-type name used in exports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Access { .. } => "access",
            TraceEvent::Eviction { .. } => "eviction",
            TraceEvent::Invalidation { .. } => "invalidation",
            TraceEvent::Writeback { .. } => "writeback",
            TraceEvent::SwitchSave { .. } => "switch_save",
            TraceEvent::SwitchRestore { .. } => "switch_restore",
            TraceEvent::RolloverReset { .. } => "rollover_reset",
            TraceEvent::Probe { .. } => "probe",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::InvariantViolation { .. } => "invariant_violation",
        }
    }
}

/// A recorded event: global sequence number, simulated cycle, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic sequence number (gaps reveal ring overwrites).
    pub seq: u64,
    /// Simulated cycle at which the event was recorded.
    pub cycle: u64,
    /// The event payload.
    pub event: TraceEvent,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<EventRecord>,
    capacity: usize,
    /// Index of the oldest record when the ring is full.
    head: usize,
    next_seq: u64,
    dropped: u64,
}

/// The bounded event tracer. Cloning shares the ring.
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: Rc<RefCell<Ring>>,
}

impl Tracer {
    /// Creates a tracer retaining at most `capacity` events (oldest are
    /// overwritten once full). The ring is preallocated up front.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be nonzero");
        Tracer {
            ring: Rc::new(RefCell::new(Ring {
                buf: Vec::with_capacity(capacity),
                capacity,
                head: 0,
                next_seq: 0,
                dropped: 0,
            })),
        }
    }

    /// Records one event at `cycle`. O(1), allocation-free.
    #[inline]
    pub fn record(&self, cycle: u64, event: TraceEvent) {
        let mut ring = self.ring.borrow_mut();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let rec = EventRecord { seq, cycle, event };
        if ring.buf.len() < ring.capacity {
            ring.buf.push(rec);
        } else {
            let head = ring.head;
            ring.buf[head] = rec;
            ring.head = (head + 1) % ring.capacity;
            ring.dropped += 1;
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring.borrow().buf.len()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.ring.borrow().next_seq
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.borrow().dropped
    }

    /// The retained events in sequence order (oldest first).
    pub fn records(&self) -> Vec<EventRecord> {
        let ring = self.ring.borrow();
        let mut out = Vec::with_capacity(ring.buf.len());
        if ring.buf.len() < ring.capacity {
            out.extend_from_slice(&ring.buf);
        } else {
            out.extend_from_slice(&ring.buf[ring.head..]);
            out.extend_from_slice(&ring.buf[..ring.head]);
        }
        out
    }

    /// Counts `n` events as recorded and dropped without retaining any (the
    /// events a merged tracer overwrote).
    pub(crate) fn skip(&self, n: u64) {
        let mut ring = self.ring.borrow_mut();
        ring.next_seq += n;
        ring.dropped += n;
    }

    /// Discards all retained events (sequence numbers keep counting).
    pub fn clear(&self) {
        let mut ring = self.ring.borrow_mut();
        ring.buf.clear();
        ring.head = 0;
    }

    /// Exports the retained events as JSON Lines: one self-describing JSON
    /// object per line, in sequence order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.records() {
            write_record(&mut out, &rec);
            out.push('\n');
        }
        out
    }
}

fn write_record(out: &mut String, rec: &EventRecord) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"seq\":{},\"cycle\":{},\"type\":\"{}\"",
        rec.seq,
        rec.cycle,
        rec.event.kind()
    );
    match rec.event {
        TraceEvent::Access {
            core,
            thread,
            op,
            served_by,
            latency,
            l1_tag_hit,
            first_access_l1,
            first_access_llc,
            line,
        } => {
            let _ = write!(
                out,
                ",\"core\":{core},\"thread\":{thread},\"op\":\"{}\",\"served_by\":\"{}\",\
                 \"latency\":{latency},\"l1_tag_hit\":{l1_tag_hit},\
                 \"first_access_l1\":{first_access_l1},\"first_access_llc\":{first_access_llc},\
                 \"line\":{line}",
                op.as_str(),
                served_by.as_str()
            );
        }
        TraceEvent::Eviction { cache, line, dirty } => {
            let _ = write!(out, ",\"cache\":");
            encode::json_string(out, cache);
            let _ = write!(out, ",\"line\":{line},\"dirty\":{dirty}");
        }
        TraceEvent::Invalidation { cache, line, dirty } => {
            let _ = write!(out, ",\"cache\":");
            encode::json_string(out, cache);
            let _ = write!(out, ",\"line\":{line},\"dirty\":{dirty}");
        }
        TraceEvent::Writeback { cache, line } => {
            let _ = write!(out, ",\"cache\":");
            encode::json_string(out, cache);
            let _ = write!(out, ",\"line\":{line}");
        }
        TraceEvent::SwitchSave { core, thread, pid } => {
            let _ = write!(out, ",\"core\":{core},\"thread\":{thread},\"pid\":{pid}");
        }
        TraceEvent::SwitchRestore {
            core,
            thread,
            pid,
            comparator_cycles,
            transfer_lines,
            charged_cycles,
            sbits_reset,
        } => {
            let _ = write!(
                out,
                ",\"core\":{core},\"thread\":{thread},\"pid\":{pid},\
                 \"comparator_cycles\":{comparator_cycles},\"transfer_lines\":{transfer_lines},\
                 \"charged_cycles\":{charged_cycles},\"sbits_reset\":{sbits_reset}"
            );
        }
        TraceEvent::RolloverReset { core, thread, pid } => {
            let _ = write!(out, ",\"core\":{core},\"thread\":{thread},\"pid\":{pid}");
        }
        TraceEvent::Probe {
            attack,
            latency,
            hit,
        } => {
            let _ = write!(out, ",\"attack\":");
            encode::json_string(out, attack);
            let _ = write!(out, ",\"latency\":{latency},\"hit\":{hit}");
        }
        TraceEvent::FaultInjected {
            kind,
            trigger,
            detected,
        } => {
            let _ = write!(out, ",\"kind\":");
            encode::json_string(out, kind);
            let _ = write!(out, ",\"trigger\":");
            encode::json_string(out, trigger);
            let _ = write!(out, ",\"detected\":{detected}");
        }
        TraceEvent::InvariantViolation {
            pid,
            line,
            latency,
            served_by,
        } => {
            let _ = write!(
                out,
                ",\"pid\":{pid},\"line\":{line},\"latency\":{latency},\"served_by\":\"{}\"",
                served_by.as_str()
            );
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(latency: u64) -> TraceEvent {
        TraceEvent::Probe {
            attack: "test",
            latency,
            hit: latency < 10,
        }
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let t = Tracer::with_capacity(8);
        for i in 0..5 {
            t.record(i * 10, probe(i));
        }
        let recs = t.records();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[4].seq, 4);
        assert_eq!(recs[4].cycle, 40);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::with_capacity(3);
        for i in 0..7u64 {
            t.record(i, probe(i));
        }
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![4, 5, 6],
            "oldest events overwritten, order preserved"
        );
        assert_eq!(t.dropped(), 4);
        assert_eq!(t.recorded(), 7);
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let t = Tracer::with_capacity(4);
        t.record(5, probe(3));
        t.record(
            9,
            TraceEvent::Access {
                core: 0,
                thread: 1,
                op: AccessOp::Load,
                served_by: ServedBy::Memory,
                latency: 200,
                l1_tag_hit: true,
                first_access_l1: true,
                first_access_llc: false,
                line: 0x40,
            },
        );
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"probe\""));
        assert!(lines[1].contains("\"type\":\"access\""));
        assert!(lines[1].contains("\"first_access_l1\":true"));
        assert!(lines[1].contains("\"served_by\":\"memory\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn robustness_events_export_as_jsonl() {
        let t = Tracer::with_capacity(4);
        t.record(
            10,
            TraceEvent::FaultInjected {
                kind: "corrupt_snapshot",
                trigger: "restore",
                detected: true,
            },
        );
        t.record(
            11,
            TraceEvent::InvariantViolation {
                pid: 3,
                line: 0x40,
                latency: 2,
                served_by: ServedBy::L1,
            },
        );
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"type\":\"fault_injected\""));
        assert!(lines[0].contains("\"kind\":\"corrupt_snapshot\""));
        assert!(lines[0].contains("\"trigger\":\"restore\""));
        assert!(lines[0].contains("\"detected\":true"));
        assert!(lines[1].contains("\"type\":\"invariant_violation\""));
        assert!(lines[1].contains("\"pid\":3"));
        assert!(lines[1].contains("\"served_by\":\"l1\""));
    }

    #[test]
    fn clear_keeps_sequence_counting() {
        let t = Tracer::with_capacity(4);
        t.record(0, probe(1));
        t.clear();
        assert!(t.is_empty());
        t.record(1, probe(2));
        assert_eq!(t.records()[0].seq, 1, "sequence survives clear");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        Tracer::with_capacity(0);
    }
}
