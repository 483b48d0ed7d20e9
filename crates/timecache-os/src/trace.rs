//! Trace recording and replay.
//!
//! Execution-driven programs are the primary interface, but a trace-driven
//! mode is valuable for reproducibility (capture an interesting run once,
//! replay it bit-for-bit), for cross-tool comparison (feed the same trace
//! to another simulator), and for regression-pinning workloads in tests.
//!
//! [`Recorder`] wraps any [`Program`] and logs every op it emits;
//! [`TraceProgram`] replays a recorded op stream. A compact text
//! serialization (one op per line) keeps traces diffable and
//! storable as fixtures.

use crate::error::OsError;
use crate::program::{DataKind, Observation, Op, Program};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use timecache_sim::{AccessKind, AccessOutcome, Hierarchy};

/// A recorded instruction trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<Op>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The recorded ops.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends one op.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Serializes to the line-oriented text format:
    ///
    /// ```text
    /// I <pc>                 # instruction without data access
    /// L <pc> <addr>          # load
    /// S <pc> <addr>          # store
    /// F <pc> <target>        # clflush
    /// Y <pc>                 # yield
    /// D                      # done
    /// ```
    ///
    /// Addresses are lowercase hex without prefix.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.ops.len() * 16);
        for op in &self.ops {
            match *op {
                Op::Instr { pc, data: None } => {
                    let _ = writeln!(out, "I {pc:x}");
                }
                Op::Instr {
                    pc,
                    data: Some((DataKind::Load, a)),
                } => {
                    let _ = writeln!(out, "L {pc:x} {a:x}");
                }
                Op::Instr {
                    pc,
                    data: Some((DataKind::Store, a)),
                } => {
                    let _ = writeln!(out, "S {pc:x} {a:x}");
                }
                Op::Flush { pc, target } => {
                    let _ = writeln!(out, "F {pc:x} {target:x}");
                }
                Op::Yield { pc } => {
                    let _ = writeln!(out, "Y {pc:x}");
                }
                Op::Done => {
                    let _ = writeln!(out, "D");
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`Trace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`OsError::TraceParse`] describing the first malformed
    /// line (its `Display` keeps the historical `line N: ...` shape).
    pub fn from_text(text: &str) -> Result<Self, OsError> {
        let mut ops = Vec::new();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            // A line with no tokens is blank: skip it. This replaces the
            // old `expect("nonempty line")` panic path with control flow
            // that cannot be wrong about whitespace handling.
            let Some(tag) = parts.next() else {
                continue;
            };
            let mut hex = |name: &str| -> Result<u64, OsError> {
                let tok = parts.next().ok_or_else(|| OsError::TraceParse {
                    line: no + 1,
                    message: format!("missing {name}"),
                })?;
                u64::from_str_radix(tok, 16).map_err(|e| OsError::TraceParse {
                    line: no + 1,
                    message: format!("bad {name} ({e})"),
                })
            };
            let op = match tag {
                "I" => Op::Instr {
                    pc: hex("pc")?,
                    data: None,
                },
                "L" => Op::Instr {
                    pc: hex("pc")?,
                    data: Some((DataKind::Load, hex("addr")?)),
                },
                "S" => Op::Instr {
                    pc: hex("pc")?,
                    data: Some((DataKind::Store, hex("addr")?)),
                },
                "F" => Op::Flush {
                    pc: hex("pc")?,
                    target: hex("target")?,
                },
                "Y" => Op::Yield { pc: hex("pc")? },
                "D" => Op::Done,
                other => {
                    return Err(OsError::TraceParse {
                        line: no + 1,
                        message: format!("unknown tag {other:?}"),
                    })
                }
            };
            if let Some(extra) = parts.next() {
                return Err(OsError::TraceParse {
                    line: no + 1,
                    message: format!("trailing token {extra:?} after {tag} op"),
                });
            }
            ops.push(op);
        }
        Ok(Trace { ops })
    }

    /// Replays the trace's memory operations directly against a
    /// [`Hierarchy`] as hardware context `(core, thread)`, without the
    /// scheduler: each `Instr` is an instruction fetch at its pc plus the
    /// optional data access, `Flush` executes a `clflush`, `Yield` is a
    /// no-op (there is no scheduler to yield to), and `Done` stops the
    /// replay. The clock starts at `start` and advances serially — each
    /// operation issues when the previous one completes.
    ///
    /// Returns the access outcomes in program order and the final clock
    /// value.
    pub fn replay_hierarchy(
        &self,
        hier: &mut Hierarchy,
        core: usize,
        thread: usize,
        start: u64,
    ) -> (Vec<AccessOutcome>, u64) {
        let mut outcomes = Vec::new();
        let mut now = start;
        let mut access = |hier: &mut Hierarchy, kind, addr, now: &mut u64| {
            let out = hier.access(core, thread, kind, addr, *now);
            *now += out.latency;
            outcomes.push(out);
        };
        for op in &self.ops {
            match *op {
                Op::Instr { pc, data } => {
                    access(hier, AccessKind::IFetch, pc, &mut now);
                    if let Some((kind, addr)) = data {
                        let kind = match kind {
                            DataKind::Load => AccessKind::Load,
                            DataKind::Store => AccessKind::Store,
                        };
                        access(hier, kind, addr, &mut now);
                    }
                }
                Op::Flush { pc, target } => {
                    access(hier, AccessKind::IFetch, pc, &mut now);
                    now += hier.clflush(target);
                }
                Op::Yield { pc } => access(hier, AccessKind::IFetch, pc, &mut now),
                Op::Done => break,
            }
        }
        (outcomes, now)
    }
}

/// Shared handle to a trace being recorded.
pub type TraceHandle = Rc<RefCell<Trace>>;

/// Wraps a program, recording every op it emits (including the final
/// `Done`) into a shared [`Trace`].
pub struct Recorder<P> {
    inner: P,
    trace: TraceHandle,
}

impl<P: Program> Recorder<P> {
    /// Wraps `inner`; read the trace from the returned handle after the
    /// run.
    pub fn new(inner: P) -> (Self, TraceHandle) {
        let trace: TraceHandle = Rc::new(RefCell::new(Trace::new()));
        (
            Recorder {
                inner,
                trace: Rc::clone(&trace),
            },
            trace,
        )
    }
}

impl<P: Program> Program for Recorder<P> {
    fn next_op(&mut self) -> Op {
        let op = self.inner.next_op();
        self.trace.borrow_mut().push(op);
        op
    }

    fn observe(&mut self, obs: Observation) {
        self.inner.observe(obs);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Recorder<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("inner", &self.inner)
            .finish()
    }
}

/// Replays a [`Trace`] as a program. Emits `Done` forever once exhausted.
#[derive(Debug, Clone)]
pub struct TraceProgram {
    trace: Trace,
    cursor: usize,
    name: String,
}

impl TraceProgram {
    /// Builds a replayer.
    pub fn new(trace: Trace, name: impl Into<String>) -> Self {
        TraceProgram {
            trace,
            cursor: 0,
            name: name.into(),
        }
    }
}

impl Program for TraceProgram {
    fn next_op(&mut self) -> Op {
        match self.trace.ops().get(self.cursor) {
            Some(&op) => {
                self.cursor += 1;
                op
            }
            None => Op::Done,
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{SharedWriter, Spin};
    use crate::{System, SystemConfig};

    #[test]
    fn text_roundtrip_covers_every_op() {
        let mut t = Trace::new();
        t.push(Op::Instr {
            pc: 0x10,
            data: None,
        });
        t.push(Op::Instr {
            pc: 0x20,
            data: Some((DataKind::Load, 0xABC)),
        });
        t.push(Op::Instr {
            pc: 0x30,
            data: Some((DataKind::Store, 0xDEF)),
        });
        t.push(Op::Flush {
            pc: 0x40,
            target: 0x123,
        });
        t.push(Op::Yield { pc: 0x50 });
        t.push(Op::Done);
        let text = t.to_text();
        assert_eq!(Trace::from_text(&text).unwrap(), t);
    }

    #[test]
    fn parser_skips_blank_and_comment_lines() {
        let t = Trace::from_text("# header\n\nI 10\n  # trailing\nD\n").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn parser_reports_bad_lines() {
        // Errors are typed now; Display keeps the historical text.
        let err = Trace::from_text("X 10").unwrap_err();
        assert!(matches!(err, crate::OsError::TraceParse { line: 1, .. }));
        assert!(err.to_string().contains("unknown tag"));
        assert!(Trace::from_text("L 10")
            .unwrap_err()
            .to_string()
            .contains("missing addr"));
        assert_eq!(
            Trace::from_text("I 10\nL zz 10").unwrap_err().to_string(),
            "line 2: bad pc (invalid digit found in string)"
        );
    }

    #[test]
    fn parser_rejects_trailing_tokens() {
        let err = Trace::from_text("D one-field-too-many").unwrap_err();
        assert!(matches!(err, crate::OsError::TraceParse { line: 1, .. }));
        assert!(err.to_string().contains("trailing token"));
        assert!(Trace::from_text("I 10 20").is_err());
        assert!(Trace::from_text("L 10 20 30").is_err());
    }

    #[test]
    fn parser_skips_whitespace_only_lines_without_panicking() {
        // The old parser `expect`ed at least one token on any line that
        // survived the blank/comment filter; whitespace-only lines must
        // parse as blank, not panic or error.
        let t = Trace::from_text("\t \nI 10\n   \nD\n").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn recorder_captures_program_output() {
        let (rec, handle) = Recorder::new(SharedWriter::new(0x1000, 2, 64));
        let mut rec = rec;
        let emitted: Vec<Op> = (0..5).map(|_| rec.next_op()).collect();
        assert_eq!(handle.borrow().ops(), emitted.as_slice());
        assert_eq!(rec.name(), "shared-writer");
    }

    #[test]
    fn replay_reproduces_a_recorded_run_exactly() {
        // Record a run, then replay the trace: same cycle count and stats.
        let run = |program: Box<dyn Program>| {
            let mut sys = System::new(SystemConfig::default()).unwrap();
            sys.spawn(program, 0, 0, Some(2_000));
            sys.run(u64::MAX)
        };

        let (rec, handle) = Recorder::new(SharedWriter::new(0x2000, 16, 64));
        let original = run(Box::new(rec));
        let trace = handle.borrow().clone();
        let replayed = run(Box::new(TraceProgram::new(trace, "replay")));

        assert_eq!(original.total_cycles, replayed.total_cycles);
        assert_eq!(original.stats, replayed.stats);
    }

    #[test]
    fn exhausted_trace_is_done() {
        let mut p = TraceProgram::new(Trace::new(), "empty");
        assert_eq!(p.next_op(), Op::Done);
        assert_eq!(p.next_op(), Op::Done);
        assert_eq!(p.name(), "empty");
    }

    #[test]
    fn replay_hierarchy_matches_per_access_loop() {
        use timecache_sim::HierarchyConfig;

        let trace = Trace::from_text(
            "I 10\nL 20 4000\nS 24 4040\nI 28\nF 2c 4000\nY 30\nL 34 8000\nD\nI ff\n",
        )
        .unwrap();

        let mut replayed = Hierarchy::new(HierarchyConfig::default()).unwrap();
        let (outs, end) = trace.replay_hierarchy(&mut replayed, 0, 0, 1);

        // Reference: the same op stream through Hierarchy::access one at a
        // time with the same serial clock rule.
        let mut reference = Hierarchy::new(HierarchyConfig::default()).unwrap();
        let mut now = 1;
        let mut expect = Vec::new();
        let one = |h: &mut Hierarchy, now: &mut u64, kind, addr| {
            let o = h.access(0, 0, kind, addr, *now);
            *now += o.latency;
            o
        };
        expect.push(one(&mut reference, &mut now, AccessKind::IFetch, 0x10));
        expect.push(one(&mut reference, &mut now, AccessKind::IFetch, 0x20));
        expect.push(one(&mut reference, &mut now, AccessKind::Load, 0x4000));
        expect.push(one(&mut reference, &mut now, AccessKind::IFetch, 0x24));
        expect.push(one(&mut reference, &mut now, AccessKind::Store, 0x4040));
        expect.push(one(&mut reference, &mut now, AccessKind::IFetch, 0x28));
        expect.push(one(&mut reference, &mut now, AccessKind::IFetch, 0x2c));
        now += reference.clflush(0x4000);
        expect.push(one(&mut reference, &mut now, AccessKind::IFetch, 0x30));
        expect.push(one(&mut reference, &mut now, AccessKind::IFetch, 0x34));
        expect.push(one(&mut reference, &mut now, AccessKind::Load, 0x8000));

        assert_eq!(outs, expect);
        assert_eq!(end, now);
        assert_eq!(replayed.stats(), reference.stats());
    }

    #[test]
    fn spin_records_done_marker() {
        let (rec, handle) = Recorder::new(Spin::new(1));
        let mut rec = rec;
        while rec.next_op() != Op::Done {}
        let t = handle.borrow();
        assert_eq!(t.ops().last(), Some(&Op::Done));
    }
}
