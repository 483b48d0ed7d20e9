//! Trace documents: the differential oracle's input format.
//!
//! A trace is a tiny hierarchy configuration plus a flat list of events —
//! multi-process memory accesses, `clflush`es, context switches, and forks
//! over shared addresses. Traces are generated randomly ([`crate::generate`](fn@crate::generate)),
//! shrunk ([`crate::shrink`](fn@crate::shrink)), and serialized to a stable text format so
//! shrunken regressions can live in `tests/corpus/` and replay on every
//! `cargo test`.
//!
//! Every event is valid in every trace: the replay driver clamps hardware
//! contexts into range and treats unknown pids as new processes, so deleting
//! any subset of events (what the shrinker does) always leaves a well-formed
//! trace.

use timecache_core::TimeCacheConfig;
use timecache_sim::{AccessKind, CacheConfig, HierarchyConfig, SecurityMode};

/// Security-mode knobs of a trace (the cache shapes are fixed and tiny so a
/// few dozen events already exercise evictions, conflicts, and inclusion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Cores (1 or 2).
    pub cores: usize,
    /// SMT contexts per core (1 or 2).
    pub smt: usize,
    /// `None` = baseline; `Some(bits)` = TimeCache with that counter width.
    pub ts_bits: Option<u8>,
    /// Constant-time `clflush` mitigation (Section VII-C).
    pub constant_time_clflush: bool,
    /// DRAM-wait-on-remote-hit mitigation (Section VII-B).
    pub dram_wait: bool,
}

impl TraceConfig {
    /// The simulator configuration this trace runs on: 256 B 2-way L1s over
    /// a 1 KiB 2-way LLC (4 and 16 lines — small enough that conflict
    /// evictions and inclusive back-invalidations happen constantly).
    pub fn hierarchy(&self) -> HierarchyConfig {
        let mut cfg = HierarchyConfig::with_cores(self.cores);
        cfg.smt_per_core = self.smt;
        cfg.l1i = CacheConfig::new(256, 2, 64);
        cfg.l1d = CacheConfig::new(256, 2, 64);
        cfg.llc = CacheConfig::new(1024, 2, 64);
        cfg.security = match self.ts_bits {
            None => SecurityMode::Baseline,
            Some(bits) => SecurityMode::TimeCache(
                TimeCacheConfig::new(bits)
                    .with_constant_time_clflush(self.constant_time_clflush)
                    .with_dram_wait_on_remote_hit(self.dram_wait),
            ),
        };
        cfg
    }
}

/// One trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A memory access by whatever process currently runs on
    /// `(core, thread)`.
    Access {
        core: usize,
        thread: usize,
        kind: AccessKind,
        addr: u64,
    },
    /// `clflush` of an address (attributed to no particular context, like
    /// the real hierarchy's `clflush`).
    Flush { addr: u64 },
    /// Context switch on `(core, thread)` to process `pid` (save the
    /// incumbent, restore `pid`'s snapshot — or reset, if `pid` is new).
    /// Switching to the incumbent pid is a no-op (the CR3 rule the OS
    /// layer implements).
    Switch {
        core: usize,
        thread: usize,
        pid: u32,
    },
    /// Fork: snapshot the process currently on `(core, thread)` as the
    /// caching context of new process `child` (the child inherits the
    /// parent's address space — COW — and, at this boundary, its s-bits as
    /// of the fork instant).
    Fork {
        core: usize,
        thread: usize,
        child: u32,
    },
}

/// A full differential-oracle input: configuration plus events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDoc {
    pub cfg: TraceConfig,
    pub events: Vec<Event>,
}

/// A malformed trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn kind_tag(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::IFetch => "I",
        AccessKind::Load => "L",
        AccessKind::Store => "S",
    }
}

impl TraceDoc {
    /// Serializes to the corpus text format (see [`TraceDoc::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mode = match self.cfg.ts_bits {
            None => "baseline".to_owned(),
            Some(bits) => format!("tc{bits}"),
        };
        out.push_str(&format!(
            "cfg cores={} smt={} mode={} ctc={} dramwait={}\n",
            self.cfg.cores,
            self.cfg.smt,
            mode,
            self.cfg.constant_time_clflush as u8,
            self.cfg.dram_wait as u8,
        ));
        for ev in &self.events {
            match *ev {
                Event::Access {
                    core,
                    thread,
                    kind,
                    addr,
                } => out.push_str(&format!("A {core} {thread} {} {addr:x}\n", kind_tag(kind))),
                Event::Flush { addr } => out.push_str(&format!("F {addr:x}\n")),
                Event::Switch { core, thread, pid } => {
                    out.push_str(&format!("W {core} {thread} {pid}\n"))
                }
                Event::Fork {
                    core,
                    thread,
                    child,
                } => out.push_str(&format!("K {core} {thread} {child}\n")),
            }
        }
        out
    }

    /// Parses the corpus text format:
    ///
    /// ```text
    /// # comment
    /// cfg cores=1 smt=1 mode=tc8 ctc=0 dramwait=0
    /// A <core> <thread> <I|L|S> <addr-hex>
    /// F <addr-hex>
    /// W <core> <thread> <pid>
    /// K <core> <thread> <child-pid>
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first malformed line.
    pub fn from_text(text: &str) -> Result<TraceDoc, TraceError> {
        let err = |line: usize, message: String| TraceError { line, message };
        let mut cfg: Option<TraceConfig> = None;
        let mut events = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = no + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let tag = parts
                .next()
                .ok_or_else(|| err(lineno, "empty line".into()))?;
            let mut dec = |name: &str| -> Result<u64, TraceError> {
                let tok = parts
                    .next()
                    .ok_or_else(|| err(lineno, format!("missing {name}")))?;
                tok.parse()
                    .map_err(|e| err(lineno, format!("bad {name} ({e})")))
            };
            match tag {
                "cfg" => {
                    let mut c = TraceConfig {
                        cores: 1,
                        smt: 1,
                        ts_bits: None,
                        constant_time_clflush: false,
                        dram_wait: false,
                    };
                    for kv in line.split_whitespace().skip(1) {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| err(lineno, format!("bad cfg field {kv:?}")))?;
                        match k {
                            "cores" => {
                                c.cores = v
                                    .parse()
                                    .map_err(|e| err(lineno, format!("bad cores ({e})")))?
                            }
                            "smt" => {
                                c.smt = v
                                    .parse()
                                    .map_err(|e| err(lineno, format!("bad smt ({e})")))?
                            }
                            "mode" => {
                                c.ts_bits = if v == "baseline" {
                                    None
                                } else if let Some(bits) = v.strip_prefix("tc") {
                                    Some(bits.parse().map_err(|e| {
                                        err(lineno, format!("bad mode width ({e})"))
                                    })?)
                                } else {
                                    return Err(err(lineno, format!("unknown mode {v:?}")));
                                }
                            }
                            "ctc" => c.constant_time_clflush = v == "1",
                            "dramwait" => c.dram_wait = v == "1",
                            other => return Err(err(lineno, format!("unknown cfg key {other:?}"))),
                        }
                    }
                    cfg = Some(c);
                }
                "A" => {
                    let core = dec("core")? as usize;
                    let thread = dec("thread")? as usize;
                    let kind = match parts.next() {
                        Some("I") => AccessKind::IFetch,
                        Some("L") => AccessKind::Load,
                        Some("S") => AccessKind::Store,
                        other => return Err(err(lineno, format!("bad access kind {other:?}"))),
                    };
                    let tok = parts
                        .next()
                        .ok_or_else(|| err(lineno, "missing addr".into()))?;
                    let addr = u64::from_str_radix(tok, 16)
                        .map_err(|e| err(lineno, format!("bad addr ({e})")))?;
                    events.push(Event::Access {
                        core,
                        thread,
                        kind,
                        addr,
                    });
                }
                "F" => {
                    let tok = parts
                        .next()
                        .ok_or_else(|| err(lineno, "missing addr".into()))?;
                    let addr = u64::from_str_radix(tok, 16)
                        .map_err(|e| err(lineno, format!("bad addr ({e})")))?;
                    events.push(Event::Flush { addr });
                }
                "W" => {
                    let core = dec("core")? as usize;
                    let thread = dec("thread")? as usize;
                    let pid = dec("pid")? as u32;
                    events.push(Event::Switch { core, thread, pid });
                }
                "K" => {
                    let core = dec("core")? as usize;
                    let thread = dec("thread")? as usize;
                    let child = dec("child")? as u32;
                    events.push(Event::Fork {
                        core,
                        thread,
                        child,
                    });
                }
                other => return Err(err(lineno, format!("unknown tag {other:?}"))),
            }
        }
        let cfg = cfg.ok_or_else(|| err(1, "missing cfg line".into()))?;
        Ok(TraceDoc { cfg, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let doc = TraceDoc {
            cfg: TraceConfig {
                cores: 2,
                smt: 2,
                ts_bits: Some(8),
                constant_time_clflush: true,
                dram_wait: false,
            },
            events: vec![
                Event::Access {
                    core: 1,
                    thread: 0,
                    kind: AccessKind::Store,
                    addr: 0x1040,
                },
                Event::Flush { addr: 0x1040 },
                Event::Switch {
                    core: 0,
                    thread: 1,
                    pid: 7,
                },
                Event::Fork {
                    core: 0,
                    thread: 0,
                    child: 9,
                },
            ],
        };
        let text = doc.to_text();
        assert_eq!(TraceDoc::from_text(&text).unwrap(), doc);
    }

    #[test]
    fn reports_malformed_lines() {
        let e = TraceDoc::from_text("cfg cores=1 smt=1 mode=tc8 ctc=0 dramwait=0\nA 0 0 Q 40\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("access kind"), "{e}");
        assert!(TraceDoc::from_text("A 0 0 L 40\n").is_err(), "cfg required");
    }
}
