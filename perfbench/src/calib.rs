//! Host-speed normalisation.
//!
//! The shared 2-vCPU hosts this benchmark runs on change speed by up to
//! 1.9x for seconds to minutes at a time, with no steal time and with CPU
//! time equal to wall time, so neither the process's CPU clock nor a
//! longer run removes the change. Every timed interval is therefore
//! rescaled by calibration kernels measured next to it: fixed work of the
//! kinds the simulator does but none of its code, so a change to the
//! simulator never moves them. Each sample runs two kernels:
//!
//! * a 16-way set-associative LRU cache model over 8 MB of tags and
//!   stamps — memory-bound, like the hierarchy model. Of the kernels tried
//!   (1 MB, 256 KB and 32 MB cache models, a 16 MB pointer chase, a 32 MB
//!   stream, an ALU loop) it tracked the simulation workloads best;
//! * ordered-map churn plus `Debug` formatting of small tuples —
//!   allocator- and branch-bound, like the oracle's reference model and
//!   differential checks, which the cache model tracked poorly.
//!
//! Host slowdowns hit the two kinds of work differently from one period to
//! the next, so a sample's slowness is the geometric mean of each kernel's
//! ns per iteration over its reference ([`CACHE_REF_NS`], [`ALLOC_REF_NS`]).
//! A measured interval `t` reads as `t / slowness`: host time on a host
//! where both kernels run at their reference speeds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cache-model ns per iteration at the reference host speed (the fast
/// state of a 2-vCPU Intel Xeon container at 2.0 GHz nominal).
pub const CACHE_REF_NS: f64 = 80.0;
/// Map-and-format ns per iteration at the reference host speed.
pub const ALLOC_REF_NS: f64 = 170.0;
/// Iterations per sample of each kernel: about 2.5 ms each at reference.
const CACHE_ITERS: u64 = 30_000;
const ALLOC_ITERS: u64 = 15_000;

/// Longest stretch of measured work between two samples.
const WINDOW: Duration = Duration::from_millis(50);

/// Op records pre-faulted per run: four times what `verify`, the workload
/// with the most ops, times in 15 s on the reference host.
const OPS_RESERVED: usize = 1 << 20;

const SETS: usize = 32_768;
const WAYS: usize = 16;

/// The calibration kernels and their state.
pub struct Calibrator {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    map: BTreeMap<u64, u64>,
    text: String,
    clock: u64,
    rng: u64,
    /// Every sample's ns per iteration of the cache model and of the map.
    pub cache_ns: Vec<f64>,
    pub alloc_ns: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            map: BTreeMap::new(),
            text: String::new(),
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            cache_ns: Vec::new(),
            alloc_ns: Vec::new(),
        }
    }
}

impl Calibrator {
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.clock += 1;
        self.rng
    }

    fn cache_model(&mut self) -> f64 {
        let t = Instant::now();
        let mut hits = 0u64;
        for _ in 0..black_box(CACHE_ITERS) {
            let r = self.next();
            // Three in four accesses reuse a 256 K-line footprint; the rest
            // stream through fresh lines.
            let line = if r & 3 == 0 {
                r >> 20
            } else {
                (r >> 20) & 0x3_ffff
            };
            let base = (line as usize % SETS) * WAYS;
            let tags = &mut self.tags[base..base + WAYS];
            let stamps = &mut self.stamps[base..base + WAYS];
            match tags.iter().position(|&t| t == line) {
                Some(w) => {
                    hits += 1;
                    stamps[w] = self.clock;
                }
                None => {
                    let victim = (0..WAYS).min_by_key(|&w| stamps[w]).unwrap_or(0);
                    tags[victim] = line;
                    stamps[victim] = self.clock;
                }
            }
        }
        black_box(hits);
        t.elapsed().as_nanos() as f64 / CACHE_ITERS as f64
    }

    fn map_and_format(&mut self) -> f64 {
        let t = Instant::now();
        let mut bytes = 0usize;
        for _ in 0..black_box(ALLOC_ITERS) {
            let key = self.next() % 512;
            if self.map.remove(&key).is_none() {
                self.map.insert(key, self.clock);
            }
            self.text.clear();
            let _ = write!(self.text, "{:?}", (key, self.clock));
            bytes += self.text.len();
        }
        black_box(bytes);
        t.elapsed().as_nanos() as f64 / ALLOC_ITERS as f64
    }

    /// Runs both kernels once; returns the host's slowness (1 at the
    /// reference speed).
    pub fn sample(&mut self) -> f64 {
        let cache = self.cache_model();
        let alloc = self.map_and_format();
        self.cache_ns.push(cache);
        self.alloc_ns.push(alloc);
        (cache / CACHE_REF_NS * alloc / ALLOC_REF_NS).sqrt()
    }
}

/// Collects timed intervals and rescales each by the calibration samples
/// around it. A single sample is a few ms long and catches short host
/// hiccups; the speed states it tracks last seconds. So an interval's
/// slowness is the median of the three samples before it and the three
/// after it (about 300 ms).
pub struct Meter {
    cal: Calibrator,
    last: Instant,
    /// Op host ns and the window each fell in. The buffer is written
    /// through once up front, so how many ops a run times does not move
    /// its peak RSS.
    ops: Vec<(f32, u32)>,
    setups: Vec<(f64, usize)>,
    /// Raw host time of all ops, in ns.
    pub raw_op_ns: f64,
    /// Every calibration sample's slowness.
    pub samples: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Self {
        let mut cal = Calibrator::default();
        let first = cal.sample();
        let mut ops = vec![(f32::NAN, u32::MAX); OPS_RESERVED];
        ops.clear();
        Meter {
            cal,
            last: Instant::now(),
            ops,
            setups: Vec::new(),
            raw_op_ns: 0.0,
            samples: vec![first],
        }
    }
}

impl Meter {
    /// The calibration kernels' samples.
    pub fn calibrator(&mut self) -> &mut Calibrator {
        &mut self.cal
    }

    fn window(&self) -> usize {
        self.samples.len() - 1
    }

    /// Records a timed op; takes a calibration sample when the current
    /// window is full.
    pub fn op(&mut self, d: Duration) {
        let ns = d.as_nanos() as f64;
        self.raw_op_ns += ns;
        self.ops.push((ns as f32, self.window() as u32));
        if self.last.elapsed() >= WINDOW {
            self.sample();
        }
    }

    /// Records a timed set-up.
    pub fn setup(&mut self, d: Duration) {
        self.setups.push((d.as_nanos() as f64, self.window()));
    }

    /// Takes a calibration sample, closing the current window.
    pub fn sample(&mut self) -> f64 {
        let k = self.cal.sample();
        self.samples.push(k);
        self.last = Instant::now();
        k
    }

    /// Closes the last window and returns the rescaled op times (µs) and
    /// set-up times (s).
    pub fn finish(&mut self) -> (Vec<f64>, Vec<f64>) {
        self.sample();
        let n = self.samples.len();
        let scales: Vec<f64> = (0..n - 1)
            .map(|w| {
                let mut around = self.samples[w.saturating_sub(2)..(w + 4).min(n)].to_vec();
                1.0 / crate::util::median(&mut around)
            })
            .collect();
        let ops = self
            .ops
            .iter()
            .map(|&(ns, w)| f64::from(ns) * scales[w as usize] / 1e3)
            .collect();
        let setups = self
            .setups
            .iter()
            .map(|&(ns, w)| ns * scales[w] / 1e9)
            .collect();
        (ops, setups)
    }

    /// Times `f` on its own, bracketed by fresh samples. Returns its
    /// result, its rescaled host ns, and the scale applied (for rescaling
    /// finer timings taken inside `f`).
    pub fn scaled<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.sample();
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as f64;
        let after = self.sample();
        let scale = 2.0 / (before + after);
        (r, ns * scale, scale)
    }
}
