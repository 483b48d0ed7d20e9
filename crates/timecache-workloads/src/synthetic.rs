//! Parametric synthetic workload generator.
//!
//! The generator produces an instruction stream whose cache-visible
//! behaviour is controlled by a handful of knobs that map directly onto the
//! quantities the paper's evaluation depends on:
//!
//! * **baseline miss rate** — `fresh_line_per_kinstr` data accesses per
//!   thousand instructions touch a never-before-seen line (a compulsory /
//!   capacity miss at every level), which pins the baseline LLC MPKI to a
//!   target value (Table II's third column);
//! * **resident reuse** — all other data accesses hit a small hot working
//!   set (`resident_bytes`), mostly resident in L1/LLC;
//! * **shared-software footprint** — instruction fetches periodically run
//!   bursts through shared-library text (`shared_code_lines` at
//!   `shared_code_frac`), and two instances of the same benchmark share
//!   their binary text (`bench_code_lines`). These shared lines are what
//!   incur *first-access misses* when processes context-switch under
//!   TimeCache;
//! * **shared data** — an optional shared data segment
//!   (deduplicated pages), accessed at `shared_data_frac`.

use crate::layout;
use timecache_core::FastRng;
use timecache_os::{DataKind, Op, Program};
use timecache_sim::Addr;

/// Knobs for one synthetic process. See the [module docs](self) for what
/// each controls.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticParams {
    /// Display name (benchmark name for presets).
    pub name: String,
    /// Data accesses per instruction (loads+stores), e.g. 0.3.
    pub mem_ratio: f64,
    /// Of data accesses, fraction that are stores.
    pub store_ratio: f64,
    /// Never-before-seen lines touched per 1000 instructions: the baseline
    /// LLC MPKI driver.
    pub fresh_line_per_kinstr: f64,
    /// Hot working set for reuse accesses, in bytes.
    pub resident_bytes: u64,
    /// Private hot code footprint, in lines.
    pub code_lines: u64,
    /// Shared-library text touched by this workload, in lines.
    pub shared_code_lines: u64,
    /// Probability per instruction of fetching from the shared library
    /// (fetches come in short bursts, like a libc call).
    pub shared_code_frac: f64,
    /// Shared benchmark-binary text, in lines (shared only between
    /// instances of the same benchmark).
    pub bench_code_lines: u64,
    /// Probability per data access of touching the shared data segment.
    pub shared_data_frac: f64,
    /// Shared data segment size in bytes.
    pub shared_data_bytes: u64,
    /// Probability that a *fresh* (streaming) access reads the sibling
    /// instance's recently streamed lines instead of this instance's own —
    /// models threads consuming each other's freshly produced data
    /// (PARSEC-style pipelines). Those touches are ordinary LLC hits at
    /// baseline and first-access misses under TimeCache, which is exactly
    /// the small cross-thread delayed-access rate of the paper's Fig. 9b.
    pub peer_fresh_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            name: "synthetic".to_owned(),
            mem_ratio: 0.3,
            store_ratio: 0.3,
            fresh_line_per_kinstr: 1.0,
            resident_bytes: 64 * 1024,
            code_lines: 64,
            shared_code_lines: 256,
            shared_code_frac: 0.02,
            bench_code_lines: 128,
            shared_data_frac: 0.0,
            shared_data_bytes: 0,
            peer_fresh_frac: 0.0,
            seed: 42,
        }
    }
}

impl SyntheticParams {
    /// Validates ranges (probabilities in `[0,1]`, nonzero footprints).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters; presets are validated in tests.
    pub fn validate(&self) {
        for (v, n) in [
            (self.mem_ratio, "mem_ratio"),
            (self.store_ratio, "store_ratio"),
            (self.shared_code_frac, "shared_code_frac"),
            (self.shared_data_frac, "shared_data_frac"),
            (self.peer_fresh_frac, "peer_fresh_frac"),
        ] {
            assert!((0.0..=1.0).contains(&v), "{n} must be in [0,1], got {v}");
        }
        assert!(self.fresh_line_per_kinstr >= 0.0, "negative fresh rate");
        assert!(
            self.resident_bytes >= layout::LINE,
            "resident set too small"
        );
        assert!(self.code_lines > 0, "need at least one code line");
    }
}

/// An executing synthetic workload (one process).
///
/// Construct via [`SyntheticWorkload::new`] with the process `instance`
/// number (0 or 1 for the paper's two-instance runs) and the benchmark id
/// that selects the shared binary-text region.
#[derive(Debug)]
pub struct SyntheticWorkload {
    params: SyntheticParams,
    rng: FastRng,
    /// Private arena base.
    private_base: Addr,
    /// Sibling instance's arena base (for `peer_fresh_frac` touches).
    peer_base: Addr,
    /// Shared benchmark text base.
    bench_code_base: Addr,
    /// Cursor for fresh (never reused) lines.
    fresh_cursor: u64,
    /// Private code loop cursor.
    code_cursor: u64,
    /// Remaining lines of an in-progress shared-library burst.
    lib_burst_left: u64,
    /// Cursor within the shared library.
    lib_cursor: u64,
    /// Cursor within the shared benchmark text (walked in bursts too).
    bench_burst_left: u64,
    bench_cursor: u64,
    /// Every probability the generator draws against, as a [`threshold`].
    thresholds: Thresholds,
}

/// The [`threshold`] of each probability [`SyntheticWorkload`] draws
/// against, computed once in [`SyntheticWorkload::new`].
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    /// `shared_code_frac`: jump into the shared library.
    lib: u64,
    /// `shared_code_frac + BENCH_FRAC`: else jump into benchmark text.
    lib_bench: u64,
    /// `mem_ratio`: the instruction accesses data.
    mem: u64,
    /// `store_ratio`: the access is a store.
    store: u64,
    /// Fresh lines per data access: the per-instruction rate rescaled by
    /// `mem_ratio`.
    fresh: u64,
    /// `peer_fresh_frac`: a fresh access reads the sibling's stream.
    peer: u64,
    /// `shared_data_frac`: the access touches the shared data segment.
    shared: u64,
}

/// The integer form of a draw against probability `p`: `ceil(p * 2^53)`,
/// saturating at `u64::MAX`. For the top 53 bits `k` of a random word,
/// `k < threshold(p)` decides exactly as `FastRng::next_f64() < p`, since
/// `next_f64()` is `k * 2^-53` and both `k` and the scaling are exact.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Lines of a shared-library burst (a short libc routine).
const LIB_BURST: u64 = 8;
/// Lines of a benchmark-text burst (a longer stretch of the binary).
const BENCH_BURST: u64 = 16;
/// Probability per instruction of jumping into benchmark text.
const BENCH_FRAC: f64 = 0.05;

impl SyntheticWorkload {
    /// Builds instance `instance` (0-based) of benchmark `bench_id`.
    ///
    /// Two workloads with the same `bench_id` share their binary text; all
    /// workloads share the library text; private data never overlaps.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    pub fn new(params: SyntheticParams, bench_id: usize, instance: usize) -> Self {
        params.validate();
        let fresh_prob = (params.fresh_line_per_kinstr / 1000.0).min(1.0);
        // Fresh-line accesses drive the baseline miss rate. The probability
        // is per *instruction*, but it is drawn inside the mem_ratio branch
        // of `next_data`, so rescale.
        let fresh_per_access = fresh_prob / params.mem_ratio.max(1e-9);
        let thresholds = Thresholds {
            lib: threshold(params.shared_code_frac),
            lib_bench: threshold(params.shared_code_frac + BENCH_FRAC),
            mem: threshold(params.mem_ratio),
            store: threshold(params.store_ratio),
            fresh: threshold(fresh_per_access),
            peer: threshold(params.peer_fresh_frac),
            shared: threshold(params.shared_data_frac),
        };
        // Instances pair up 0<->1, 2<->3, ... for peer-fresh touches.
        let peer = instance ^ 1;
        SyntheticWorkload {
            rng: FastRng::seed_from_u64(params.seed ^ (instance as u64) << 32),
            private_base: layout::private_base(instance),
            peer_base: layout::private_base(peer),
            bench_code_base: layout::bench_code_base(bench_id),
            fresh_cursor: 0,
            code_cursor: 0,
            lib_burst_left: 0,
            lib_cursor: 0,
            bench_burst_left: 0,
            bench_cursor: 0,
            thresholds,
            params,
        }
    }

    /// The parameters this workload was built with.
    pub fn params(&self) -> &SyntheticParams {
        &self.params
    }

    /// The top 53 bits of the next random word, to compare against a
    /// [`threshold`]: the draw `next_f64()` makes, without the float.
    #[inline]
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    fn next_pc(&mut self) -> Addr {
        // Finish any in-progress burst first.
        if self.lib_burst_left > 0 {
            self.lib_burst_left -= 1;
            advance_wrapping(&mut self.lib_cursor, self.params.shared_code_lines);
            return layout::code_line(layout::SHARED_LIB_CODE, self.lib_cursor);
        }
        if self.bench_burst_left > 0 {
            self.bench_burst_left -= 1;
            advance_wrapping(&mut self.bench_cursor, self.params.bench_code_lines);
            return layout::code_line(self.bench_code_base, self.bench_cursor);
        }
        let t = self.thresholds;
        let r = self.draw();
        if self.params.shared_code_lines > 0 && r < t.lib {
            // Jump to a random library routine and walk it.
            self.lib_cursor = self.rng.next_below(self.params.shared_code_lines);
            self.lib_burst_left = LIB_BURST.min(self.params.shared_code_lines);
            return layout::code_line(layout::SHARED_LIB_CODE, self.lib_cursor);
        }
        if self.params.bench_code_lines > 0 && r < t.lib_bench {
            self.bench_cursor = self.rng.next_below(self.params.bench_code_lines);
            self.bench_burst_left = BENCH_BURST.min(self.params.bench_code_lines);
            return layout::code_line(self.bench_code_base, self.bench_cursor);
        }
        // Private hot loop.
        advance_wrapping(&mut self.code_cursor, self.params.code_lines);
        layout::code_line(self.private_base + 0x4000_0000, self.code_cursor)
    }

    fn next_data(&mut self) -> Option<(DataKind, Addr)> {
        let t = self.thresholds;
        if self.draw() >= t.mem {
            return None;
        }
        let kind = if self.draw() < t.store {
            DataKind::Store
        } else {
            DataKind::Load
        };
        if self.draw() < t.fresh {
            // Optionally consume the sibling's recent stream instead of
            // producing our own line (guarded so the common frac == 0 case
            // draws no random number and streams stay bit-identical).
            if self.params.peer_fresh_frac > 0.0 && self.draw() < t.peer {
                let lag = 16 + self.rng.next_below(64);
                let line = self.fresh_cursor.saturating_sub(lag) % (1 << 24);
                return Some((
                    DataKind::Load,
                    self.peer_base + 0x8000_0000 + line * layout::LINE,
                ));
            }
            let addr = self.private_base + 0x8000_0000 + self.fresh_cursor * layout::LINE;
            // Wrap far beyond any LLC size so lines are effectively never
            // revisited before eviction (1 GiB of distinct lines).
            self.fresh_cursor = (self.fresh_cursor + 1) % (1 << 24);
            return Some((kind, addr));
        }
        if self.params.shared_data_bytes > 0 && self.draw() < t.shared {
            let lines = self.params.shared_data_bytes / layout::LINE;
            let line = self.rng.next_below(lines.max(1));
            return Some((kind, layout::SHARED_SEGMENT + line * layout::LINE));
        }
        // Hot-set reuse.
        let lines = (self.params.resident_bytes / layout::LINE).max(1);
        let line = self.rng.next_below(lines);
        Some((kind, self.private_base + line * layout::LINE))
    }
}

/// Steps a cursor through `0..len`, wrapping to 0: `(c + 1) % len` for an
/// in-range cursor, without a division by a runtime value. A zero `len`
/// also yields 0.
#[inline]
fn advance_wrapping(cursor: &mut u64, len: u64) {
    *cursor += 1;
    if *cursor >= len {
        *cursor = 0;
    }
}

impl Program for SyntheticWorkload {
    fn next_op(&mut self) -> Op {
        let pc = self.next_pc();
        let data = self.next_data();
        Op::Instr { pc, data }
    }

    fn observes(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        &self.params.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_ops(w: &mut SyntheticWorkload, n: usize) -> Vec<Op> {
        (0..n).map(|_| w.next_op()).collect()
    }

    #[test]
    fn deterministic_given_seed() {
        let p = SyntheticParams::default();
        let mut a = SyntheticWorkload::new(p.clone(), 0, 0);
        let mut b = SyntheticWorkload::new(p, 0, 0);
        assert_eq!(collect_ops(&mut a, 500), collect_ops(&mut b, 500));
    }

    #[test]
    fn instances_have_disjoint_private_data() {
        let p = SyntheticParams::default();
        let mut a = SyntheticWorkload::new(p.clone(), 0, 0);
        let mut b = SyntheticWorkload::new(p, 0, 1);
        let pa = layout::private_base(0);
        let pb = layout::private_base(1);
        for op in collect_ops(&mut a, 2000) {
            if let Op::Instr {
                data: Some((_, addr)),
                ..
            } = op
            {
                if addr < layout::SHARED_SEGMENT {
                    assert!((pa..pa + layout::PRIVATE_STRIDE).contains(&addr));
                }
            }
        }
        for op in collect_ops(&mut b, 2000) {
            if let Op::Instr {
                data: Some((_, addr)),
                ..
            } = op
            {
                if addr < layout::SHARED_SEGMENT {
                    assert!((pb..pb + layout::PRIVATE_STRIDE).contains(&addr));
                }
            }
        }
    }

    #[test]
    fn same_bench_shares_text_different_bench_does_not() {
        let p = SyntheticParams::default();
        let w0 = SyntheticWorkload::new(p.clone(), 3, 0);
        let w1 = SyntheticWorkload::new(p.clone(), 3, 1);
        let w2 = SyntheticWorkload::new(p, 4, 0);
        assert_eq!(w0.bench_code_base, w1.bench_code_base);
        assert_ne!(w0.bench_code_base, w2.bench_code_base);
    }

    #[test]
    fn mem_ratio_controls_data_accesses() {
        let p = SyntheticParams {
            mem_ratio: 0.5,
            ..SyntheticParams::default()
        };
        let mut w = SyntheticWorkload::new(p, 0, 0);
        let n = 20_000;
        let with_data = collect_ops(&mut w, n)
            .iter()
            .filter(|op| matches!(op, Op::Instr { data: Some(_), .. }))
            .count();
        let frac = with_data as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "frac {frac}");
    }

    #[test]
    fn fresh_rate_matches_target() {
        let p = SyntheticParams {
            fresh_line_per_kinstr: 20.0,
            ..SyntheticParams::default()
        };
        let mut w = SyntheticWorkload::new(p, 0, 0);
        let n = 200_000usize;
        let fresh_base = layout::private_base(0) + 0x8000_0000;
        let fresh = collect_ops(&mut w, n)
            .iter()
            .filter(|op| {
                matches!(op, Op::Instr { data: Some((_, a)), .. }
                if (fresh_base..fresh_base + (1 << 30)).contains(a))
            })
            .count();
        let per_kinstr = fresh as f64 * 1000.0 / n as f64;
        assert!(
            (15.0..25.0).contains(&per_kinstr),
            "fresh/kinstr {per_kinstr}"
        );
    }

    #[test]
    fn shared_lib_fetches_present() {
        let p = SyntheticParams::default();
        let mut w = SyntheticWorkload::new(p, 0, 0);
        let lib = collect_ops(&mut w, 10_000)
            .iter()
            .filter(|op| matches!(op, Op::Instr { pc, .. } if *pc >= layout::SHARED_LIB_CODE))
            .count();
        assert!(lib > 100, "only {lib} shared-lib fetches");
    }

    #[test]
    fn integer_draws_decide_as_float_draws() {
        let tiny = 1.0 / (1u64 << 53) as f64;
        for p in [0.0, tiny, 0.02, 0.07, 0.3, 0.5, 1.0 - tiny, 1.0, 1.5, 1e9] {
            let t = threshold(p);
            let mut floats = FastRng::seed_from_u64(p.to_bits());
            let mut ints = floats.clone();
            for _ in 0..100_000 {
                assert_eq!(ints.next_u64() >> 11 < t, floats.next_f64() < p, "p = {p}");
            }
            // Random words almost never land next to the threshold: check
            // the draws on either side of it directly.
            for k in t.saturating_sub(2)..t.saturating_add(2).min(1 << 53) {
                assert_eq!(k < t, k as f64 * tiny < p, "p = {p}, k = {k}");
            }
        }
        assert_eq!(threshold(1e9), u64::MAX);
    }

    #[test]
    fn synthetic_programs_skip_observations() {
        let w = SyntheticWorkload::new(SyntheticParams::default(), 0, 0);
        assert!(!w.observes());
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn params_validated() {
        let p = SyntheticParams {
            mem_ratio: 1.5,
            ..SyntheticParams::default()
        };
        SyntheticWorkload::new(p, 0, 0);
    }
}
