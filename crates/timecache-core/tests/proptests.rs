//! Randomized (but fully deterministic, seed-driven) tests for the
//! TimeCache hardware mechanism.
//!
//! These verify the comparator against the functional predicate, the
//! per-line `Tc` store against truncated fill times, and the central security
//! invariant of the state machine: *a context never observes `Visible` for a
//! line it has not itself paid a (first-access) miss for since the line's
//! most recent fill*.
//!
//! The workspace builds offline with no third-party crates (DESIGN.md §6),
//! so instead of `proptest` these drive the same invariants from an
//! in-file xorshift64* generator over a fixed set of seeds.

use timecache_core::{
    BitSerialComparator, FaultInjector, SBitArray, TimeCacheConfig, TimeCacheState, TimestampWidth,
    Visibility, WrappingTime,
};

/// Minimal xorshift64* PRNG (same algorithm as [`timecache_core::FastRng`]).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The comparator computes exactly `tc > ts` for every line.
#[test]
fn comparator_matches_functional_compare() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        let width = (rng.below(64) + 1) as u8;
        let w = TimestampWidth::new(width);
        let len = (rng.below(299) + 1) as usize;
        let tcs: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let arr: Vec<u64> = tcs.iter().map(|&v| w.truncate(v)).collect();
        let ts_raw = rng.next_u64();
        let ts = WrappingTime::from_cycle(ts_raw, w);
        let out = BitSerialComparator::compare(&arr, ts);
        for (i, &v) in tcs.iter().enumerate() {
            let expected = w.truncate(v) > ts.value();
            let got = out.reset_mask[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(got, expected, "seed {seed} line {i} tc {v} ts {ts_raw}");
        }
        assert_eq!(out.cycles, width as u64 + 1);
    }
}

/// The comparator never flags phantom lines beyond the array length.
#[test]
fn comparator_mask_has_no_phantom_bits() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(0x100 + seed);
        let len = (rng.below(199) + 1) as usize;
        let ts_raw = rng.next_u64();
        let w = TimestampWidth::new(16);
        let arr = vec![w.truncate(u64::MAX); len]; // everything maximally new
        let out = BitSerialComparator::compare(&arr, WrappingTime::from_cycle(ts_raw, w));
        let expected = if w.truncate(u64::MAX) > w.truncate(ts_raw) {
            len
        } else {
            0
        };
        assert_eq!(out.reset_count(), expected, "seed {seed}");
    }
}

/// Every line's `Tc` reads back as its last fill time, truncated to the
/// counter width.
#[test]
fn fill_timestamps_roundtrip() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(0x200 + seed);
        let width = (rng.below(64) + 1) as u8;
        let w = TimestampWidth::new(width);
        let len = (rng.below(199) + 1) as usize;
        let values: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let mut state = TimeCacheState::new(len, 1, TimeCacheConfig::new(width));
        for (i, &v) in values.iter().enumerate() {
            state.on_fill(i, 0, v);
        }
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(state.tc_of(i), w.truncate(v), "seed {seed} line {i}");
        }
    }
}

/// SBitArray behaves like a reference Vec<bool> under a random op
/// sequence (set / clear / reset-mask / clear_all).
#[test]
fn sbits_match_reference_model() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(0x300 + seed);
        let len = (rng.below(199) + 1) as usize;
        let mut s = SBitArray::new(len);
        let mut model = vec![false; len];
        let nops = rng.below(100) as usize;
        for _ in 0..nops {
            let op = rng.below(4) as u8;
            let idx = rng.below(len as u64) as usize;
            let maskseed = rng.next_u64();
            match op {
                0 => {
                    s.set(idx);
                    model[idx] = true;
                }
                1 => {
                    s.clear(idx);
                    model[idx] = false;
                }
                2 => {
                    s.clear_all();
                    model.fill(false);
                }
                _ => {
                    let words = len.div_ceil(64);
                    let mask: Vec<u64> = (0..words)
                        .map(|i| maskseed.rotate_left(i as u32 * 7))
                        .collect();
                    s.apply_reset_mask(&mask);
                    for (i, m) in model.iter_mut().enumerate() {
                        if mask[i / 64] >> (i % 64) & 1 == 1 {
                            *m = false;
                        }
                    }
                }
            }
        }
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(s.get(i), m, "seed {seed} bit {i}");
        }
        assert_eq!(s.count_set(), model.iter().filter(|&&b| b).count());
    }
}

/// Random event trace over the full state machine, checked against a
/// reference model that tracks, per (line, context), whether the context has
/// accessed the line since its latest fill — including save/restore with an
/// oracle that knows true (unbounded) time.
#[derive(Debug, Clone)]
enum Ev {
    Fill { line: usize, ctx: usize },
    Evict { line: usize },
    Access { line: usize, ctx: usize },
    SwitchOut { ctx: usize, slot: usize },
    SwitchIn { ctx: usize, slot: usize },
}

fn random_event(rng: &mut Rng, lines: usize, ctxs: usize, slots: usize) -> Ev {
    let line = rng.below(lines as u64) as usize;
    let ctx = rng.below(ctxs as u64) as usize;
    let slot = rng.below(slots as u64) as usize;
    match rng.below(5) {
        0 => Ev::Fill { line, ctx },
        1 => Ev::Evict { line },
        2 => Ev::Access { line, ctx },
        3 => Ev::SwitchOut { ctx, slot },
        _ => Ev::SwitchIn { ctx, slot },
    }
}

#[test]
fn state_machine_never_leaks_residency() {
    const LINES: usize = 24;
    const CTXS: usize = 2;
    for seed in 0..64u64 {
        let mut rng = Rng::new(0x400 + seed);
        let nevents = rng.below(200) as usize;
        // Wide counter: no rollover in this trace, so the hardware should
        // *exactly* match the oracle (with narrow counters the hardware is
        // allowed extra misses but never extra hits; covered below).
        let mut hw = TimeCacheState::new(LINES, CTXS, TimeCacheConfig::new(32));
        // Oracle: paid[line][ctx] = has the *currently mapped process* on ctx
        // accessed the line since its last fill?
        let mut paid = [[false; CTXS]; LINES];
        // Saved oracle state per snapshot slot, parallel to hardware snapshots.
        let mut hw_snaps: Vec<Option<timecache_core::Snapshot>> = vec![None; 3];
        let mut oracle_snaps: Vec<Option<([bool; LINES], u64)>> = vec![None; 3];
        // fill_time[line] in true time for the oracle.
        let mut fill_time = [0u64; LINES];
        let mut now = 1u64;

        for _ in 0..nevents {
            now += 1;
            match random_event(&mut rng, LINES, CTXS, 3) {
                Ev::Fill { line, ctx } => {
                    hw.on_fill(line, ctx, now);
                    fill_time[line] = now;
                    for (c, p) in paid[line].iter_mut().enumerate() {
                        *p = c == ctx;
                    }
                }
                Ev::Evict { line } => {
                    hw.on_evict(line);
                    paid[line].fill(false);
                }
                Ev::Access { line, ctx } => {
                    let vis = hw.visibility(line, ctx);
                    let expected = if paid[line][ctx] {
                        Visibility::Visible
                    } else {
                        Visibility::FirstAccess
                    };
                    assert_eq!(vis, expected, "seed {seed} line {line} ctx {ctx}");
                    if vis == Visibility::FirstAccess {
                        hw.record_first_access(line, ctx);
                        paid[line][ctx] = true;
                    }
                }
                Ev::SwitchOut { ctx, slot } => {
                    hw_snaps[slot] = Some(hw.save_context(ctx, now));
                    let mut bits = [false; LINES];
                    for (line, row) in paid.iter().enumerate() {
                        bits[line] = row[ctx];
                    }
                    oracle_snaps[slot] = Some((bits, now));
                    // A different process takes the context: fresh view.
                    hw.restore_context_faulty(ctx, None, now, &FaultInjector::disabled());
                    for row in paid.iter_mut() {
                        row[ctx] = false;
                    }
                }
                Ev::SwitchIn { ctx, slot } => {
                    let out = hw.restore_context_faulty(
                        ctx,
                        hw_snaps[slot].as_ref(),
                        now,
                        &FaultInjector::disabled(),
                    );
                    assert!(!out.rollover, "32-bit counter cannot roll over here");
                    match &oracle_snaps[slot] {
                        Some((bits, ts)) => {
                            for line in 0..LINES {
                                // Valid iff paid at save time AND the line
                                // was not refilled after the save.
                                paid[line][ctx] = bits[line] && fill_time[line] <= *ts;
                            }
                        }
                        None => {
                            for row in paid.iter_mut() {
                                row[ctx] = false;
                            }
                        }
                    }
                }
            }
        }

        // Final visibility sweep must match the oracle everywhere.
        for (line, row) in paid.iter().enumerate() {
            for (ctx, &p) in row.iter().enumerate() {
                let expected = if p {
                    Visibility::Visible
                } else {
                    Visibility::FirstAccess
                };
                assert_eq!(hw.visibility(line, ctx), expected, "seed {seed}");
            }
        }
    }
}

/// With a *narrow* (rollover-prone) counter the hardware may take extra
/// first-access misses but must never be more permissive than the
/// oracle: Visible implies the oracle says paid.
#[test]
fn narrow_counters_only_err_towards_misses() {
    const LINES: usize = 16;
    for seed in 0..48u64 {
        let mut rng = Rng::new(0x500 + seed);
        let nevents = rng.below(150) as usize;
        let step = rng.below(39) + 1; // large steps force 6-bit rollover
        let mut hw = TimeCacheState::new(LINES, 1, TimeCacheConfig::new(6));
        let mut paid = [false; LINES];
        let mut hw_snaps: Vec<Option<timecache_core::Snapshot>> = vec![None; 2];
        let mut oracle_snaps: Vec<Option<([bool; LINES], u64)>> = vec![None; 2];
        let mut fill_time = [0u64; LINES];
        let mut now = 1u64;

        for _ in 0..nevents {
            now += step;
            match random_event(&mut rng, LINES, 1, 2) {
                Ev::Fill { line, .. } => {
                    hw.on_fill(line, 0, now);
                    fill_time[line] = now;
                    paid[line] = true;
                }
                Ev::Evict { line } => {
                    hw.on_evict(line);
                    paid[line] = false;
                }
                Ev::Access { line, .. } => {
                    if hw.visibility(line, 0) == Visibility::Visible {
                        assert!(paid[line], "seed {seed}: stale hit on line {line}");
                    } else {
                        hw.record_first_access(line, 0);
                        paid[line] = true;
                    }
                }
                Ev::SwitchOut { slot, .. } => {
                    hw_snaps[slot] = Some(hw.save_context(0, now));
                    let mut bits = [false; LINES];
                    bits.copy_from_slice(&paid);
                    oracle_snaps[slot] = Some((bits, now));
                    hw.restore_context_faulty(0, None, now, &FaultInjector::disabled());
                    paid.fill(false);
                }
                Ev::SwitchIn { slot, .. } => {
                    hw.restore_context_faulty(
                        0,
                        hw_snaps[slot].as_ref(),
                        now,
                        &FaultInjector::disabled(),
                    );
                    match &oracle_snaps[slot] {
                        Some((bits, ts)) => {
                            for line in 0..LINES {
                                paid[line] = bits[line] && fill_time[line] <= *ts;
                            }
                        }
                        None => paid.fill(false),
                    }
                }
            }
        }

        for (line, &p) in paid.iter().enumerate() {
            if hw.visibility(line, 0) == Visibility::Visible {
                assert!(p, "seed {seed}: stale hit on line {line} at end");
            }
        }
    }
}
