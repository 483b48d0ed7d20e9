//! The bit-serial, timestamp-parallel comparator.
//!
//! Section V-C / Fig. 6 of the paper: at a context switch, the s-bits
//! restored for the resuming process are stale — any line filled after the
//! process was preempted (`Tc > Ts`) must have its s-bit reset. The
//! hardware streams its transposed Tc array out one bit-plane per cycle,
//! MSB first, into a pair of SR latches per bit line (`GT`: `Tc > Ts` found;
//! `DONE`: `Tc < Ts` found, stop), so the sweep costs one cycle per
//! timestamp bit plus one for the s-bit reset drive, whatever the number of
//! lines.
//!
//! The simulator needs what that circuit computes and what it costs, not
//! its wiring: [`BitSerialComparator::compare`] builds the reset mask
//! straight from the per-line timestamps with
//! [`WrappingTime::is_older_than_fill`], and charges
//! [`BitSerialComparator::sweep_cycles`]. The unit tests check the paper's
//! latch equations against the same predicate.

use crate::timestamp::WrappingTime;

/// The result of one bit-serial comparison sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareOutcome {
    /// Packed mask over lines: bit set ⇔ `Tc > Ts` ⇔ the line's s-bit must
    /// be reset for the resuming context. Same packing as
    /// [`crate::SBitArray::words`].
    pub reset_mask: Vec<u64>,
    /// Hardware cycles consumed: one per timestamp bit (plus the final
    /// reset drive, charged as one cycle).
    pub cycles: u64,
}

impl CompareOutcome {
    /// Number of lines flagged for reset.
    pub fn reset_count(&self) -> usize {
        self.reset_mask
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Bit-serial, timestamp-parallel comparator (Fig. 6).
///
/// The comparator is stateless between invocations (its SR latches are reset
/// before each sweep), so it is modelled as a unit struct with associated
/// functions.
///
/// # Examples
///
/// ```
/// use timecache_core::{BitSerialComparator, TimestampWidth, WrappingTime};
///
/// let w = TimestampWidth::new(8);
/// // Line 0 is older than Ts (keep), line 1 equal (keep), line 2 newer (reset).
/// let tc = [50, 100, 150];
///
/// let out = BitSerialComparator::compare(&tc, WrappingTime::from_cycle(100, w));
/// assert_eq!(out.reset_mask[0], 0b100);
/// assert_eq!(out.cycles, 9); // 8 bit iterations + reset drive
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitSerialComparator;

impl BitSerialComparator {
    /// Runs one sweep: for every line `l`, `reset_mask[l] = (tc[l] > Ts)`,
    /// packed 64 lines per word with no bits set past `tc.len()`.
    ///
    /// `ts` is the resuming process's preemption timestamp; `tc` holds each
    /// line's fill timestamp, truncated to `ts`'s width. Rollover must be
    /// handled by the caller *before* invoking the comparator (see
    /// [`WrappingTime::rollover_since`]).
    pub fn compare(tc: &[u64], ts: WrappingTime) -> CompareOutcome {
        let reset_mask = tc
            .chunks(64)
            .map(|group| {
                group.iter().enumerate().fold(0u64, |mask, (lane, &t)| {
                    mask | u64::from(ts.is_older_than_fill(t)) << lane
                })
            })
            .collect();
        CompareOutcome {
            reset_mask,
            cycles: Self::sweep_cycles(ts.width().bits()),
        }
    }

    /// Cycle cost of a sweep for a given timestamp width, without running
    /// it. One cycle per bit-plane plus one for the s-bit reset drive.
    pub fn sweep_cycles(width: u8) -> u64 {
        width as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::TimestampWidth;

    fn run(values: &[u64], ts: u64, width: u8) -> Vec<bool> {
        let out = BitSerialComparator::compare(
            values,
            WrappingTime::from_cycle(ts, TimestampWidth::new(width)),
        );
        (0..values.len())
            .map(|i| out.reset_mask[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// Fig. 6 for one bit line, as a reference model: the shift register
    /// feeds `Ts` MSB-first, and each iteration evaluates the two AND gates
    /// `set_GT = Tc[i] & !Ts[i] & idle` and `set_DONE = !Tc[i] & Ts[i] & idle`,
    /// where `idle = !GT & !DONE`. The `GT` latch drives the s-bit reset.
    fn latch_model(tc: u64, ts: u64, width: u8) -> bool {
        let (mut gt, mut done) = (false, false);
        for i in (0..width).rev() {
            let (b, a) = (tc >> i & 1 == 1, ts >> i & 1 == 1);
            let idle = !gt && !done;
            gt |= b && !a && idle;
            done |= !b && a && idle;
        }
        gt
    }

    #[test]
    fn greater_resets_equal_and_smaller_keep() {
        let r = run(&[50, 100, 150, 0, 255], 100, 8);
        assert_eq!(r, vec![false, false, true, false, true]);
    }

    #[test]
    fn paper_example_msb_decides() {
        // "the greater of '1100' and '0101' can be determined as the first
        // number by looking at the MSB"
        let r = run(&[0b1100], 0b0101, 4);
        assert_eq!(r, vec![true]);
        let r = run(&[0b0101], 0b1100, 4);
        assert_eq!(r, vec![false]);
    }

    #[test]
    fn ts_zero_resets_everything_nonzero() {
        let r = run(&[0, 1, 2, 3], 0, 4);
        assert_eq!(r, vec![false, true, true, true]);
    }

    #[test]
    fn ts_max_resets_nothing() {
        let r = run(&[0, 7, 15], 15, 4);
        assert_eq!(r, vec![false, false, false]);
    }

    #[test]
    fn partial_last_word_has_no_phantom_resets() {
        // 70 lines, all Tc newer than Ts: exactly 70 resets, not 128.
        let w = TimestampWidth::new(8);
        let out = BitSerialComparator::compare(&[200; 70], WrappingTime::from_cycle(10, w));
        assert_eq!(out.reset_mask.len(), 2);
        assert_eq!(out.reset_count(), 70);
    }

    #[test]
    fn cycles_scale_with_width_not_lines() {
        let ts = WrappingTime::from_cycle(0, TimestampWidth::new(32));
        assert_eq!(
            BitSerialComparator::compare(&[0; 8], ts).cycles,
            BitSerialComparator::compare(&vec![0; 100_000], ts).cycles,
        );
        assert_eq!(BitSerialComparator::sweep_cycles(32), 33);
    }

    #[test]
    fn one_bit_width_boundary() {
        // Narrowest legal counter: a single bit-plane sweep must still
        // implement `Tc > Ts` exactly, and cost 1 + 1 cycles.
        assert_eq!(run(&[0, 1], 0, 1), vec![false, true]);
        assert_eq!(run(&[0, 1], 1, 1), vec![false, false]);
        let w = TimestampWidth::new(1);
        let out = BitSerialComparator::compare(&[0, 0], WrappingTime::from_cycle(0, w));
        assert_eq!(out.cycles, 2);
        assert_eq!(BitSerialComparator::sweep_cycles(1), 2);
    }

    #[test]
    fn sixty_four_bit_width_boundary() {
        // Widest legal counter: full-u64 values must not overflow the mask
        // arithmetic, and the MSB (bit 63) must decide.
        let top = 1u64 << 63;
        let r = run(&[0, top - 1, top, u64::MAX], top - 1, 64);
        assert_eq!(r, vec![false, false, true, true]);
        assert_eq!(run(&[u64::MAX], u64::MAX, 64), vec![false]);
        assert_eq!(BitSerialComparator::sweep_cycles(64), 65);
    }

    #[test]
    fn equal_timestamps_never_reset() {
        // Tc == Ts means the line was filled before (or at) preemption: it
        // stays visible. Ties must not reset at any width or value shape.
        for width in [1u8, 4, 8, 32, 64] {
            let mask = TimestampWidth::new(width).mask();
            for ts in [0u64, 1, mask / 2, mask.saturating_sub(1), mask] {
                let ts = ts & mask;
                assert_eq!(
                    run(&[ts], ts, width),
                    vec![false],
                    "tie at ts={ts} width={width} must keep the s-bit"
                );
            }
        }
    }

    #[test]
    fn exhaustive_small_width_equivalence() {
        // For 5-bit timestamps, every (tc, ts) pair: the comparator, the
        // Fig. 6 latch model and `tc > ts` all agree.
        let values: Vec<u64> = (0..32).collect();
        for ts in 0u64..32 {
            let r = run(&values, ts, 5);
            for (&tc, &flag) in values.iter().zip(&r) {
                assert_eq!(flag, tc > ts, "tc={tc} ts={ts}");
                assert_eq!(latch_model(tc, ts, 5), flag, "latches: tc={tc} ts={ts}");
            }
        }
    }
}
