//! Transposed SRAM array model for per-line timestamps.
//!
//! The paper stores the per-line fill timestamps `Tc` in a separate SRAM
//! array built from 8-T multi-access cells (after Neural Cache, Eckert et
//! al., ISCA 2018). The array supports two access modes:
//!
//! * **transpose interface** — used during normal cache operation to read or
//!   write *one line's* timestamp (a whole word at a time), e.g. when a fill
//!   updates `Tc`;
//! * **regular bit-line interface** — used at context switches to read the
//!   *same bit position of every line's timestamp simultaneously* (one
//!   bit-plane per cycle), feeding the bit-serial comparator.
//!
//! In hardware both interfaces address the same cells, so each is free. In
//! software only one layout can be the fast one, and the two interfaces run
//! at wildly different rates: fills happen on every cache miss, bit-plane
//! sweeps only at context switches. [`TransposeArray`] therefore keeps the
//! **word-major** array authoritative — [`TransposeArray::write_word`] is a
//! single store — and maintains the bit-plane view lazily: writes mark
//! their 64-line *group* dirty, and [`TransposeArray::sync_planes`]
//! re-transposes only the dirty groups before a sweep. Streaming fills
//! touch consecutive flat indices, so a whole group of fills costs one
//! re-transposition instead of 64 scattered read-modify-writes per fill.
//!
//! [`crate::BitSerialComparator::compare`] calls `sync_planes` itself;
//! direct [`TransposeArray::bit_plane`] readers must sync first (enforced
//! by an assert).

use crate::timestamp::TimestampWidth;
use std::fmt;

const WORD_BITS: usize = 64;

/// An SRAM array of `num_words` timestamps, each `width` bits, readable
/// word-at-a-time (transpose interface) or bit-plane-at-a-time (regular
/// interface).
///
/// Bit-plane `b` holds bit `b` of every word, packed 64 lines per `u64`.
///
/// # Examples
///
/// ```
/// use timecache_core::{TransposeArray, TimestampWidth};
///
/// let mut t = TransposeArray::new(128, TimestampWidth::new(8));
/// t.write_word(3, 0xAB);
/// assert_eq!(t.read_word(3), 0xAB);
/// // Bit-plane reads see the write once the lazy view is synced.
/// t.sync_planes();
/// // Bit-plane 0 has bit 0 of word 3 set (0xAB & 1 == 1).
/// assert_eq!(t.bit_plane(0)[0] >> 3 & 1, 1);
/// ```
#[derive(Clone)]
pub struct TransposeArray {
    /// Word-major authoritative storage: `words[i]` is line `i`'s
    /// (truncated) timestamp. Every hot-path operation touches only this.
    words: Vec<u64>,
    /// All bit-planes in one block: plane `b` (bit `b` of every word) is
    /// `planes[b*words_per_plane..(b+1)*words_per_plane]`. Lazily rebuilt
    /// from `words` by [`TransposeArray::sync_planes`].
    planes: Vec<u64>,
    /// One bit per 64-line group (group `g` covers flat lines
    /// `g*64..(g+1)*64`), set when the group's words changed since the
    /// planes were last rebuilt.
    dirty: Vec<u64>,
    /// Whether any group is dirty (cheap staleness check).
    stale: bool,
    num_words: usize,
    width: TimestampWidth,
    words_per_plane: usize,
}

impl TransposeArray {
    /// Creates an array of `num_words` zeroed timestamps of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `num_words` is zero.
    pub fn new(num_words: usize, width: TimestampWidth) -> Self {
        assert!(num_words > 0, "transpose array must hold at least one word");
        let words_per_plane = num_words.div_ceil(WORD_BITS);
        TransposeArray {
            words: vec![0; num_words],
            planes: vec![0; words_per_plane * width.bits() as usize],
            dirty: vec![0; words_per_plane.div_ceil(WORD_BITS)],
            stale: false,
            num_words,
            width,
            words_per_plane,
        }
    }

    /// Number of timestamps stored (one per cache line).
    pub fn num_words(&self) -> usize {
        self.num_words
    }

    /// Timestamp width.
    pub fn width(&self) -> TimestampWidth {
        self.width
    }

    /// Writes one line's timestamp through the transpose interface,
    /// truncating `value` to the array width (the hardware counter simply
    /// has no more wires than that). A single store plus a dirty-group mark;
    /// the bit-plane view catches up in [`TransposeArray::sync_planes`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_words()`.
    #[inline]
    pub fn write_word(&mut self, index: usize, value: u64) {
        self.bounds(index);
        self.words[index] = self.width.truncate(value);
        let group = index / WORD_BITS;
        self.dirty[group / WORD_BITS] |= 1 << (group % WORD_BITS);
        self.stale = true;
    }

    /// Reads one line's timestamp through the transpose interface.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_words()`.
    #[inline]
    pub fn read_word(&self, index: usize) -> u64 {
        self.bounds(index);
        self.words[index]
    }

    /// Brings the bit-plane view up to date with the word-major array by
    /// re-transposing every dirty 64-line group. Amortized cost: one group
    /// transposition per 64 (clustered) fills, paid only when a comparator
    /// sweep is about to run — never on the access hot path.
    pub fn sync_planes(&mut self) {
        if !self.stale {
            return;
        }
        for dw in 0..self.dirty.len() {
            let mut mask = self.dirty[dw];
            self.dirty[dw] = 0;
            while mask != 0 {
                let group = dw * WORD_BITS + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.rebuild_group(group);
            }
        }
        self.stale = false;
    }

    /// Re-transposes one 64-line group of `words` into column `group` of
    /// every plane: the group's words, zero-padded to 64, are transposed
    /// as a bit matrix by [`transpose_block`], and row `b` of the result is
    /// plane `b`'s word. The padding keeps the phantom lanes of a partial
    /// last group clear. Every bit outside the first `max(lines, width)`
    /// rows and columns is zero, so only that block, rounded up to a power
    /// of two, is transposed: a small cache pays for its few lines, not
    /// for 64.
    fn rebuild_group(&mut self, group: usize) {
        let base = group * WORD_BITS;
        let end = (base + WORD_BITS).min(self.num_words);
        let mut m = [0u64; WORD_BITS];
        m[..end - base].copy_from_slice(&self.words[base..end]);
        let size = (end - base).max(self.width.bits() as usize);
        transpose_block(&mut m, size.next_power_of_two());
        for (plane, &row) in self.planes.chunks_exact_mut(self.words_per_plane).zip(&m) {
            plane[group] = row;
        }
    }

    /// Reads one bit-plane through the regular bit-line interface: bit
    /// `bit` of every stored timestamp, packed 64 lines per `u64`.
    ///
    /// This is the operation the bit-serial comparator performs once per
    /// cycle, most significant plane first.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= width().bits()`, or if writes are pending —
    /// call [`TransposeArray::sync_planes`] before reading planes
    /// ([`crate::BitSerialComparator::compare`] does this itself).
    pub fn bit_plane(&self, bit: u8) -> &[u64] {
        assert!(
            !self.stale,
            "bit-plane read with unsynced writes: call sync_planes() first"
        );
        assert!(
            bit < self.width.bits(),
            "bit plane {bit} out of range for {} timestamps",
            self.width
        );
        let start = bit as usize * self.words_per_plane;
        &self.planes[start..start + self.words_per_plane]
    }

    /// Number of `u64` words per bit-plane (the comparator mask length).
    pub fn words_per_plane(&self) -> usize {
        self.words_per_plane
    }

    #[inline]
    fn bounds(&self, index: usize) {
        assert!(
            index < self.num_words,
            "word index {index} out of bounds for {} words",
            self.num_words
        );
    }
}

/// `MASKS[r]` selects the low `2^r` bits of every `2^(r+1)`-bit field.
const MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Transposes the `size`×`size` bit matrix in the low `size` bits of
/// `m[..size]` in place: afterwards bit `j` of `m[i]` is what bit `i` of
/// `m[j]` was. `size` must be a power of two, and every other bit of `m`
/// zero; the result is then the full 64×64 transpose, which leaves those
/// bits zero too. Masked block swaps, one round per halving of the block
/// size (*Hacker's Delight*, 2nd ed., §7-3): the round with block size `j`
/// swaps, within every `2j`-bit field, the high `j` bits of row `k` with
/// the low `j` bits of row `k + j`, for every `k` whose bit `j` is clear.
fn transpose_block(m: &mut [u64; WORD_BITS], size: usize) {
    debug_assert!(size.is_power_of_two() && size <= WORD_BITS);
    for round in (0..size.trailing_zeros()).rev() {
        let j = 1 << round;
        let mask = MASKS[round as usize];
        let mut k = 0;
        while k < size {
            let t = (m[k] >> j ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
    }
}

/// Equality is over the authoritative word-major contents; the lazy plane
/// view and dirty bookkeeping are representation details.
impl PartialEq for TransposeArray {
    fn eq(&self, other: &Self) -> bool {
        self.num_words == other.num_words && self.width == other.width && self.words == other.words
    }
}

impl Eq for TransposeArray {}

impl fmt::Debug for TransposeArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransposeArray")
            .field("num_words", &self.num_words)
            .field("width", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let w = TimestampWidth::new(16);
        let mut t = TransposeArray::new(200, w);
        for i in 0..200 {
            t.write_word(i, (i as u64).wrapping_mul(2654435761) & w.mask());
        }
        for i in 0..200 {
            assert_eq!(
                t.read_word(i),
                (i as u64).wrapping_mul(2654435761) & w.mask()
            );
        }
    }

    #[test]
    fn write_truncates_to_width() {
        let mut t = TransposeArray::new(4, TimestampWidth::new(8));
        t.write_word(0, 0x1FF);
        assert_eq!(t.read_word(0), 0xFF);
    }

    #[test]
    fn overwrite_clears_old_bits() {
        let mut t = TransposeArray::new(4, TimestampWidth::new(8));
        t.write_word(1, 0xFF);
        t.write_word(1, 0x01);
        assert_eq!(t.read_word(1), 0x01);
        t.sync_planes();
        assert_eq!(t.bit_plane(0)[0] >> 1 & 1, 1);
        assert_eq!(t.bit_plane(1)[0] >> 1 & 1, 0);
    }

    #[test]
    fn bit_planes_are_transposed_view() {
        let mut t = TransposeArray::new(70, TimestampWidth::new(4));
        t.write_word(0, 0b1010);
        t.write_word(69, 0b0101);
        t.sync_planes();
        // Plane 1 (value bit 1) must have line 0 set, line 69 clear.
        assert_eq!(t.bit_plane(1)[0] & 1, 1);
        assert_eq!(t.bit_plane(1)[1] >> (69 - 64) & 1, 0);
        // Plane 2 the other way round.
        assert_eq!(t.bit_plane(2)[0] & 1, 0);
        assert_eq!(t.bit_plane(2)[1] >> (69 - 64) & 1, 1);
    }

    #[test]
    fn sync_rebuilds_only_dirty_groups_but_exactly() {
        // Scatter writes across 3 of 4 groups; after sync every plane word
        // must match a from-scratch transposition.
        let w = TimestampWidth::new(8);
        let mut t = TransposeArray::new(250, w);
        for i in [0usize, 63, 64, 200, 249] {
            t.write_word(i, (i as u64).wrapping_mul(0x9E37) & w.mask());
        }
        t.sync_planes();
        for bit in 0..8u8 {
            for i in 0..250 {
                let expect = t.read_word(i) >> bit & 1;
                let got = t.bit_plane(bit)[i / 64] >> (i % 64) & 1;
                assert_eq!(got, expect, "bit {bit} line {i}");
            }
        }
    }

    /// Bit `bit` of each of `words` (at most 64), packed lane by lane: the
    /// per-bit loop the transpose kernel replaced, kept as its reference.
    fn reference_plane_word(words: &[u64], bit: u8) -> u64 {
        let mut acc = 0u64;
        for (lane, &w) in words.iter().enumerate() {
            acc |= (w >> bit & 1) << lane;
        }
        acc
    }

    #[test]
    fn full_width_planes_match_words_with_partial_last_group() {
        // Widths from 1 to 64 bits over arrays from 1 line to 150 (two full
        // groups plus 22 lines): every plane slice must be exactly the
        // per-bit transposition of `words`, with the phantom lanes of the
        // last plane word clear.
        for n in [1, 3, 10, 150] {
            for bits in [1u8, 5, 14, 32, 64] {
                let mut t = TransposeArray::new(n, TimestampWidth::new(bits));
                for i in 0..n {
                    t.write_word(i, (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
                t.sync_planes();
                let words: Vec<u64> = (0..n).map(|i| t.read_word(i)).collect();
                for bit in 0..bits {
                    let plane = t.bit_plane(bit);
                    assert_eq!(plane.len(), t.words_per_plane());
                    for (word, &got) in plane.iter().enumerate() {
                        let group = &words[word * 64..((word + 1) * 64).min(n)];
                        let expect = reference_plane_word(group, bit);
                        assert_eq!(
                            got, expect,
                            "{n} lines, width {bits}, bit {bit}, word {word}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsynced writes")]
    fn stale_plane_read_rejected() {
        let mut t = TransposeArray::new(10, TimestampWidth::new(8));
        t.write_word(0, 1);
        t.bit_plane(0);
    }

    #[test]
    fn fresh_array_planes_are_clean() {
        // A never-written array is all-zero in both views: no sync needed.
        let t = TransposeArray::new(10, TimestampWidth::new(8));
        assert_eq!(t.bit_plane(0), &[0]);
    }

    #[test]
    fn equality_ignores_plane_staleness() {
        let mut a = TransposeArray::new(10, TimestampWidth::new(8));
        let mut b = TransposeArray::new(10, TimestampWidth::new(8));
        a.write_word(3, 42);
        b.write_word(3, 42);
        a.sync_planes(); // a synced, b stale: still equal
        assert_eq!(a, b);
        b.write_word(4, 1);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn word_bounds_checked() {
        TransposeArray::new(10, TimestampWidth::new(8)).read_word(10);
    }

    #[test]
    #[should_panic(expected = "bit plane")]
    fn plane_bounds_checked() {
        let t = TransposeArray::new(10, TimestampWidth::new(8));
        t.bit_plane(8);
    }

    #[test]
    fn words_per_plane_rounds_up() {
        let t = TransposeArray::new(65, TimestampWidth::new(8));
        assert_eq!(t.words_per_plane(), 2);
    }
}
