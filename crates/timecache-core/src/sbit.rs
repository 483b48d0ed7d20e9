//! Per-hardware-context security-bit arrays.
//!
//! An [`SBitArray`] holds one bit per cache line for one hardware context:
//! bit set ⇔ "the software context currently executing on this hardware
//! context has already accessed this resident line (and paid the
//! corresponding miss or first-access-miss latency)".
//!
//! The array is stored as packed 64-bit words, mirroring how the hardware
//! reads and writes s-bits through the regular bit-line interface in
//! cache-line-sized chunks during context-switch save/restore.

use std::fmt;

const WORD_BITS: usize = 64;

/// A packed bit array with one s-bit per cache line.
///
/// # Examples
///
/// ```
/// use timecache_core::SBitArray;
///
/// let mut s = SBitArray::new(100);
/// assert!(!s.get(3));
/// s.set(3);
/// assert!(s.get(3));
/// s.clear(3);
/// assert!(!s.get(3));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SBitArray {
    words: Vec<u64>,
    len: usize,
}

impl SBitArray {
    /// Creates an array of `len` cleared s-bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "s-bit array must cover at least one line");
        SBitArray {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of lines covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: construction requires at least one line.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reads the s-bit for `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= len()`.
    #[inline]
    pub fn get(&self, line: usize) -> bool {
        self.bounds(line);
        self.words[line / WORD_BITS] >> (line % WORD_BITS) & 1 == 1
    }

    /// Sets the s-bit for `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= len()`.
    #[inline]
    pub fn set(&mut self, line: usize) {
        self.bounds(line);
        self.words[line / WORD_BITS] |= 1 << (line % WORD_BITS);
    }

    /// Clears the s-bit for `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line >= len()`.
    #[inline]
    pub fn clear(&mut self, line: usize) {
        self.bounds(line);
        self.words[line / WORD_BITS] &= !(1 << (line % WORD_BITS));
    }

    /// Clears every s-bit (used on rollover and for newly created processes).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set s-bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Applies a reset mask produced by the bit-serial comparator: every line
    /// whose mask bit is set has its s-bit cleared. Returns the number of
    /// s-bits that were actually cleared (set before, clear after).
    ///
    /// # Panics
    ///
    /// Panics if the mask does not have exactly `len()` bits' worth of words.
    pub fn apply_reset_mask(&mut self, mask: &[u64]) -> usize {
        assert_eq!(
            mask.len(),
            self.words.len(),
            "reset mask has {} words, expected {}",
            mask.len(),
            self.words.len()
        );
        let mut cleared = 0;
        for (w, m) in self.words.iter_mut().zip(mask) {
            cleared += (*w & m).count_ones() as usize;
            *w &= !m;
        }
        cleared
    }

    /// Overwrites this array's contents from another array of the same
    /// length (models the restore path: loading saved s-bits through the
    /// regular bit-line interface).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, other: &SBitArray) {
        assert_eq!(self.len, other.len, "s-bit array length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// The packed words backing the array. Word `i` holds lines
    /// `64*i .. 64*i+63`, line index increasing from bit 0.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The number of bytes a save or restore of this array transfers
    /// (Section VI-D: e.g. 2 KiB for a 64 K-line 8 MB LLC).
    pub fn storage_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }

    #[inline]
    fn bounds(&self, line: usize) {
        assert!(
            line < self.len,
            "line index {line} out of bounds for {} lines",
            self.len
        );
    }
}

impl fmt::Debug for SBitArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SBitArray")
            .field("len", &self.len)
            .field("set", &self.count_set())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_cleared() {
        let s = SBitArray::new(130);
        assert_eq!(s.count_set(), 0);
        assert!((0..130).all(|i| !s.get(i)));
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut s = SBitArray::new(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            s.set(i);
            assert!(s.get(i), "bit {i}");
        }
        assert_eq!(s.count_set(), 8);
        s.clear(64);
        assert!(!s.get(64));
        assert_eq!(s.count_set(), 7);
    }

    #[test]
    fn clear_all_resets() {
        let mut s = SBitArray::new(70);
        s.set(0);
        s.set(69);
        s.clear_all();
        assert_eq!(s.count_set(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        SBitArray::new(10).get(10);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn empty_rejected() {
        SBitArray::new(0);
    }

    #[test]
    fn reset_mask_clears_and_counts() {
        let mut s = SBitArray::new(128);
        s.set(0);
        s.set(5);
        s.set(64);
        // Mask resets lines 5, 6 (6 was already clear) and 64.
        let mask = [(1u64 << 5) | (1 << 6), 1u64];
        let cleared = s.apply_reset_mask(&mask);
        assert_eq!(cleared, 2);
        assert!(s.get(0));
        assert!(!s.get(5));
        assert!(!s.get(64));
    }

    #[test]
    #[should_panic(expected = "reset mask")]
    fn reset_mask_length_checked() {
        SBitArray::new(128).apply_reset_mask(&[0]);
    }

    #[test]
    fn copy_from_overwrites() {
        let mut a = SBitArray::new(65);
        let mut b = SBitArray::new(65);
        a.set(3);
        b.set(64);
        a.copy_from(&b);
        assert!(!a.get(3));
        assert!(a.get(64));
    }

    #[test]
    fn storage_bytes_matches_paper_examples() {
        // Section VI-D: a 64KB L1 has 1024 lines -> 128 B, i.e. two 64-byte
        // transfers; an 8MB LLC has 131072 lines -> 16 KiB... the paper's
        // figures are per-context; what matters here is bytes = lines/8.
        assert_eq!(SBitArray::new(1024).storage_bytes(), 128);
        assert_eq!(SBitArray::new(131072).storage_bytes(), 16384);
    }
}
