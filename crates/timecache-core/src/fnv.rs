//! FNV-1a, the workspace's one non-cryptographic hash.
//!
//! [`crate::Snapshot`] checksums its s-bits with it so a corrupted save is
//! caught at restore, and the tests that pin a result (instruction streams,
//! the scheduler's interleaving, the quick fault and leakage matrices)
//! digest it with the same function.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a hasher. Integers are fed as little-endian bytes, so a
/// digest is the same on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher holding the FNV offset basis (the digest of no bytes).
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Folds `bytes` into the hash, one byte at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Folds the eight little-endian bytes of `value` into the hash.
    #[inline]
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn matches_the_published_64_bit_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::new();
        h.write_u64(u64::from_le_bytes(*b"foobar\0\0"));
        let mut want = Fnv1a::new();
        want.write(b"foobar\0\0");
        assert_eq!(h, want);
    }
}
