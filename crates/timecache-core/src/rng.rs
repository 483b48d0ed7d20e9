//! A small, fast, deterministic RNG.
//!
//! Two consumers share this generator: workload synthesis in
//! `timecache-workloads`, which draws several random numbers per simulated
//! instruction, and the fault injector ([`crate::fault`]),
//! which needs seed-reproducible fault schedules. [`FastRng`] is an
//! xorshift64* generator seeded through SplitMix64 — statistically more
//! than adequate for both uses, an order of magnitude faster than a
//! cryptographic generator, and bit-for-bit reproducible across platforms.

/// A seedable xorshift64* generator.
///
/// # Examples
///
/// ```
/// use timecache_core::FastRng;
///
/// let mut a = FastRng::seed_from_u64(7);
/// let mut b = FastRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let f = a.next_f64();
/// assert!((0.0..1.0).contains(&f));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastRng {
    state: u64,
}

impl FastRng {
    /// Creates a generator from a seed (any value, including 0, is fine:
    /// the seed is whitened through SplitMix64 first).
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 step guarantees a nonzero, well-mixed initial state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FastRng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Multiply-shift range reduction (Lemire); the slight modulo bias
        // of the plain approach is irrelevant here, but this is also
        // faster than %.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = FastRng::seed_from_u64(1);
        let mut b = FastRng::seed_from_u64(1);
        let mut c = FastRng::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = FastRng::seed_from_u64(0);
        let v: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = FastRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = FastRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((0.49..0.51).contains(&mean), "mean {mean}");
    }

    #[test]
    fn below_covers_range() {
        let mut r = FastRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound")]
    fn zero_bound_rejected() {
        FastRng::seed_from_u64(0).next_below(0);
    }
}
