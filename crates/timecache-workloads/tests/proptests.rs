//! Randomized (deterministic, seed-driven) tests for the workload crate:
//! the MPI bignum against `u128` references, and modular exponentiation
//! against a fast native implementation.
//!
//! The workspace builds offline with no third-party crates (DESIGN.md §6),
//! so these use the core crate's [`FastRng`] over fixed seeds instead of
//! `proptest`.

use timecache_core::FastRng;
use timecache_workloads::rsa::{modexp, ModExp, Mpi, PrimitiveOp};

fn native_modexp(b: u64, e: u64, m: u64) -> u64 {
    let (mut result, mut base, mut exp) = (1u128, b as u128 % m as u128, e);
    while exp > 0 {
        if exp & 1 == 1 {
            result = result * base % m as u128;
        }
        base = base * base % m as u128;
        exp >>= 1;
    }
    result as u64
}

#[test]
fn add_matches_u128() {
    let mut rng = FastRng::seed_from_u64(1);
    for _ in 0..256 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let got = Mpi::from_u64(a).add(&Mpi::from_u64(b));
        let want = a as u128 + b as u128;
        assert_eq!(got.to_hex(), format!("{want:x}"));
    }
}

#[test]
fn sub_matches_u128() {
    let mut rng = FastRng::seed_from_u64(2);
    for _ in 0..256 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let got = Mpi::from_u64(hi).sub(&Mpi::from_u64(lo));
        assert_eq!(got.to_hex(), format!("{:x}", hi - lo));
    }
}

#[test]
fn mul_matches_u128() {
    let mut rng = FastRng::seed_from_u64(3);
    for _ in 0..256 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let got = Mpi::from_u64(a).mul(&Mpi::from_u64(b));
        let want = a as u128 * b as u128;
        assert_eq!(got.to_hex(), format!("{want:x}"));
    }
}

#[test]
fn rem_matches_u128() {
    let mut rng = FastRng::seed_from_u64(4);
    for _ in 0..256 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let m = rng.next_u64().max(1);
        // A 128-bit dividend from two random halves.
        let wide = Mpi::from_u64(a).shl(64).add(&Mpi::from_u64(b));
        let got = wide.rem(&Mpi::from_u64(m));
        let want = ((a as u128) << 64 | b as u128) % m as u128;
        assert_eq!(got.to_hex(), format!("{want:x}"));
    }
}

#[test]
fn square_equals_mul_self() {
    let mut rng = FastRng::seed_from_u64(5);
    for _ in 0..64 {
        let n = rng.next_below(12) as usize;
        let limbs: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        let a = Mpi::from_limbs(limbs);
        assert_eq!(a.square(), a.mul(&a));
    }
}

#[test]
fn hex_roundtrips() {
    let mut rng = FastRng::seed_from_u64(6);
    for _ in 0..64 {
        let n = rng.next_below(12) as usize;
        let limbs: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
        let a = Mpi::from_limbs(limbs);
        assert_eq!(Mpi::from_hex(&a.to_hex()), a);
    }
}

#[test]
fn shl_matches_u128() {
    let mut rng = FastRng::seed_from_u64(7);
    for _ in 0..256 {
        let a = rng.next_u64();
        let shift = rng.next_below(64) as usize;
        let got = Mpi::from_u64(a).shl(shift);
        let want = (a as u128) << shift;
        assert_eq!(got.to_hex(), format!("{want:x}"));
    }
}

#[test]
fn modexp_matches_native() {
    let mut rng = FastRng::seed_from_u64(8);
    for _ in 0..64 {
        let (b, e) = (rng.next_u64(), rng.next_u64());
        let m = rng.next_u64().max(2);
        let got = modexp(&Mpi::from_u64(b), &Mpi::from_u64(e), &Mpi::from_u64(m));
        assert_eq!(got.to_hex(), format!("{:x}", native_modexp(b, e, m)));
    }
}

/// The primitive stream is a faithful transcript of the exponent: one
/// Square per post-MSB bit, one extra Multiply per set bit, Reduces
/// pairing each.
#[test]
fn primitive_stream_counts() {
    let mut rng = FastRng::seed_from_u64(9);
    for _ in 0..64 {
        let e = rng.next_u64().max(2);
        let m = rng.next_u64().max(3);
        let mut me = ModExp::new(Mpi::from_u64(7), Mpi::from_u64(e), Mpi::from_u64(m));
        let mut squares = 0u32;
        let mut multiplies = 0u32;
        let mut reduces = 0u32;
        while let Some(op) = me.step() {
            match op {
                PrimitiveOp::Square => squares += 1,
                PrimitiveOp::Multiply => multiplies += 1,
                PrimitiveOp::Reduce => reduces += 1,
            }
        }
        let bits = 64 - e.leading_zeros();
        let tail_ones = e.count_ones() - 1; // MSB excluded
        assert_eq!(squares, bits - 1, "e {e}");
        assert_eq!(multiplies, tail_ones, "e {e}");
        assert_eq!(reduces, squares + multiplies, "e {e}");
    }
}
