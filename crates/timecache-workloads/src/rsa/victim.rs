//! The RSA victim program: executes a modular exponentiation while
//! emitting the instruction fetches of each primitive into shared library
//! code lines.

use super::modexp::{ModExp, PrimitiveOp};
use super::mpi::Mpi;
use crate::layout;
use std::collections::VecDeque;
use timecache_os::{DataKind, Op, Program};
use timecache_sim::Addr;

/// Where the three primitives live in the shared crypto library.
///
/// Each function occupies a contiguous run of cache lines, mirroring a real
/// non-stripped `libgcrypt` where an attacker locates `mpih_sqr`,
/// `mpih_mul`, and `mpih_divrem` by their symbol offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsaCodeLayout {
    /// First code line of the Square routine.
    pub square: Addr,
    /// First code line of the Multiply routine.
    pub multiply: Addr,
    /// First code line of the Reduce routine.
    pub reduce: Addr,
    /// Lines each routine spans.
    pub lines_per_fn: u64,
}

impl RsaCodeLayout {
    /// The first line of the routine implementing `op`.
    pub fn base_of(&self, op: PrimitiveOp) -> Addr {
        match op {
            PrimitiveOp::Square => self.square,
            PrimitiveOp::Multiply => self.multiply,
            PrimitiveOp::Reduce => self.reduce,
        }
    }

    /// The probe address an attacker would watch for `op` (the routine's
    /// entry line).
    pub fn probe_addr(&self, op: PrimitiveOp) -> Addr {
        self.base_of(op)
    }
}

/// The canonical layout used by the experiments: the three routines sit in
/// the shared library region, well separated (distinct cache sets), each
/// spanning 4 lines.
pub fn rsa_code_layout() -> RsaCodeLayout {
    // Offset into the shared library away from the generic libc region the
    // synthetic workloads sweep (they touch the first `shared_code_lines`
    // lines; the crypto routines live 4096 lines in).
    let base = layout::SHARED_LIB_CODE + 4096 * layout::LINE;
    RsaCodeLayout {
        square: base,
        multiply: base + 64 * layout::LINE,
        reduce: base + 128 * layout::LINE,
        lines_per_fn: 4,
    }
}

/// A victim process computing `base ^ key mod modulus` with GnuPG-style
/// square-and-multiply, optionally in a loop (repeated decryptions).
///
/// For every primitive executed it fetches the primitive's code lines and
/// loads the operand limbs from its private heap; between exponentiations
/// it yields (models the victim blocking on I/O for the next request),
/// which is what gives a time-sliced attacker its sampling windows.
pub struct RsaVictim {
    layout: RsaCodeLayout,
    base: Mpi,
    key: Mpi,
    modulus: Mpi,
    exp: ModExp,
    queue: VecDeque<Op>,
    encryptions_left: u64,
    yield_between_bits: bool,
    heap: Addr,
    results: Vec<Mpi>,
}

impl RsaVictim {
    /// Creates a victim that performs `encryptions` exponentiations of
    /// `base ^ key mod modulus`.
    ///
    /// When `yield_between_bits` is set the victim yields after each
    /// exponent bit, modelling the fine-grained preemption a same-core
    /// attacker achieves with a high-priority timer; when clear it yields
    /// only between exponentiations.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero or `encryptions` is zero.
    pub fn new(
        base: Mpi,
        key: Mpi,
        modulus: Mpi,
        encryptions: u64,
        yield_between_bits: bool,
    ) -> Self {
        assert!(encryptions > 0, "need at least one encryption");
        let exp = ModExp::new(base.clone(), key.clone(), modulus.clone());
        RsaVictim {
            layout: rsa_code_layout(),
            base,
            key,
            modulus,
            exp,
            queue: VecDeque::new(),
            encryptions_left: encryptions,
            yield_between_bits,
            heap: layout::private_base(8) + 0x1000_0000,
            results: Vec::new(),
        }
    }

    /// Results of completed exponentiations (for correctness checks).
    pub fn results(&self) -> &[Mpi] {
        &self.results
    }

    /// The secret exponent (tests compare attacker recovery against it).
    pub fn key(&self) -> &Mpi {
        &self.key
    }

    /// Queue the instruction fetches and limb loads for one primitive.
    fn enqueue_primitive(&mut self, op: PrimitiveOp) {
        let base = self.layout.base_of(op);
        let limbs = self.exp.operand_limbs() as u64;
        // Walk the routine's code lines; interleave operand-limb loads
        // (4 bytes each, so several per line).
        for i in 0..self.layout.lines_per_fn {
            let pc = base + i * layout::LINE;
            let data_addr = self.heap + (i * 16 % limbs.max(1)) * 4;
            self.queue.push_back(Op::Instr {
                pc,
                data: Some((DataKind::Load, data_addr)),
            });
        }
        // A store of the result limbs (touches the heap line again).
        self.queue.push_back(Op::Instr {
            pc: base + (self.layout.lines_per_fn - 1) * layout::LINE,
            data: Some((DataKind::Store, self.heap)),
        });
    }

    fn refill_queue(&mut self) {
        // One exponent-bit's worth of primitives: Square;Reduce for a clear
        // bit, Square;Reduce;Multiply;Reduce for a set bit. The ModExp
        // exposes the bit boundary so a set bit's Multiply never spills
        // into the next scheduler window.
        loop {
            match self.exp.step() {
                Some(op) => {
                    self.enqueue_primitive(op);
                    if self.exp.at_bit_boundary() && self.yield_between_bits {
                        self.queue.push_back(Op::Yield {
                            pc: self.layout.reduce,
                        });
                        break;
                    }
                    if !self.yield_between_bits && self.queue.len() >= 64 {
                        break;
                    }
                }
                None => {
                    // Exponentiation finished.
                    self.results.push(self.exp.result().clone());
                    self.encryptions_left -= 1;
                    if self.encryptions_left == 0 {
                        self.queue.push_back(Op::Done);
                    } else {
                        self.exp =
                            ModExp::new(self.base.clone(), self.key.clone(), self.modulus.clone());
                        self.queue.push_back(Op::Yield {
                            pc: self.layout.reduce,
                        });
                    }
                    break;
                }
            }
        }
    }
}

impl Program for RsaVictim {
    fn next_op(&mut self) -> Op {
        while self.queue.is_empty() {
            self.refill_queue();
        }
        self.queue.pop_front().expect("refilled")
    }

    fn name(&self) -> &str {
        "rsa-victim"
    }
}

impl std::fmt::Debug for RsaVictim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaVictim")
            .field("key_bits", &self.key.bit_len())
            .field("encryptions_left", &self.encryptions_left)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(victim: &mut RsaVictim) -> Vec<Op> {
        let mut ops = Vec::new();
        loop {
            let op = victim.next_op();
            let done = op == Op::Done;
            ops.push(op);
            if done {
                break;
            }
        }
        ops
    }

    #[test]
    fn computes_correct_results_while_emitting() {
        let mut v = RsaVictim::new(
            Mpi::from_u64(4),
            Mpi::from_u64(13),
            Mpi::from_u64(497),
            2,
            true,
        );
        let _ = drain(&mut v);
        assert_eq!(v.results().len(), 2);
        assert_eq!(v.results()[0].to_u64(), Some(445));
        assert_eq!(v.results()[1].to_u64(), Some(445));
    }

    #[test]
    fn multiply_lines_fetched_only_for_set_bits() {
        let layout = rsa_code_layout();
        // Exponent 0b100: after the MSB, bits are 0,0 -> no Multiply.
        let mut v = RsaVictim::new(
            Mpi::from_u64(3),
            Mpi::from_u64(0b100),
            Mpi::from_u64(1009),
            1,
            true,
        );
        let mul_range = layout.multiply..layout.multiply + 4 * layout::LINE;
        let fetched_mul = drain(&mut v).iter().any(|op| match op {
            Op::Instr { pc, .. } => mul_range.contains(pc),
            _ => false,
        });
        assert!(!fetched_mul, "clear bits must not touch Multiply code");

        // Exponent 0b110: bits 1,0 -> Multiply fetched once.
        let mut v = RsaVictim::new(
            Mpi::from_u64(3),
            Mpi::from_u64(0b110),
            Mpi::from_u64(1009),
            1,
            true,
        );
        let fetched_mul = drain(&mut v).iter().any(|op| match op {
            Op::Instr { pc, .. } => mul_range.contains(pc),
            _ => false,
        });
        assert!(fetched_mul, "set bits must touch Multiply code");
    }

    #[test]
    fn yields_between_bits_when_asked() {
        let mut v = RsaVictim::new(
            Mpi::from_u64(3),
            Mpi::from_u64(0b1011),
            Mpi::from_u64(1009),
            1,
            true,
        );
        let yields = drain(&mut v)
            .iter()
            .filter(|op| matches!(op, Op::Yield { .. }))
            .count();
        // 3 post-MSB bits -> at least one yield per bit.
        assert!(yields >= 3, "yields {yields}");
    }

    #[test]
    fn code_layout_is_in_shared_library() {
        let l = rsa_code_layout();
        for op in [
            PrimitiveOp::Square,
            PrimitiveOp::Multiply,
            PrimitiveOp::Reduce,
        ] {
            assert!(l.probe_addr(op) >= layout::SHARED_LIB_CODE);
        }
        // Routines don't overlap.
        assert!(l.square + l.lines_per_fn * layout::LINE <= l.multiply);
        assert!(l.multiply + l.lines_per_fn * layout::LINE <= l.reduce);
    }
}
