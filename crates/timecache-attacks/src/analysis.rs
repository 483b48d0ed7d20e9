//! Measurement analysis: hit/miss thresholding and key recovery.

use timecache_sim::LatencyConfig;

/// A calibrated hit/miss decision threshold, as a real attacker derives by
/// timing a known-cached and a known-flushed access.
///
/// # Examples
///
/// ```
/// use timecache_attacks::Threshold;
/// use timecache_sim::LatencyConfig;
///
/// let t = Threshold::calibrate(&LatencyConfig::default());
/// assert!(t.is_hit(2));    // L1 latency
/// assert!(!t.is_hit(200)); // DRAM latency
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threshold {
    cycles: u64,
}

impl Threshold {
    /// Calibrates from the platform's latency model: anything at or below
    /// the midpoint between an L1 hit and an LLC hit counts as a hit. For
    /// cross-core attacks (reload lands in the LLC, not the L1) use
    /// [`Threshold::cross_core`].
    pub fn calibrate(lat: &LatencyConfig) -> Self {
        Threshold {
            cycles: lat.reload_threshold(),
        }
    }

    /// Cross-core calibration: an LLC or remote-cache service still counts
    /// as a hit; only a DRAM-latency service is a miss.
    pub fn cross_core(lat: &LatencyConfig) -> Self {
        Threshold {
            cycles: (lat.remote_l1 + lat.dram) / 2,
        }
    }

    /// Builds a threshold directly from a cycle count.
    pub fn from_cycles(cycles: u64) -> Self {
        Threshold { cycles }
    }

    /// The decision boundary in cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Classifies one measured latency.
    pub fn is_hit(&self, latency: u64) -> bool {
        latency <= self.cycles
    }
}

/// One probe round of the RSA attack: which routines' entry lines hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RsaRound {
    /// Square routine probe hit.
    pub square: bool,
    /// Multiply routine probe hit.
    pub multiply: bool,
    /// Reduce routine probe hit.
    pub reduce: bool,
}

/// Key-recovery decoding and scoring for the RSA flush+reload attack.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRecovery {
    /// Recovered bits, most significant first (excluding the exponent's
    /// MSB, which square-and-multiply never leaks — it initializes the
    /// accumulator).
    pub bits: Vec<Option<bool>>,
}

impl KeyRecovery {
    /// Decodes probe rounds into exponent bits.
    ///
    /// Each round is one victim window (one exponent bit): a window whose
    /// Square (or Reduce) probe hit proves the victim ran exponentiation
    /// code; within such a window the Multiply probe distinguishes a set
    /// bit (S-R-M-R) from a clear bit (S-R). Windows with no exponentiation
    /// activity decode to `None` — with TimeCache enabled *every* window
    /// looks like that.
    pub fn decode(rounds: &[RsaRound]) -> Self {
        let bits = rounds
            .iter()
            .map(|r| {
                if r.square || r.reduce {
                    Some(r.multiply)
                } else {
                    None
                }
            })
            .collect();
        KeyRecovery { bits }
    }

    /// Fraction of the true key bits (MSB excluded, most significant first)
    /// correctly recovered. Undecoded windows count as wrong.
    ///
    /// # Panics
    ///
    /// Panics if `true_bits` is empty.
    pub fn accuracy(&self, true_bits: &[bool]) -> f64 {
        assert!(!true_bits.is_empty(), "need at least one key bit");
        let correct = true_bits
            .iter()
            .enumerate()
            .filter(|&(i, &b)| self.bits.get(i).copied().flatten() == Some(b))
            .count();
        correct as f64 / true_bits.len() as f64
    }

    /// Number of windows that carried any signal at all.
    pub fn decoded_count(&self) -> usize {
        self.bits.iter().filter(|b| b.is_some()).count()
    }
}

/// The post-MSB bits of a key, most significant first — the ground truth
/// the attack tries to recover.
pub fn exponent_tail_bits(key_bits: &[bool]) -> Vec<bool> {
    key_bits.iter().copied().skip(1).collect()
}

/// Empirical mutual information, in bits per observation, between a binary
/// secret sequence and a binary observation sequence of equal length.
///
/// This is the information-theoretic summary of a side channel: an ideal
/// binary channel gives 1 bit/observation; a closed channel gives ~0. It
/// complements raw accuracy because a channel that's reliably *inverted*
/// still carries full information, while all-zero observations carry none
/// regardless of how often they happen to match the secret.
///
/// # Panics
///
/// Panics if the sequences are empty or of different lengths.
///
/// # Examples
///
/// ```
/// use timecache_attacks::analysis::mutual_information_bits;
///
/// let secret = [true, false, true, true, false, false];
/// // Perfect channel: 1 bit per observation.
/// let mi = mutual_information_bits(&secret, &secret);
/// assert!(mi > 0.9);
/// // Constant observations: zero information.
/// let blind = [false; 6];
/// assert!(mutual_information_bits(&secret, &blind) < 1e-9);
/// ```
pub fn mutual_information_bits(secret: &[bool], observed: &[bool]) -> f64 {
    assert!(!secret.is_empty(), "need at least one observation");
    assert_eq!(
        secret.len(),
        observed.len(),
        "sequences must have equal length"
    );
    let n = secret.len() as f64;
    // Joint counts: [secret][observed].
    let mut joint = [[0.0f64; 2]; 2];
    for (&s, &o) in secret.iter().zip(observed) {
        joint[s as usize][o as usize] += 1.0;
    }
    let ps = [
        (joint[0][0] + joint[0][1]) / n,
        (joint[1][0] + joint[1][1]) / n,
    ];
    let po = [
        (joint[0][0] + joint[1][0]) / n,
        (joint[0][1] + joint[1][1]) / n,
    ];
    let mut mi = 0.0;
    for s in 0..2 {
        for o in 0..2 {
            let pxy = joint[s][o] / n;
            if pxy > 0.0 && ps[s] > 0.0 && po[o] > 0.0 {
                mi += pxy * (pxy / (ps[s] * po[o])).log2();
            }
        }
    }
    mi.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_separates_levels() {
        let lat = LatencyConfig::default();
        let t = Threshold::calibrate(&lat);
        assert!(t.is_hit(lat.l1_hit));
        assert!(!t.is_hit(lat.llc_hit));
        assert!(!t.is_hit(lat.dram));

        let x = Threshold::cross_core(&lat);
        assert!(x.is_hit(lat.llc_hit));
        assert!(x.is_hit(lat.remote_l1));
        assert!(!x.is_hit(lat.dram));
    }

    #[test]
    fn decode_reads_multiply_presence() {
        let rounds = [
            RsaRound {
                square: true,
                multiply: true,
                reduce: true,
            },
            RsaRound {
                square: true,
                multiply: false,
                reduce: true,
            },
            RsaRound {
                square: false,
                multiply: false,
                reduce: false,
            },
        ];
        let k = KeyRecovery::decode(&rounds);
        assert_eq!(k.bits, vec![Some(true), Some(false), None]);
        assert_eq!(k.decoded_count(), 2);
    }

    #[test]
    fn accuracy_scores_against_truth() {
        let k = KeyRecovery {
            bits: vec![Some(true), Some(false), None, Some(true)],
        };
        let truth = [true, false, true, false];
        // Correct: 0 and 1; window 2 undecoded; window 3 wrong.
        assert!((k.accuracy(&truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tail_bits_drop_msb() {
        assert_eq!(exponent_tail_bits(&[true, false, true]), vec![false, true]);
    }

    #[test]
    #[should_panic(expected = "at least one key bit")]
    fn empty_truth_rejected() {
        KeyRecovery::default().accuracy(&[]);
    }

    #[test]
    fn mi_of_perfect_channel_approaches_entropy() {
        let secret: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let mi = mutual_information_bits(&secret, &secret);
        assert!((0.99..=1.0).contains(&mi), "{mi}");
    }

    #[test]
    fn mi_of_inverted_channel_is_still_full() {
        let secret: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
        let inverted: Vec<bool> = secret.iter().map(|b| !b).collect();
        let direct = mutual_information_bits(&secret, &secret);
        let flipped = mutual_information_bits(&secret, &inverted);
        assert!((direct - flipped).abs() < 1e-12);
    }

    #[test]
    fn mi_of_constant_observation_is_zero() {
        let secret: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        assert_eq!(mutual_information_bits(&secret, &[false; 32]), 0.0);
        assert_eq!(mutual_information_bits(&secret, &[true; 32]), 0.0);
    }

    #[test]
    fn mi_of_half_noisy_channel_is_partial() {
        // Observation correct for the first half, constant for the second.
        let secret: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let observed: Vec<bool> = secret
            .iter()
            .enumerate()
            .map(|(i, &s)| if i < 32 { s } else { false })
            .collect();
        let mi = mutual_information_bits(&secret, &observed);
        assert!(mi > 0.1 && mi < 0.9, "{mi}");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mi_checks_lengths() {
        mutual_information_bits(&[true], &[true, false]);
    }
}
