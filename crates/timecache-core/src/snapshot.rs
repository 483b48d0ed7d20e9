//! Per-process caching-context snapshots.
//!
//! When a process is preempted, trusted software (the OS in the paper's
//! design) saves the s-bits of the hardware context it was running on,
//! together with the preemption time `Ts`, into a kernel memory region the
//! process context points to. When the process is later rescheduled, the
//! snapshot is restored into the hardware context it resumes on and brought
//! up to date by the bit-serial comparator.

use crate::fnv::Fnv1a;
use crate::sbit::SBitArray;
use crate::timestamp::{TimestampWidth, WrappingTime};

/// A saved caching context for one process on one cache level: the s-bits as
/// they were at preemption time, plus the preemption timestamp `Ts`.
///
/// Snapshots are produced by [`crate::TimeCacheState::save_context`] and
/// consumed by [`crate::TimeCacheState::restore_context_faulty`].
///
/// # Examples
///
/// ```
/// use timecache_core::{TimeCacheState, TimeCacheConfig};
///
/// let cfg = TimeCacheConfig::new(8);
/// let mut tc = TimeCacheState::new(64, 1, cfg);
/// tc.on_fill(9, 0, 100);
///
/// let snap = tc.save_context(0, 120);
/// assert_eq!(snap.sbits().count_set(), 1);
/// assert_eq!(snap.ts().value(), 120);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    sbits: SBitArray,
    /// Software keeps the preemption time at full (unbounded) precision —
    /// it is saving `Ts` into kernel memory anyway — which lets the restore
    /// path detect preemptions spanning one or more *full* counter periods,
    /// a wrap the truncated hardware comparison alone cannot see.
    raw_ts: u64,
    width: TimestampWidth,
    /// FNV-1a over the s-bit words, `Ts`, and the counter width, computed
    /// at save time. The restore path re-derives it and treats any mismatch
    /// (bit rot, misdirected DMA while the snapshot sat in kernel memory)
    /// as "snapshot lost", degrading to the conservative full s-bit reset.
    checksum: u64,
}

impl Snapshot {
    /// Assembles a snapshot from saved s-bits, the full-precision preemption
    /// cycle count, and the hardware counter width.
    pub fn new(sbits: SBitArray, raw_ts: u64, width: TimestampWidth) -> Self {
        let checksum = integrity_checksum(&sbits, raw_ts, width);
        Snapshot {
            sbits,
            raw_ts,
            width,
            checksum,
        }
    }

    /// Assembles a snapshot carrying a caller-supplied checksum, bypassing
    /// recomputation. Only the fault injector uses this: it lets a corrupted
    /// snapshot keep the checksum of its honest original, exactly as bit rot
    /// in kernel memory would.
    pub(crate) fn from_raw_parts(
        sbits: SBitArray,
        raw_ts: u64,
        width: TimestampWidth,
        checksum: u64,
    ) -> Self {
        Snapshot {
            sbits,
            raw_ts,
            width,
            checksum,
        }
    }

    /// The saved s-bits.
    pub fn sbits(&self) -> &SBitArray {
        &self.sbits
    }

    /// The preemption timestamp `Ts` as the hardware comparator sees it
    /// (truncated to the counter width).
    pub fn ts(&self) -> WrappingTime {
        WrappingTime::from_cycle(self.raw_ts, self.width)
    }

    /// The full-precision preemption cycle count kept by software.
    pub fn raw_ts(&self) -> u64 {
        self.raw_ts
    }

    /// The integrity checksum stored at save time.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Whether the stored checksum still matches the snapshot's contents.
    /// `false` means the snapshot was corrupted while at rest and must not
    /// be trusted: restore degrades to a conservative full s-bit reset.
    pub fn integrity_ok(&self) -> bool {
        self.checksum == integrity_checksum(&self.sbits, self.raw_ts, self.width)
    }

    /// The software half of rollover detection alone: have the truncated
    /// counter epochs of preemption and resumption diverged? This is
    /// equivalent to [`Snapshot::rollover_since`] (epoch equal ⇒ no wrap at
    /// all; epoch differing by less than a period ⇒ the hardware comparison
    /// fires; by a period or more ⇒ the software elapsed-time check fires),
    /// but needs only the kernel's full-precision `Ts` — which is what lets
    /// trusted software cross-check a hardware rollover signal that a fault
    /// (or an attacker glitch) has suppressed.
    ///
    /// # Panics
    ///
    /// Panics if `now_raw` is earlier than the preemption time (time must be
    /// monotonic).
    pub fn software_rollover_since(&self, now_raw: u64) -> bool {
        assert!(
            now_raw >= self.raw_ts,
            "resumption time {now_raw} precedes preemption time {}",
            self.raw_ts
        );
        match self.width.period() {
            // A 64-bit counter never wraps within u64 simulated time.
            None => false,
            Some(_) => (now_raw >> self.width.bits()) != (self.raw_ts >> self.width.bits()),
        }
    }

    /// Rollover detection performed at resumption, combining the hardware
    /// check (truncated now < truncated `Ts`, Section VI-C) with the
    /// software check for preemptions spanning at least one full counter
    /// period (which the truncated comparison alone cannot detect).
    ///
    /// # Panics
    ///
    /// Panics if `now_raw` is earlier than the preemption time (time must be
    /// monotonic).
    pub fn rollover_since(&self, now_raw: u64) -> bool {
        assert!(
            now_raw >= self.raw_ts,
            "resumption time {now_raw} precedes preemption time {}",
            self.raw_ts
        );
        let hw = self
            .ts()
            .rollover_since(WrappingTime::from_cycle(now_raw, self.width));
        let sw = match self.width.period() {
            Some(p) => now_raw - self.raw_ts >= p,
            None => false,
        };
        hw || sw
    }

    /// Bytes of kernel memory this snapshot occupies; save and restore each
    /// move this many bytes (Section VI-D's copy-cost analysis).
    pub fn storage_bytes(&self) -> usize {
        // s-bits plus the 64-bit Ts register.
        self.sbits.storage_bytes() + 8
    }

    /// Number of 64-byte cache-line-sized transfers needed to save or
    /// restore this snapshot (Section VI-D: 2 for a 64 KB L1, 256 for an
    /// 8 MB LLC).
    pub fn transfer_lines(&self) -> usize {
        self.sbits.storage_bytes().div_ceil(64).max(1)
    }
}

/// FNV-1a over the snapshot's words, preemption time, and counter width.
fn integrity_checksum(sbits: &SBitArray, raw_ts: u64, width: TimestampWidth) -> u64 {
    let mut hash = Fnv1a::new();
    for &word in sbits.words() {
        hash.write_u64(word);
    }
    hash.write_u64(raw_ts);
    hash.write_u64(u64::from(width.bits()));
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(lines: usize) -> Snapshot {
        Snapshot::new(SBitArray::new(lines), 0, TimestampWidth::new(32))
    }

    #[test]
    fn transfer_lines_match_paper_section_vi_d() {
        // 64 KB cache / 64 B lines = 1024 lines -> 128 B -> 2 transfers.
        assert_eq!(snap(1024).transfer_lines(), 2);
        // 8 MB cache -> 131072 lines -> 16 KiB -> 256 transfers.
        assert_eq!(snap(131072).transfer_lines(), 256);
    }

    #[test]
    fn tiny_snapshot_still_one_transfer() {
        assert_eq!(snap(8).transfer_lines(), 1);
    }

    #[test]
    fn storage_includes_ts_register() {
        assert_eq!(snap(64).storage_bytes(), 8 + 8);
    }

    #[test]
    fn rollover_detected_by_hardware_comparison() {
        let w = TimestampWidth::new(8);
        let s = Snapshot::new(SBitArray::new(8), 250, w);
        assert!(s.rollover_since(260)); // truncated 4 < 250
    }

    #[test]
    fn rollover_detected_across_full_period_by_software() {
        // 8-bit period = 256: one full period later the truncated values
        // would look forward-moving, but software sees the elapsed time.
        let w = TimestampWidth::new(8);
        let s = Snapshot::new(SBitArray::new(8), 10, w);
        assert!(!s.rollover_since(100));
        assert!(s.rollover_since(10 + 256));
        assert!(s.rollover_since(10 + 3 * 256 + 5));
    }

    #[test]
    #[should_panic(expected = "precedes preemption")]
    fn non_monotonic_time_rejected() {
        let s = Snapshot::new(SBitArray::new(8), 100, TimestampWidth::new(8));
        s.rollover_since(99);
    }

    #[test]
    fn fresh_snapshot_passes_integrity() {
        let mut sbits = SBitArray::new(130);
        sbits.set(7);
        sbits.set(129);
        let s = Snapshot::new(sbits, 42, TimestampWidth::new(8));
        assert!(s.integrity_ok());
        assert_eq!(s.clone().checksum(), s.checksum());
    }

    #[test]
    fn tampered_snapshot_fails_integrity() {
        let honest = Snapshot::new(SBitArray::new(64), 42, TimestampWidth::new(8));
        let mut tampered_bits = honest.sbits().clone();
        tampered_bits.set(3);
        let tampered = Snapshot::from_raw_parts(
            tampered_bits,
            honest.raw_ts(),
            TimestampWidth::new(8),
            honest.checksum(),
        );
        assert!(!tampered.integrity_ok());
        // A tampered Ts is caught just as well.
        let bad_ts = Snapshot::from_raw_parts(
            honest.sbits().clone(),
            43,
            TimestampWidth::new(8),
            honest.checksum(),
        );
        assert!(!bad_ts.integrity_ok());
    }

    #[test]
    fn software_rollover_matches_combined_check() {
        // Equivalence claimed in the doc comment: for every (save, resume)
        // pair on a small counter the epoch comparison agrees with the
        // hardware-or-software combined check.
        let w = TimestampWidth::new(4); // period 16
        for ts in 0..64u64 {
            for now in ts..ts + 48 {
                let s = Snapshot::new(SBitArray::new(8), ts, w);
                assert_eq!(
                    s.software_rollover_since(now),
                    s.rollover_since(now),
                    "ts={ts} now={now}"
                );
            }
        }
    }

    #[test]
    fn software_rollover_on_64_bit_counter_is_never() {
        let s = Snapshot::new(SBitArray::new(8), u64::MAX - 1, TimestampWidth::new(64));
        assert!(!s.software_rollover_since(u64::MAX));
        assert!(!s.rollover_since(u64::MAX));
    }
}
