//! Physical addresses and cache-line addresses.

use std::fmt;

/// A byte-granular physical address.
///
/// The simulator works on physical addresses throughout: the paper's threat
/// model concerns physically shared memory (shared libraries, deduplicated
/// pages), and caches in the evaluated system are physically indexed.
pub type Addr = u64;

/// A cache-line-granular address: the physical address with the block
/// offset stripped.
///
/// # Examples
///
/// ```
/// use timecache_sim::LineAddr;
///
/// let la = LineAddr::from_addr(0x1234, 64);
/// assert_eq!(la.base(64), 0x1200);
/// assert!(la.contains(0x123F, 64));
/// assert!(!la.contains(0x1240, 64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// The line containing byte address `addr` for the given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two.
    pub fn from_addr(addr: Addr, line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two, got {line_size}"
        );
        LineAddr(addr >> line_size.trailing_zeros())
    }

    /// Rebuilds a line address from a raw line number (see
    /// [`LineAddr::raw`]).
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// The raw line number (address divided by line size).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The byte address of the first byte in the line.
    pub fn base(self, line_size: u64) -> Addr {
        self.0 << line_size.trailing_zeros()
    }

    /// Whether the byte address falls inside this line.
    pub fn contains(self, addr: Addr, line_size: u64) -> bool {
        LineAddr::from_addr(addr, line_size) == self
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_offset() {
        assert_eq!(LineAddr::from_addr(0, 64), LineAddr::from_addr(63, 64));
        assert_ne!(LineAddr::from_addr(63, 64), LineAddr::from_addr(64, 64));
    }

    #[test]
    fn base_roundtrip() {
        let la = LineAddr::from_addr(0xABCD, 64);
        assert_eq!(la.base(64), 0xABC0);
        assert_eq!(LineAddr::from_addr(la.base(64), 64), la);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        LineAddr::from_addr(0, 48);
    }

    #[test]
    fn contains_is_line_granular() {
        let la = LineAddr::from_addr(0x100, 32);
        assert!(la.contains(0x11F, 32));
        assert!(!la.contains(0x120, 32));
        assert!(!la.contains(0xFF, 32));
    }
}
