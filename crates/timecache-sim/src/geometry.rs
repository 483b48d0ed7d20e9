//! Cache geometry: size, associativity, line size, and derived quantities.

use std::fmt;

/// The physical shape of one cache level.
///
/// # Examples
///
/// ```
/// use timecache_sim::CacheGeometry;
///
/// // The paper's LLC: 2 MB, 16-way, 64 B lines.
/// let g = CacheGeometry::new(2 * 1024 * 1024, 16, 64);
/// assert_eq!(g.num_lines(), 32768);
/// assert_eq!(g.num_sets(), 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: u32,
    line_size: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a power of two, `ways` is in `1..=64`
    /// (the width of [`crate::Cache::lookup`]'s per-set match mask), and
    /// `size_bytes` is a multiple of `ways * line_size` with a power-of-two
    /// number of sets.
    pub fn new(size_bytes: u64, ways: u32, line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two, got {line_size}"
        );
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            ways <= 64,
            "at most 64 ways fit the lookup mask, got {ways}"
        );
        assert!(
            size_bytes.is_multiple_of(ways as u64 * line_size),
            "size {size_bytes} is not a multiple of ways*line_size"
        );
        let sets = size_bytes / (ways as u64 * line_size);
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two, got {sets}"
        );
        CacheGeometry {
            size_bytes,
            ways,
            line_size,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line (block) size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_size)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        (self.size_bytes / self.line_size) as usize
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KiB, {}-way, {} B lines",
            self.size_bytes / 1024,
            self.ways,
            self.line_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(g.num_sets(), 64);
        assert_eq!(g.num_lines(), 512);
    }

    #[test]
    fn paper_llc_sizes() {
        for (mb, lines) in [(2u64, 32768usize), (4, 65536), (8, 131072)] {
            let g = CacheGeometry::new(mb * 1024 * 1024, 16, 64);
            assert_eq!(g.num_lines(), lines, "{mb} MB");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_set_count() {
        CacheGeometry::new(3 * 1024, 1, 64);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn rejects_zero_ways() {
        CacheGeometry::new(1024, 0, 64);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn rejects_more_ways_than_the_match_mask() {
        CacheGeometry::new(128 * 64, 128, 64);
    }

    #[test]
    fn accepts_64_ways() {
        assert_eq!(CacheGeometry::new(64 * 64, 64, 64).num_sets(), 1);
    }

    #[test]
    fn display_is_informative() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(g.to_string(), "32 KiB, 8-way, 64 B lines");
    }
}
