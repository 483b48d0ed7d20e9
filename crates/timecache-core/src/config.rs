//! Configuration for the TimeCache mechanism.

use crate::timestamp::TimestampWidth;

/// Tunable parameters of the TimeCache hardware, per cache level.
///
/// The defaults correspond to the paper's evaluated configuration
/// (32-bit timestamps, Section VII mitigations off).
///
/// # Examples
///
/// ```
/// use timecache_core::TimeCacheConfig;
///
/// let cfg = TimeCacheConfig::default()
///     .with_constant_time_clflush(true)
///     .with_dram_wait_on_remote_hit(true);
/// assert_eq!(cfg.timestamp_width().bits(), 32);
/// assert!(cfg.constant_time_clflush());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeCacheConfig {
    timestamp_width: TimestampWidth,
    constant_time_clflush: bool,
    dram_wait_on_remote_hit: bool,
}

impl TimeCacheConfig {
    /// Creates a config with the given timestamp width and all Section VII
    /// mitigations disabled.
    ///
    /// # Panics
    ///
    /// Panics if `timestamp_bits` is zero or greater than 64.
    pub fn new(timestamp_bits: u8) -> Self {
        TimeCacheConfig {
            timestamp_width: TimestampWidth::new(timestamp_bits),
            constant_time_clflush: false,
            dram_wait_on_remote_hit: false,
        }
    }

    /// The `Tc`/`Ts` counter width.
    pub fn timestamp_width(&self) -> TimestampWidth {
        self.timestamp_width
    }

    /// Section VII-C mitigation: make `clflush` constant-time (perform a
    /// dummy write-back when the line is not cached) so flush+flush cannot
    /// distinguish cached from uncached lines.
    pub fn constant_time_clflush(&self) -> bool {
        self.constant_time_clflush
    }

    /// Section VII-B mitigation: on a first access, wait for the DRAM
    /// response latency even when the data could be supplied faster by a
    /// remote private cache or the LLC, defeating invalidate+transfer and
    /// E/S-state coherence attacks.
    pub fn dram_wait_on_remote_hit(&self) -> bool {
        self.dram_wait_on_remote_hit
    }

    /// Returns a copy with the constant-time `clflush` mitigation toggled.
    pub fn with_constant_time_clflush(mut self, on: bool) -> Self {
        self.constant_time_clflush = on;
        self
    }

    /// Returns a copy with the DRAM-wait coherence mitigation toggled.
    pub fn with_dram_wait_on_remote_hit(mut self, on: bool) -> Self {
        self.dram_wait_on_remote_hit = on;
        self
    }
}

impl Default for TimeCacheConfig {
    /// The paper's evaluated configuration: 32-bit timestamps, mitigations
    /// for the Section VII attack variants disabled.
    fn default() -> Self {
        TimeCacheConfig::new(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TimeCacheConfig::default();
        assert_eq!(c.timestamp_width().bits(), 32);
        assert!(!c.constant_time_clflush());
        assert!(!c.dram_wait_on_remote_hit());
    }

    #[test]
    fn builders_toggle_flags() {
        let c = TimeCacheConfig::new(16)
            .with_constant_time_clflush(true)
            .with_dram_wait_on_remote_hit(true);
        assert_eq!(c.timestamp_width().bits(), 16);
        assert!(c.constant_time_clflush());
        assert!(c.dram_wait_on_remote_hit());
    }
}
