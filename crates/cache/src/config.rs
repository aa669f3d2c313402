//! Cache geometry and policy configuration.

use std::fmt;

/// Replacement policy for a set-associative cache.
///
/// The paper uses LRU everywhere (and argues for it over no-replacement in
/// the SNC, §4.1); FIFO and Random exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least recently used (paper default).
    #[default]
    Lru,
    /// First in, first out.
    Fifo,
    /// Pseudo-random (xorshift; deterministic per cache instance).
    Random,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "Random",
        })
    }
}

/// Geometry and policy of one cache.
///
/// # Examples
///
/// ```
/// use padlock_cache::CacheConfig;
///
/// // The paper's L2: 256KB, 4-way, 128-byte lines.
/// let l2 = CacheConfig::new("L2", 256 * 1024, 128, 4);
/// assert_eq!(l2.num_sets(), 512);
/// assert_eq!(l2.num_lines(), 2048);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    name: String,
    size_bytes: usize,
    line_bytes: usize,
    ways: usize,
    policy: ReplacementPolicy,
    /// `log2(line_bytes)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `num_sets() - 1`: the set is the line number's low bits.
    set_mask: u64,
}

impl CacheConfig {
    /// Creates a configuration with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `size_bytes` is a
    /// multiple of `line_bytes * ways`, the resulting set count is a power
    /// of two, and `ways >= 1`.
    pub fn new(name: impl Into<String>, size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        assert!(ways >= 1, "cache must have at least one way");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes.is_multiple_of(line_bytes * ways),
            "size must divide evenly into sets"
        );
        let sets = size_bytes / (line_bytes * ways);
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two (got {sets})"
        );
        Self {
            name: name.into(),
            size_bytes,
            line_bytes,
            ways,
            policy: ReplacementPolicy::Lru,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// Sets the replacement policy (builder style).
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The cache's name (used in stats output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// The line-aligned base address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    /// The set index for `addr`.
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l2_geometry() {
        let l2 = CacheConfig::new("L2", 256 * 1024, 128, 4);
        assert_eq!(l2.num_sets(), 512);
        assert_eq!(l2.num_lines(), 2048);
        assert_eq!(l2.ways(), 4);
        assert_eq!(l2.policy(), ReplacementPolicy::Lru);
    }

    #[test]
    fn paper_l1_geometry() {
        let l1 = CacheConfig::new("L1D", 32 * 1024, 32, 4);
        assert_eq!(l1.num_sets(), 256);
    }

    #[test]
    fn line_addr_masks_offset_bits() {
        let c = CacheConfig::new("c", 1024, 64, 2);
        assert_eq!(c.line_addr(0x1234), 0x1200);
        assert_eq!(c.line_addr(0x1240), 0x1240);
    }

    #[test]
    fn set_index_wraps_modulo_sets() {
        let c = CacheConfig::new("c", 1024, 64, 2); // 8 sets
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(64 * 8), 0);
    }

    #[test]
    fn set_index_matches_division_form() {
        for (size, line, ways) in [
            (1024, 64, 2),
            (256 * 1024, 128, 4),
            (32 * 1024, 32, 4),
            (64, 64, 1),
        ] {
            let c = CacheConfig::new("c", size, line, ways);
            for addr in (0..1u64 << 20)
                .step_by(97)
                .chain([u64::MAX, u64::MAX - 127])
            {
                let want = (addr / line as u64) % c.num_sets() as u64;
                assert_eq!(c.set_index(addr) as u64, want, "addr {addr:#x}");
            }
        }
    }

    #[test]
    fn builder_sets_policy() {
        let c = CacheConfig::new("c", 1024, 64, 2).with_policy(ReplacementPolicy::Fifo);
        assert_eq!(c.policy(), ReplacementPolicy::Fifo);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        let _ = CacheConfig::new("bad", 1024, 48, 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = CacheConfig::new("bad", 1024, 64, 0);
    }

    #[test]
    fn policy_display() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(ReplacementPolicy::Random.to_string(), "Random");
    }
}
