//! Set-associative LRU cache simulation.

/// Geometry of one cache configuration.
///
/// # Examples
///
/// ```
/// use spm_cache::CacheConfig;
///
/// let cfg = CacheConfig::new(512, 4, 64);
/// assert_eq!(cfg.size_bytes(), 128 * 1024);
/// assert_eq!(cfg.size_kb(), 128.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two and at least 1.
    pub sets: u32,
    /// Associativity (ways per set); at least 1.
    pub ways: u32,
    /// Block (line) size in bytes; must be a power of two.
    pub block_bytes: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `block_bytes` is not a power of two, or any
    /// field is zero.
    pub const fn new(sets: u32, ways: u32, block_bytes: u32) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(ways >= 1, "ways must be at least 1");
        Self {
            sets,
            ways,
            block_bytes,
        }
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.block_bytes as u64
    }

    /// Total capacity in kilobytes.
    pub fn size_kb(&self) -> f64 {
        self.size_bytes() as f64 / 1024.0
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.block_bytes as u64) & (self.sets as u64 - 1)) as usize
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr / self.block_bytes as u64 / self.sets as u64
    }
}

/// The paper's reconfigurable data cache: 64-byte blocks, 512 sets,
/// associativity 1 through 8 (32KB to 256KB), smallest first.
pub fn reconfigurable_configs() -> Vec<CacheConfig> {
    (1..=8)
        .map(|ways| CacheConfig::new(512, ways, 64))
        .collect()
}

/// A set-associative cache with true-LRU replacement.
///
/// Writes are modelled as allocate-on-miss (write-allocate), identical to
/// reads for miss accounting, which is all the evaluation observes.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets * ways` tags; within a set, index 0 is the most recently
    /// used way. `u64::MAX` marks an invalid (empty) way.
    tags: Vec<u64>,
    accesses: u64,
    misses: u64,
}

const INVALID: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let tags = vec![INVALID; (config.sets * config.ways) as usize];
        Self {
            config,
            tags,
            accesses: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Simulates one access; returns `true` on a hit. The `_write` flag
    /// is accepted for interface completeness (allocation policy treats
    /// reads and writes alike).
    pub fn access(&mut self, addr: u64, _write: bool) -> bool {
        self.accesses += 1;
        let set = self.config.set_index(addr);
        let tag = self.config.tag(addr);
        let ways = self.config.ways as usize;
        let base = set * ways;
        let set_tags = &mut self.tags[base..base + ways];
        if let Some(pos) = set_tags.iter().position(|&t| t == tag) {
            // Move to front (most recently used).
            set_tags[..=pos].rotate_right(1);
            true
        } else {
            self.misses += 1;
            // Evict LRU (last way), insert at front.
            set_tags.rotate_right(1);
            set_tags[0] = tag;
            false
        }
    }

    /// Total accesses simulated.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate (`0.0` when no accesses yet).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Invalidates all contents and zeroes the statistics.
    pub fn reset(&mut self) {
        self.tags.fill(INVALID);
        self.accesses = 0;
        self.misses = 0;
    }
}

/// Several cache configurations simulated in parallel over a single
/// address stream.
///
/// This replaces the paper's offline Cheetah runs: one pass over the
/// trace yields, for every interval, the miss count under every candidate
/// configuration, from which the adaptive policy and the best-fixed
/// baseline are both computed.
///
/// # Examples
///
/// ```
/// use spm_cache::{reconfigurable_configs, CacheBank};
///
/// let mut bank = CacheBank::new(reconfigurable_configs());
/// for addr in (0..8192u64).step_by(8) {
///     bank.access(addr, false);
/// }
/// // Larger caches never miss more than smaller ones on the same stream.
/// let misses = bank.misses();
/// assert!(misses.windows(2).all(|w| w[0] >= w[1]));
/// ```
#[derive(Debug, Clone)]
pub struct CacheBank {
    caches: Vec<Cache>,
}

impl CacheBank {
    /// Creates a bank simulating each configuration independently.
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        Self {
            caches: configs.into_iter().map(Cache::new).collect(),
        }
    }

    /// Simulates one access in every configuration.
    pub fn access(&mut self, addr: u64, write: bool) {
        for cache in &mut self.caches {
            cache.access(addr, write);
        }
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// Whether the bank has no configurations.
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// Current miss count per configuration.
    pub fn misses(&self) -> Vec<u64> {
        self.caches.iter().map(Cache::misses).collect()
    }

    /// Current access count (identical for all configurations).
    pub fn accesses(&self) -> u64 {
        self.caches.first().map_or(0, Cache::accesses)
    }

    /// Configurations, in construction order.
    pub fn configs(&self) -> Vec<CacheConfig> {
        self.caches.iter().map(Cache::config).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sequential_within_block_hits() {
        let mut c = Cache::new(CacheConfig::new(16, 1, 64));
        assert!(!c.access(0, false));
        for off in (8..64).step_by(8) {
            assert!(c.access(off, false), "offset {off} should hit");
        }
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn direct_mapped_conflict_misses() {
        // Two addresses mapping to the same set in a direct-mapped cache
        // thrash; a 2-way cache holds both.
        let cfg_dm = CacheConfig::new(16, 1, 64);
        let a = 0u64;
        let b = (16 * 64) as u64; // same set, different tag
        let mut dm = Cache::new(cfg_dm);
        let mut tw = Cache::new(CacheConfig::new(16, 2, 64));
        for _ in 0..10 {
            dm.access(a, false);
            dm.access(b, false);
            tw.access(a, false);
            tw.access(b, false);
        }
        assert_eq!(dm.misses(), 20, "direct-mapped thrashes");
        assert_eq!(tw.misses(), 2, "2-way holds both lines");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways. Touch a, b, then a again; inserting c must evict b.
        let cfg = CacheConfig::new(1, 2, 64);
        let mut c = Cache::new(cfg);
        let (a, b, x) = (0u64, 64u64, 128u64);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(x, false); // evicts b
        assert!(c.access(a, false), "a must survive");
        assert!(!c.access(b, false), "b must have been evicted");
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = Cache::new(CacheConfig::new(16, 2, 64));
        c.access(0, false);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert!(!c.access(0, false), "contents must be invalidated");
    }

    #[test]
    fn reconfigurable_configs_match_paper() {
        let configs = reconfigurable_configs();
        assert_eq!(configs.len(), 8);
        assert_eq!(configs[0].size_kb(), 32.0);
        assert_eq!(configs[7].size_kb(), 256.0);
        assert!(configs.iter().all(|c| c.sets == 512 && c.block_bytes == 64));
    }

    #[test]
    fn miss_rate_handles_empty() {
        let c = Cache::new(CacheConfig::new(16, 1, 64));
        assert_eq!(c.miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = CacheConfig::new(3, 1, 64);
    }

    proptest! {
        /// LRU inclusion property: on any trace, a cache with more ways
        /// (same sets) never misses more than one with fewer ways.
        #[test]
        fn associativity_inclusion(addrs in proptest::collection::vec(0u64..1 << 20, 1..2000)) {
            let mut bank = CacheBank::new((1..=8).map(|w| CacheConfig::new(64, w, 64)).collect());
            for &a in &addrs {
                bank.access(a, false);
            }
            let misses = bank.misses();
            prop_assert!(misses.windows(2).all(|w| w[0] >= w[1]), "misses = {misses:?}");
        }

        /// Accesses within one block after a miss always hit until the
        /// block is evicted; with a working set smaller than the cache,
        /// misses equal the number of distinct blocks.
        #[test]
        fn small_working_set_only_cold_misses(
            blocks in proptest::collection::vec(0u64..32, 1..500)
        ) {
            let cfg = CacheConfig::new(8, 8, 64); // 64 blocks capacity > 32 distinct
            let mut c = Cache::new(cfg);
            for &b in &blocks {
                c.access(b * 64, false);
            }
            let mut distinct: Vec<u64> = blocks.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(c.misses(), distinct.len() as u64);
        }
    }
}
