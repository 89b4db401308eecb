//! Set-associative LRU cache used for both L1 (128 KiB/SM, Fig. 5) and the
//! 6 MiB L2.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes.
    pub line_size: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Volta L1 data cache: 128 KiB, 128-byte lines, 4-way.
    #[must_use]
    pub const fn volta_l1() -> Self {
        CacheConfig {
            capacity: 128 * 1024,
            line_size: 128,
            ways: 4,
        }
    }

    /// Volta L2: 6 MiB, 128-byte lines, 16-way.
    #[must_use]
    pub const fn volta_l2() -> Self {
        CacheConfig {
            capacity: 6 * 1024 * 1024,
            line_size: 128,
            ways: 16,
        }
    }

    /// Number of sets.
    #[must_use]
    pub(crate) const fn sets(&self) -> u64 {
        self.capacity / (self.line_size as u64 * self.ways as u64)
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; filled (and possibly evicted a victim).
    Miss,
}

/// A set-associative cache with true-LRU replacement.
///
/// # Example
///
/// ```
/// use sma_mem::{Cache, CacheConfig, CacheOutcome};
///
/// let mut l1 = Cache::new(CacheConfig::volta_l1());
/// assert_eq!(l1.access(0x1000), CacheOutcome::Miss);
/// assert_eq!(l1.access(0x1004), CacheOutcome::Hit); // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per set: (tag, last-use stamp) per occupied way.
    sets: Vec<Vec<(u64, u64)>>,
    stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0 && config.ways > 0, "degenerate cache geometry");
        Cache {
            config,
            sets: vec![Vec::new(); sets as usize],
            stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Accesses one byte address (reads and writes behave identically in
    /// this allocate-on-miss model).
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        let line = addr / u64::from(self.config.line_size);
        let set_idx = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        self.stamp += 1;
        let set = &mut self.sets[set_idx];
        if let Some(entry) = set.iter_mut().find(|(t, _)| *t == tag) {
            entry.1 = self.stamp;
            self.hits += 1;
            return CacheOutcome::Hit;
        }
        self.misses += 1;
        if set.len() < self.config.ways as usize {
            set.push((tag, self.stamp));
        } else {
            // Evict true-LRU.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("non-empty set");
            set[lru] = (tag, self.stamp);
            self.evictions += 1;
        }
        CacheOutcome::Miss
    }

    /// Hit count.
    #[must_use]
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    #[must_use]
    pub const fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64-byte lines = 512 bytes.
        Cache::new(CacheConfig {
            capacity: 512,
            line_size: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::volta_l1().sets(), 256);
        assert_eq!(tiny().config.sets(), 4);
    }

    #[test]
    fn hit_after_miss_same_line() {
        let mut c = tiny();
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(63), CacheOutcome::Hit);
        assert_eq!(c.access(64), CacheOutcome::Miss);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three tags mapping to set 0 in a 2-way set: 0, 256, 512.
        c.access(0);
        c.access(256);
        c.access(512); // evicts tag of line 0 (LRU)
        assert_eq!(c.evictions, 1);
        assert_eq!(c.access(256), CacheOutcome::Hit);
        assert_eq!(c.access(0), CacheOutcome::Miss); // was evicted
    }

    #[test]
    fn touching_refreshes_lru() {
        let mut c = tiny();
        c.access(0);
        c.access(256);
        c.access(0); // refresh line 0
        c.access(512); // should evict 256, not 0
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(256), CacheOutcome::Miss);
    }

    #[test]
    fn hit_rate_and_reset() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn streaming_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // Stream 4 KiB twice; second pass still misses everywhere because
        // the working set is 8× capacity.
        for _ in 0..2 {
            for line in 0..64u64 {
                c.access(line * 64);
            }
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 128);
    }
}
