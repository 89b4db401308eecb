//! The dense plan cache against an ordered-map reference LRU.

use super::*;
use crate::serve::load::SeededRng;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference the dense cache must match: the same LRU over an
/// ordered map, with the victim found by a full scan.
struct ReferenceLru {
    budget: Option<u64>,
    entries: BTreeMap<(usize, usize), (u64, u64)>,
    resident_bytes: u64,
    tick: u64,
    stats: PlanCacheStats,
}

impl ReferenceLru {
    fn access(&mut self, key: (usize, usize), bytes: u64, compile_ms: f64) -> f64 {
        self.stats.lookups += 1;
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.1 = self.tick;
            self.stats.hits += 1;
            return 0.0;
        }
        self.stats.misses += 1;
        while self.budget.is_some_and(|b| self.resident_bytes + bytes > b) {
            let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.1) else {
                break;
            };
            self.resident_bytes -= self.entries.remove(&victim).map_or(0, |e| e.0);
            self.stats.evictions += 1;
        }
        self.entries.insert(key, (bytes, self.tick));
        self.resident_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.resident_bytes);
        compile_ms
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense cache and the ordered-map reference agree access by
    /// access — compile charge, residency of every key, resident
    /// bytes — and on every counter at the end, over keys up to
    /// 3 networks × 17 batch sizes, unbounded and bounded budgets,
    /// and plans larger than the whole budget.
    #[test]
    fn dense_plan_cache_matches_the_ordered_map_lru(
        seed in 0u64..u64::MAX,
        accesses in 0usize..400,
        budget_kind in 0u64..4,
        budget_bytes in 1u64..256,
    ) {
        let budget = (budget_kind > 0).then_some(budget_bytes);
        let mut dense = PlanCache::new(budget);
        let mut reference = ReferenceLru {
            budget,
            entries: BTreeMap::new(),
            resident_bytes: 0,
            tick: 0,
            stats: PlanCacheStats::default(),
        };
        let mut rng = SeededRng::new(seed);
        for step in 0..accesses {
            let key = ((rng.next_u64() % 3) as usize, (rng.next_u64() % 17) as usize);
            // One access in 16 brings a plan larger than any budget.
            let bytes = if rng.next_u64().is_multiple_of(16) {
                256 + rng.next_u64() % 64
            } else {
                1 + rng.next_u64() % 64
            };
            let compile_ms = 1.0 + step as f64;
            let charged = dense.access(key, bytes, compile_ms);
            let expected = reference.access(key, bytes, compile_ms);
            prop_assert_eq!(charged.to_bits(), expected.to_bits(), "step {}", step);
            prop_assert_eq!(dense.resident_bytes, reference.resident_bytes);
            for net in 0..3 {
                for batch in 0..17 {
                    prop_assert_eq!(
                        dense.contains(&(net, batch)),
                        reference.entries.contains_key(&(net, batch)),
                        "step {} key {:?}", step, (net, batch)
                    );
                }
            }
        }
        let mut expected = reference.stats;
        expected.resident_bytes = reference.resident_bytes;
        prop_assert_eq!(dense.into_stats(), expected);
    }
}
