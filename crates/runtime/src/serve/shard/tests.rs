//! The dense plan cache, alone and against an ordered-map reference
//! LRU, and the reconfiguration window's configuration choice.

#![expect(
    clippy::float_cmp,
    reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
)]

use super::*;
use crate::serve::load::SeededRng;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[test]
fn plan_cache_lru_evicts_the_coldest_plan() {
    let mut cache = PlanCache::new(Some(100));
    assert_eq!(cache.access((0, 1), 40, 2.0), 2.0, "cold miss bills");
    assert_eq!(cache.access((1, 1), 40, 2.0), 2.0);
    assert_eq!(cache.access((0, 1), 40, 2.0), 0.0, "hit is free");
    // Admitting a third 40B plan exceeds 100B: the LRU victim is
    // (1,1) — (0,1) was touched more recently.
    assert_eq!(cache.access((2, 1), 40, 2.0), 2.0);
    assert_eq!(cache.access((0, 1), 40, 2.0), 0.0, "(0,1) survived");
    assert_eq!(cache.access((1, 1), 40, 2.0), 2.0, "(1,1) was evicted");
    let stats = cache.into_stats();
    assert_eq!(stats.hits + stats.misses, stats.lookups);
    assert_eq!(stats.evictions, 2);
    assert!(stats.peak_bytes <= 100);
    assert_eq!(stats.resident_bytes, 80);
}

#[test]
fn plan_cache_unbounded_never_evicts() {
    let mut cache = PlanCache::new(None);
    for net in 0..50 {
        assert_eq!(cache.access((net, 1), 1 << 20, 1.0), 1.0);
        assert_eq!(cache.access((net, 1), 1 << 20, 1.0), 0.0);
    }
    let stats = cache.into_stats();
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.misses, 50);
    assert_eq!(stats.hits, 50);
    assert_eq!(stats.resident_bytes, 50 << 20);
}

#[test]
fn plan_cache_contains_peeks_without_billing() {
    let mut cache = PlanCache::new(Some(100));
    assert!(!cache.contains(&(0, 1)));
    cache.access((0, 1), 40, 2.0);
    assert!(cache.contains(&(0, 1)));
    let stats = cache.into_stats();
    assert_eq!(stats.lookups, 1, "contains() is not a lookup");
}

#[test]
fn oversized_plan_empties_the_cache_but_still_runs() {
    let mut cache = PlanCache::new(Some(64));
    cache.access((0, 1), 30, 1.0);
    cache.access((1, 1), 30, 1.0);
    // 100 > 64: everything is evicted, the plan is admitted anyway
    // (admission control keeps this out of engine runs).
    assert_eq!(cache.access((2, 1), 100, 1.0), 1.0);
    let stats = cache.into_stats();
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.resident_bytes, 100);
}

#[test]
fn best_config_minimises_weighted_cycles_with_low_index_ties() {
    // config 0 wins net 0, config 1 wins net 1.
    let cycles = vec![vec![10, 100], vec![50, 20]];
    assert_eq!(best_config(&cycles, &[1, 0]), 0);
    assert_eq!(best_config(&cycles, &[0, 1]), 1);
    // 3×10 + 1×100 = 130 vs 3×50 + 1×20 = 170.
    assert_eq!(best_config(&cycles, &[3, 1]), 0);
    // Exact tie: lowest index wins.
    assert_eq!(best_config(&[vec![5], vec![5]], &[7]), 0);
    // Empty window: everything is zero cost — lowest index.
    assert_eq!(best_config(&cycles, &[0, 0]), 0);
}

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
