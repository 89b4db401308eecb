//! Aggregation of shard reports into serving metrics: latency
//! percentiles (p50/p99/p99.9), SLO accounting (deadline misses,
//! goodput), queue-depth, plan-cache and fault/recovery statistics
//! (sheds, retries, hedges, failovers, downtime) — cluster-wide, per
//! shard, and per SLO class.

use super::engine::ServeRun;
use super::fault::ShardFaultStats;

/// Exact counters of one shard's simulated plan cache.
///
/// Invariant (pinned by the serve-engine suite):
/// `hits + misses == lookups`, and under an unbounded budget
/// `evictions == 0`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plan-cache probes (one per dispatched batch).
    pub lookups: u64,
    /// Probes that found the plan resident.
    pub hits: u64,
    /// Probes that had to (re-)compile the plan.
    pub misses: u64,
    /// Plans evicted to fit newly admitted ones.
    pub evictions: u64,
    /// Resident plan bytes when the run ended.
    pub resident_bytes: u64,
    /// Highest resident plan bytes at any instant of the run.
    pub peak_bytes: u64,
}

impl PlanCacheStats {
    /// Fold another shard's counters into this one (byte gauges sum;
    /// the cluster-wide peak is the sum of per-shard peaks, an upper
    /// bound).
    pub(crate) fn absorb(&mut self, other: &PlanCacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_bytes += other.resident_bytes;
        self.peak_bytes += other.peak_bytes;
    }
}

/// Per-shard aggregate of one serve run.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Backend name of the shard's executor.
    pub platform: &'static str,
    /// Requests the placement routed here.
    pub requests: usize,
    /// Batches the policy formed here.
    pub batches: usize,
    /// Simulated milliseconds the shard spent executing (plan compiles
    /// included).
    pub busy_ms: f64,
    /// Busy fraction of the cluster-wide simulated horizon.
    pub utilization: f64,
    /// Served requests that finished after their deadline.
    pub deadline_misses: u64,
    /// Time-weighted mean queued-request count over the horizon.
    pub queue_depth_mean: f64,
    /// Worst instantaneous queued-request count.
    pub queue_depth_max: usize,
    /// The shard's plan-cache counters.
    pub cache: PlanCacheStats,
    /// The shard's fault and recovery counters (all zero in fault-free
    /// runs).
    pub fault: ShardFaultStats,
}

/// Per-SLO-class aggregate of one serve run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassSummary {
    /// The SLO class (0 = highest priority).
    pub class: u8,
    /// Requests of this class that completed.
    pub served: usize,
    /// Requests of this class dropped by the shed watermark.
    pub shed: usize,
    /// Requests of this class abandoned after exhausting retries.
    pub failed: usize,
    /// Served requests of this class that finished after their
    /// deadline.
    pub deadline_misses: u64,
    /// Retries scheduled for this class.
    pub retries: u64,
    /// Hedge duplicates issued for this class.
    pub hedges: u64,
    /// Retries of this class re-placed onto a different shard.
    pub failovers: u64,
    /// Requests of this class evicted (and re-queued) by an SLO-class
    /// preemption.
    pub preempted: u64,
}

/// Cluster-wide metrics of one serve run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Requests served (trace length minus rejections, sheds and
    /// failures).
    pub requests: usize,
    /// Requests the admission controller turned away.
    pub rejected: usize,
    /// Requests dropped by the shed watermark under backlog pressure.
    pub shed: usize,
    /// Requests abandoned after exhausting their retry policy.
    pub failed: usize,
    /// Median request latency (queueing + batched execution), ms.
    pub p50_ms: f64,
    /// 99th-percentile request latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile request latency, ms.
    pub p999_ms: f64,
    /// Mean request latency, ms.
    pub mean_ms: f64,
    /// Worst request latency, ms.
    pub max_ms: f64,
    /// Simulated instant the last batch completed.
    pub makespan_ms: f64,
    /// Total simulated execution milliseconds across all shards.
    pub busy_ms: f64,
    /// Served requests that finished after their SLO deadline
    /// (requests without a finite deadline can never miss).
    pub deadline_misses: u64,
    /// Fraction of the offered trace that was served *and* met its
    /// deadline: served-and-on-time over
    /// `requests + rejected + shed + failed`. 1.0 for an SLO-free
    /// trace nothing was dropped from.
    pub goodput: f64,
    /// Retries scheduled across the run.
    pub retries: u64,
    /// Hedge duplicates issued across the run.
    pub hedges: u64,
    /// Retries re-placed onto a different shard.
    pub failovers: u64,
    /// Batches evicted by SLO-class preemption across the run.
    pub preemptions: u64,
    /// Requests those evictions re-queued.
    pub preempted_requests: u64,
    /// Autoscaler ticks evaluated across the run (zero when the loop
    /// is disabled — actions require sustained watermark breaches, so
    /// `scale_ups == scale_downs == 0` alone does not mean the loop
    /// never ran).
    pub scale_evaluations: u64,
    /// Autoscaler activations across the run (drain cancellations
    /// included).
    pub scale_ups: u64,
    /// Autoscaler drains initiated across the run.
    pub scale_downs: u64,
    /// Serve-time backend re-pins that changed the fabric
    /// configuration.
    pub reconfigs: u64,
    /// Traffic-mix window evaluations across all reconfigurable
    /// shards (every evaluation considers a re-pin; `reconfigs`
    /// counts the ones that changed it).
    pub reconfig_evaluations: u64,
    /// Total simulated shard downtime, ms (per-shard sum).
    pub downtime_ms: f64,
    /// Cluster-wide plan-cache counters (per-shard sums).
    pub cache: PlanCacheStats,
    /// Per-shard aggregates, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Per-SLO-class aggregates, in class order (a single all-zero
    /// class for class-free traces).
    pub classes: Vec<ClassSummary>,
    /// `(batch size, batches formed)` in ascending size order.
    pub batch_histogram: Vec<(usize, u64)>,
}

/// Percentile of an unsorted latency set (`p` in 0..=100): the element
/// an ascending [`f64::total_cmp`] sort would hold at the rounded
/// fractional index `p/100 · (n-1)` (no interpolation). Returns 0 for
/// an empty set.
#[must_use]
pub fn percentile_ms(latencies: &[f64], p: f64) -> f64 {
    let [value] = select_percentiles(&mut latencies.to_vec(), [p]);
    value
}

/// The nearest-rank order statistics of [`percentile_ms`] for every
/// `p` in `ps`, by selection instead of a full sort: each rank is
/// selected inside the prefix the previous selection left below it,
/// so listing `ps` in descending order does the whole set in about one
/// pass over `values` (any order is still exact). Reorders `values`;
/// zeros for an empty set.
fn select_percentiles<const N: usize>(values: &mut [f64], ps: [f64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let Some(last) = values.len().checked_sub(1) else {
        return out;
    };
    // After selecting rank `k`, `values[..k]` holds the `k` smallest
    // elements and `values[k]` the rank-`k` one; `end` is that `k`.
    let mut end = values.len();
    for (slot, p) in out.iter_mut().zip(ps) {
        // sma-lint: allow(float-cast) — p is a percentile in [0, 100] and the
        // result is clamped by the min() below; the cast cannot escape bounds.
        let rank = ((p / 100.0 * last as f64).round() as usize).min(last);
        if rank != end {
            let region = if rank < end { end } else { values.len() };
            values[..region].select_nth_unstable_by(rank, f64::total_cmp);
            end = rank;
        }
        *slot = values[rank];
    }
    out
}

/// Folds one engine run into the cluster-wide outcome: latency
/// percentiles over the served set, goodput against everything offered
/// (served + rejected + shed + failed), and the fault/recovery
/// counters rolled up per shard and per SLO class. Reads only the
/// shards' [`ShardTally`](super::ShardTally)s, never the optional
/// records.
#[must_use]
pub fn aggregate(run: &ServeRun) -> ServeOutcome {
    let reports = &run.reports;
    let mut latencies: Vec<f64> =
        Vec::with_capacity(reports.iter().map(|r| r.tally.served()).sum());
    for report in reports {
        latencies.extend_from_slice(report.tally.latencies_ms());
    }
    // Summed in shard-major completion order, before selection
    // reorders the buffer.
    let total_latency_ms: f64 = latencies.iter().sum();
    let [max_ms, p999_ms, p99_ms, p50_ms] =
        select_percentiles(&mut latencies, [100.0, 99.9, 99.0, 50.0]);
    let makespan_ms = reports
        .iter()
        .map(|r| r.makespan_ms)
        .fold(0.0_f64, f64::max);
    let busy_ms: f64 = reports.iter().map(|r| r.busy_ms).sum();
    let deadline_misses: u64 = reports.iter().map(|r| r.tally.deadline_misses()).sum();
    let downtime_ms: f64 = reports.iter().map(|r| r.fault.downtime_ms).sum();

    let mut batch_sizes: Vec<u64> = Vec::new();
    for report in reports {
        let sizes = &report.tally.batch_sizes;
        if batch_sizes.len() < sizes.len() {
            batch_sizes.resize(sizes.len(), 0);
        }
        for (total, &count) in batch_sizes.iter_mut().zip(sizes) {
            *total += count;
        }
    }

    let mut cache = PlanCacheStats::default();
    let mut fault_totals = ShardFaultStats::default();
    for report in reports {
        cache.absorb(&report.cache);
        fault_totals.absorb(&report.fault);
    }

    // Per-class rollup: served/misses off the tallies, shed/failed off
    // the run's buckets, recovery counters off the engine's per-class
    // stats. `class_stats` already spans every class in the trace.
    let mut classes: Vec<ClassSummary> = run
        .class_stats
        .iter()
        .enumerate()
        .map(|(class, stats)| ClassSummary {
            class: class as u8,
            retries: stats.retries,
            hedges: stats.hedges,
            failovers: stats.failovers,
            preempted: stats.preempted,
            ..ClassSummary::default()
        })
        .collect();
    let class_slot = |classes: &mut Vec<ClassSummary>, class: usize| -> usize {
        while classes.len() <= class {
            let next = classes.len() as u8;
            classes.push(ClassSummary {
                class: next,
                ..ClassSummary::default()
            });
        }
        class
    };
    for report in reports {
        let tally = &report.tally;
        for (class, (&served, &misses)) in tally
            .class_served
            .iter()
            .zip(&tally.class_misses)
            .enumerate()
        {
            let slot = class_slot(&mut classes, class);
            classes[slot].served += served as usize;
            classes[slot].deadline_misses += misses;
        }
    }
    for request in &run.shed {
        let slot = class_slot(&mut classes, usize::from(request.class));
        classes[slot].shed += 1;
    }
    for request in &run.failed {
        let slot = class_slot(&mut classes, usize::from(request.class));
        classes[slot].failed += 1;
    }

    let served = latencies.len();
    let rejected = run.rejected.len();
    let shed = run.shed.len();
    let failed = run.failed.len();
    let offered = served + rejected + shed + failed;
    ServeOutcome {
        requests: served,
        rejected,
        shed,
        failed,
        p50_ms,
        p99_ms,
        p999_ms,
        mean_ms: if latencies.is_empty() {
            0.0
        } else {
            total_latency_ms / served as f64
        },
        max_ms: max_ms.max(0.0),
        makespan_ms,
        busy_ms,
        deadline_misses,
        goodput: if offered == 0 {
            1.0
        } else {
            (served as u64 - deadline_misses) as f64 / offered as f64
        },
        retries: fault_totals.retries,
        hedges: fault_totals.hedges,
        failovers: fault_totals.failovers,
        preemptions: fault_totals.preemptions,
        preempted_requests: fault_totals.preempted_requests,
        scale_evaluations: run.scale.evaluations,
        scale_ups: run.scale.scale_ups,
        scale_downs: run.scale.scale_downs,
        reconfigs: run.reconfig.reconfigs,
        reconfig_evaluations: run.reconfig.evaluations,
        downtime_ms,
        cache,
        shards: reports
            .iter()
            .map(|r| ShardSummary {
                shard: r.shard,
                platform: r.platform,
                requests: r.tally.served(),
                batches: r.tally.batches() as usize,
                busy_ms: r.busy_ms,
                utilization: if makespan_ms > 0.0 {
                    r.busy_ms / makespan_ms
                } else {
                    0.0
                },
                deadline_misses: r.tally.deadline_misses(),
                queue_depth_mean: r.queue_depth_mean,
                queue_depth_max: r.queue_depth_max,
                cache: r.cache.clone(),
                fault: r.fault,
            })
            .collect(),
        classes,
        batch_histogram: batch_sizes
            .into_iter()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::serve::load::SeededRng;
    use proptest::prelude::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile_ms(&v, 0.0), 1.0);
        assert_eq!(percentile_ms(&v, 50.0), 3.0);
        assert_eq!(percentile_ms(&v, 99.9), 5.0);
        assert_eq!(percentile_ms(&v, 100.0), 5.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }

    /// A value set with heavy duplication, both zeros and arbitrary bit
    /// patterns (infinities and NaNs included: `total_cmp` orders them
    /// all).
    fn draw_values(seed: u64, len: usize, pool: u64) -> Vec<f64> {
        let mut rng = SeededRng::new(seed);
        (0..len)
            .map(|_| match rng.next_u64() % 4 {
                0 => 0.0,
                1 => -0.0,
                2 => (rng.next_u64() % pool) as f64 * 0.25,
                _ => f64::from_bits(rng.next_u64()),
            })
            .collect()
    }

    /// The full-sort reference: the sorted element at the rounded
    /// fractional index.
    fn sorted_lookup(values: &[f64], p: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        match sorted.len().checked_sub(1) {
            None => 0.0,
            Some(last) => sorted[((p / 100.0 * last as f64).round() as usize).min(last)],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Selection returns exactly the element the full sort would,
        /// bit for bit, for one rank at a time and for several ranks
        /// selected in one buffer, in either order.
        #[test]
        fn selection_matches_the_full_sort_bit_for_bit(
            seed in 0u64..u64::MAX,
            len in 0usize..300,
            pool in 1u64..16,
        ) {
            let values = draw_values(seed, len, pool);
            let ps = [0.0, 50.0, 99.0, 99.9, 100.0];
            let expected = ps.map(|p| sorted_lookup(&values, p).to_bits());
            for (p, bits) in ps.iter().zip(expected) {
                prop_assert_eq!(percentile_ms(&values, *p).to_bits(), bits, "p{}", p);
            }
            let ascending = select_percentiles(&mut values.clone(), ps);
            prop_assert_eq!(ascending.map(f64::to_bits), expected);
            let mut descending =
                select_percentiles(&mut values.clone(), [100.0, 99.9, 99.0, 50.0, 0.0]);
            descending.reverse();
            prop_assert_eq!(descending.map(f64::to_bits), expected);
        }
    }

    #[test]
    fn cache_stats_absorb_sums_every_counter() {
        let mut a = PlanCacheStats {
            lookups: 10,
            hits: 6,
            misses: 4,
            evictions: 1,
            resident_bytes: 100,
            peak_bytes: 150,
        };
        let b = PlanCacheStats {
            lookups: 5,
            hits: 5,
            misses: 0,
            evictions: 0,
            resident_bytes: 50,
            peak_bytes: 50,
        };
        a.absorb(&b);
        assert_eq!(a.lookups, 15);
        assert_eq!(a.hits + a.misses, a.lookups);
        assert_eq!(a.resident_bytes, 150);
        assert_eq!(a.peak_bytes, 200);
    }
}
