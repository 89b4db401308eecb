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
/// an empty set. Reads `latencies` in place, through the same
/// selection [`aggregate`] runs over the shard tallies.
#[must_use]
pub fn percentile_ms(latencies: &[f64], p: f64) -> f64 {
    let [value] = select_percentiles(std::iter::once(latencies), [p]);
    value
}

/// Sub-runs one bucket splits into (at most).
const SUBRUNS: usize = 1 << 11;
/// A bucket holding at most this many values is finished by copying
/// them out and selecting (at most 32 KiB of `f64`).
const GATHER_LIMIT: usize = super::LATENCY_CHUNK;

/// Maps `x` to a key whose unsigned order is [`f64::total_cmp`]'s:
/// negative values (sign bit set) flip every bit, the rest flip the
/// sign bit. Distinct bit patterns keep distinct keys.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((bits >> 63).wrapping_neg() | 1 << 63)
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// The count and [`order_key`] range of a value set: where
/// [`select_in_range`] starts.
#[derive(Clone, Copy)]
struct KeyRange {
    count: usize,
    lo: u64,
    hi: u64,
}

impl KeyRange {
    /// The range of no values.
    const EMPTY: Self = Self {
        count: 0,
        lo: u64::MAX,
        hi: 0,
    };

    /// Widens the range to hold `x`.
    fn note(&mut self, x: f64) {
        let key = order_key(x);
        self.count += 1;
        self.lo = self.lo.min(key);
        self.hi = self.hi.max(key);
    }
}

/// A run of [`order_key`]s, `base..=base + span`, and how many values
/// fall in it.
#[derive(Clone, Copy, PartialEq)]
struct Bucket {
    base: u64,
    span: u64,
    count: usize,
}

impl Bucket {
    /// The shift that splits the run into at most [`SUBRUNS`] equal
    /// sub-runs: sub-run `(key - base) >> shift`.
    fn shift(self) -> u32 {
        (u64::BITS - self.span.leading_zeros()).saturating_sub(SUBRUNS.trailing_zeros())
    }

    /// Whether `other` lies inside this run.
    fn holds(self, other: Bucket) -> bool {
        other.base.wrapping_sub(self.base) <= self.span
    }
}

/// One order statistic in flight: the bucket known to hold it and its
/// rank among the bucket's values.
#[derive(Clone, Copy)]
struct Target {
    bucket: Bucket,
    rank: usize,
    value: Option<f64>,
}

/// A bucket one pass reads: its values are copied out when few enough
/// to finish by selection, and counted by sub-run otherwise.
struct Child {
    bucket: Bucket,
    /// `bucket.base` less the pass's parent base.
    offset: u64,
    /// [`Bucket::shift`] of `bucket`.
    shift: u32,
    gather: bool,
}

/// One read of every value: the children (disjoint buckets inside
/// `parent` holding open statistics), found through a table over
/// `parent`'s sub-runs.
struct Pass {
    parent: Bucket,
    /// [`Bucket::shift`] of `parent`.
    shift: u32,
    /// Sub-run of `parent` → index into `children`, or [`u8::MAX`].
    table: [u8; SUBRUNS],
    children: Vec<Child>,
}

impl Pass {
    /// The pass over `parent` that reads the buckets of the open
    /// targets inside it, or `None` when none needs a read: a bucket of
    /// a single key resolves its targets on the spot.
    fn over<const N: usize>(parent: Bucket, targets: &mut [Target; N]) -> Option<Pass> {
        const { assert!(N < u8::MAX as usize, "a table slot is a u8") };
        let shift = parent.shift();
        let mut pass = Pass {
            parent,
            shift,
            table: [u8::MAX; SUBRUNS],
            children: Vec::with_capacity(N),
        };
        for target in targets.iter_mut() {
            let bucket = target.bucket;
            if target.value.is_some() || !parent.holds(bucket) {
                continue;
            }
            if bucket.span == 0 {
                target.value = Some(from_order_key(bucket.base));
                continue;
            }
            if pass.children.iter().any(|c| c.bucket == bucket) {
                continue;
            }
            let offset = bucket.base - parent.base;
            let first = offset >> shift;
            let last = (offset + bucket.span) >> shift;
            pass.table[first as usize..=last as usize].fill(pass.children.len() as u8);
            pass.children.push(Child {
                bucket,
                offset,
                shift: bucket.shift(),
                gather: bucket.count <= GATHER_LIMIT,
            });
        }
        (!pass.children.is_empty()).then_some(pass)
    }

    /// Reads `values`: copies out the members of gathering children,
    /// counts the others' members by sub-run.
    fn read(&self, values: &[f64], histograms: &mut [[usize; SUBRUNS]], gathered: &mut [Vec<f64>]) {
        for &x in values {
            let offset = order_key(x).wrapping_sub(self.parent.base);
            if offset > self.parent.span {
                continue;
            }
            let slot = usize::from(self.table[(offset >> self.shift) as usize & (SUBRUNS - 1)]);
            let Some(child) = self.children.get(slot) else {
                continue;
            };
            if child.gather {
                gathered[slot].push(x);
            } else {
                let sub = ((offset - child.offset) >> child.shift) as usize;
                histograms[slot][sub & (SUBRUNS - 1)] += 1;
            }
        }
    }
}

/// The nearest-rank order statistics of [`percentile_ms`] for every
/// `p` in `ps`, over the values of `slices` read in place (no merged
/// copy). Zeros for an empty set.
pub(crate) fn select_percentiles<'a, I, const N: usize>(slices: I, ps: [f64; N]) -> [f64; N]
where
    I: Iterator<Item = &'a [f64]> + Clone,
{
    let mut range = KeyRange::EMPTY;
    slices.clone().flatten().for_each(|&x| range.note(x));
    select_in_range(slices, range, ps)
}

/// [`select_percentiles`] once the values' [`KeyRange`] is known. Each
/// pass reads every value once. The first counts the whole range by
/// sub-run (2,048 equal runs of [`order_key`]s); each statistic's rank
/// then names the sub-run holding it, which the next pass over that
/// bucket counts the same way, until a bucket holds a single key or at
/// most [`GATHER_LIMIT`] values, which are copied out and selected.
/// Statistics in one bucket share its passes, and sibling buckets
/// share one pass.
fn select_in_range<'a, I, const N: usize>(slices: I, range: KeyRange, ps: [f64; N]) -> [f64; N]
where
    I: Iterator<Item = &'a [f64]> + Clone,
{
    let Some(last) = range.count.checked_sub(1) else {
        return [0.0; N];
    };
    let root = Bucket {
        base: range.lo,
        span: range.hi - range.lo,
        count: range.count,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "p is a percentile in [0, 100] and min() clamps the rank, so the cast cannot escape bounds"
    )]
    let mut targets = ps.map(|p| Target {
        bucket: root,
        rank: ((p / 100.0 * last as f64).round() as usize).min(last),
        value: None,
    });
    let mut passes: Vec<Pass> = Pass::over(root, &mut targets).into_iter().collect();
    while let Some(pass) = passes.pop() {
        let mut histograms = vec![[0_usize; SUBRUNS]; pass.children.len()];
        let mut gathered: Vec<Vec<f64>> = pass
            .children
            .iter()
            .map(|c| match c.gather {
                true => Vec::with_capacity(c.bucket.count),
                false => Vec::new(),
            })
            .collect();
        for values in slices.clone() {
            pass.read(values, &mut histograms, &mut gathered);
        }
        for (child, (histogram, values)) in pass
            .children
            .iter()
            .zip(histograms.iter().zip(&mut gathered))
        {
            for target in targets.iter_mut() {
                if target.value.is_some() || target.bucket != child.bucket {
                    continue;
                }
                if child.gather {
                    let (_, value, _) = values.select_nth_unstable_by(target.rank, f64::total_cmp);
                    target.value = Some(*value);
                    continue;
                }
                let mut below = 0;
                for (sub, &count) in histogram.iter().enumerate() {
                    if target.rank < below + count {
                        let offset = (sub as u64) << child.shift;
                        target.bucket = Bucket {
                            base: child.bucket.base + offset,
                            span: (child.bucket.span - offset).min((1 << child.shift) - 1),
                            count,
                        };
                        target.rank -= below;
                        break;
                    }
                    below += count;
                }
            }
            if !child.gather {
                passes.extend(Pass::over(child.bucket, &mut targets));
            }
        }
    }
    targets.map(|t| t.value.unwrap_or(0.0))
}

/// Folds one engine run into the cluster-wide outcome: latency
/// percentiles over the served set, goodput against everything offered
/// (served + rejected + shed + failed), and the fault/recovery
/// counters rolled up per shard and per SLO class. Reads only the
/// shards' [`ShardTally`](super::ShardTally)s, never the optional
/// records, and reads their latency chunks in place: the mean is a
/// left fold in shard-major completion order, and the percentiles are
/// the exact selection of [`percentile_ms`], with no merged copy.
#[must_use]
pub fn aggregate(run: &ServeRun) -> ServeOutcome {
    let reports = &run.reports;
    let latencies = reports.iter().flat_map(|r| r.tally.latency_chunks());
    // Summed in shard-major completion order, in the pass that finds
    // the selection's key range.
    let mut range = KeyRange::EMPTY;
    let total_latency_ms: f64 = latencies
        .clone()
        .flatten()
        .inspect(|&&x| range.note(x))
        .sum();
    let [max_ms, p999_ms, p99_ms, p50_ms] =
        select_in_range(latencies, range, [100.0, 99.9, 99.0, 50.0]);
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

    // Per-class rollup: served/misses off the tallies, failed off the
    // run's bucket, shed and the recovery counters off the engine's
    // per-class stats. `class_stats` already spans every class in the
    // trace.
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
            shed: stats.shed,
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
    for request in &run.failed {
        let slot = class_slot(&mut classes, usize::from(request.class));
        classes[slot].failed += 1;
    }

    let served: usize = reports.iter().map(|r| r.tally.served()).sum();
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
        mean_ms: if served == 0 {
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
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
    )]

    use super::*;
    use crate::serve::load::SeededRng;
    use crate::serve::tests::served;
    use crate::serve::{ShardTally, LATENCY_CHUNK};
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

    /// A value set with heavy duplication, both zeros, both infinities,
    /// NaNs and arbitrary bit patterns (`total_cmp` orders them all).
    fn draw_values(seed: u64, len: usize, pool: u64) -> Vec<f64> {
        let mut rng = SeededRng::new(seed);
        (0..len)
            .map(|_| match rng.next_u64() % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => (rng.next_u64() % pool) as f64 * 0.25,
                3 => [f64::INFINITY, f64::NEG_INFINITY][(rng.next_u64() % 2) as usize],
                4 => [f64::NAN, -f64::NAN][(rng.next_u64() % 2) as usize],
                _ => f64::from_bits(rng.next_u64()),
            })
            .collect()
    }

    /// The full-sort reference: the bits of the sorted element at each
    /// rounded fractional index.
    #[expect(
        clippy::disallowed_methods,
        reason = "the full-sort reference rounds the fractional index exactly as percentile selection does"
    )]
    fn sorted_lookups<const N: usize>(values: &[f64], ps: [f64; N]) -> [u64; N] {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        ps.map(|p| match sorted.len().checked_sub(1) {
            None => 0.0_f64.to_bits(),
            Some(last) => sorted[((p / 100.0 * last as f64).round() as usize).min(last)].to_bits(),
        })
    }

    /// Shard sizes on both sides of a chunk boundary, and several
    /// chunks.
    const SHARD_SIZES: [usize; 6] = [
        0,
        1,
        LATENCY_CHUNK - 1,
        LATENCY_CHUNK,
        LATENCY_CHUNK + 1,
        3 * LATENCY_CHUNK + 5,
    ];

    /// A tally that served one request of latency `x` for each `x`.
    fn tally_of(values: &[f64]) -> ShardTally {
        let mut tally = ShardTally::default();
        for &x in values {
            tally.note_served(&served(0, x));
        }
        tally
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Selection returns exactly the element the full sort would,
        /// bit for bit: for one slice, and over the chunked tallies of
        /// several shards, for one rank at a time and for several ranks
        /// in one call, in either order.
        #[test]
        fn selection_matches_the_full_sort_bit_for_bit(
            seed in 0u64..u64::MAX,
            len in 0usize..300,
            pool in 1u64..16,
            shards in 1usize..4,
        ) {
            let ps = [0.0, 50.0, 99.0, 99.9, 100.0];
            let values = draw_values(seed, len, pool);
            let expected = sorted_lookups(&values, ps);
            for (p, bits) in ps.iter().zip(expected) {
                prop_assert_eq!(percentile_ms(&values, *p).to_bits(), bits, "p{}", p);
            }

            let mut rng = SeededRng::new(seed ^ 0x5EED);
            let tallies: Vec<ShardTally> = (0..shards)
                .map(|_| {
                    let size = SHARD_SIZES[(rng.next_u64() % 6) as usize];
                    tally_of(&draw_values(rng.next_u64(), size, pool))
                })
                .collect();
            let all: Vec<f64> = tallies.iter().flat_map(ShardTally::latencies_ms).collect();
            let expected = sorted_lookups(&all, ps);
            let chunks = || tallies.iter().flat_map(ShardTally::latency_chunks);
            let ascending = select_percentiles(chunks(), ps);
            prop_assert_eq!(ascending.map(f64::to_bits), expected);
            let mut descending = select_percentiles(chunks(), [100.0, 99.9, 99.0, 50.0, 0.0]);
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
