//! The discrete-event engine as an oracle for the live serving twin.
//!
//! A live run ([`LiveServer::run`](super::LiveServer::run)) records the
//! *realized* arrival trace — every admission instant the front door
//! actually performed, rejected requests included. Replaying that trace
//! through [`ServeSim`] under the same cluster, policy, placement and
//! engine config must reproduce the live run's **discrete outcomes**:
//!
//! * which requests were served, and on which shard;
//! * which were rejected by admission control;
//! * the per-(shard, network) batch partition — the size sequence in
//!   launch order.
//!
//! This module extracts those outcomes into a timing-free,
//! order-canonical shape ([`DiscreteOutcomes`]) and diffs two of them
//! ([`diff_outcomes`]). Timing quantities (latency percentiles,
//! makespan, busy time) are deliberately absent — those get tolerance
//! bands in tests, never equality.
//!
//! **Exactness envelope.** The equality contract holds for
//! timing-robust configurations: placements that are pure functions of
//! the trace ([`RoundRobin`](super::RoundRobin),
//! [`PlatformAffinity`](super::PlatformAffinity)) and policies whose
//! batch partition is independent of decision timing
//! ([`Immediate`](super::Immediate), [`SizeK`](super::SizeK)), with an
//! unbounded plan cache (cache counters become order-independent).
//! Load-adaptive placements read racy live gauges and legitimately
//! route differently — for those, compare conservation (every id
//! served or rejected exactly once), not placement. Timer-based
//! policies ([`Deadline`](super::Deadline)) close batches on a clock
//! the live twin samples with jitter, so their partitions carry the
//! same caveat. `docs/LIVE_SERVING.md` derives all of this.
//!
//! This module is inside the determinism boundary: pure functions of
//! [`ServeRun`] values, no wall clock.

use super::engine::{EngineConfig, ServeRun};
use super::load::Request;
use super::placement::Placement;
use super::policy::BatchPolicy;
use super::{ServeCluster, ServeSim};
use crate::backend::RuntimeError;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The timing-free projection of a [`ServeRun`]: everything the oracle
/// pins exactly, in canonical (sorted) shape so two runs compare by
/// `==` regardless of completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscreteOutcomes {
    /// Served request ids per shard, in shard order.
    pub served_per_shard: Vec<BTreeSet<u64>>,
    /// Rejected request ids, sorted.
    pub rejected: Vec<u64>,
    /// Shed request ids, sorted (always empty for live runs).
    pub shed: Vec<u64>,
    /// Permanently failed request ids, sorted (always empty for live
    /// runs — live fault support is the timing-only subset).
    pub failed: Vec<u64>,
    /// Batch-size sequence per `(shard, network)`, in launch order.
    pub batch_sizes: BTreeMap<(usize, usize), Vec<usize>>,
    /// Plan-cache `(lookups, hits, misses, evictions)` per shard.
    /// Order-independent — and therefore pinnable — under an unbounded
    /// budget; see the module docs.
    pub cache_counters: Vec<(u64, u64, u64, u64)>,
}

impl DiscreteOutcomes {
    /// Total number of served requests across all shards.
    #[must_use]
    pub fn served_total(&self) -> usize {
        self.served_per_shard.iter().map(BTreeSet::len).sum()
    }
}

/// Projects a run onto its discrete outcomes. Served ids and batch
/// sequences come from the run's records, so `run` must keep them: a
/// live run or a [`replay`] always does, an engine run only under
/// [`EngineConfig::with_records`].
#[must_use]
pub fn discrete_outcomes(run: &ServeRun) -> DiscreteOutcomes {
    let mut batch_sizes: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for report in &run.reports {
        for batch in &report.batches {
            batch_sizes
                .entry((report.shard, batch.network))
                .or_default()
                .push(batch.size);
        }
    }
    DiscreteOutcomes {
        served_per_shard: run
            .reports
            .iter()
            .map(|report| report.requests.iter().map(|r| u64::from(r.id)).collect())
            .collect(),
        rejected: run.rejected.iter().collect(),
        shed: run.shed.iter().collect(),
        failed: {
            let mut ids: Vec<u64> = run.failed.iter().map(|r| u64::from(r.id)).collect();
            ids.sort_unstable();
            ids
        },
        batch_sizes,
        cache_counters: run
            .reports
            .iter()
            .map(|r| {
                (
                    r.cache.lookups,
                    r.cache.hits,
                    r.cache.misses,
                    r.cache.evictions,
                )
            })
            .collect(),
    }
}

/// Replays a realized trace through the discrete-event engine: the
/// oracle half of the live/replay agreement check. The replay always
/// keeps full records ([`EngineConfig::with_records`]), whatever
/// `config` says: [`discrete_outcomes`] reads served ids and batch
/// sequences off them.
///
/// `placement` must be fresh (strategies carry cursor state); pass the
/// same strategy, newly constructed, that the live run used.
///
/// # Errors
///
/// Propagates a [`RuntimeError`] from a backend rejecting a batched
/// plan compile — the same failure surface the live run has — or from
/// the engine's input checks ([`ServeSim::try_run`]), which refuse an
/// unsorted `realized_trace` (a live front door always records
/// monotone stamps) or one naming an unknown network.
pub fn replay(
    cluster: &Arc<ServeCluster>,
    policy: &Arc<dyn BatchPolicy>,
    realized_trace: &[Request],
    config: &EngineConfig,
    placement: &mut dyn Placement,
) -> Result<ServeRun, RuntimeError> {
    ServeSim::with_cluster(
        cluster.clone(),
        policy.clone(),
        realized_trace,
        config.clone().with_records(),
    )
    .try_run(placement)
}

/// Human-readable differences between two outcome projections — empty
/// when they agree exactly. `a` is conventionally the live run, `b`
/// the engine replay.
#[must_use]
pub fn diff_outcomes(a: &DiscreteOutcomes, b: &DiscreteOutcomes) -> Vec<String> {
    let mut diffs = Vec::new();
    if a.served_per_shard.len() != b.served_per_shard.len() {
        diffs.push(format!(
            "shard count: {} vs {}",
            a.served_per_shard.len(),
            b.served_per_shard.len()
        ));
        return diffs;
    }
    for (shard, (x, y)) in a
        .served_per_shard
        .iter()
        .zip(&b.served_per_shard)
        .enumerate()
    {
        if x != y {
            let only_a: Vec<u64> = x.difference(y).copied().collect();
            let only_b: Vec<u64> = y.difference(x).copied().collect();
            diffs.push(format!(
                "shard {shard} served sets differ: live-only {only_a:?}, replay-only {only_b:?}"
            ));
        }
    }
    for (label, x, y) in [
        ("rejected", &a.rejected, &b.rejected),
        ("shed", &a.shed, &b.shed),
        ("failed", &a.failed, &b.failed),
    ] {
        if x != y {
            diffs.push(format!("{label} ids differ: {x:?} vs {y:?}"));
        }
    }
    if a.batch_sizes != b.batch_sizes {
        let keys: BTreeSet<&(usize, usize)> =
            a.batch_sizes.keys().chain(b.batch_sizes.keys()).collect();
        for key in keys {
            let x = a
                .batch_sizes
                .get(key)
                .map_or(&[] as &[usize], Vec::as_slice);
            let y = b
                .batch_sizes
                .get(key)
                .map_or(&[] as &[usize], Vec::as_slice);
            if x != y {
                diffs.push(format!(
                    "batch partition differs on (shard, net) {key:?}: {x:?} vs {y:?}"
                ));
            }
        }
    }
    if a.cache_counters != b.cache_counters {
        diffs.push(format!(
            "cache counters differ: {:?} vs {:?}",
            a.cache_counters, b.cache_counters
        ));
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::super::{
        Deadline, EngineConfig, Immediate, LoadGenerator, PlatformAffinity, RoundRobin, SizeK,
    };
    use super::*;
    use crate::executor::Executor;
    use crate::platform::Platform;
    use sma_models::zoo;

    fn cluster() -> Arc<ServeCluster> {
        Arc::new(
            ServeCluster::try_new(
                vec![
                    Executor::new(Platform::Sma3),
                    Executor::new(Platform::GpuTensorCore),
                ],
                vec![zoo::alexnet(), zoo::vgg_a()],
            )
            .unwrap(),
        )
    }

    #[test]
    fn a_run_agrees_with_itself() {
        let cluster = cluster();
        let policy: Arc<dyn BatchPolicy> = Arc::new(SizeK::new(4));
        let trace = LoadGenerator::new(3, 2.0).trace(80, 2);
        let config = EngineConfig::default();
        let a = replay(
            &cluster,
            &policy,
            &trace,
            &config,
            &mut RoundRobin::default(),
        )
        .unwrap();
        let b = replay(
            &cluster,
            &policy,
            &trace,
            &config,
            &mut RoundRobin::default(),
        )
        .unwrap();
        let (oa, ob) = (discrete_outcomes(&a), discrete_outcomes(&b));
        assert_eq!(oa, ob);
        assert!(diff_outcomes(&oa, &ob).is_empty());
        assert_eq!(oa.served_total(), 80);
    }

    #[test]
    fn replay_keeps_records_even_when_the_config_does_not() {
        let cluster = cluster();
        let policy: Arc<dyn BatchPolicy> = Arc::new(SizeK::new(4));
        let trace = LoadGenerator::new(13, 2.0).trace(60, 2);
        let config = EngineConfig::default();
        assert!(!config.records);
        let run = replay(
            &cluster,
            &policy,
            &trace,
            &config,
            &mut RoundRobin::default(),
        )
        .unwrap();
        for report in &run.reports {
            assert_eq!(report.requests.len(), report.tally.served());
            assert_eq!(report.batches.len() as u64, report.tally.batches());
        }
        assert_eq!(discrete_outcomes(&run).served_total(), 60);
    }

    #[test]
    fn diff_pinpoints_routing_and_partition_changes() {
        let cluster = cluster();
        let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
        let trace = LoadGenerator::new(5, 2.0).trace(40, 2);
        let config = EngineConfig::default();
        let rr = replay(
            &cluster,
            &policy,
            &trace,
            &config,
            &mut RoundRobin::default(),
        )
        .unwrap();
        let aff = replay(
            &cluster,
            &policy,
            &trace,
            &config,
            &mut PlatformAffinity::default(),
        )
        .unwrap();
        let diffs = diff_outcomes(&discrete_outcomes(&rr), &discrete_outcomes(&aff));
        assert!(!diffs.is_empty());
        assert!(
            diffs.iter().any(|d| d.contains("served sets differ")),
            "{diffs:?}"
        );
    }

    #[test]
    fn timer_policies_are_outside_the_exactness_envelope_but_conserve() {
        // Deadline closes batches on a clock; the projection still
        // conserves ids under any policy.
        let cluster = cluster();
        let policy: Arc<dyn BatchPolicy> = Arc::new(Deadline::new(4.0, 8));
        let trace = LoadGenerator::new(9, 1.5).with_slo(25.0).trace(60, 2);
        let run = replay(
            &cluster,
            &policy,
            &trace,
            &EngineConfig::default(),
            &mut RoundRobin::default(),
        )
        .unwrap();
        let outcomes = discrete_outcomes(&run);
        assert_eq!(outcomes.served_total() + outcomes.rejected.len(), 60);
        let batched: usize = outcomes.batch_sizes.values().flatten().sum();
        assert_eq!(batched, outcomes.served_total());
    }
}
