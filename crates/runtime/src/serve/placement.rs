//! Shard placement strategies.
//!
//! Placement is an **online decision point** of the event engine:
//! strategies are invoked at each request's arrival event, in arrival
//! order, with a [`ClusterView`] of the cluster's frozen cost matrix
//! *and* its live state at that instant — per-shard backlog, in-flight
//! batch sizes and plan-cache residency. Strategies may keep mutable
//! state (cursors, load estimates); the event order is deterministic,
//! so the assignment is too.

use super::load::Request;
use super::ServeCluster;
use std::cmp::Ordering;

/// What a placement strategy may inspect: the cluster's shard table,
/// the frozen batch-1 cost matrix, and the live per-shard state at the
/// decision instant.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    /// Backend name per shard (e.g. `3-SMA`), in shard order.
    pub platforms: &'a [&'static str],
    /// `unit_service_ms[shard][network]`: total milliseconds of one
    /// batch-1 inference of that network on that shard's backend (from
    /// the pre-compiled plans, so it is the simulation's own cost
    /// model, not an independent guess).
    pub unit_service_ms: &'a [Vec<f64>],
    /// Live backlog: requests queued (not yet dispatched) per shard.
    pub queued: &'a [usize],
    /// Live in-flight batch size per shard (0 when the shard is idle).
    pub in_flight: &'a [usize],
    /// Live plan-cache residency per shard, in bytes (0 under an
    /// unbounded cache before any dispatch, grows as plans are
    /// admitted).
    pub resident_plan_bytes: &'a [u64],
    /// Live health per shard: `false` while a [`FaultPlan`] crash has
    /// the shard down. All `true` in a fault-free run, so health-aware
    /// strategies degenerate to their fault-free behaviour bit for
    /// bit.
    ///
    /// [`FaultPlan`]: super::FaultPlan
    pub healthy: &'a [bool],
    /// Live service-time multiplier per shard: 1.0 normally, the
    /// degrade factor while a [`FaultKind::Degrade`] window is active.
    ///
    /// [`FaultKind::Degrade`]: super::FaultKind::Degrade
    pub degrade: &'a [f64],
}

impl ClusterView<'_> {
    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.platforms.len()
    }

    /// Live outstanding requests on a shard: queued plus in flight.
    #[must_use]
    pub(crate) fn outstanding(&self, shard: usize) -> usize {
        self.queued[shard] + self.in_flight[shard]
    }

    /// Shard indices currently healthy (up), ascending.
    pub(crate) fn healthy_shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.shard_count()).filter(|&s| self.healthy[s])
    }
}

/// One shard's entry in a [`LiveView`]: the fields [`ClusterView`]
/// lends placements, for one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct ShardGauge {
    pub(super) queued: usize,
    pub(super) in_flight: usize,
    pub(super) resident_plan_bytes: u64,
    pub(super) healthy: bool,
    pub(super) degrade: f64,
}

/// The live per-shard state a [`ClusterView`] lends placements, and the
/// cluster backlog (queued plus in flight) kept beside it. Both worlds
/// fill one: the engine sets a shard's entry whenever that shard's
/// state changes, the live front door from its workers' gauges before
/// each placement.
#[derive(Debug, PartialEq)]
pub(super) struct LiveView {
    queued: Vec<usize>,
    in_flight: Vec<usize>,
    resident_plan_bytes: Vec<u64>,
    healthy: Vec<bool>,
    degrade: Vec<f64>,
    backlog: usize,
}

impl LiveView {
    /// An idle, healthy, undegraded cluster of `shard_count` shards.
    pub(super) fn new(shard_count: usize) -> Self {
        LiveView {
            queued: vec![0; shard_count],
            in_flight: vec![0; shard_count],
            resident_plan_bytes: vec![0; shard_count],
            healthy: vec![true; shard_count],
            degrade: vec![1.0; shard_count],
            backlog: 0,
        }
    }

    /// Sets one shard's entry.
    #[inline]
    pub(super) fn set(&mut self, shard: usize, gauge: ShardGauge) {
        self.backlog = self.backlog + gauge.queued + gauge.in_flight
            - self.queued[shard]
            - self.in_flight[shard];
        self.queued[shard] = gauge.queued;
        self.in_flight[shard] = gauge.in_flight;
        self.resident_plan_bytes[shard] = gauge.resident_plan_bytes;
        self.healthy[shard] = gauge.healthy;
        self.degrade[shard] = gauge.degrade;
    }

    /// Cluster-wide outstanding requests.
    #[inline]
    pub(super) fn backlog(&self) -> usize {
        self.backlog
    }

    /// The view placements read: `cluster`'s tables and this state.
    #[inline]
    pub(super) fn of<'a>(&'a self, cluster: &'a ServeCluster) -> ClusterView<'a> {
        ClusterView {
            platforms: cluster.platforms(),
            unit_service_ms: cluster.unit_service_ms(),
            queued: &self.queued,
            in_flight: &self.in_flight,
            resident_plan_bytes: &self.resident_plan_bytes,
            healthy: &self.healthy,
            degrade: &self.degrade,
        }
    }
}

/// The first of `shards` (taken in ascending order) with the smallest
/// `score` under `cmp`, or `None` if there are none. One pass scores
/// each shard once and keeps the current pick unless a later shard
/// scores strictly less, so ties go to the lowest index — the order of
/// a `min_by` that breaks score ties by index.
pub(super) fn lowest<T>(
    shards: impl Iterator<Item = usize>,
    score: impl Fn(usize) -> T,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Option<usize> {
    let mut best: Option<(usize, T)> = None;
    for shard in shards {
        let value = score(shard);
        if best
            .as_ref()
            .is_none_or(|(_, low)| cmp(&value, low) == Ordering::Less)
        {
            best = Some((shard, value));
        }
    }
    best.map(|(shard, _)| shard)
}

/// Assigns every request to a shard.
///
/// Implementations see requests in arrival order and may carry state
/// between calls; they must not consult anything outside their state
/// and the [`ClusterView`] (determinism is load-bearing: the
/// byte-identical-report guarantee of the serving benchmark rests on
/// it).
pub trait Placement: std::fmt::Debug + Send {
    /// Short label used in reports (`round-robin`, `least-backlog`, …).
    fn label(&self) -> String;

    /// Picks the shard for `request` (must be `< cluster.shard_count()`).
    fn assign(&mut self, request: &Request, cluster: &ClusterView<'_>) -> usize;
}

/// Cycles through the shards, ignoring cost and load entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Placement for RoundRobin {
    fn label(&self) -> String {
        "round-robin".into()
    }

    fn assign(&mut self, _request: &Request, cluster: &ClusterView<'_>) -> usize {
        let shard = self.next % cluster.shard_count();
        self.next = (self.next + 1) % cluster.shard_count();
        shard
    }
}

/// Least-backlog: routes each request to the **healthy** shard with
/// the fewest live outstanding requests (queued + in flight) at its
/// arrival event, ties to the lowest index. It reads the engine's
/// actual state, so it reacts to the load that is really present,
/// including backlog
/// created by plan-compile stalls and cache evictions the model cannot
/// see. Down shards are skipped (failover); if every shard is down,
/// the request queues on the least-loaded shard and waits out the
/// recovery.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastBacklog;

impl Placement for LeastBacklog {
    fn label(&self) -> String {
        "least-backlog".into()
    }

    fn assign(&mut self, _request: &Request, cluster: &ClusterView<'_>) -> usize {
        let backlog = |s| cluster.outstanding(s);
        lowest(cluster.healthy_shards(), backlog, usize::cmp)
            .or_else(|| lowest(0..cluster.shard_count(), backlog, usize::cmp))
            .unwrap_or(0)
    }
}

/// Affinity-by-platform: each network is pinned to the platform that
/// serves it fastest at batch 1, then round-robins across the shards
/// of that platform. Keeps every shard's plan working set small and
/// each network on its best silicon, at the cost of ignoring load.
///
/// The candidate-shard set per network is a pure function of the
/// cluster's frozen cost matrix, so it is derived once on first sight
/// of each network and memoized beside the round-robin cursor. Health
/// is checked live at assign time: down candidates are skipped, and
/// when the whole preferred platform is down the request fails over to
/// the healthy shard serving the network fastest.
#[derive(Debug, Clone, Default)]
pub struct PlatformAffinity {
    /// `(cursor, candidate shards)` per network, filled lazily.
    per_network: Vec<Option<(usize, Vec<usize>)>>,
}

impl Placement for PlatformAffinity {
    fn label(&self) -> String {
        "platform-affinity".into()
    }

    fn assign(&mut self, request: &Request, cluster: &ClusterView<'_>) -> usize {
        let network = usize::from(request.network);
        if self.per_network.len() <= network {
            self.per_network.resize(network + 1, None);
        }
        let cost = |s: usize| cluster.unit_service_ms[s][network];
        let (cursor, candidates) = self.per_network[network].get_or_insert_with(|| {
            let best = lowest(0..cluster.shard_count(), cost, f64::total_cmp).unwrap_or(0);
            let preferred = cluster.platforms[best];
            let candidates = (0..cluster.shard_count())
                .filter(|&s| cluster.platforms[s] == preferred)
                .collect();
            (0, candidates)
        });
        // Skip down candidates (at most one full lap); with every
        // candidate healthy this is the plain one-step round-robin.
        let len = candidates.len();
        for _ in 0..len {
            let shard = candidates[*cursor % len];
            *cursor = (*cursor + 1) % len;
            if cluster.healthy[shard] {
                return shard;
            }
        }
        // Whole preferred platform down: fail over to the healthy
        // shard serving this network fastest (ties to lowest index);
        // with nothing healthy anywhere, fall back to the cursor pick
        // and wait out the recovery.
        lowest(cluster.healthy_shards(), cost, f64::total_cmp).unwrap_or(candidates[*cursor % len])
    }
}

/// Health- and degradation-weighted placement: routes each request to
/// the healthy shard minimising `(outstanding + 1) ·
/// unit_service_ms[shard][network] · degrade[shard]` — an estimate of
/// the work ahead of the request on that shard, priced at the shard's
/// *current* (possibly degraded) speed. Ties break to the lowest
/// index; with every shard down it degenerates to least-backlog over
/// all shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthWeighted;

impl Placement for HealthWeighted {
    fn label(&self) -> String {
        "health-weighted".into()
    }

    fn assign(&mut self, request: &Request, cluster: &ClusterView<'_>) -> usize {
        let score = |s: usize| {
            (cluster.outstanding(s) + 1) as f64
                * cluster.unit_service_ms[s][usize::from(request.network)]
                * cluster.degrade[s]
        };
        lowest(cluster.healthy_shards(), score, f64::total_cmp)
            .or_else(|| {
                lowest(
                    0..cluster.shard_count(),
                    |s| cluster.outstanding(s),
                    usize::cmp,
                )
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_UP: [bool; 3] = [true; 3];
    const NO_DEGRADE: [f64; 3] = [1.0; 3];

    fn request(network: u16, arrival_ms: f64) -> Request {
        Request {
            id: 0,
            network,
            arrival_ms,
            deadline_ms: f64::INFINITY,
            class: 0,
        }
    }

    /// A view with all-zero live state (an idle cluster).
    fn static_view<'a>(
        platforms: &'a [&'static str],
        costs: &'a [Vec<f64>],
        zeros: &'a [usize],
        zero_bytes: &'a [u64],
    ) -> ClusterView<'a> {
        ClusterView {
            platforms,
            unit_service_ms: costs,
            queued: zeros,
            in_flight: zeros,
            resident_plan_bytes: zero_bytes,
            healthy: &ALL_UP[..platforms.len()],
            degrade: &NO_DEGRADE[..platforms.len()],
        }
    }

    #[test]
    fn outstanding_is_exactly_queued_plus_in_flight() {
        // Every load-aware strategy must read backlog through
        // `outstanding()` — never a hand-rolled `queued + in_flight`
        // sum that could drift from this definition.
        let costs = vec![vec![1.0], vec![1.0], vec![1.0]];
        let queued = [3usize, 0, 7];
        let in_flight = [2usize, 0, 4];
        let view = ClusterView {
            platforms: &["A", "B", "C"],
            unit_service_ms: &costs,
            queued: &queued,
            in_flight: &in_flight,
            resident_plan_bytes: &[0; 3],
            healthy: &ALL_UP,
            degrade: &NO_DEGRADE,
        };
        for shard in 0..view.shard_count() {
            assert_eq!(view.outstanding(shard), queued[shard] + in_flight[shard]);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let costs = vec![vec![1.0], vec![1.0], vec![1.0]];
        let view = static_view(&["A", "B", "C"], &costs, &[0; 3], &[0; 3]);
        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..6).map(|_| rr.assign(&request(0, 0.0), &view)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_backlog_follows_the_live_queue_depths() {
        let costs = vec![vec![1.0], vec![1.0], vec![1.0]];
        let queued = [3usize, 0, 1];
        let in_flight = [0usize, 2, 1];
        let view = ClusterView {
            platforms: &["A", "B", "C"],
            unit_service_ms: &costs,
            queued: &queued,
            in_flight: &in_flight,
            resident_plan_bytes: &[0; 3],
            healthy: &ALL_UP,
            degrade: &NO_DEGRADE,
        };
        // Outstanding: shard0=3, shard1=2, shard2=2 — tie to shard 1.
        assert_eq!(LeastBacklog.assign(&request(0, 0.0), &view), 1);
        // All idle: lowest index.
        let idle = static_view(&["A", "B", "C"], &costs, &[0; 3], &[0; 3]);
        assert_eq!(LeastBacklog.assign(&request(0, 0.0), &idle), 0);
    }

    #[test]
    fn affinity_routes_to_fastest_platform_round_robin() {
        // Network 0 is fastest on platform "B" (shards 1 and 2);
        // network 1 on "A" (shard 0 only).
        let costs = vec![vec![5.0, 1.0], vec![2.0, 4.0], vec![2.0, 4.0]];
        let view = static_view(&["A", "B", "B"], &costs, &[0; 3], &[0; 3]);
        let mut aff = PlatformAffinity::default();
        let n0: Vec<usize> = (0..4)
            .map(|_| aff.assign(&request(0, 0.0), &view))
            .collect();
        assert_eq!(n0, [1, 2, 1, 2], "round-robin over the B shards");
        assert_eq!(aff.assign(&request(1, 0.0), &view), 0);
    }

    #[test]
    fn least_backlog_fails_over_around_down_shards() {
        let costs = vec![vec![1.0], vec![1.0], vec![1.0]];
        let queued = [0usize, 5, 2];
        let view = ClusterView {
            platforms: &["A", "B", "C"],
            unit_service_ms: &costs,
            queued: &queued,
            in_flight: &[0; 3],
            resident_plan_bytes: &[0; 3],
            healthy: &[false, true, true],
            degrade: &NO_DEGRADE,
        };
        // Shard 0 is emptiest but down: the healthy minimum wins.
        assert_eq!(LeastBacklog.assign(&request(0, 0.0), &view), 2);
        // Everything down: fall back to the global minimum and queue.
        let dark = ClusterView {
            healthy: &[false; 3],
            ..view
        };
        assert_eq!(LeastBacklog.assign(&request(0, 0.0), &dark), 0);
    }

    #[test]
    fn affinity_skips_down_candidates_and_fails_over() {
        // Network 0 fastest on "B" (shards 1, 2); shard 1 is down.
        let costs = vec![vec![5.0], vec![2.0], vec![2.0]];
        let view = ClusterView {
            platforms: &["A", "B", "B"],
            unit_service_ms: &costs,
            queued: &[0; 3],
            in_flight: &[0; 3],
            resident_plan_bytes: &[0; 3],
            healthy: &[true, false, true],
            degrade: &NO_DEGRADE,
        };
        let mut aff = PlatformAffinity::default();
        let picks: Vec<usize> = (0..3)
            .map(|_| aff.assign(&request(0, 0.0), &view))
            .collect();
        assert_eq!(picks, [2, 2, 2], "the down candidate is skipped");
        // Whole preferred platform down: fastest healthy shard wins.
        let b_dark = ClusterView {
            healthy: &[true, false, false],
            ..view
        };
        assert_eq!(aff.assign(&request(0, 0.0), &b_dark), 0);
    }

    /// Five shards for the tie-break tests: `queued` backlog, `costs`
    /// per shard (one network), `healthy` and `degrade` as given.
    fn five<'a>(
        costs: &'a [Vec<f64>],
        queued: &'a [usize],
        healthy: &'a [bool],
        degrade: &'a [f64],
    ) -> ClusterView<'a> {
        ClusterView {
            platforms: &["A", "B", "C", "D", "E"],
            unit_service_ms: costs,
            queued,
            in_flight: &[0; 5],
            resident_plan_bytes: &[0; 5],
            healthy,
            degrade,
        }
    }

    #[test]
    fn one_pass_placements_break_score_ties_to_the_lowest_healthy_index() {
        let up = [true; 5];
        let flat = [1.0; 5];
        let unit = vec![vec![1.0]; 5];
        let r = request(0, 0.0);
        // Bit-equal minima on non-adjacent shards 1 and 3, a larger
        // score between them and after them: shard 1 wins.
        let queued = [4usize, 1, 2, 1, 3];
        let view = five(&unit, &queued, &up, &flat);
        assert_eq!(LeastBacklog.assign(&r, &view), 1);
        assert_eq!(HealthWeighted.assign(&r, &view), 1);
        // The lowest index of the tie is down: the next tied healthy
        // shard (3) wins, not a lower-index non-minimum.
        let one_down = [true, false, true, true, true];
        let view = five(&unit, &queued, &one_down, &flat);
        assert_eq!(LeastBacklog.assign(&r, &view), 3);
        assert_eq!(HealthWeighted.assign(&r, &view), 3);
        // Shard 0 would win every score but is down: ties among the
        // rest go to the lowest healthy index.
        let zero_down = [false, true, true, true, true];
        let queued = [0usize, 2, 1, 2, 1];
        let view = five(&unit, &queued, &zero_down, &flat);
        assert_eq!(LeastBacklog.assign(&r, &view), 2);
        assert_eq!(HealthWeighted.assign(&r, &view), 2);
        // All down: both fall back to the least outstanding shard over
        // the whole fleet, ties to the lowest index.
        let dark = [false; 5];
        let queued = [3usize, 1, 2, 1, 1];
        let view = five(&unit, &queued, &dark, &flat);
        assert_eq!(LeastBacklog.assign(&r, &view), 1);
        assert_eq!(HealthWeighted.assign(&r, &view), 1);
        // A degrade factor that makes a tie: shard 1 at cost 1.5 and
        // factor 2 scores 3.0, bit-equal to idle shard 3 at cost 3.0;
        // shard 0 is slower, shards 2 and 4 costlier still.
        let costs = vec![vec![4.0], vec![1.5], vec![3.5], vec![3.0], vec![3.0]];
        let degrade = [1.0, 2.0, 1.0, 1.0, 1.0];
        let view = five(&costs, &[0; 5], &up, &degrade);
        assert_eq!(
            (1.0 * 1.5 * 2.0_f64).to_bits(),
            (1.0 * 3.0 * 1.0_f64).to_bits()
        );
        assert_eq!(HealthWeighted.assign(&r, &view), 1);
        // The same tie with shard 1 down goes to shard 3, not 4.
        let view = five(&costs, &[0; 5], &one_down, &degrade);
        assert_eq!(HealthWeighted.assign(&r, &view), 3);
    }

    #[test]
    fn health_weighted_prices_load_speed_and_degradation() {
        // Shard 0 idle but 4x degraded; shard 1 fast but loaded;
        // shard 2 moderately fast, idle, healthy.
        let costs = vec![vec![2.0], vec![1.0], vec![3.0]];
        let queued = [0usize, 8, 0];
        let degrade = [4.0, 1.0, 1.0];
        let view = ClusterView {
            platforms: &["A", "B", "C"],
            unit_service_ms: &costs,
            queued: &queued,
            in_flight: &[0; 3],
            resident_plan_bytes: &[0; 3],
            healthy: &ALL_UP,
            degrade: &degrade,
        };
        // Scores: shard0 = 1·2·4 = 8, shard1 = 9·1·1 = 9, shard2 =
        // 1·3·1 = 3.
        assert_eq!(HealthWeighted.assign(&request(0, 0.0), &view), 2);
        let down2 = ClusterView {
            healthy: &[true, true, false],
            ..view
        };
        assert_eq!(
            HealthWeighted.assign(&request(0, 0.0), &down2),
            0,
            "with shard 2 down the degraded-but-idle shard wins on score"
        );
    }
}
