//! The serve-time control plane: cost-aware autoscaling and
//! traffic-mix backend reconfiguration.
//!
//! Both features are **first-class engine events** — the autoscaler is
//! a periodic tick in the one global event queue (its class sorts after
//! every fault/recovery event at the same instant), never a background
//! thread, and reconfiguration decisions are pure functions of the
//! admission history. That keeps every control-plane action inside the
//! determinism boundary: a run with autoscaling and reconfiguration
//! enabled is still a pure function of (trace, cluster, policy,
//! placement, config). `docs/AUTOSCALING.md` derives the semantics.
//!
//! * [`AutoscalePolicy`] adds/drains shards against a
//!   **goodput-per-joule frontier** ([`EnergyFrontier`]): per shard,
//!   the expected joules to serve one request of the observed traffic
//!   mix, computed from the `sma-energy` ledger over the cluster's
//!   pre-compiled batch-1 plans. Scale-up activates the cheapest
//!   eligible shard, scale-down drains the costliest — and a shard is
//!   eligible only while its cost stays within `1 + energy_headroom`
//!   of the frontier optimum. **Drain-before-remove**: a draining
//!   shard stops accepting placements but finishes its queue and
//!   in-flight batch before it parks. A zero (or negative) headroom
//!   disables the control loop entirely — no tick events are even
//!   scheduled — so the engine degenerates **bit-identically** to the
//!   fixed-shard fleet (pinned by `tests/serve_scale.rs`).
//! * [`ReconfigPolicy`] drives the `Reconfigurable` backend capability
//!   (ArrayFlex pipeline span, FlexSA tile mode): instead of picking a
//!   fabric configuration per GEMM shape, a reconfigurable shard pins
//!   one configuration per observed **traffic mix** — a shape
//!   histogram over a sliding window of the shard's admissions —
//!   re-evaluated every `every` admissions. Decisions read only the
//!   arrival/placement history (never completion timing), so
//!   reconfiguration sits inside the live-twin oracle's timing-robust
//!   envelope (pinned by `tests/serve_live.rs`).

use super::placement::{self, ClusterView};
use super::ServeCluster;
use sma_energy::EnergyModel;

/// Cost-aware autoscaling: hysteresis-damped add/drain decisions
/// against the energy frontier, evaluated at a fixed simulated period.
///
/// Backlog is normalised per *active* shard; a sustained load above
/// `high_watermark` (for `hysteresis_ticks` consecutive evaluations)
/// re-activates the cheapest eligible shard, a sustained load at or
/// below `low_watermark` drains the costliest — never below
/// `min_active` accepting shards. Every action resets both streaks, so
/// the action rate is bounded by `evaluations / hysteresis_ticks`: the
/// loop cannot flap faster than its own damping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalePolicy {
    /// Evaluation period, simulated ms (finite, positive).
    pub period_ms: f64,
    /// Backlog per active shard that counts toward scaling up.
    pub high_watermark: f64,
    /// Backlog per active shard that counts toward draining.
    pub low_watermark: f64,
    /// Consecutive evaluations a condition must hold before acting.
    pub hysteresis_ticks: u32,
    /// Accepting shards are never drained below this floor.
    pub min_active: usize,
    /// Energy budget: a shard is eligible for activation only while
    /// its joules-per-request under the observed mix stays within
    /// `1 + energy_headroom` of the frontier optimum. `<= 0` disables
    /// the autoscaler outright (bit-identical to the static fleet).
    pub energy_headroom: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        AutoscalePolicy {
            period_ms: 50.0,
            high_watermark: 4.0,
            low_watermark: 1.0,
            hysteresis_ticks: 2,
            min_active: 1,
            energy_headroom: 0.25,
        }
    }
}

impl AutoscalePolicy {
    /// Whether the control loop runs at all: a zero-headroom energy
    /// budget cannot pay for any fleet change, so the engine schedules
    /// no tick events and stays bit-identical to the static fleet.
    #[must_use]
    pub(crate) fn enabled(&self) -> bool {
        self.energy_headroom > 0.0
    }
}

/// The goodput-per-joule frontier: expected joules to serve one
/// request, per shard, under a weighted network mix.
///
/// Built once per run from the cluster's pre-compiled batch-1 plans
/// through the `sma-energy` access-ledger model — a pure function of
/// (cluster, model), so the frontier never perturbs event timing.
#[derive(Debug, Clone)]
pub(crate) struct EnergyFrontier {
    /// `joules[shard][network]`: energy of one batch-1 inference.
    joules: Vec<Vec<f64>>,
}

impl EnergyFrontier {
    /// Prices every `(shard, network)` pair by replaying the cluster's
    /// batch-1 plan ledgers through `model`.
    #[must_use]
    pub(crate) fn from_cluster(cluster: &ServeCluster, model: &EnergyModel) -> Self {
        let joules = (0..cluster.shard_count())
            .map(|shard| {
                (0..cluster.networks().len())
                    .map(|net| {
                        cluster
                            .unit_plan(shard, net)
                            .run()
                            .energy(model)
                            .total_joules()
                            .max(f64::MIN_POSITIVE)
                    })
                    .collect()
            })
            .collect();
        EnergyFrontier { joules }
    }

    #[cfg(test)]
    pub(super) fn from_joules(joules: Vec<Vec<f64>>) -> Self {
        EnergyFrontier { joules }
    }

    /// Expected joules for one request of the observed mix on `shard`.
    /// `mix` is a per-network arrival count; an all-zero mix (nothing
    /// observed yet) falls back to a uniform mix.
    #[must_use]
    pub(crate) fn cost_per_request(&self, shard: usize, mix: &[u64]) -> f64 {
        let row = &self.joules[shard];
        let total: u64 = mix.iter().sum();
        if total == 0 {
            return row.iter().sum::<f64>() / row.len() as f64;
        }
        row.iter()
            .zip(mix)
            .map(|(&j, &count)| j * (count as f64))
            .sum::<f64>()
            / total as f64
    }

    /// The frontier optimum: the cheapest cost any shard offers under
    /// the mix.
    #[must_use]
    pub(crate) fn frontier_cost(&self, mix: &[u64]) -> f64 {
        (0..self.joules.len())
            .map(|shard| self.cost_per_request(shard, mix))
            .fold(f64::INFINITY, f64::min)
    }

    /// The cheapest shard among `candidates` (ties to the lowest
    /// index; `None` for an empty candidate set).
    pub(super) fn cheapest(
        &self,
        mix: &[u64],
        candidates: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        let cost = |shard| self.cost_per_request(shard, mix);
        placement::lowest(candidates, cost, f64::total_cmp)
    }

    /// The costliest shard among `candidates` (ties to the highest
    /// index; `None` for an empty candidate set).
    pub(super) fn costliest(
        &self,
        mix: &[u64],
        candidates: impl DoubleEndedIterator<Item = usize>,
    ) -> Option<usize> {
        let cost = |shard| self.cost_per_request(shard, mix);
        placement::lowest(candidates.rev(), cost, |a, b| b.total_cmp(a))
    }
}

/// A shard's power state under the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Power {
    /// Powered and taking placements.
    Active,
    /// Drain-before-remove: taking no new placements, and parked once
    /// its queue and in-flight batch run empty.
    Draining,
    Parked,
}

/// The autoscaler's run state, built only for an enabled policy.
#[derive(Debug)]
pub(super) struct Autoscaler {
    policy: AutoscalePolicy,
    power: Vec<Power>,
    /// Consecutive over- and under-watermark evaluations (hysteresis).
    up_streak: u32,
    down_streak: u32,
    stats: ScaleStats,
    frontier: EnergyFrontier,
    /// Cumulative arrivals per network: the observed traffic mix the
    /// frontier weighs shard costs by.
    mix: Vec<u64>,
}

/// What one autoscaler tick decided; the engine applies it.
#[derive(Debug, Clone, Copy)]
pub(super) struct ScaleDecision {
    /// A shard the tick (re-)activated: it may have work waiting.
    pub(super) activated: Option<usize>,
    /// When the next tick fires (`None` = nothing left to observe).
    pub(super) next_ms: Option<f64>,
}

impl Autoscaler {
    /// The autoscaler for `policy`, or `None` when the policy is absent
    /// or inert (zero headroom): only then does the frontier price the
    /// cluster's plans through the energy ledger.
    pub(super) fn new(policy: Option<AutoscalePolicy>, cluster: &ServeCluster) -> Option<Self> {
        let policy = policy.filter(AutoscalePolicy::enabled)?;
        Some(Autoscaler {
            policy,
            power: vec![Power::Active; cluster.shard_count()],
            up_streak: 0,
            down_streak: 0,
            stats: ScaleStats::default(),
            frontier: EnergyFrontier::from_cluster(cluster, &EnergyModel::volta()),
            mix: vec![0; cluster.networks().len()],
        })
    }

    /// When the first tick fires.
    pub(super) fn first_tick_ms(&self) -> f64 {
        self.policy.period_ms
    }

    /// Counts one arrival of network `net` into the observed mix.
    #[inline]
    pub(super) fn observe(&mut self, net: usize) {
        self.mix[net] += 1;
    }

    /// Whether `shard` takes new placements.
    #[inline]
    pub(super) fn accepting(&self, shard: usize) -> bool {
        self.power[shard] == Power::Active
    }

    /// One evaluation at `now_ms` against the live view and its
    /// cluster `backlog`: park finished drains, update the hysteresis
    /// streaks from the backlog per powered shard, and act at most once
    /// — activate the cheapest eligible shard on a sustained high,
    /// drain the costliest on a sustained low. `more_arrivals` says
    /// whether the trace has arrivals left.
    pub(super) fn tick(
        &mut self,
        now_ms: f64,
        view: &ClusterView<'_>,
        backlog: usize,
        more_arrivals: bool,
    ) -> ScaleDecision {
        for (shard, power) in self.power.iter_mut().enumerate() {
            if *power == Power::Draining && view.outstanding(shard) == 0 {
                *power = Power::Parked;
                self.stats.drains_completed += 1;
            }
        }
        self.stats.evaluations += 1;
        let powered = self.power.iter().filter(|&&p| p != Power::Parked);
        let load = backlog as f64 / powered.count().max(1) as f64;
        let policy = self.policy;
        self.up_streak = if load >= policy.high_watermark {
            self.up_streak + 1
        } else {
            0
        };
        self.down_streak = if load <= policy.low_watermark {
            self.down_streak + 1
        } else {
            0
        };
        let shards = 0..self.power.len();
        let mut activated = None;
        if self.up_streak >= policy.hysteresis_ticks {
            // Scale up: the cheapest shard (under the observed mix)
            // among those not currently accepting, gated by the energy
            // budget — never activate capacity the headroom cannot pay
            // for. Cancelling an in-progress drain beats powering a
            // parked shard (same index rule: cheapest wins).
            let budget = (1.0 + policy.energy_headroom) * self.frontier.frontier_cost(&self.mix);
            activated = self.frontier.cheapest(
                &self.mix,
                shards.filter(|&s| {
                    !self.accepting(s) && self.frontier.cost_per_request(s, &self.mix) <= budget
                }),
            );
            if let Some(shard) = activated {
                self.power[shard] = Power::Active;
                self.stats.scale_ups += 1;
                (self.up_streak, self.down_streak) = (0, 0);
            }
        } else if self.down_streak >= policy.hysteresis_ticks {
            // Scale down: drain the costliest accepting shard, never
            // below the floor. The drain finishes on a later tick once
            // the shard runs empty (drain-before-remove).
            let accepting = shards.filter(|&s| self.accepting(s));
            if accepting.clone().count() > policy.min_active {
                if let Some(shard) = self.frontier.costliest(&self.mix, accepting) {
                    self.power[shard] = Power::Draining;
                    self.stats.scale_downs += 1;
                    (self.up_streak, self.down_streak) = (0, 0);
                }
            }
        }
        // Re-arm while there is anything left to observe: future
        // arrivals, outstanding work, or an unfinished drain.
        let more = more_arrivals || backlog > 0 || self.power.contains(&Power::Draining);
        ScaleDecision {
            activated,
            next_ms: more.then_some(now_ms + policy.period_ms),
        }
    }

    /// The run's counters, with the shards still accepting at its end.
    pub(super) fn finish(mut self) -> ScaleStats {
        self.stats.final_active = self.power.iter().filter(|&&p| p == Power::Active).count();
        self.stats
    }
}

/// Autoscaler counters of one run, reported in `ServeRun::scale`.
/// Without an enabled [`AutoscalePolicy`], and always in the live twin,
/// a run reports zero counts and every shard as `final_active`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Scale ticks evaluated.
    pub evaluations: u64,
    /// Shards (re-)activated, drain cancellations included.
    pub scale_ups: u64,
    /// Drains initiated.
    pub scale_downs: u64,
    /// Drains that ran to completion (shard parked empty).
    pub drains_completed: u64,
    /// Shards still accepting work when the run ended.
    pub final_active: usize,
}

/// Serve-time backend reconfiguration: pin one fabric configuration
/// per observed traffic mix instead of one per GEMM shape.
///
/// Each reconfigurable shard keeps a sliding window of its last
/// `window` admitted networks and, every `every` admissions, re-pins
/// the configuration minimising total pinned compute cycles over the
/// window's shape histogram (pure integer arithmetic — no float ties).
/// Batches then pay the pinned configuration's latency penalty
/// relative to per-shape-best, exactly the paper's
/// efficiency/flexibility trade moved into the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigPolicy {
    /// Sliding-window length, in admitted requests per shard.
    pub window: usize,
    /// Re-evaluate the pinned configuration every this many
    /// admissions.
    pub every: usize,
}

impl Default for ReconfigPolicy {
    fn default() -> Self {
        ReconfigPolicy {
            window: 64,
            every: 16,
        }
    }
}

/// Reconfiguration counters of one run (all zero without a
/// [`ReconfigPolicy`] or without reconfigurable shards), reported in
/// `ServeRun::reconfig`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconfigStats {
    /// Window evaluations across all reconfigurable shards.
    pub evaluations: u64,
    /// Evaluations that actually re-pinned a different configuration.
    pub reconfigs: u64,
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
    )]

    use super::*;
    use crate::backend::RuntimeError;
    use crate::serve::EngineConfig;
    use crate::{Executor, Platform};

    fn frontier() -> EnergyFrontier {
        // Two networks; shard 1 is cheapest on net 0, shard 2 on net 1.
        EnergyFrontier::from_joules(vec![vec![4.0, 4.0], vec![1.0, 8.0], vec![8.0, 2.0]])
    }

    #[test]
    fn cost_weights_by_the_observed_mix() {
        let f = frontier();
        assert_eq!(f.cost_per_request(1, &[1, 0]), 1.0);
        assert_eq!(f.cost_per_request(1, &[0, 1]), 8.0);
        assert_eq!(f.cost_per_request(1, &[1, 1]), 4.5);
        // Nothing observed yet: uniform mix.
        assert_eq!(f.cost_per_request(0, &[0, 0]), 4.0);
    }

    #[test]
    fn frontier_picks_cheapest_and_costliest_with_index_ties() {
        let f = frontier();
        // Mix all on net 0: costs are [4, 1, 8].
        assert_eq!(f.cheapest(&[1, 0], 0..3), Some(1));
        assert_eq!(f.costliest(&[1, 0], 0..3), Some(2));
        assert_eq!(f.frontier_cost(&[1, 0]), 1.0);
        // A tie (shards 0 and 0' identical): lowest index wins cheapest,
        // highest index wins costliest.
        let tie = EnergyFrontier::from_joules(vec![vec![3.0], vec![3.0]]);
        assert_eq!(tie.cheapest(&[1], 0..2), Some(0));
        assert_eq!(tie.costliest(&[1], 0..2), Some(1));
        assert_eq!(f.cheapest(&[1, 0], std::iter::empty()), None);
    }

    #[test]
    fn zero_headroom_disables_the_loop() {
        let mut policy = AutoscalePolicy::default();
        assert!(policy.enabled());
        policy.energy_headroom = 0.0;
        assert!(!policy.enabled());
        policy.energy_headroom = -1.0;
        assert!(!policy.enabled());
    }

    /// Validates `config` with an empty trace against a four-shard
    /// cluster.
    fn validate_on_four_shards(config: &EngineConfig) -> Result<(), RuntimeError> {
        let shards = (0..4).map(|_| Executor::new(Platform::Sma3)).collect();
        let cluster = ServeCluster::try_new(shards, vec![sma_models::zoo::alexnet()]).unwrap();
        config.validate(&cluster, &[])
    }

    #[test]
    fn policy_validation_accepts_the_default() {
        let config = EngineConfig::default()
            .with_scale(AutoscalePolicy::default())
            .with_reconfig(ReconfigPolicy::default());
        assert_eq!(validate_on_four_shards(&config), Ok(()));
    }

    #[test]
    fn min_active_cannot_exceed_the_fleet() {
        let config = EngineConfig::default().with_scale(AutoscalePolicy {
            min_active: 5,
            ..AutoscalePolicy::default()
        });
        assert_eq!(
            validate_on_four_shards(&config),
            Err(RuntimeError::InvalidConfig {
                rule: "min_active must be within 1..=shard_count"
            })
        );
    }
}
