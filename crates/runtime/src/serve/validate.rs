//! The one decision on whether a serve run is valid: every rule an
//! engine config and its trace must meet over a cluster. The engine
//! checks them before its first event and the live twin first thing in
//! its run, so a run executes its input exactly as given or returns an
//! error, and never panics on it.

use super::engine::{CacheBudget, EngineConfig};
use super::fault::{FaultKind, HedgePolicy};
use super::load::Request;
use super::ServeCluster;
use crate::backend::RuntimeError;

/// `Ok` if every `(holds, rule)` pair holds, else
/// [`RuntimeError::InvalidConfig`] naming the first rule that does not.
pub(super) fn require<const N: usize>(
    rules: [(bool, &'static str); N],
) -> Result<(), RuntimeError> {
    match rules.into_iter().find(|&(holds, _)| !holds) {
        Some((_, rule)) => Err(RuntimeError::InvalidConfig { rule }),
        None => Ok(()),
    }
}

/// Whether `ms` is a finite, strictly positive duration.
fn positive(ms: f64) -> bool {
    ms.is_finite() && ms > 0.0
}

impl EngineConfig {
    /// Checks this config and `trace` against `cluster`, in one pass
    /// over the trace; the first broken rule wins. A negative or NaN
    /// hedge delay ([`RuntimeError::InvalidHedgeDelay`]), an id that is
    /// not its trace position ([`RuntimeError::TraceIdMismatch`]) and a
    /// fault on a missing shard ([`RuntimeError::FaultShardOutOfRange`])
    /// keep their own variants, checked in that order; every other rule
    /// fails as [`RuntimeError::InvalidConfig`] naming it.
    pub(super) fn validate(
        &self,
        cluster: &ServeCluster,
        trace: &[Request],
    ) -> Result<(), RuntimeError> {
        if let Some(HedgePolicy { delay_ms }) = self.hedge {
            // A twin would fire before its request arrived; `-0.0` is a
            // valid zero delay.
            if delay_ms.is_nan() || delay_ms < 0.0 {
                let delay_ms_bits = delay_ms.to_bits();
                return Err(RuntimeError::InvalidHedgeDelay { delay_ms_bits });
            }
        }

        let networks = cluster.networks().len();
        // The event queue merges the trace as a sorted stream; starting
        // below every arrival also refuses a lone NaN arrival.
        let mut last_ms = f64::NEG_INFINITY;
        for (position, request) in trace.iter().enumerate() {
            if usize::try_from(request.id) != Ok(position) {
                let id = u64::from(request.id);
                return Err(RuntimeError::TraceIdMismatch { position, id });
            }
            let sorted = last_ms <= request.arrival_ms;
            let hosted = usize::from(request.network) < networks;
            require([
                (sorted, "trace must be sorted by arrival_ms"),
                (hosted, "request targets an unknown network"),
            ])?;
            last_ms = request.arrival_ms;
        }

        let shard_count = cluster.shard_count();
        for fault in self.faults.events() {
            if fault.shard >= shard_count {
                let shard = fault.shard;
                return Err(RuntimeError::FaultShardOutOfRange { shard, shard_count });
            }
            let kind = match fault.kind {
                FaultKind::Crash { recover_ms } => (
                    positive(recover_ms),
                    "a crash must recover after a finite positive downtime",
                ),
                FaultKind::Degrade { factor, window_ms } => (
                    factor.is_finite() && factor >= 1.0 && positive(window_ms),
                    "degrade needs factor >= 1 and a finite positive window",
                ),
                FaultKind::StallCompile {
                    extra_ms,
                    window_ms,
                } => (
                    extra_ms.is_finite() && extra_ms >= 0.0 && positive(window_ms),
                    "compile stall needs finite extra latency and window",
                ),
                FaultKind::TransientCompileFail { window_ms } => (
                    positive(window_ms),
                    "compile-fail window must be finite and positive",
                ),
            };
            let at = fault.at_ms.is_finite() && fault.at_ms >= 0.0;
            require([(at, "fault instant must be finite and non-negative"), kind])?;
        }

        if let CacheBudget::PerShard(budgets) = &self.cache_budget {
            let one_each = budgets.len() == shard_count;
            require([(one_each, "per-shard cache budget needs one entry per shard")])?;
        }
        if let Some(reconfig) = self.reconfig {
            require([
                (reconfig.window >= 1, "reconfig window must be >= 1"),
                (reconfig.every >= 1, "reconfig stride must be >= 1"),
            ])?;
        }
        if let Some(scale) = &self.scale {
            let (high, low) = (scale.high_watermark, scale.low_watermark);
            let watermarks = high.is_finite() && low.is_finite() && low >= 0.0 && high >= low;
            let min_active = (1..=shard_count).contains(&scale.min_active);
            let period = positive(scale.period_ms);
            let headroom = scale.energy_headroom.is_finite();
            require([
                (period, "autoscale period must be finite and positive"),
                (
                    watermarks,
                    "autoscale watermarks must be finite with high >= low >= 0",
                ),
                (scale.hysteresis_ticks >= 1, "hysteresis needs >= 1 tick"),
                (min_active, "min_active must be within 1..=shard_count"),
                (headroom, "energy headroom must be finite"),
            ])?;
        }
        Ok(())
    }
}
