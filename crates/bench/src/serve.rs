//! Serving-simulation benchmark: the policy × placement × cache-budget
//! matrix over one seeded trace, combos fanned across worker threads by
//! the sweep module's [`run_ordered`], results rendered into
//! `BENCH_serve.json`.
//!
//! The matrix has three blocks:
//!
//! * **Online block**: the event engine proper — online placement with
//!   a live [`ClusterView`](sma_runtime::serve::ClusterView), the EDF
//!   SLO policy, and both an unbounded and a capacity-bounded plan
//!   cache (LRU eviction, compile-on-miss billed as simulated
//!   latency).
//! * **Fault block**: the same engine under a seeded [`FaultPlan`] —
//!   {no-fault, crash-heavy, degrade-heavy} × {retry, retry+hedge} —
//!   with the EDF policy, the health-weighted placement, class-striped
//!   SLO shedding and the retry/hedge recovery policies. The fault
//!   schedule draws from its own splitmix64 stream, so the online
//!   block stays value-identical whether or not this block exists.
//! * **Control block**: the serve-time control plane — {static,
//!   autoscaled fleet} × {no-preempt, SLO preemption} × {fixed
//!   fabric, traffic-mix reconfiguration} at EDF × health-weighted,
//!   fault-free. Every control-plane feature defaults off in
//!   [`EngineConfig`], so the two blocks above stay value-identical
//!   whether or not this block exists.
//!
//! Everything in the report comes from the **simulated** clock — no
//! wall-clock value is ever serialised — and each combo's engine run
//! is single-threaded and deterministic, so the JSON is byte-identical
//! across repeat runs and across any `SMA_SWEEP_THREADS` setting (the
//! worker threads only decide which combo runs where). The determinism
//! suite and a CI double-run `diff` pin exactly that.

use crate::sweep::{escape_json, run_ordered};
use sma_models::zoo;
use sma_runtime::serve::{
    percentile_ms, AutoscalePolicy, BatchPolicy, CacheBudget, Deadline, EarliestDeadlineFirst,
    EngineConfig, FaultMix, FaultPlan, HealthWeighted, HedgePolicy, Immediate, LeastBacklog,
    LoadGenerator, Placement, PreemptPolicy, ReconfigPolicy, Request, RetryPolicy, RoundRobin,
    ServeCluster, ServeOutcome, ServeSim, ShedPolicy, SizeK,
};
use sma_runtime::{Executor, Platform, RuntimeError};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A serving workload: the compiled cluster, the trace over it, and
/// the engine parameters every combo shares.
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// The compiled shard/network/plan matrix, shared by every combo.
    pub cluster: Arc<ServeCluster>,
    /// The open-loop arrival trace (SLO deadlines stamped).
    pub trace: Vec<Request>,
    /// Seed the trace was drawn from (recorded in the report).
    pub seed: u64,
    /// Mean interarrival gap of the trace, ms (recorded in the report).
    pub mean_interarrival_ms: f64,
    /// Mean batch-1 service time over the shard × network grid, ms —
    /// the calibration the arrival rate, the deadline policy's wait
    /// bound, the EDF slack and the SLO target are all derived from
    /// (see [`mean_unit_service_ms`]).
    pub mean_unit_service_ms: f64,
    /// Per-request latency SLO stamped on the trace, ms.
    pub slo_ms: f64,
    /// Plan-cache budget of the bounded-cache rows, bytes per shard.
    pub bounded_cache_bytes: u64,
    /// Simulated compile cost billed per network layer on a plan-cache
    /// miss.
    pub compile_ms_per_layer: f64,
    /// Seed of the fault block's [`FaultPlan`] stream (independent of
    /// the trace seed — the online block never sees it).
    pub fault_seed: u64,
    /// Expected faults per shard in the fault block's schedules.
    pub fault_rate: f64,
    /// Hedge delay of the `retry+hedge` rows, ms (p99 of the batch-1
    /// service-time cells by default — hedges fire only for requests
    /// already slower than almost every single-batch execution).
    pub hedge_delay_ms: f64,
    /// Shed watermark of the fault block: the lowest-priority class
    /// sheds when cluster-wide backlog reaches this many requests
    /// (higher classes at integer multiples of it).
    pub shed_watermark: usize,
    /// Autoscaler evaluation period of the control block, simulated ms
    /// (8 mean interarrival gaps by default — several arrivals per
    /// evaluation, many evaluations per run).
    pub scale_period_ms: f64,
    /// Energy headroom of the control block's autoscaled rows (`0`
    /// degenerates bit-identically to the static fleet).
    pub scale_headroom: f64,
    /// Minimum SLO-class gap (arriving vs running) before the control
    /// block's preemption rows evict an in-flight batch.
    pub preempt_gap: u8,
}

/// Overrides for the derived scenario parameters (`None` = derive from
/// the cluster's own cost matrix).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioOptions {
    /// Per-request latency SLO, ms.
    pub slo_ms: Option<f64>,
    /// Bounded-row plan-cache budget, bytes per shard.
    pub cache_budget_bytes: Option<u64>,
    /// Fault-block schedule seed.
    pub fault_seed: Option<u64>,
    /// Expected faults per shard in the fault block.
    pub fault_rate: Option<f64>,
    /// Hedge delay of the `retry+hedge` rows, ms.
    pub hedge_ms: Option<f64>,
    /// Autoscaler evaluation period of the control block, ms.
    pub scale_period_ms: Option<f64>,
    /// Energy headroom of the control block's autoscaled rows.
    pub scale_headroom: Option<f64>,
    /// SLO-class gap of the control block's preemption rows.
    pub preempt_gap: Option<u8>,
}

/// Mean batch-1 service time over a cluster's shard × network cells,
/// ms (read straight off the compiled cost matrix).
#[must_use]
pub fn mean_unit_service_ms(cluster: &ServeCluster) -> f64 {
    let matrix = cluster.unit_service_ms();
    let cells: usize = matrix.iter().map(Vec::len).sum();
    let total: f64 = matrix.iter().flatten().sum();
    total / cells.max(1) as f64
}

/// The default benchmark cluster: six shards over five platforms
/// (two 3-SMA, one 4-TC, one SIMD, one ArrayFlex, one FlexSA) hosting
/// three Table-II networks, with the arrival rate calibrated to ~0.9
/// offered load at batch-1 cost — enough pressure that batching policy
/// and placement both visibly move the latency distribution.
///
/// Derived parameters (all overridable via [`ScenarioOptions`]):
/// * the SLO target is 2.5 mean batch-1 service times — tight enough
///   that the tail misses it under every policy, loose enough that
///   EDF visibly changes the miss count;
/// * the bounded-cache budget is 1.25× the largest compiled plan, so
///   a single plan always fits (no admission rejections in the
///   default matrix) but a shard hosting all three networks must
///   evict.
///
/// # Errors
///
/// Propagates a backend rejecting a network during calibration.
pub fn default_scenario(requests: usize, seed: u64) -> Result<ServeScenario, RuntimeError> {
    scenario(requests, seed, ScenarioOptions::default())
}

/// [`default_scenario`] with explicit overrides.
///
/// # Errors
///
/// Propagates a backend rejecting a network during calibration.
pub fn scenario(
    requests: usize,
    seed: u64,
    options: ScenarioOptions,
) -> Result<ServeScenario, RuntimeError> {
    let shards = vec![
        Executor::new(Platform::Sma3),
        Executor::new(Platform::Sma3),
        Executor::new(Platform::GpuTensorCore),
        Executor::new(Platform::GpuSimd),
        Executor::new(Platform::ArrayFlex),
        Executor::new(Platform::FlexSa),
    ];
    let networks = vec![zoo::alexnet(), zoo::vgg_a(), zoo::googlenet()];
    let cluster = Arc::new(ServeCluster::try_new(shards, networks)?);
    let mean_service = mean_unit_service_ms(&cluster);
    let mean_interarrival_ms = mean_service / cluster.shard_count() as f64 * 1.1;
    let slo_ms = options.slo_ms.unwrap_or(2.5 * mean_service);
    let max_plan_bytes = cluster
        .unit_plan_bytes()
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap_or(0);
    let bounded_cache_bytes = options
        .cache_budget_bytes
        .unwrap_or(max_plan_bytes + max_plan_bytes / 4);
    // Three SLO classes, striped by id — a pure function of the id, so
    // the arrivals/networks/deadlines are bit-identical to a class-free
    // trace and the online block never notices.
    let trace = LoadGenerator::new(seed, mean_interarrival_ms)
        .with_slo(slo_ms)
        .with_classes(3)
        .trace(requests, cluster.networks().len());
    // Hedge when a request outlives p99 of the batch-1 cost cells:
    // only the already-slow tail pays the duplicate.
    let unit_cells: Vec<f64> = cluster
        .unit_service_ms()
        .iter()
        .flatten()
        .copied()
        .collect();
    let hedge_delay_ms = options
        .hedge_ms
        .unwrap_or_else(|| percentile_ms(&unit_cells, 99.0));
    Ok(ServeScenario {
        shed_watermark: 2 * cluster.shard_count(),
        scale_period_ms: options
            .scale_period_ms
            .unwrap_or(8.0 * mean_interarrival_ms),
        scale_headroom: options.scale_headroom.unwrap_or(0.25),
        preempt_gap: options.preempt_gap.unwrap_or(1),
        cluster,
        trace,
        seed,
        mean_interarrival_ms,
        mean_unit_service_ms: mean_service,
        slo_ms,
        bounded_cache_bytes,
        compile_ms_per_layer: 0.05,
        fault_seed: options.fault_seed.unwrap_or(seed ^ 0xFAA7_5EED),
        fault_rate: options.fault_rate.unwrap_or(2.0).max(0.0),
        hedge_delay_ms,
    })
}

/// The three size/time batching policies (immediate, size-k,
/// deadline). `max_wait_ms` parameterises the deadline policy (a sensible value
/// is one mean batch-1 service time).
#[must_use]
pub fn policy_matrix(max_wait_ms: f64) -> Vec<Arc<dyn BatchPolicy>> {
    vec![
        Arc::new(Immediate),
        Arc::new(SizeK::new(8)),
        Arc::new(Deadline::new(max_wait_ms, 16)),
    ]
}

/// The online block's policies: [`policy_matrix`] plus EDF with
/// `slack_ms` of SLO headroom.
#[must_use]
pub fn online_policy_matrix(max_wait_ms: f64, slack_ms: f64) -> Vec<Arc<dyn BatchPolicy>> {
    let mut policies = policy_matrix(max_wait_ms);
    policies.push(Arc::new(EarliestDeadlineFirst::new(slack_ms, 16)));
    policies
}

/// A factory per placement strategy (placements carry cursor/backlog
/// state, so every combo — and every engine run — needs a fresh one).
pub type PlacementFactory = fn() -> Box<dyn Placement>;

/// The online block's placements: the state-blind cycle and the
/// live-backlog router the event engine makes possible.
#[must_use]
pub fn online_placement_matrix() -> Vec<PlacementFactory> {
    vec![|| Box::new(RoundRobin::default()), || {
        Box::new(LeastBacklog)
    }]
}

/// One cell of the benchmark matrix.
#[derive(Debug, Clone)]
pub struct ComboReport {
    /// The batch policy's label.
    pub policy: String,
    /// The placement strategy's label.
    pub placement: String,
    /// Admission mode label, always `online` (the engine's only mode).
    /// The field stays so every committed `BENCH_serve.json` row keeps
    /// its `"admission": "online"` key and value byte for byte.
    pub admission: &'static str,
    /// Plan-cache budget label (`unbounded` / `NKiB`).
    pub cache_budget: String,
    /// Fault-schedule label (`none` outside the fault block).
    pub fault: &'static str,
    /// Recovery-policy label (`none` outside the fault block).
    pub recovery: &'static str,
    /// Control-plane label (`none` outside the control block; the
    /// control rows spell out their feature set, e.g.
    /// `auto+preempt+mix`).
    pub control: &'static str,
    /// The aggregated serving metrics.
    pub outcome: ServeOutcome,
}

/// The full `BENCH_serve.json` payload.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Trace length.
    pub requests: usize,
    /// Trace seed.
    pub seed: u64,
    /// Mean interarrival gap, ms.
    pub mean_interarrival_ms: f64,
    /// Per-request latency SLO, ms.
    pub slo_ms: f64,
    /// Bounded-row plan-cache budget, bytes per shard.
    pub bounded_cache_bytes: u64,
    /// Compile cost billed per layer on a plan-cache miss, ms.
    pub compile_ms_per_layer: f64,
    /// Backend name per shard.
    pub shard_platforms: Vec<&'static str>,
    /// Hosted network names.
    pub network_names: Vec<String>,
    /// One entry per matrix cell, online block first.
    pub combos: Vec<ComboReport>,
}

impl ServeBenchReport {
    /// Renders the report as JSON (hand-rolled: the workspace has no
    /// serialisation dependency). Only simulated-clock quantities
    /// appear, so the output is a pure function of the scenario.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"config\": {\n");
        let _ = writeln!(out, "    \"requests\": {},", self.requests);
        let _ = writeln!(out, "    \"seed\": {},", self.seed);
        let _ = writeln!(
            out,
            "    \"mean_interarrival_ms\": {:.6},",
            self.mean_interarrival_ms
        );
        let _ = writeln!(out, "    \"slo_ms\": {:.6},", self.slo_ms);
        let _ = writeln!(
            out,
            "    \"bounded_cache_bytes\": {},",
            self.bounded_cache_bytes
        );
        let _ = writeln!(
            out,
            "    \"compile_ms_per_layer\": {:.6},",
            self.compile_ms_per_layer
        );
        let _ = writeln!(
            out,
            "    \"shards\": [{}],",
            self.shard_platforms
                .iter()
                .map(|p| format!("\"{}\"", escape_json(p)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            out,
            "    \"networks\": [{}]",
            self.network_names
                .iter()
                .map(|n| format!("\"{}\"", escape_json(n)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  },\n  \"combos\": [\n");
        for (i, combo) in self.combos.iter().enumerate() {
            let comma = if i + 1 == self.combos.len() { "" } else { "," };
            let o = &combo.outcome;
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"policy\": \"{}\",", escape_json(&combo.policy));
            let _ = writeln!(
                out,
                "      \"placement\": \"{}\",",
                escape_json(&combo.placement)
            );
            let _ = writeln!(out, "      \"admission\": \"{}\",", combo.admission);
            let _ = writeln!(
                out,
                "      \"cache_budget\": \"{}\",",
                escape_json(&combo.cache_budget)
            );
            let _ = writeln!(out, "      \"fault\": \"{}\",", combo.fault);
            let _ = writeln!(out, "      \"recovery\": \"{}\",", combo.recovery);
            let _ = writeln!(out, "      \"control\": \"{}\",", combo.control);
            let _ = writeln!(out, "      \"requests\": {},", o.requests);
            let _ = writeln!(out, "      \"rejected\": {},", o.rejected);
            let _ = writeln!(out, "      \"shed\": {},", o.shed);
            let _ = writeln!(out, "      \"failed\": {},", o.failed);
            let _ = writeln!(out, "      \"retries\": {},", o.retries);
            let _ = writeln!(out, "      \"hedges\": {},", o.hedges);
            let _ = writeln!(out, "      \"failovers\": {},", o.failovers);
            let _ = writeln!(out, "      \"preemptions\": {},", o.preemptions);
            let _ = writeln!(
                out,
                "      \"preempted_requests\": {},",
                o.preempted_requests
            );
            let _ = writeln!(out, "      \"scale_evaluations\": {},", o.scale_evaluations);
            let _ = writeln!(out, "      \"scale_ups\": {},", o.scale_ups);
            let _ = writeln!(out, "      \"scale_downs\": {},", o.scale_downs);
            let _ = writeln!(out, "      \"reconfigs\": {},", o.reconfigs);
            let _ = writeln!(
                out,
                "      \"reconfig_evaluations\": {},",
                o.reconfig_evaluations
            );
            let _ = writeln!(out, "      \"downtime_ms\": {:.6},", o.downtime_ms);
            let _ = writeln!(out, "      \"p50_ms\": {:.6},", o.p50_ms);
            let _ = writeln!(out, "      \"p99_ms\": {:.6},", o.p99_ms);
            let _ = writeln!(out, "      \"p999_ms\": {:.6},", o.p999_ms);
            let _ = writeln!(out, "      \"mean_ms\": {:.6},", o.mean_ms);
            let _ = writeln!(out, "      \"max_ms\": {:.6},", o.max_ms);
            let _ = writeln!(out, "      \"makespan_ms\": {:.6},", o.makespan_ms);
            let _ = writeln!(out, "      \"busy_ms\": {:.6},", o.busy_ms);
            let _ = writeln!(out, "      \"deadline_misses\": {},", o.deadline_misses);
            let _ = writeln!(out, "      \"goodput\": {:.6},", o.goodput);
            // `peak_bytes_bound` is the sum of per-shard peaks — an
            // upper bound, not a gauge (the per-shard peaks need not
            // be simultaneous); the exact per-shard gauges are each
            // shard row's `cache_peak_bytes`. The `_bound` suffix is
            // load-bearing: it keeps the aggregate from reading as an
            // observed cluster-wide high-water mark.
            let _ = writeln!(
                out,
                "      \"plan_cache\": {{\"lookups\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"resident_bytes\": {}, \"peak_bytes_bound\": {}}},",
                o.cache.lookups,
                o.cache.hits,
                o.cache.misses,
                o.cache.evictions,
                o.cache.resident_bytes,
                o.cache.peak_bytes,
            );
            out.push_str("      \"shards\": [\n");
            for (j, shard) in o.shards.iter().enumerate() {
                let comma = if j + 1 == o.shards.len() { "" } else { "," };
                let _ = writeln!(
                    out,
                    "        {{\"shard\": {}, \"platform\": \"{}\", \"requests\": {}, \"batches\": {}, \"busy_ms\": {:.6}, \"utilization\": {:.6}, \"deadline_misses\": {}, \"queue_depth_mean\": {:.6}, \"queue_depth_max\": {}, \"cache_evictions\": {}, \"cache_peak_bytes\": {}, \"crashes\": {}, \"downtime_ms\": {:.6}, \"retries\": {}, \"hedges\": {}, \"failovers\": {}, \"preemptions\": {}}}{comma}",
                    shard.shard,
                    escape_json(shard.platform),
                    shard.requests,
                    shard.batches,
                    shard.busy_ms,
                    shard.utilization,
                    shard.deadline_misses,
                    shard.queue_depth_mean,
                    shard.queue_depth_max,
                    shard.cache.evictions,
                    shard.cache.peak_bytes,
                    shard.fault.crashes,
                    shard.fault.downtime_ms,
                    shard.fault.retries,
                    shard.fault.hedges,
                    shard.fault.failovers,
                    shard.fault.preemptions,
                );
            }
            out.push_str("      ],\n      \"classes\": [\n");
            for (j, class) in o.classes.iter().enumerate() {
                let comma = if j + 1 == o.classes.len() { "" } else { "," };
                let _ = writeln!(
                    out,
                    "        {{\"class\": {}, \"served\": {}, \"shed\": {}, \"failed\": {}, \"preempted\": {}, \"deadline_misses\": {}, \"retries\": {}, \"hedges\": {}, \"failovers\": {}}}{comma}",
                    class.class,
                    class.served,
                    class.shed,
                    class.failed,
                    class.preempted,
                    class.deadline_misses,
                    class.retries,
                    class.hedges,
                    class.failovers,
                );
            }
            out.push_str("      ],\n      \"batch_histogram\": {");
            let hist = o
                .batch_histogram
                .iter()
                .map(|(size, count)| format!("\"{size}\": {count}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&hist);
            let _ = writeln!(out, "}}\n    }}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// One human-readable line per combo for console output.
    #[must_use]
    pub fn summary_lines(&self) -> Vec<String> {
        self.combos
            .iter()
            .map(|combo| {
                let o = &combo.outcome;
                let mean_util = if o.shards.is_empty() {
                    0.0
                } else {
                    o.shards.iter().map(|s| s.utilization).sum::<f64>() / o.shards.len() as f64
                };
                let fault_suffix = if combo.fault == "none" && combo.recovery == "none" {
                    String::new()
                } else {
                    format!(
                        " | fault {} ({}): {} retries / {} hedges / {} shed / {} failed",
                        combo.fault, combo.recovery, o.retries, o.hedges, o.shed, o.failed,
                    )
                };
                format!(
                    "{:<20} x {:<17} [{:<9} cache {:<9}] p50 {:>9.2} ms | p99 {:>10.2} ms | util {:>5.1}% | goodput {:>5.1}% | {} evictions{fault_suffix}",
                    combo.policy,
                    combo.placement,
                    combo.admission,
                    combo.cache_budget,
                    o.p50_ms,
                    o.p99_ms,
                    mean_util * 100.0,
                    o.goodput * 100.0,
                    o.cache.evictions,
                )
            })
            .collect()
    }
}

/// One matrix cell to execute: labels plus everything the engine run
/// needs.
struct ComboSpec {
    policy: Arc<dyn BatchPolicy>,
    placement: PlacementFactory,
    cache_budget: String,
    fault: &'static str,
    recovery: &'static str,
    control: &'static str,
    config: EngineConfig,
}

impl ComboSpec {
    /// This cell's report row for one run's outcome.
    fn report(&self, placement: String, outcome: ServeOutcome) -> ComboReport {
        ComboReport {
            policy: self.policy.label(),
            placement,
            admission: "online",
            cache_budget: self.cache_budget.clone(),
            fault: self.fault,
            recovery: self.recovery,
            control: self.control,
            outcome,
        }
    }
}

impl ServeBenchReport {
    /// The report of `combos` run over `scenario`.
    fn new(scenario: &ServeScenario, combos: Vec<ComboReport>) -> Self {
        ServeBenchReport {
            requests: scenario.trace.len(),
            seed: scenario.seed,
            mean_interarrival_ms: scenario.mean_interarrival_ms,
            slo_ms: scenario.slo_ms,
            bounded_cache_bytes: scenario.bounded_cache_bytes,
            compile_ms_per_layer: scenario.compile_ms_per_layer,
            shard_platforms: scenario.cluster.platforms().to_vec(),
            network_names: scenario
                .cluster
                .networks()
                .iter()
                .map(|n| n.name().to_string())
                .collect(),
            combos,
        }
    }
}

/// The matrix rows, in report order: the online block, the fault
/// block and the control block (see [`run_matrix`]).
fn matrix_specs(scenario: &ServeScenario) -> Vec<ComboSpec> {
    let max_wait_ms = scenario.mean_unit_service_ms;
    let mut specs: Vec<ComboSpec> = Vec::new();
    // Online block: live-view placement, EDF, bounded plan memory.
    let budgets = [
        CacheBudget::Unbounded,
        CacheBudget::Uniform(scenario.bounded_cache_bytes),
    ];
    for budget in budgets {
        let config = EngineConfig::default()
            .with_cache_budget(budget.clone())
            .with_compile_cost(scenario.compile_ms_per_layer);
        for policy in online_policy_matrix(max_wait_ms, scenario.mean_unit_service_ms) {
            for placement in online_placement_matrix() {
                specs.push(ComboSpec {
                    policy: Arc::clone(&policy),
                    placement,
                    cache_budget: budget.label(),
                    fault: "none",
                    recovery: "none",
                    control: "none",
                    config: config.clone(),
                });
            }
        }
    }
    // Fault block: EDF × health-weighted under injected faults, with
    // class-striped shedding and the retry/hedge recovery policies.
    // The schedules draw from their own seeded stream, so the block
    // above is value-identical with or without these rows.
    let horizon_ms = scenario.trace.last().map_or(0.0, |r| r.arrival_ms);
    let shard_count = scenario.cluster.shard_count();
    let retry = RetryPolicy {
        max_attempts: 4,
        backoff_base_ms: scenario.mean_unit_service_ms,
        timeout_ms: 8.0 * scenario.slo_ms,
    };
    let fault_plans: [(&'static str, FaultPlan); 3] = [
        ("none", FaultPlan::none()),
        (
            "crash-heavy",
            FaultPlan::generate(
                scenario.fault_seed,
                scenario.fault_rate,
                shard_count,
                horizon_ms,
                &FaultMix::crash_heavy(),
            ),
        ),
        (
            "degrade-heavy",
            FaultPlan::generate(
                scenario.fault_seed,
                scenario.fault_rate,
                shard_count,
                horizon_ms,
                &FaultMix::degrade_heavy(),
            ),
        ),
    ];
    let edf: Arc<dyn BatchPolicy> = Arc::new(EarliestDeadlineFirst::new(
        scenario.mean_unit_service_ms,
        16,
    ));
    for (fault_label, plan) in fault_plans {
        for (recovery_label, hedge) in [
            ("retry", None),
            (
                "retry+hedge",
                Some(HedgePolicy {
                    delay_ms: scenario.hedge_delay_ms,
                }),
            ),
        ] {
            let mut config = EngineConfig::default()
                .with_compile_cost(scenario.compile_ms_per_layer)
                .with_faults(plan.clone())
                .with_retry(retry)
                .with_shed(ShedPolicy {
                    backlog_watermark: scenario.shed_watermark,
                });
            if let Some(hedge) = hedge {
                config = config.with_hedge(hedge);
            }
            specs.push(ComboSpec {
                policy: Arc::clone(&edf),
                placement: || Box::new(HealthWeighted),
                cache_budget: CacheBudget::Unbounded.label(),
                fault: fault_label,
                recovery: recovery_label,
                control: "none",
                config,
            });
        }
    }
    // Control block: the serve-time control plane at EDF ×
    // health-weighted, fault-free — {static, autoscaled} ×
    // {no-preempt, preempt} × {fixed fabric, traffic-mix reconfig}.
    // Every feature here defaults off in EngineConfig, so the two
    // blocks above never see these code paths.
    let autoscale = AutoscalePolicy {
        period_ms: scenario.scale_period_ms,
        high_watermark: 3.0,
        low_watermark: 0.5,
        hysteresis_ticks: 3,
        min_active: 2,
        energy_headroom: scenario.scale_headroom,
    };
    let control_rows: [(&'static str, bool, bool, bool); 8] = [
        ("static", false, false, false),
        ("static+preempt", false, true, false),
        ("static+mix", false, false, true),
        ("static+preempt+mix", false, true, true),
        ("auto", true, false, false),
        ("auto+preempt", true, true, false),
        ("auto+mix", true, false, true),
        ("auto+preempt+mix", true, true, true),
    ];
    for (control_label, auto, preempt, mix) in control_rows {
        let mut config = EngineConfig::default().with_compile_cost(scenario.compile_ms_per_layer);
        if auto {
            config = config.with_scale(autoscale);
        }
        if preempt {
            config = config.with_preempt(PreemptPolicy::new(scenario.preempt_gap));
        }
        if mix {
            config = config.with_reconfig(ReconfigPolicy::default());
        }
        specs.push(ComboSpec {
            policy: Arc::clone(&edf),
            placement: || Box::new(HealthWeighted),
            cache_budget: CacheBudget::Unbounded.label(),
            fault: "none",
            recovery: "none",
            control: control_label,
            config,
        });
    }
    specs
}

/// Runs the full benchmark matrix over one scenario — the online block
/// under an unbounded and a bounded plan cache, then the fault block
/// ({no-fault, crash-heavy, degrade-heavy} × {retry, retry+hedge}
/// under the EDF policy and health-weighted placement), then the
/// control block ({static, autoscaled} × {no-preempt, preempt} ×
/// {fixed, traffic-mix reconfig}, fault-free, same EDF ×
/// health-weighted cell) — fanning the combos across `threads` sweep
/// workers. Each combo's engine run is single-threaded, so the thread
/// count affects wall-clock only, never a value.
///
/// # Errors
///
/// Propagates the first [`RuntimeError`] (in combo order) from a
/// backend rejecting a batched plan compile mid-run.
pub fn run_matrix(
    scenario: &ServeScenario,
    threads: usize,
) -> Result<ServeBenchReport, RuntimeError> {
    let specs = matrix_specs(scenario);
    let (results, _) = run_ordered(specs.len(), threads, |i| {
        let spec = &specs[i];
        let sim = ServeSim::with_cluster(
            Arc::clone(&scenario.cluster),
            Arc::clone(&spec.policy),
            &scenario.trace,
            spec.config.clone(),
        );
        let mut placement = (spec.placement)();
        let run = sim.try_run(placement.as_mut())?;
        Ok(spec.report(placement.label(), sim.outcome(&run)))
    });
    let combos = results.into_iter().collect::<Result<_, RuntimeError>>()?;
    Ok(ServeBenchReport::new(scenario, combos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_runtime::serve::ShardTally;

    fn tiny_scenario() -> ServeScenario {
        default_scenario(150, 9).expect("default scenario compiles")
    }

    #[test]
    fn matrix_covers_all_blocks_and_reconciles_every_request() {
        let report = run_matrix(&tiny_scenario(), 4).expect("matrix runs");
        // 4 policies x 2 placements x 2 budgets + 3 faults x 2
        // recovery policies + 8 control-plane rows.
        assert_eq!(report.combos.len(), 30);
        assert!(report.combos.iter().all(|c| {
            let o = &c.outcome;
            o.requests + o.rejected + o.shed + o.failed == 150
        }));
        assert!(report.combos.iter().all(|c| c.admission == "online"));
        let fault_rows = report
            .combos
            .iter()
            .filter(|c| c.recovery != "none")
            .count();
        assert_eq!(fault_rows, 6);
        let control_rows = report.combos.iter().filter(|c| c.control != "none").count();
        assert_eq!(control_rows, 8);
        let labels: std::collections::BTreeSet<(String, String, String, String)> = report
            .combos
            .iter()
            .map(|c| {
                (
                    c.policy.clone(),
                    c.placement.clone(),
                    c.cache_budget.clone(),
                    format!("{}-{}-{}", c.fault, c.recovery, c.control),
                )
            })
            .collect();
        assert_eq!(labels.len(), 30, "every combo labelled distinctly");
        // Unbounded rows never evict.
        for combo in report
            .combos
            .iter()
            .filter(|c| c.cache_budget == "unbounded")
        {
            assert_eq!(combo.outcome.cache.evictions, 0);
        }
        // Cache counters balance everywhere.
        for combo in &report.combos {
            let cache = &combo.outcome.cache;
            assert_eq!(cache.hits + cache.misses, cache.lookups);
        }
    }

    /// Records are pure overhead for an outcome: over a ~500-request
    /// trace, every online, fault and control row renders the same
    /// one-combo JSON with records on and off, and the tally rebuilt
    /// from a recorded run's records equals the engine's own tally.
    #[test]
    fn records_never_change_an_outcome_and_rebuild_the_tally() {
        let scenario = default_scenario(500, 0x7A11).expect("default scenario compiles");
        let specs = matrix_specs(&scenario);
        assert_eq!(specs.len(), 30, "online, fault and control rows");
        for spec in &specs {
            let run_row = |config: EngineConfig| {
                let sim = ServeSim::with_cluster(
                    Arc::clone(&scenario.cluster),
                    Arc::clone(&spec.policy),
                    &scenario.trace,
                    config,
                );
                let mut placement = (spec.placement)();
                let run = sim.try_run(placement.as_mut()).expect("row runs");
                let combo = spec.report(placement.label(), sim.outcome(&run));
                (ServeBenchReport::new(&scenario, vec![combo]).to_json(), run)
            };
            let (lean_json, lean) = run_row(spec.config.clone());
            let (full_json, full) = run_row(spec.config.clone().with_records());
            let row = format!(
                "{} {}/{}/{} @{}",
                spec.policy.label(),
                spec.fault,
                spec.recovery,
                spec.control,
                spec.cache_budget
            );
            assert_eq!(lean_json, full_json, "{row}: records changed the outcome");
            for (x, y) in lean.reports.iter().zip(&full.reports) {
                assert!(x.requests.is_empty() && x.batches.is_empty(), "{row}");
                assert_eq!(x.tally, y.tally, "{row}: records changed the tally");
                assert_eq!(
                    ShardTally::from_records(&y.requests, &y.batches),
                    y.tally,
                    "{row}: s{} tally differs from its records",
                    y.shard
                );
            }
        }
    }

    #[test]
    fn thread_fanout_never_changes_the_report() {
        let scenario = tiny_scenario();
        let serial = run_matrix(&scenario, 1).expect("serial matrix runs");
        let parallel = run_matrix(&scenario, 4).expect("parallel matrix runs");
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn json_is_balanced_and_carries_the_matrix() {
        let report = run_matrix(&tiny_scenario(), 2).expect("matrix runs");
        let json = report.to_json();
        for key in [
            "\"config\"",
            "\"combos\"",
            "\"policy\"",
            "\"placement\"",
            "\"admission\"",
            "\"cache_budget\"",
            "\"fault\"",
            "\"recovery\"",
            "\"control\"",
            "\"preemptions\"",
            "\"preempted_requests\"",
            "\"scale_evaluations\"",
            "\"scale_ups\"",
            "\"scale_downs\"",
            "\"reconfigs\"",
            "\"preempted\"",
            "\"p50_ms\"",
            "\"p99_ms\"",
            "\"p999_ms\"",
            "\"deadline_misses\"",
            "\"goodput\"",
            "\"plan_cache\"",
            "\"peak_bytes_bound\"",
            "\"cache_peak_bytes\"",
            "\"queue_depth_mean\"",
            "\"utilization\"",
            "\"batch_histogram\"",
            "\"shed\"",
            "\"retries\"",
            "\"hedges\"",
            "\"failovers\"",
            "\"downtime_ms\"",
            "\"classes\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn cluster_cache_peak_is_labelled_as_a_bound_over_exact_shard_gauges() {
        let report = run_matrix(&tiny_scenario(), 4).expect("matrix runs");
        for combo in &report.combos {
            let o = &combo.outcome;
            // The cluster value is the sum of per-shard peaks (the
            // `absorb` contract) — an upper bound, never rendered as
            // a bare `peak_bytes` gauge.
            let sum: u64 = o.shards.iter().map(|s| s.cache.peak_bytes).sum();
            assert_eq!(
                o.cache.peak_bytes, sum,
                "{}/{}",
                combo.policy, combo.placement
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"peak_bytes_bound\""));
        assert!(
            !json.contains("\"peak_bytes\":"),
            "an unlabelled cluster peak would read as an exact gauge"
        );
        // Per-shard rows carry the exact gauge, and at least one shard
        // in the online block actually caches something.
        assert!(json.contains("\"cache_peak_bytes\""));
        assert!(report.combos.iter().any(|c| c
            .outcome
            .shards
            .iter()
            .any(|s| s.cache.peak_bytes > 0)));
    }

    #[test]
    fn control_rows_surface_control_plane_activity() {
        let report = run_matrix(&tiny_scenario(), 4).expect("matrix runs");
        let control: Vec<_> = report
            .combos
            .iter()
            .filter(|c| c.control != "none")
            .collect();
        assert_eq!(control.len(), 8);
        for combo in &control {
            assert_eq!(combo.fault, "none");
            assert_eq!(combo.recovery, "none");
            let o = &combo.outcome;
            let has = |needle: &str| combo.control.split('+').any(|part| part == needle);
            // A feature that is off leaves its counters at zero.
            if !has("preempt") {
                assert_eq!(o.preemptions, 0, "{}", combo.control);
                assert_eq!(o.preempted_requests, 0, "{}", combo.control);
            }
            if !has("auto") {
                assert_eq!(o.scale_evaluations, 0, "{}", combo.control);
                assert_eq!(o.scale_ups + o.scale_downs, 0, "{}", combo.control);
            }
            if !has("mix") {
                assert_eq!(o.reconfigs, 0, "{}", combo.control);
                assert_eq!(o.reconfig_evaluations, 0, "{}", combo.control);
            }
        }
        // The features that are on actually fire under the default
        // trace: strict SLO classes preempt, and the traffic mix
        // re-pins at least one reconfigurable fabric.
        let preemptions: u64 = control
            .iter()
            .filter(|c| c.control.contains("preempt"))
            .map(|c| c.outcome.preemptions)
            .sum();
        assert!(preemptions > 0, "preemption rows preempt");
        // The autoscaler ticks (actions additionally need sustained
        // watermark breaches, which a well-provisioned fleet may
        // legitimately never produce).
        let scale_ticks: u64 = control
            .iter()
            .filter(|c| c.control.contains("auto"))
            .map(|c| c.outcome.scale_evaluations)
            .sum();
        assert!(scale_ticks > 0, "autoscale rows evaluate their ticks");
        // The mix windows are evaluated (an evaluation that keeps the
        // incumbent pin is still control-plane activity — `reconfigs`
        // counts only the evaluations that changed it, which a short
        // trace may legitimately never do).
        let evaluations: u64 = control
            .iter()
            .filter(|c| c.control.contains("mix"))
            .map(|c| c.outcome.reconfig_evaluations)
            .sum();
        assert!(evaluations > 0, "traffic-mix rows evaluate their windows");
    }

    #[test]
    fn fault_rows_surface_recovery_activity() {
        let report = run_matrix(&tiny_scenario(), 4).expect("matrix runs");
        let crash_rows: Vec<_> = report
            .combos
            .iter()
            .filter(|c| c.fault == "crash-heavy")
            .collect();
        assert_eq!(crash_rows.len(), 2);
        for combo in &crash_rows {
            assert!(
                combo.outcome.downtime_ms > 0.0,
                "crash-heavy rows record downtime"
            );
        }
        let hedged = report
            .combos
            .iter()
            .find(|c| c.fault == "crash-heavy" && c.recovery == "retry+hedge")
            .expect("crash-heavy retry+hedge row exists");
        assert!(hedged.outcome.hedges > 0, "hedging fires under crashes");
        // The no-fault fault-block rows stay fault-free.
        let clean = report
            .combos
            .iter()
            .find(|c| c.fault == "none" && c.recovery == "retry")
            .expect("no-fault retry row exists");
        assert_eq!(clean.outcome.retries, 0);
        assert_eq!(clean.outcome.downtime_ms.to_bits(), 0u64);
    }
}
