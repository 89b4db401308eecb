//! `serve-online` and `serve-chaos`: closed loops of one-combo serving
//! simulations over a 100k-request trace on the default 6-shard cluster.
//!
//! The scenario and the combo rows mirror `sma_bench::serve::scenario`
//! and `sma_bench::serve::run_matrix` (the tests pin both mirrors), with
//! one difference: every set-up pass compiles the cluster over fresh
//! backend instances, so each pass starts from cold GEMM estimates
//! instead of the process-global, already-warm registry.

use crate::stats::Metric;
use crate::{time_estimates, Iteration, Workload};
use sma_bench::serve::{mean_unit_service_ms, ComboReport, ServeBenchReport, ServeScenario};
use sma_bench::stream::fnv1a64;
use sma_models::zoo;
use sma_runtime::backend::{ArrayFlexBackend, FlexSaBackend};
use sma_runtime::serve::{
    percentile_ms, AutoscalePolicy, BatchPolicy, CacheBudget, Deadline, EarliestDeadlineFirst,
    EngineConfig, FaultMix, FaultPlan, HealthWeighted, HedgePolicy, Immediate, LeastBacklog,
    LoadGenerator, Placement, PreemptPolicy, ReconfigPolicy, RetryPolicy, RoundRobin, ServeCluster,
    ServeSim, ShedPolicy, SizeK,
};
use sma_runtime::{
    Backend, CacheStats, Executor, PlanArena, Platform, RuntimeError, SimdBackend, SmaBackend,
    TensorCoreBackend,
};
use sma_tensor::GemmShapeBatch;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Requests in the timed trace.
pub const REQUESTS: usize = 100_000;
/// The recorded seed: the reference digests below were taken at it
/// (it is also `serve_sim`'s default seed, so `BENCH_serve.json` rows
/// can be compared directly).
pub const REF_SEED: u64 = 0xDAC2_0020;
/// Trace length of the reference pass (`BENCH_serve.json`'s length).
pub const REF_REQUESTS: usize = 10_000;
/// Largest batch any combo's policy forms (the probes plan up to it).
const MAX_BATCH: usize = 16;

/// Which block of the serving matrix a workload cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The online block: 4 policies × {round-robin, least-backlog} ×
    /// {unbounded, bounded} plan cache, every fault and control
    /// feature off.
    Online,
    /// The fault block's {crash-heavy, degrade-heavy} × {retry,
    /// retry+hedge} rows and the 7 control rows with a feature on.
    Chaos,
}

/// A factory per placement strategy (placements carry state, so every
/// engine run needs a fresh one).
type PlacementFactory = fn() -> Box<dyn Placement>;

/// One matrix row: labels plus everything the engine run needs.
pub struct Combo {
    policy: Arc<dyn BatchPolicy>,
    placement: PlacementFactory,
    cache_budget: String,
    fault: &'static str,
    recovery: &'static str,
    control: &'static str,
    config: EngineConfig,
}

impl Combo {
    /// Stable row key: `policy x placement @budget fault/recovery/control`.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "{} x {} @{} {}/{}/{}",
            self.policy.label(),
            (self.placement)().label(),
            self.cache_budget,
            self.fault,
            self.recovery,
            self.control
        )
    }
}

/// Distinct backend instances of a cluster.
type Backends = Vec<Arc<dyn Backend>>;

/// One fresh instance of each platform backend the default cluster
/// uses: 3-SMA, 4-TC, SIMD, ArrayFlex and FlexSA.
fn fresh_backends() -> Vec<(Platform, Arc<dyn Backend>)> {
    vec![
        (Platform::Sma3, Arc::new(SmaBackend::iso_area_3sma())),
        (Platform::GpuTensorCore, Arc::new(TensorCoreBackend::new())),
        (Platform::GpuSimd, Arc::new(SimdBackend::new())),
        (Platform::ArrayFlex, Arc::new(ArrayFlexBackend::new())),
        (Platform::FlexSa, Arc::new(FlexSaBackend::new())),
    ]
}

fn executor((platform, backend): &(Platform, Arc<dyn Backend>)) -> Executor {
    Executor::builder(*platform)
        .backend(Arc::clone(backend))
        .build()
}

/// The default cluster over fresh backend instances: two 3-SMA shards
/// (sharing one backend, as the registry would), 4-TC, SIMD, ArrayFlex
/// and FlexSA, hosting AlexNet, VGG-A and GoogLeNet. Returns the
/// distinct backends too, for cache counters.
///
/// # Errors
///
/// Propagates a backend rejecting a hosted network.
pub fn fresh_cluster() -> Result<(Arc<ServeCluster>, Backends), RuntimeError> {
    let backends = fresh_backends();
    let shards = [0, 0, 1, 2, 3, 4].map(|i| executor(&backends[i])).to_vec();
    let networks = vec![zoo::alexnet(), zoo::vgg_a(), zoo::googlenet()];
    let cluster = Arc::new(ServeCluster::try_new(shards, networks)?);
    Ok((cluster, backends.into_iter().map(|(_, b)| b).collect()))
}

/// The scenario `sma_bench::serve::scenario(requests, seed, default)`
/// derives, over an already-compiled cluster.
#[must_use]
pub fn scenario_over(cluster: Arc<ServeCluster>, requests: usize, seed: u64) -> ServeScenario {
    let mean_service = mean_unit_service_ms(&cluster);
    let mean_interarrival_ms = mean_service / cluster.shard_count() as f64 * 1.1;
    let slo_ms = 2.5 * mean_service;
    let max_plan_bytes = cluster
        .unit_plan_bytes()
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap_or(0);
    let trace = LoadGenerator::new(seed, mean_interarrival_ms)
        .with_slo(slo_ms)
        .with_classes(3)
        .trace(requests, cluster.networks().len());
    let unit_cells: Vec<f64> = cluster
        .unit_service_ms()
        .iter()
        .flatten()
        .copied()
        .collect();
    ServeScenario {
        shed_watermark: 2 * cluster.shard_count(),
        scale_period_ms: 8.0 * mean_interarrival_ms,
        scale_headroom: 0.25,
        preempt_gap: 1,
        trace,
        seed,
        mean_interarrival_ms,
        mean_unit_service_ms: mean_service,
        slo_ms,
        bounded_cache_bytes: max_plan_bytes + max_plan_bytes / 4,
        compile_ms_per_layer: 0.05,
        fault_seed: seed ^ 0xFAA7_5EED,
        fault_rate: 2.0,
        hedge_delay_ms: percentile_ms(&unit_cells, 99.0),
        cluster,
    }
}

/// The rows of one block, in `run_matrix` order.
#[must_use]
pub fn combos(mix: Mix, scenario: &ServeScenario) -> Vec<Combo> {
    let mean_service = scenario.mean_unit_service_ms;
    let edf: Arc<dyn BatchPolicy> = Arc::new(EarliestDeadlineFirst::new(mean_service, 16));
    let mut rows = Vec::new();
    match mix {
        Mix::Online => {
            let policies: [Arc<dyn BatchPolicy>; 4] = [
                Arc::new(Immediate),
                Arc::new(SizeK::new(8)),
                Arc::new(Deadline::new(mean_service, 16)),
                Arc::clone(&edf),
            ];
            let placements: [PlacementFactory; 2] = [
                || Box::new(RoundRobin::default()),
                || Box::new(LeastBacklog),
            ];
            for budget in [
                CacheBudget::Unbounded,
                CacheBudget::Uniform(scenario.bounded_cache_bytes),
            ] {
                let config = EngineConfig::default()
                    .with_cache_budget(budget.clone())
                    .with_compile_cost(scenario.compile_ms_per_layer);
                for policy in &policies {
                    for &placement in &placements {
                        rows.push(Combo {
                            policy: Arc::clone(policy),
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
        }
        Mix::Chaos => {
            let horizon_ms = scenario.trace.last().map_or(0.0, |r| r.arrival_ms);
            let retry = RetryPolicy {
                max_attempts: 4,
                backoff_base_ms: mean_service,
                timeout_ms: 8.0 * scenario.slo_ms,
            };
            let mixes: [(&'static str, FaultMix); 2] = [
                ("crash-heavy", FaultMix::crash_heavy()),
                ("degrade-heavy", FaultMix::degrade_heavy()),
            ];
            for (fault, fault_mix) in mixes {
                let plan = FaultPlan::generate(
                    scenario.fault_seed,
                    scenario.fault_rate,
                    scenario.cluster.shard_count(),
                    horizon_ms,
                    &fault_mix,
                );
                for (recovery, hedge) in [("retry", false), ("retry+hedge", true)] {
                    let mut config = EngineConfig::default()
                        .with_compile_cost(scenario.compile_ms_per_layer)
                        .with_faults(plan.clone())
                        .with_retry(retry)
                        .with_shed(ShedPolicy {
                            backlog_watermark: scenario.shed_watermark,
                        });
                    if hedge {
                        config = config.with_hedge(HedgePolicy {
                            delay_ms: scenario.hedge_delay_ms,
                        });
                    }
                    rows.push(Combo {
                        policy: Arc::clone(&edf),
                        placement: || Box::new(HealthWeighted),
                        cache_budget: CacheBudget::Unbounded.label(),
                        fault,
                        recovery,
                        control: "none",
                        config,
                    });
                }
            }
            let autoscale = AutoscalePolicy {
                period_ms: scenario.scale_period_ms,
                high_watermark: 3.0,
                low_watermark: 0.5,
                hysteresis_ticks: 3,
                min_active: 2,
                energy_headroom: scenario.scale_headroom,
            };
            let controls: [(&'static str, bool, bool, bool); 7] = [
                ("static+preempt", false, true, false),
                ("static+mix", false, false, true),
                ("static+preempt+mix", false, true, true),
                ("auto", true, false, false),
                ("auto+preempt", true, true, false),
                ("auto+mix", true, false, true),
                ("auto+preempt+mix", true, true, true),
            ];
            for (control, auto, preempt, mix) in controls {
                let mut config =
                    EngineConfig::default().with_compile_cost(scenario.compile_ms_per_layer);
                if auto {
                    config = config.with_scale(autoscale);
                }
                if preempt {
                    config = config.with_preempt(PreemptPolicy::new(scenario.preempt_gap));
                }
                if mix {
                    config = config.with_reconfig(ReconfigPolicy::default());
                }
                rows.push(Combo {
                    policy: Arc::clone(&edf),
                    placement: || Box::new(HealthWeighted),
                    cache_budget: CacheBudget::Unbounded.label(),
                    fault: "none",
                    recovery: "none",
                    control,
                    config,
                });
            }
        }
    }
    rows
}

/// What one checked engine run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Requests served, rejected, shed and failed.
    pub partition: [usize; 4],
    /// Plan-cache hits, misses and lookups.
    pub cache: [u64; 3],
    /// FNV-1a 64 of the one-combo `ServeBenchReport` JSON.
    pub digest: u64,
}

/// The output check of one run: the outcome partitions the trace, the
/// plan-cache counters balance, the digest repeats the combo's first
/// digest in this process, and matches the stored reference if there
/// is one.
///
/// # Errors
///
/// A message naming the first check that failed.
pub fn check_run(
    out: &RunOutput,
    trace_len: usize,
    first: Option<u64>,
    reference: Option<u64>,
) -> Result<(), String> {
    let total: usize = out.partition.iter().sum();
    if total != trace_len {
        return Err(format!(
            "served+rejected+shed+failed = {total}, trace has {trace_len}"
        ));
    }
    let [hits, misses, lookups] = out.cache;
    if hits + misses != lookups {
        return Err(format!(
            "plan cache {hits} hits + {misses} misses != {lookups} lookups"
        ));
    }
    if let Some(first) = first.filter(|&d| d != out.digest) {
        return Err(format!(
            "digest {:016x} differs from this combo's first run {first:016x}",
            out.digest
        ));
    }
    if let Some(reference) = reference.filter(|&d| d != out.digest) {
        return Err(format!(
            "digest {:016x} differs from the reference {reference:016x}",
            out.digest
        ));
    }
    Ok(())
}

/// Span and counter totals of traced iterations.
#[derive(Debug, Default)]
pub struct ServeTrace {
    iterations: u64,
    busy_ns: f64,
    requests: f64,
    admit_ns: f64,
    engine_ns: f64,
    aggregate_ns: f64,
    report_ns: f64,
    batches: f64,
    served: f64,
    plan_hits: f64,
    plan_lookups: f64,
    evictions: f64,
    retries: f64,
    hedges: f64,
    preemptions: f64,
    scale_evaluations: f64,
    reconfig_evaluations: f64,
    compiles: f64,
    layers_compiled: f64,
    gemm: CacheStats,
}

/// A serving workload after set-up.
pub struct ServeWorkload {
    mix: Mix,
    scenario: ServeScenario,
    combos: Vec<Combo>,
    backends: Backends,
    first_digest: Vec<Option<u64>>,
    /// GEMM shapes estimated cold by set-up: the cluster build and the
    /// warm-up cycle.
    setup_cold_shapes: Option<u64>,
}

/// Summed GEMM-cache counters over distinct backends.
fn gemm_stats(backends: &[Arc<dyn Backend>]) -> CacheStats {
    backends.iter().fold(CacheStats::default(), |acc, b| {
        let s = b.gemm_cache_stats();
        CacheStats {
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
        }
    })
}

impl ServeWorkload {
    /// Builds the cluster over fresh backends, the trace and the rows.
    ///
    /// # Errors
    ///
    /// A backend rejecting a hosted network.
    pub fn new(mix: Mix, requests: usize, seed: u64) -> Result<Self, String> {
        let (cluster, backends) = fresh_cluster().map_err(|e| e.to_string())?;
        let scenario = scenario_over(cluster, requests, seed);
        let combos = combos(mix, &scenario);
        Ok(ServeWorkload {
            mix,
            first_digest: vec![None; combos.len()],
            scenario,
            combos,
            backends,
            setup_cold_shapes: None,
        })
    }

    /// Each row's key and digest, from one run each.
    ///
    /// # Errors
    ///
    /// A row failing to run.
    pub fn digests(&self) -> Result<Vec<(String, u64)>, String> {
        (0..self.combos.len())
            .map(|k| Ok((self.combos[k].key(), self.run(k, None)?.1.digest)))
            .collect()
    }

    /// Runs row `k` once: admit, engine, aggregate, render.
    fn run(
        &self,
        k: usize,
        trace: Option<&mut ServeTrace>,
    ) -> Result<(f64, RunOutput, String), String> {
        let combo = &self.combos[k];
        let scenario = &self.scenario;
        let gemm_before = gemm_stats(&self.backends);
        let t0 = Instant::now();
        let sim = ServeSim::with_cluster(
            Arc::clone(&scenario.cluster),
            Arc::clone(&combo.policy),
            &scenario.trace,
            combo.config.clone(),
        );
        let t1 = Instant::now();
        let mut placement = (combo.placement)();
        let run = sim.try_run(placement.as_mut()).map_err(|e| e.to_string())?;
        let compiled: Vec<(usize, usize)> = match trace {
            Some(_) => run
                .reports
                .iter()
                .flat_map(|r| r.plans_compiled.clone())
                .collect(),
            None => Vec::new(),
        };
        let t2 = Instant::now();
        let outcome = sim.outcome(&run);
        // Freeing the run's records is part of what a caller pays.
        drop((run, sim));
        let t3 = Instant::now();
        let report = ServeBenchReport {
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
            combos: vec![ComboReport {
                policy: combo.policy.label(),
                placement: placement.label(),
                admission: "online",
                cache_budget: combo.cache_budget.clone(),
                fault: combo.fault,
                recovery: combo.recovery,
                control: combo.control,
                outcome,
            }],
        };
        let json = report.to_json();
        let t4 = Instant::now();
        let o = &report.combos[0].outcome;
        let out = RunOutput {
            partition: [o.requests, o.rejected, o.shed, o.failed],
            cache: [o.cache.hits, o.cache.misses, o.cache.lookups],
            digest: fnv1a64(json.as_bytes()),
        };
        if let Some(t) = trace {
            let layers = |net: usize| scenario.cluster.networks()[net].layers().len() as f64;
            t.iterations += 1;
            t.busy_ns += (t4 - t0).as_nanos() as f64;
            t.requests += scenario.trace.len() as f64;
            t.admit_ns += (t1 - t0).as_nanos() as f64;
            t.engine_ns += (t2 - t1).as_nanos() as f64;
            t.aggregate_ns += (t3 - t2).as_nanos() as f64;
            t.report_ns += (t4 - t3).as_nanos() as f64;
            t.batches += o.shards.iter().map(|s| s.batches).sum::<usize>() as f64;
            t.served += o.requests as f64;
            t.plan_hits += o.cache.hits as f64;
            t.plan_lookups += o.cache.lookups as f64;
            t.evictions += o.cache.evictions as f64;
            t.retries += o.retries as f64;
            t.hedges += o.hedges as f64;
            t.preemptions += o.preemptions as f64;
            t.scale_evaluations += o.scale_evaluations as f64;
            t.reconfig_evaluations += o.reconfig_evaluations as f64;
            t.compiles += compiled.len() as f64;
            t.layers_compiled += compiled.iter().map(|&(net, _)| layers(net)).sum::<f64>();
            let delta = gemm_stats(&self.backends).since(gemm_before);
            t.gemm.hits += delta.hits;
            t.gemm.misses += delta.misses;
        }
        Ok(((t4 - t0).as_secs_f64() * 1e3, out, json))
    }
}

/// Layer probes on the workload's own platforms and networks, timed
/// call by call.
#[derive(Debug, Default)]
struct Probe {
    cold_ns_per_shape: f64,
    hit_ns: f64,
    shape_stats_ns_per_shape: f64,
    family_ns_per_layer: f64,
    derive_ns_per_layer: f64,
    compile_ns_per_layer: f64,
    replay_ns_per_layer: f64,
}

impl Probe {
    fn measure(cluster: &ServeCluster) -> Probe {
        let networks = cluster.networks();
        let batches = 1..=MAX_BATCH;
        // Cold and warm estimates: every GEMM shape the rows can ask of
        // each platform, on a fresh backend.
        let (mut cold_ns, mut hit_ns, mut shapes_n) = (0.0, 0.0, 0);
        let (mut stats_ns, mut stats_shapes) = (0.0, 0);
        for fresh in fresh_backends() {
            let exec = executor(&fresh);
            let mut shapes = Vec::new();
            for net in networks {
                let family = exec.plan_family(net);
                for batch in batches.clone() {
                    let batch_shapes = family.gemm_shapes(batch);
                    let t = Instant::now();
                    let stats = GemmShapeBatch::from_shapes(&batch_shapes);
                    black_box(stats.arithmetic_intensity(2));
                    stats_ns += t.elapsed().as_nanos() as f64;
                    stats_shapes += batch_shapes.len();
                    shapes.extend(batch_shapes);
                }
            }
            let (cold, warm, n) = time_estimates(fresh.1.as_ref(), shapes);
            cold_ns += cold;
            hit_ns += warm;
            shapes_n += n;
        }
        // Plans on the workload's own (warm) shard executors.
        let mut arena = PlanArena::new();
        let mut plans = Vec::new();
        let (mut family_ns, mut family_layers) = (0.0, 0usize);
        let (mut derive_ns, mut compile_ns, mut compiled_layers) = (0.0, 0.0, 0usize);
        for shard in 0..cluster.shard_count() {
            let exec = cluster.shard_executor(shard);
            for net in networks {
                let t = Instant::now();
                let family = exec.plan_family(net);
                family_ns += t.elapsed().as_nanos() as f64;
                family_layers += net.layers().len();
                for batch in batches.clone() {
                    let t = Instant::now();
                    let plan = family.try_plan_into(batch, &mut arena);
                    derive_ns += t.elapsed().as_nanos() as f64;
                    let t = Instant::now();
                    let _ = black_box(exec.with_batch(batch).try_plan(net));
                    compile_ns += t.elapsed().as_nanos() as f64;
                    compiled_layers += net.layers().len();
                    plans.extend(plan.ok());
                }
            }
        }
        let t = Instant::now();
        for plan in &plans {
            black_box(arena.replay(plan));
        }
        let replay_ns = t.elapsed().as_nanos() as f64;
        let steps = arena.len().max(1) as f64;
        Probe {
            cold_ns_per_shape: cold_ns / shapes_n.max(1) as f64,
            hit_ns: hit_ns / shapes_n.max(1) as f64,
            shape_stats_ns_per_shape: stats_ns / stats_shapes.max(1) as f64,
            family_ns_per_layer: family_ns / family_layers.max(1) as f64,
            derive_ns_per_layer: derive_ns / steps,
            compile_ns_per_layer: compile_ns / compiled_layers.max(1) as f64,
            replay_ns_per_layer: replay_ns / steps,
        }
    }
}

impl Workload for ServeWorkload {
    type Trace = ServeTrace;

    fn cycle_len(&self) -> usize {
        self.combos.len()
    }

    /// Runs row `k` and checks it against the row's first digest.
    fn iterate(&mut self, k: usize, trace: Option<&mut ServeTrace>) -> Iteration {
        let items = self.scenario.trace.len() as u64;
        match self.run(k, trace) {
            Ok((ms, out, _)) => {
                let check = check_run(&out, self.scenario.trace.len(), self.first_digest[k], None);
                self.first_digest[k].get_or_insert(out.digest);
                if k + 1 == self.combos.len() && self.setup_cold_shapes.is_none() {
                    self.setup_cold_shapes = Some(gemm_stats(&self.backends).misses);
                }
                Iteration { ms, items, check }
            }
            Err(e) => Iteration {
                ms: 0.0,
                items,
                check: Err(e),
            },
        }
    }

    fn reference_check(&mut self) -> Vec<Result<(), String>> {
        let scenario = scenario_over(Arc::clone(&self.scenario.cluster), REF_REQUESTS, REF_SEED);
        let reference = ServeWorkload {
            mix: self.mix,
            combos: combos(self.mix, &scenario),
            first_digest: Vec::new(),
            scenario,
            backends: Vec::new(),
            setup_cold_shapes: None,
        };
        (0..reference.combos.len())
            .map(|k| {
                let key = reference.combos[k].key();
                let stored = crate::reference::digest(&key)
                    .ok_or_else(|| format!("no reference digest for {key}"))?;
                let (_, out, _) = reference.run(k, None)?;
                check_run(&out, REF_REQUESTS, None, Some(stored)).map_err(|e| format!("{key}: {e}"))
            })
            .collect()
    }

    fn layer_metrics(&mut self, trace: &ServeTrace) -> Vec<Metric> {
        let probe = Probe::measure(&self.scenario.cluster);
        let n = trace.iterations.max(1) as f64;
        let per_iter = |total: f64| total / n;
        let requests = trace.requests.max(1.0);
        let estimate_ns = probe.cold_ns_per_shape * trace.gemm.misses as f64;
        let gemm_ns = probe.hit_ns * trace.gemm.hits as f64;
        let plan_ns =
            (probe.compile_ns_per_layer * trace.layers_compiled - estimate_ns - gemm_ns).max(0.0);
        let serve_ns = (trace.admit_ns + trace.engine_ns + trace.aggregate_ns
            - plan_ns
            - estimate_ns
            - gemm_ns)
            .max(0.0);
        let busy = trace.busy_ns.max(1.0);
        let gemm_lookups = (trace.gemm.hits + trace.gemm.misses) as f64;
        vec![
            Metric::new("estimate.cold_ns_per_shape", probe.cold_ns_per_shape, "ns"),
            Metric::new(
                "estimate.cold_shapes",
                self.setup_cold_shapes.unwrap_or(0) as f64,
                "count",
            ),
            Metric::new(
                "estimate.shape_stats_ns_per_shape",
                probe.shape_stats_ns_per_shape,
                "ns",
            ),
            Metric::new("estimate.time_share", estimate_ns / busy, "ratio"),
            Metric::new("gemm_cache.hit_ns", probe.hit_ns, "ns"),
            Metric::new("gemm_cache.lookups", per_iter(gemm_lookups), "count"),
            Metric::new(
                "gemm_cache.hit_rate",
                trace.gemm.hits as f64 / gemm_lookups.max(1.0),
                "ratio",
            ),
            Metric::new("gemm_cache.time_share", gemm_ns / busy, "ratio"),
            Metric::new("plan.family_ns_per_layer", probe.family_ns_per_layer, "ns"),
            Metric::new("plan.derive_ns_per_layer", probe.derive_ns_per_layer, "ns"),
            Metric::new(
                "plan.compile_ns_per_layer",
                probe.compile_ns_per_layer,
                "ns",
            ),
            Metric::new("plan.replay_ns_per_layer", probe.replay_ns_per_layer, "ns"),
            Metric::new("plan.compiles", per_iter(trace.compiles), "count"),
            Metric::new("plan.time_share", plan_ns / busy, "ratio"),
            Metric::new("harness.report_json_ns", per_iter(trace.report_ns), "ns"),
            Metric::new("harness.time_share", trace.report_ns / busy, "ratio"),
            Metric::new(
                "serve.admit_ns_per_request",
                trace.admit_ns / requests,
                "ns",
            ),
            Metric::new(
                "serve.engine_ns_per_request",
                trace.engine_ns / requests,
                "ns",
            ),
            Metric::new(
                "serve.aggregate_ns_per_request",
                trace.aggregate_ns / requests,
                "ns",
            ),
            Metric::new("serve.batches", per_iter(trace.batches), "count"),
            Metric::new("serve.served_share", trace.served / requests, "ratio"),
            Metric::new(
                "serve.plan_cache_hit_rate",
                trace.plan_hits / trace.plan_lookups.max(1.0),
                "ratio",
            ),
            Metric::new(
                "serve.plan_cache_evictions",
                per_iter(trace.evictions),
                "count",
            ),
            Metric::new("serve.retries", per_iter(trace.retries), "count"),
            Metric::new("serve.hedges", per_iter(trace.hedges), "count"),
            Metric::new("serve.preemptions", per_iter(trace.preemptions), "count"),
            Metric::new(
                "serve.scale_evaluations",
                per_iter(trace.scale_evaluations),
                "count",
            ),
            Metric::new(
                "serve.reconfig_evaluations",
                per_iter(trace.reconfig_evaluations),
                "count",
            ),
            Metric::new("serve.time_share", serve_ns / busy, "ratio"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_bench::serve::{run_matrix, scenario, ScenarioOptions};

    fn output() -> RunOutput {
        RunOutput {
            partition: [90, 4, 3, 3],
            cache: [7, 2, 9],
            digest: 0xfeed,
        }
    }

    #[test]
    fn a_consistent_run_passes() {
        assert_eq!(
            check_run(&output(), 100, Some(0xfeed), Some(0xfeed)),
            Ok(())
        );
        assert_eq!(check_run(&output(), 100, None, None), Ok(()));
    }

    #[test]
    fn perturbed_outcomes_and_digests_fail() {
        let mut lost = output();
        lost.partition[0] -= 1;
        assert!(check_run(&lost, 100, None, None).is_err());
        let mut unbalanced = output();
        unbalanced.cache[0] += 1;
        assert!(check_run(&unbalanced, 100, None, None).is_err());
        assert!(check_run(&output(), 100, Some(0xbeef), None).is_err());
        assert!(check_run(&output(), 100, None, Some(0xbeef)).is_err());
    }

    #[test]
    fn fresh_scenario_mirrors_the_library_scenario() {
        let library = scenario(400, 17, ScenarioOptions::default()).expect("compiles");
        let (cluster, _) = fresh_cluster().expect("compiles");
        let mirror = scenario_over(cluster, 400, 17);
        // The clusters hold backends with their caches; compare what
        // the engine reads from them, and every derived field.
        assert_eq!(library.cluster.platforms(), mirror.cluster.platforms());
        assert_eq!(
            format!("{:?}", library.cluster.unit_service_ms()),
            format!("{:?}", mirror.cluster.unit_service_ms())
        );
        assert_eq!(
            library.cluster.unit_plan_bytes(),
            mirror.cluster.unit_plan_bytes()
        );
        let fields = |s: &ServeScenario| {
            format!(
                "{:?} {:?}",
                (
                    &s.trace,
                    s.seed,
                    s.mean_interarrival_ms,
                    s.mean_unit_service_ms,
                    s.slo_ms,
                    s.bounded_cache_bytes,
                    s.compile_ms_per_layer,
                ),
                (
                    s.fault_seed,
                    s.fault_rate,
                    s.hedge_delay_ms,
                    s.shed_watermark,
                    s.scale_period_ms,
                    s.scale_headroom,
                    s.preempt_gap,
                )
            )
        };
        assert_eq!(fields(&library), fields(&mirror));
    }

    #[test]
    fn rows_mirror_the_library_matrix() {
        let library = run_matrix(
            &scenario(300, 5, ScenarioOptions::default()).expect("compiles"),
            1,
        )
        .expect("matrix runs");
        // The legacy block repeats some labels; the rows mirror the
        // online admission blocks only.
        let online: Vec<_> = library
            .combos
            .iter()
            .filter(|c| c.admission == "online")
            .collect();
        let keys: Vec<String> = online
            .iter()
            .map(|c| {
                format!(
                    "{} x {} @{} {}/{}/{}",
                    c.policy, c.placement, c.cache_budget, c.fault, c.recovery, c.control
                )
            })
            .collect();
        for mix in [Mix::Online, Mix::Chaos] {
            let mut workload = ServeWorkload::new(mix, 300, 5).expect("compiles");
            assert_eq!(
                workload.cycle_len(),
                if mix == Mix::Online { 16 } else { 11 }
            );
            for k in 0..workload.cycle_len() {
                let key = workload.combos[k].key();
                let row = keys
                    .iter()
                    .position(|c| *c == key)
                    .expect("row is in the matrix");
                let (_, out, _) = workload.run(k, None).expect("runs");
                let o = &online[row].outcome;
                assert_eq!(
                    out.partition,
                    [o.requests, o.rejected, o.shed, o.failed],
                    "{key}"
                );
                assert_eq!(
                    out.cache,
                    [o.cache.hits, o.cache.misses, o.cache.lookups],
                    "{key}"
                );
                assert!(workload.iterate(k, None).check.is_ok(), "{key}");
            }
        }
    }

    #[test]
    fn reference_rows_match_the_committed_serve_benchmark() {
        let committed = include_str!("../../BENCH_serve.json");
        for mix in [Mix::Online, Mix::Chaos] {
            let workload = ServeWorkload::new(mix, REF_REQUESTS, REF_SEED).expect("compiles");
            for k in 0..workload.cycle_len() {
                let (_, _, json) = workload.run(k, None).expect("runs");
                let start = json.find("    {\n").expect("one combo");
                let end = json.rfind("\n  ]").expect("combos close");
                let row = &json[start..end];
                assert!(
                    committed.contains(row),
                    "{} differs",
                    workload.combos[k].key()
                );
            }
        }
    }

    #[test]
    fn stored_references_hold() {
        for mix in [Mix::Online, Mix::Chaos] {
            let mut workload = ServeWorkload::new(mix, 50, 1).expect("compiles");
            for result in workload.reference_check() {
                assert_eq!(result, Ok(()));
            }
        }
    }
}
