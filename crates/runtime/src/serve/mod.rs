//! Event-driven multi-shard serving over compiled [`NetworkPlan`]s.
//!
//! The compile-once layer
//! ([`Executor::try_plan`](crate::Executor::try_plan) →
//! [`NetworkPlan::run`]) gives the runtime a lock-free replay
//! primitive; this module builds the distribution layer above it: N
//! shards, each an [`Executor`] holding pre-compiled plans for the
//! networks it hosts, fed from an open-loop request trace through a
//! pluggable [`BatchPolicy`] and [`Placement`] strategy.
//!
//! The control flow is a **discrete-event simulation**: one
//! deterministic event queue carries arrival, batch-close and
//! service-complete events, totally ordered by `(time, class,
//! sequence)`. `Placement` and `BatchPolicy` are online decision
//! points invoked at event time with a [`ClusterView`] of the live
//! cluster — per-shard backlog, in-flight batches and plan-cache
//! residency. The wall clock is never consulted, so a serve run is a
//! pure function of (trace, cluster, policy, placement, config):
//! byte-identical across repeat runs and across any worker-thread
//! count.
//!
//! Every run keeps a [`ShardTally`] per shard — latencies in
//! completion order, batch sizes, per-class served and missed counts —
//! which is all [`aggregate`] reads. The full per-request
//! [`ServedRequest`] and per-batch [`BatchRecord`] records are opt-in
//! ([`EngineConfig::with_records`]); the live twin and [`replay`]
//! always keep them.
//!
//! On top of the engine sit:
//!
//! * **SLO accounting**: the [`LoadGenerator`] stamps per-request
//!   deadlines, [`EarliestDeadlineFirst`] schedules by them, and
//!   [`ServeOutcome`] reports deadline misses and goodput for every
//!   policy.
//! * **Bounded plan memory**: each shard's plan cache has a byte
//!   budget ([`CacheBudget`]) with LRU eviction, compile-on-miss
//!   is charged as simulated latency, and the admission controller
//!   re-places or rejects requests whose plan can never fit.
//! * **Fault tolerance**: a seeded [`FaultPlan`] injects crashes,
//!   degrade windows, compile stalls and transient compile failures
//!   as first-class events; [`RetryPolicy`], [`HedgePolicy`] and
//!   [`ShedPolicy`] govern recovery, and the outcome reports sheds,
//!   retries, hedges, failovers and downtime per shard and per SLO
//!   class (see `docs/FAULT_TOLERANCE.md`). An empty plan — the
//!   default — leaves the engine byte-identical to the fault-free
//!   path.
//! * **A threaded live twin** ([`LiveServer`]): the same cluster,
//!   policy and placement run as real threads fed over MPSC queues,
//!   paced onto wall-clock time; every run records its realized
//!   arrival trace, and [`replay`] + [`discrete_outcomes`] check the
//!   live run against the discrete-event engine as an oracle (see
//!   `docs/LIVE_SERVING.md`).
//!
//! ```
//! use sma_models::zoo;
//! use sma_runtime::serve::{
//!     Deadline, EngineConfig, LoadGenerator, RoundRobin, ServeSim,
//! };
//! use sma_runtime::{Executor, Platform};
//! use std::sync::Arc;
//!
//! let shards = vec![
//!     Executor::new(Platform::Sma3),
//!     Executor::new(Platform::GpuTensorCore),
//! ];
//! let networks = vec![zoo::alexnet(), zoo::vgg_a()];
//! let trace = LoadGenerator::new(7, 4.0)
//!     .with_slo(40.0)
//!     .trace(200, networks.len());
//! let sim = ServeSim::try_new(
//!     shards,
//!     networks,
//!     Arc::new(Deadline::new(8.0, 16)),
//!     &trace,
//!     EngineConfig::default(),
//! )
//! .unwrap();
//! let run = sim.try_run(&mut RoundRobin::default()).unwrap();
//! let outcome = sim.outcome(&run);
//! assert_eq!(outcome.requests, 200);
//! assert!(outcome.p99_ms >= outcome.p50_ms);
//! assert!(outcome.goodput <= 1.0);
//! ```

mod engine;
mod fault;
mod live;
mod load;
mod metrics;
mod oracle;
mod placement;
mod policy;
mod scale;
mod shard;
mod slo;
mod transport;

pub use engine::{CacheBudget, EngineConfig, ServeRun};
pub use fault::{
    ClassFaultStats, FaultEvent, FaultKind, FaultMix, FaultPlan, HedgePolicy, RetryPolicy,
    ShardFaultStats, ShedPolicy,
};
pub use live::{LiveConfig, LiveError, LiveMode, LiveReport, LiveServer};
pub use load::{LoadGenerator, LoadShape, Request};
pub use metrics::{
    aggregate, percentile_ms, ClassSummary, PlanCacheStats, ServeOutcome, ShardSummary,
};
pub use oracle::{diff_outcomes, discrete_outcomes, replay, DiscreteOutcomes};
pub use placement::{
    ClusterView, HealthWeighted, LeastBacklog, Placement, PlatformAffinity, RoundRobin,
};
pub use policy::{BatchPolicy, Deadline, Immediate, PolicyDecision, SizeK};
pub use scale::{AutoscalePolicy, ReconfigPolicy, ReconfigStats, ScaleStats};
pub use slo::{EarliestDeadlineFirst, PreemptPolicy};
pub use transport::TransportModel;

use crate::backend::RuntimeError;
use crate::executor::Executor;
use crate::plan::NetworkPlan;
use sma_models::Network;
use std::sync::Arc;

/// One served request: when it arrived, started and finished.
///
/// Narrowed like [`Request`] (48 bytes), since a run with records on
/// keeps one per served request.
#[derive(Debug, Clone, Copy)]
pub struct ServedRequest {
    /// Trace identity.
    pub id: u32,
    /// Index into the simulation's network table.
    pub network: u16,
    /// Simulated arrival, ms.
    pub arrival_ms: f64,
    /// Absolute SLO deadline, ms (`f64::INFINITY` without an SLO).
    pub deadline_ms: f64,
    /// SLO class (0 = highest priority; class-free traces are all 0).
    pub class: u8,
    /// Simulated instant its batch started (compile included), ms.
    pub start_ms: f64,
    /// Simulated instant its batch completed, ms.
    pub completion_ms: f64,
    /// Size of the batch that carried it.
    pub batch_size: u32,
}

const _: () = assert!(std::mem::size_of::<ServedRequest>() == 48);

impl ServedRequest {
    /// End-to-end latency: queueing plus batched execution.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.completion_ms - self.arrival_ms
    }
}

/// One executed batch: which plan replayed, when, and for how long.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    /// Index into the simulation's network table.
    pub network: usize,
    /// Requests in the batch (the plan's batch dimension).
    pub size: usize,
    /// Simulated launch instant, ms.
    pub start_ms: f64,
    /// `NetworkPlan::run().total_ms` of the batched plan.
    pub service_ms: f64,
    /// Simulated plan-compile charge billed before execution (0 on a
    /// plan-cache hit or under free compiles).
    pub compile_ms: f64,
}

const _: () = assert!(std::mem::size_of::<BatchRecord>() == 40);

/// Latencies one [`ShardTally`] chunk holds (32 KiB of `f64`).
pub(crate) const LATENCY_CHUNK: usize = 4096;

/// The always-on summary of one shard's served work: everything
/// [`aggregate`] folds, kept whether or not per-request records are on
/// ([`EngineConfig::with_records`]). It costs 8 bytes per served
/// request plus a few counters, against 48 + 40/batch for the records:
/// latencies fill fixed chunks of 4,096 in completion order, so at most
/// one chunk is partly filled and growth never copies a latency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardTally {
    /// End-to-end latency ([`ServedRequest::latency_ms`]) of each
    /// served request, ms, in completion order: full chunks of
    /// [`LATENCY_CHUNK`] values, the last one possibly partial.
    latency_chunks: Vec<Vec<f64>>,
    /// `batch_sizes[k]`: completed batches of `k` requests.
    batch_sizes: Vec<u64>,
    /// `class_served[c]`: served requests of SLO class `c`.
    class_served: Vec<u64>,
    /// `class_misses[c]`: served requests of SLO class `c` that
    /// finished after their deadline (same length as `class_served`).
    class_misses: Vec<u64>,
}

impl ShardTally {
    /// Rebuilds the tally a run with these records kept — the engine
    /// tallies completions exactly this way, record or not.
    #[must_use]
    pub fn from_records(requests: &[ServedRequest], batches: &[BatchRecord]) -> Self {
        let mut tally = ShardTally::default();
        for batch in batches {
            tally.note_batch(batch.size);
        }
        for request in requests {
            tally.note_served(request);
        }
        tally
    }

    /// Counts one completed batch of `size` requests.
    pub(crate) fn note_batch(&mut self, size: usize) {
        if self.batch_sizes.len() <= size {
            self.batch_sizes.resize(size + 1, 0);
        }
        self.batch_sizes[size] += 1;
    }

    /// Counts one served request.
    pub(crate) fn note_served(&mut self, request: &ServedRequest) {
        let latency_ms = request.latency_ms();
        match self.latency_chunks.last_mut() {
            Some(chunk) if chunk.len() < LATENCY_CHUNK => chunk.push(latency_ms),
            _ => {
                let mut chunk = Vec::with_capacity(LATENCY_CHUNK);
                chunk.push(latency_ms);
                self.latency_chunks.push(chunk);
            }
        }
        let class = usize::from(request.class);
        if self.class_served.len() <= class {
            self.class_served.resize(class + 1, 0);
            self.class_misses.resize(class + 1, 0);
        }
        self.class_served[class] += 1;
        if request.completion_ms > request.deadline_ms {
            self.class_misses[class] += 1;
        }
    }

    /// End-to-end latency ([`ServedRequest::latency_ms`]) of each
    /// served request, ms, in completion order.
    pub fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.latency_chunks.iter().flatten().copied()
    }

    /// The latencies of [`ShardTally::latencies_ms`] as the chunks
    /// that hold them, in completion order.
    pub(crate) fn latency_chunks(&self) -> impl Iterator<Item = &[f64]> + Clone {
        self.latency_chunks.iter().map(Vec::as_slice)
    }

    /// Served requests.
    #[must_use]
    pub fn served(&self) -> usize {
        match self.latency_chunks.last() {
            None => 0,
            Some(last) => (self.latency_chunks.len() - 1) * LATENCY_CHUNK + last.len(),
        }
    }

    /// Completed batches.
    #[must_use]
    pub(crate) fn batches(&self) -> u64 {
        self.batch_sizes.iter().sum()
    }

    /// Served requests that finished after their deadline.
    #[must_use]
    pub(crate) fn deadline_misses(&self) -> u64 {
        self.class_misses.iter().sum()
    }
}

/// Everything one shard did during the run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Backend name of the shard's executor.
    pub platform: &'static str,
    /// Always-on tally of the served requests and batches.
    pub tally: ShardTally,
    /// Served requests, in completion order. Kept only under
    /// [`EngineConfig::with_records`] (always by the live twin and
    /// [`replay`]); empty otherwise.
    pub requests: Vec<ServedRequest>,
    /// Executed batches, in launch order. Kept only under
    /// [`EngineConfig::with_records`]; empty otherwise.
    pub batches: Vec<BatchRecord>,
    /// Simulated milliseconds spent executing (compiles included).
    pub busy_ms: f64,
    /// Simulated instant the last batch completed (0 if idle).
    pub makespan_ms: f64,
    /// `(network, batch)` plan keys this run compiled on top of the
    /// pre-seeded batch-1 set, in compilation order.
    pub plans_compiled: Vec<(usize, usize)>,
    /// Simulated plan-cache counters.
    pub cache: PlanCacheStats,
    /// Time-weighted mean queued-request count over the cluster
    /// horizon.
    pub queue_depth_mean: f64,
    /// Worst instantaneous queued-request count.
    pub queue_depth_max: usize,
    /// Fault and recovery counters (all zero in fault-free runs).
    pub fault: ShardFaultStats,
}

/// A compiled serving cluster: the shard executors, the hosted
/// networks, and the batch-1 plan/cost matrix.
///
/// Everything here depends only on (executor, network) — not on the
/// policy, placement, trace or engine config — so one cluster compiles
/// once and is shared (via `Arc`) by every [`ServeSim`] over it, e.g.
/// every combo of the serving benchmark matrix.
#[derive(Debug)]
pub struct ServeCluster {
    shards: Vec<Executor>,
    platforms: Vec<&'static str>,
    networks: Vec<Network>,
    /// `unit_plans[shard][network]`: pre-compiled batch-1 plan.
    unit_plans: Vec<Vec<NetworkPlan>>,
    /// `unit_service_ms[shard][network]`: one batch-1 replay's total.
    unit_service_ms: Vec<Vec<f64>>,
    /// `unit_plan_bytes[shard][network]`: the plan's resident size
    /// ([`NetworkPlan::mem_bytes`] — batch-invariant, so it prices
    /// every batch size of the network).
    unit_plan_bytes: Vec<Vec<u64>>,
}

impl ServeCluster {
    /// Compiles a batch-1 [`NetworkPlan`] per shard × network (warming
    /// each backend's GEMM cache) and freezes the cost and plan-size
    /// matrices placements and the admission controller consult.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyCluster`] if `shards` or `networks` is
    /// empty; otherwise the first [`RuntimeError`] from a backend
    /// rejecting a hosted network during plan compilation.
    pub fn try_new(shards: Vec<Executor>, networks: Vec<Network>) -> Result<Self, RuntimeError> {
        if shards.is_empty() || networks.is_empty() {
            return Err(RuntimeError::EmptyCluster {
                shards: shards.len(),
                networks: networks.len(),
            });
        }
        let mut unit_plans = Vec::with_capacity(shards.len());
        let mut unit_service_ms = Vec::with_capacity(shards.len());
        let mut unit_plan_bytes = Vec::with_capacity(shards.len());
        for executor in &shards {
            let mut plans = Vec::with_capacity(networks.len());
            let mut costs = Vec::with_capacity(networks.len());
            let mut bytes = Vec::with_capacity(networks.len());
            for network in &networks {
                let plan = executor.with_batch(1).try_plan(network)?;
                costs.push(plan.run().total_ms);
                bytes.push(plan.mem_bytes());
                plans.push(plan);
            }
            unit_plans.push(plans);
            unit_service_ms.push(costs);
            unit_plan_bytes.push(bytes);
        }
        Ok(ServeCluster {
            platforms: shards.iter().map(|e| e.backend().name()).collect(),
            shards,
            networks,
            unit_plans,
            unit_service_ms,
            unit_plan_bytes,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The hosted network table, in request-index order.
    #[must_use]
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// The executor behind a shard.
    #[must_use]
    pub fn shard_executor(&self, shard: usize) -> &Executor {
        &self.shards[shard]
    }

    /// The batch-1 cost matrix (`[shard][network]`, ms).
    #[must_use]
    pub fn unit_service_ms(&self) -> &[Vec<f64>] {
        &self.unit_service_ms
    }

    /// The plan-size matrix (`[shard][network]`, bytes).
    #[must_use]
    pub fn unit_plan_bytes(&self) -> &[Vec<u64>] {
        &self.unit_plan_bytes
    }

    /// Backend name per shard, in shard order.
    #[must_use]
    pub fn platforms(&self) -> &[&'static str] {
        &self.platforms
    }

    /// The pre-compiled batch-1 plan a shard holds for a network.
    #[must_use]
    pub(crate) fn unit_plan(&self, shard: usize, network: usize) -> &NetworkPlan {
        &self.unit_plans[shard][network]
    }
}

/// Panics unless `trace` is in arrival order and names only hosted
/// networks. The event queue merges the trace as a sorted stream and
/// the backlog-aware placements assume arrival order; an unsorted
/// trace would silently skew every latency, so reject it loudly.
fn check_trace(cluster: &ServeCluster, trace: &[Request]) {
    assert!(
        trace.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
        "trace must be sorted by arrival_ms"
    );
    for request in trace {
        assert!(
            usize::from(request.network) < cluster.networks().len(),
            "request {} targets unknown network {}",
            request.id,
            request.network
        );
    }
}

/// A serving simulation: a compiled cluster, a batching policy, an
/// arrival trace and the engine configuration.
///
/// [`ServeSim::try_run`] executes the discrete-event engine; it borrows
/// `self` immutably, so one simulation can be re-run (pass a fresh
/// [`Placement`] — strategies carry cursor/backlog state) and runs of
/// different simulations over one shared cluster can proceed from
/// different threads. The trace is borrowed, not copied: a simulation
/// lives no longer than the trace it serves.
#[derive(Debug)]
pub struct ServeSim<'t> {
    cluster: Arc<ServeCluster>,
    policy: Arc<dyn BatchPolicy>,
    trace: &'t [Request],
    config: EngineConfig,
}

impl<'t> ServeSim<'t> {
    /// Compiles a fresh [`ServeCluster`] from `shards` × `networks`
    /// and wraps it with `trace` and `config`. To serve several traces
    /// or policy/placement combinations over one cluster, compile the
    /// cluster once and use [`ServeSim::with_cluster`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EmptyCluster`] if `shards` or `networks` is
    /// empty; otherwise the first [`RuntimeError`] from a backend
    /// rejecting a hosted network during plan compilation.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not in arrival order, or if a trace
    /// request names a network outside the table.
    pub fn try_new(
        shards: Vec<Executor>,
        networks: Vec<Network>,
        policy: Arc<dyn BatchPolicy>,
        trace: &'t [Request],
        config: EngineConfig,
    ) -> Result<Self, RuntimeError> {
        let cluster = Arc::new(ServeCluster::try_new(shards, networks)?);
        Ok(Self::with_cluster(cluster, policy, trace, config))
    }

    /// Wraps an already-compiled cluster. No plan compilation happens
    /// here, so building many simulations over one cluster is cheap.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not in arrival order or if a request
    /// names a network outside the cluster's table.
    #[must_use]
    pub fn with_cluster(
        cluster: Arc<ServeCluster>,
        policy: Arc<dyn BatchPolicy>,
        trace: &'t [Request],
        config: EngineConfig,
    ) -> Self {
        check_trace(&cluster, trace);
        ServeSim {
            cluster,
            policy,
            trace,
            config,
        }
    }

    /// Runs the discrete-event engine over the trace, surfacing
    /// backend rejections as values.
    ///
    /// `placement` must be fresh (strategies carry state); re-running
    /// with an equally fresh placement reproduces the result
    /// byte-for-byte.
    ///
    /// # Errors
    ///
    /// Propagates a [`RuntimeError`] from the backend rejecting a lazy
    /// batched-plan compile mid-run (a custom backend may accept a
    /// shape at batch 1 but reject it scaled by the batch size). Before
    /// any event runs, returns [`RuntimeError::InvalidHedgeDelay`] if
    /// the hedge delay is negative or NaN,
    /// [`RuntimeError::TraceIdMismatch`] if a request's id is not its
    /// trace position and [`RuntimeError::FaultShardOutOfRange`] if the
    /// fault plan names a shard the cluster does not have. Returns
    /// [`RuntimeError::PlacementOutOfRange`] if `placement` routes a
    /// request to a shard the cluster does not have. Panics if a policy
    /// wedges a queue (never becomes ready).
    pub fn try_run(&self, placement: &mut dyn Placement) -> Result<ServeRun, RuntimeError> {
        engine::run_engine(
            &self.cluster,
            self.policy.as_ref(),
            placement,
            self.trace,
            &self.config,
        )
    }

    /// Folds a run into the cluster-wide outcome.
    ///
    /// # Panics
    ///
    /// Panics if `run` is not one report per shard in shard order
    /// (mixing runs across simulations would silently misattribute
    /// utilization).
    #[must_use]
    pub fn outcome(&self, run: &ServeRun) -> ServeOutcome {
        assert_eq!(
            run.reports.len(),
            self.cluster.shard_count(),
            "one report per shard"
        );
        for (i, report) in run.reports.iter().enumerate() {
            assert_eq!(report.shard, i, "reports must be in shard order");
        }
        aggregate(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use sma_models::zoo;

    /// 120 requests over [`small_sim`]'s two networks.
    fn small_trace() -> Vec<Request> {
        LoadGenerator::new(11, 2.0).with_slo(30.0).trace(120, 2)
    }

    fn small_sim(
        trace: &[Request],
        policy: Arc<dyn BatchPolicy>,
        config: EngineConfig,
    ) -> ServeSim<'_> {
        let shards = vec![
            Executor::new(Platform::Sma3),
            Executor::new(Platform::GpuTensorCore),
        ];
        let networks = vec![zoo::alexnet(), zoo::vgg_a()];
        ServeSim::try_new(shards, networks, policy, trace, config).unwrap()
    }

    #[test]
    fn every_request_is_served_exactly_once() {
        let trace = small_trace();
        let sim = small_sim(
            &trace,
            Arc::new(Immediate),
            EngineConfig::default().with_records(),
        );
        let run = sim.try_run(&mut RoundRobin::default()).unwrap();
        let mut ids: Vec<u32> = run
            .reports
            .iter()
            .flat_map(|r| r.requests.iter().map(|q| q.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..120).collect::<Vec<u32>>());
        assert!(run.rejected.is_empty());
        let outcome = sim.outcome(&run);
        assert_eq!(outcome.requests, 120);
        assert!(outcome.p50_ms > 0.0);
        assert!(outcome.p999_ms >= outcome.p99_ms);
        // Unbounded cache: no evictions, exact counter balance.
        assert_eq!(outcome.cache.evictions, 0);
        assert_eq!(
            outcome.cache.hits + outcome.cache.misses,
            outcome.cache.lookups
        );
    }

    #[test]
    fn records_are_opt_in_and_the_tally_matches_them() {
        let policy: Arc<dyn BatchPolicy> = Arc::new(Deadline::new(5.0, 8));
        let trace = small_trace();
        let lean = small_sim(&trace, Arc::clone(&policy), EngineConfig::default());
        let full = small_sim(&trace, policy, EngineConfig::default().with_records());
        let a = lean.try_run(&mut RoundRobin::default()).unwrap();
        let b = full.try_run(&mut RoundRobin::default()).unwrap();
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert!(x.requests.is_empty() && x.batches.is_empty());
            assert!(y.tally.served() > 0);
            assert_eq!(y.requests.len(), y.tally.served());
            assert_eq!(x.tally, y.tally, "records never change the tally");
            assert_eq!(ShardTally::from_records(&y.requests, &y.batches), y.tally);
        }
        assert_eq!(
            format!("{:?}", lean.outcome(&a)),
            format!("{:?}", full.outcome(&b))
        );
    }

    /// A served request of SLO class `class`, arrived at 0 ms with a
    /// 10 ms deadline, completed at `completion_ms`: its latency is
    /// `completion_ms`, bit for bit.
    pub(super) fn served(class: u8, completion_ms: f64) -> ServedRequest {
        ServedRequest {
            id: 0,
            network: 0,
            arrival_ms: 0.0,
            deadline_ms: 10.0,
            class,
            start_ms: 0.0,
            completion_ms,
            batch_size: 1,
        }
    }

    #[test]
    fn tally_grows_its_tables_on_demand() {
        let mut tally = ShardTally::default();
        tally.note_batch(3);
        tally.note_batch(3);
        tally.note_batch(1);
        tally.note_served(&served(2, 5.0));
        tally.note_served(&served(2, 12.0));
        tally.note_served(&served(0, 10.0));
        assert_eq!(tally.batch_sizes, vec![0, 1, 0, 2]);
        assert_eq!(tally.batches(), 3);
        assert_eq!(tally.class_served, vec![1, 0, 2]);
        assert_eq!(
            tally.class_misses,
            vec![0, 0, 1],
            "10.0 meets a 10.0 deadline"
        );
        assert_eq!(tally.deadline_misses(), 1);
        assert_eq!(tally.latencies_ms().collect::<Vec<_>>(), [5.0, 12.0, 10.0]);
        assert_eq!(tally.served(), 3);
    }

    /// The latency storage grows by whole chunks, never by doubling:
    /// its slots stay within one chunk of the served count, and every
    /// latency comes back in completion order.
    #[test]
    fn tally_latency_storage_stays_within_one_chunk_of_served() {
        let mut tally = ShardTally::default();
        for n in 0..3 * LATENCY_CHUNK + 7 {
            let slots: usize = tally.latency_chunks.iter().map(Vec::capacity).sum();
            assert!(
                slots <= n + LATENCY_CHUNK,
                "{slots} slots for {n} served latencies"
            );
            assert_eq!(tally.served(), n);
            tally.note_served(&served(0, n as f64));
        }
        assert!(tally
            .latencies_ms()
            .enumerate()
            .all(|(n, latency)| latency.to_bits() == (n as f64).to_bits()));
    }

    #[test]
    fn batches_never_start_before_their_requests_arrive() {
        let trace = small_trace();
        let sim = small_sim(
            &trace,
            Arc::new(Deadline::new(5.0, 8)),
            EngineConfig::default().with_records(),
        );
        let run = sim.try_run(&mut LeastBacklog).unwrap();
        for report in &run.reports {
            for request in &report.requests {
                assert!(request.start_ms >= request.arrival_ms - 1e-12);
                assert!(request.completion_ms > request.start_ms);
            }
            // Batches execute back to back, never overlapping.
            for pair in report.batches.windows(2) {
                assert!(
                    pair[1].start_ms
                        >= pair[0].start_ms + pair[0].compile_ms + pair[0].service_ms - 1e-9
                );
            }
        }
    }

    #[test]
    fn size_k_forms_full_batches_until_the_tail() {
        let trace = small_trace();
        let sim = small_sim(
            &trace,
            Arc::new(SizeK::new(4)),
            EngineConfig::default().with_records(),
        );
        let run = sim.try_run(&mut RoundRobin::default()).unwrap();
        let sizes: Vec<usize> = run
            .reports
            .iter()
            .flat_map(|r| r.batches.iter().map(|b| b.size))
            .collect();
        assert!(sizes.iter().all(|&s| s <= 4));
        assert!(
            sizes.iter().filter(|&&s| s == 4).count() > sizes.len() / 2,
            "most batches reach k: {sizes:?}"
        );
    }

    #[test]
    fn repeat_runs_are_identical_with_fresh_placements() {
        let trace = small_trace();
        let sim = small_sim(
            &trace,
            Arc::new(Deadline::new(3.0, 16)),
            EngineConfig::default().with_records(),
        );
        let a = sim.try_run(&mut PlatformAffinity::default()).unwrap();
        let b = sim.try_run(&mut PlatformAffinity::default()).unwrap();
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x.busy_ms.to_bits(), y.busy_ms.to_bits());
            assert_eq!(x.makespan_ms.to_bits(), y.makespan_ms.to_bits());
            assert_eq!(x.requests.len(), y.requests.len());
            for (p, q) in x.requests.iter().zip(&y.requests) {
                assert_eq!(p.id, q.id);
                assert_eq!(p.completion_ms.to_bits(), q.completion_ms.to_bits());
            }
        }
    }

    #[test]
    fn affinity_places_each_network_on_one_platform() {
        let trace = small_trace();
        let sim = small_sim(
            &trace,
            Arc::new(Immediate),
            EngineConfig::default().with_records(),
        );
        let run = sim.try_run(&mut PlatformAffinity::default()).unwrap();
        for net in 0..sim.cluster.networks().len() {
            let hosts: std::collections::BTreeSet<&str> = run
                .reports
                .iter()
                .filter(|r| r.requests.iter().any(|q| usize::from(q.network) == net))
                .map(|r| r.platform)
                .collect();
            assert!(hosts.len() <= 1, "network {net} spread over {hosts:?}");
        }
    }

    #[test]
    fn least_backlog_uses_the_live_view() {
        // The live-backlog placement spreads load
        // across both shards even though round-robin state is absent.
        let trace = small_trace();
        let sim = small_sim(&trace, Arc::new(Immediate), EngineConfig::default());
        let run = sim.try_run(&mut LeastBacklog).unwrap();
        assert!(
            run.reports.iter().all(|r| r.tally.served() > 0),
            "both shards serve under least-backlog"
        );
    }
}
