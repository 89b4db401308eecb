//! The discrete-event serving engine.
//!
//! One deterministic event queue drives the whole cluster: **arrival**
//! events admit requests (invoking the [`Placement`] online, with a
//! live [`ClusterView`]), **batch-close** events fire at the instant a
//! [`BatchPolicy`] named in a [`PolicyDecision::WaitUntil`],
//! **service-complete** events free a shard and let it dispatch again,
//! and **fault** events from the configured [`FaultPlan`] crash,
//! degrade or stall shards (recovery — retries, hedges — rides the
//! same queue). Events are totally ordered by `(time, class,
//! sequence)` — time via `f64::total_cmp`, then arrivals before
//! completions before timers before fault/retry/hedge events at equal
//! instants, and a monotone sequence number last — so a run is a pure
//! function of its inputs: byte-identical across repeats, machines and
//! worker-thread counts, with or without faults.
//!
//! Admission is online: placement sees the live cluster (backlog,
//! in-flight batches, plan-cache residency, shard health) at each
//! arrival, and the admission controller re-places or rejects requests
//! whose plan cannot fit the target shard's cache budget.
//!
//! Each shard's queues, batch choice, batch pricing and accounting live
//! in the shard core (`serve/shard.rs`), which the live twin's workers
//! run too. Its plan memory is a capacity-bounded LRU keyed on
//! `(network, batch)` and charged with
//! [`NetworkPlan::mem_bytes`](crate::NetworkPlan::mem_bytes); a miss
//! bills `compile_ms_per_layer × layers` before the batch starts.
//!
//! Request ids are trace positions, checked before the first event: the
//! per-request sets are bitsets indexed by id, and retry and hedge
//! events carry a trace slot, not a copy of the request.
//!
//! The fault model, injected-event ordering and recovery semantics are
//! specified in `docs/FAULT_TOLERANCE.md`; an empty [`FaultPlan`] (the
//! default) leaves every byte of the fault-free engine's output
//! untouched, pinned by `tests/serve_fault.rs`.

use super::fault::{ClassFaultStats, FaultKind, FaultPlan, HedgePolicy, RetryPolicy, ShedPolicy};
use super::load::Request;
use super::placement::{ClusterView, Placement};
use super::policy::BatchPolicy;
use super::scale::{AutoscalePolicy, EnergyFrontier, ReconfigPolicy, ReconfigStats, ScaleStats};
use super::shard::{self, NextBatch, ShardCore};
use super::slo::PreemptPolicy;
use super::{BatchRecord, ServeCluster, ShardReport};
use crate::backend::RuntimeError;
use sma_energy::EnergyModel;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Per-shard plan-cache capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheBudget {
    /// No bound: every compiled plan stays resident (the default).
    Unbounded,
    /// The same byte budget on every shard.
    Uniform(u64),
    /// An explicit byte budget per shard (must be one entry per
    /// shard).
    PerShard(Vec<u64>),
}

impl CacheBudget {
    /// The byte budget of one shard (`None` = unbounded).
    #[must_use]
    pub fn for_shard(&self, shard: usize) -> Option<u64> {
        match self {
            CacheBudget::Unbounded => None,
            CacheBudget::Uniform(bytes) => Some(*bytes),
            CacheBudget::PerShard(bytes) => bytes.get(shard).copied(),
        }
    }

    /// Whether a plan of `bytes` can ever be resident on `shard`.
    #[must_use]
    pub fn admits(&self, shard: usize, bytes: u64) -> bool {
        self.for_shard(shard).is_none_or(|budget| bytes <= budget)
    }

    /// Report label (`unbounded`, `32KiB`, `per-shard`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CacheBudget::Unbounded => "unbounded".into(),
            CacheBudget::Uniform(bytes) => format!("{}KiB", bytes / 1024),
            CacheBudget::PerShard(_) => "per-shard".into(),
        }
    }
}

/// Engine knobs: plan-cache capacity, compile cost, and the
/// fault-tolerance layer (fault schedule, retry/hedge/shed policies —
/// all default to no-ops, so `EngineConfig::default()` behaves
/// byte-identically to the fault-free engine).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Per-shard plan-cache capacity.
    pub cache_budget: CacheBudget,
    /// Simulated milliseconds billed per network layer when a batch's
    /// plan misses the shard's plan cache (compile-on-miss latency).
    pub compile_ms_per_layer: f64,
    /// Pre-drawn fault schedule (empty = no faults).
    pub faults: FaultPlan,
    /// Retry policy for requests whose batch a crash aborts.
    pub retry: RetryPolicy,
    /// Opt-in request hedging (`None` = never hedge).
    pub hedge: Option<HedgePolicy>,
    /// Opt-in admission shedding by SLO class (`None` = never shed).
    pub shed: Option<ShedPolicy>,
    /// Opt-in strict-priority preemption between SLO classes (`None` =
    /// never preempt).
    pub preempt: Option<PreemptPolicy>,
    /// Opt-in cost-aware autoscaling (`None` = static fleet). A policy
    /// whose headroom is `<= 0` is inert:
    /// no tick events are scheduled and the run stays byte-identical
    /// to `scale: None`.
    pub scale: Option<AutoscalePolicy>,
    /// Opt-in serve-time backend reconfiguration (`None` = per-shape
    /// configuration selection, the compile-time default). Only shards
    /// whose backend implements `Reconfigurable` participate.
    pub reconfig: Option<ReconfigPolicy>,
    /// Keep every [`ServedRequest`](super::ServedRequest) and
    /// [`BatchRecord`] in the shard reports (`false` = only the
    /// always-on [`ShardTally`](super::ShardTally), which is all
    /// [`aggregate`](super::aggregate) reads).
    pub records: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cache_budget: CacheBudget::Unbounded,
            compile_ms_per_layer: 0.0,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            hedge: None,
            shed: None,
            preempt: None,
            scale: None,
            reconfig: None,
            records: false,
        }
    }
}

impl EngineConfig {
    /// This configuration with a different cache budget.
    #[must_use]
    pub fn with_cache_budget(mut self, budget: CacheBudget) -> Self {
        self.cache_budget = budget;
        self
    }

    /// This configuration with a different compile-on-miss cost.
    #[must_use]
    pub fn with_compile_cost(mut self, ms_per_layer: f64) -> Self {
        self.compile_ms_per_layer = ms_per_layer.max(0.0);
        self
    }

    /// This configuration with a fault schedule.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// This configuration with a different retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// This configuration with request hedging enabled.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// This configuration with admission shedding enabled.
    #[must_use]
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = Some(shed);
        self
    }

    /// This configuration with SLO-class preemption enabled.
    #[must_use]
    pub fn with_preempt(mut self, preempt: PreemptPolicy) -> Self {
        self.preempt = Some(preempt);
        self
    }

    /// This configuration with cost-aware autoscaling enabled.
    #[must_use]
    pub fn with_scale(mut self, scale: AutoscalePolicy) -> Self {
        self.scale = Some(scale);
        self
    }

    /// This configuration with serve-time backend reconfiguration
    /// enabled.
    #[must_use]
    pub fn with_reconfig(mut self, reconfig: ReconfigPolicy) -> Self {
        self.reconfig = Some(reconfig);
        self
    }

    /// This configuration keeping full per-request and per-batch
    /// records. Outcomes are identical either way; records cost 64
    /// bytes per served request and 40 per batch.
    #[must_use]
    pub fn with_records(mut self) -> Self {
        self.records = true;
        self
    }

    /// Whether a run must track served and failed ids: hedging,
    /// crash-retry and preemption can attempt to serve one id twice.
    fn track_ids(&self) -> bool {
        self.hedge.is_some() || self.preempt.is_some() || !self.faults.is_empty()
    }
}

/// Everything one engine run produced: per-shard reports (shard
/// order), plus every request that was *not* served and why. The four
/// buckets — served (in the reports), `rejected`, `shed`, `failed` —
/// partition the trace exactly: no request is lost or double-counted
/// (pinned by the reconciliation proptest in `tests/serve_fault.rs`).
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// One report per shard, in shard order.
    pub reports: Vec<ShardReport>,
    /// Requests rejected at admission (no shard's cache budget could
    /// ever hold their plan), in arrival order. Empty under an
    /// unbounded budget.
    pub rejected: Vec<Request>,
    /// Requests shed by the [`ShedPolicy`] watermark, in arrival
    /// order. Empty without a shed policy.
    pub shed: Vec<Request>,
    /// Requests abandoned after exhausting their [`RetryPolicy`], in
    /// failure order. Empty without faults.
    pub failed: Vec<Request>,
    /// Per-SLO-class recovery counters, indexed by class.
    pub class_stats: Vec<ClassFaultStats>,
    /// Ids whose batch a [`PreemptPolicy`] evicted at least once,
    /// sorted. Not a fifth partition bucket — preemption re-queues, so
    /// every preempted id still lands in exactly one of the four
    /// buckets (preempted-then-served = this set ∩ served, pinned by
    /// `tests/serve_scale.rs`).
    pub preempted: Vec<u64>,
    /// Autoscaler counters (all zero without an enabled
    /// [`AutoscalePolicy`]).
    pub scale: ScaleStats,
    /// Reconfiguration counters (all zero without a
    /// [`ReconfigPolicy`]).
    pub reconfig: ReconfigStats,
}

/// Event classes, in same-instant processing order: arrivals (class 0,
/// merged straight from the sorted trace rather than the heap) enqueue
/// before a completion evaluates (every `arrival_ms <= now` is queued
/// before the policy decides), completions free the shard
/// before a stale timer re-evaluates, and the fault family fires last:
/// a batch completing at the exact instant of a crash completes,
/// recovery lands before a same-instant retry re-places, and hedges go
/// last of all. The control plane appends two fixed slots *after* the
/// existing family — preemption decides once every same-instant
/// completion, fault and recovery action has settled (a batch
/// completing at the preemption instant completes), and the autoscale
/// tick observes last of all, so no pre-existing same-instant ordering
/// changes when the new classes are enabled.
const CLASS_COMPLETE: u8 = 1;
const CLASS_TIMER: u8 = 2;
const CLASS_FAULT: u8 = 3;
const CLASS_RETRY: u8 = 4;
const CLASS_HEDGE: u8 = 5;
const CLASS_PREEMPT: u8 = 6;
const CLASS_SCALE: u8 = 7;

/// What a popped event does. The payload is deliberately not part of
/// the ordering — `(time, class, seq)` stays the total order. Payloads
/// are indices into data the engine borrows (the fault plan, the
/// trace), never copies of it, so a heap entry stays small.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// The in-flight batch of epoch `epoch` finishes (stale epochs —
    /// batches a crash aborted — are ignored).
    Complete { epoch: u64 },
    /// A batch-close timer from a [`PolicyDecision::WaitUntil`].
    Timer,
    /// Event `index` of the configured [`FaultPlan`] fires: a crash, or
    /// the opening of a degrade, compile-stall or transient
    /// compile-failure window.
    Fault { index: usize },
    /// The shard comes back up (stale if a later crash extended the
    /// outage).
    Recover,
    /// A degrade window closes.
    DegradeEnd,
    /// A compile-stall window closes.
    StallEnd,
    /// The crash victim at trace position `slot` re-enters admission
    /// after its backoff; the event's shard is the one it crashed on.
    Retry { slot: usize },
    /// The hedge delay of the request at trace position `slot`
    /// expired; the event's shard is the one it was admitted to.
    Hedge { slot: usize },
    /// An urgent arrival claimed the shard: evict the running batch of
    /// epoch `epoch` (stale epochs — the batch completed or was
    /// already evicted at this instant — are ignored).
    Preempt { epoch: u64 },
    /// The autoscaler evaluates the fleet against the energy frontier.
    ScaleTick,
}

/// One queued engine event. Ordering is ascending `(time, class,
/// seq)`; `seq` is a global push counter, so ties are broken by
/// creation order and the queue is a total order.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    class: u8,
    seq: u64,
    shard: usize,
    kind: EventKind,
}

// Every heap push and pop moves entries, so events stay small: no
// variant may carry a `Request` or other bulky payload.
const _: () = assert!(std::mem::size_of::<Event>() <= 48);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // event on top.
        other
            .time
            .total_cmp(&self.time)
            .then(other.class.cmp(&self.class))
            .then(other.seq.cmp(&self.seq))
    }
}

/// The batch currently executing on a shard. Recording happens at
/// completion (not dispatch), so a crash can abort the batch without
/// leaving phantom records behind.
struct InFlightBatch {
    record: BatchRecord,
    /// Dispatch epoch: a crash bumps past it, invalidating the
    /// completion event already in the queue.
    epoch: u64,
    requests: Vec<Request>,
}

/// A dense set of request ids: one bit per trace position, in `u64`
/// words. Request ids are trace positions (checked before a run
/// starts), so this replaces a tree set at a bit per request. A set
/// sized for no ids allocates nothing and reads as empty — the engine
/// sizes a set only when a configured feature uses it.
#[derive(Debug)]
struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// An empty set with room for ids `0..len`.
    fn with_len(len: usize) -> Self {
        IdSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Whether `id` is in the set.
    #[inline]
    fn contains(&self, id: u64) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|word| word & (1 << (id % 64)) != 0)
    }

    /// Adds `id` and returns whether it was already in the set.
    #[inline]
    fn set(&mut self, id: u64) -> bool {
        let word = &mut self.words[(id / 64) as usize];
        let bit = 1 << (id % 64);
        let was_set = *word & bit != 0;
        *word |= bit;
        was_set
    }

    /// Removes `id`.
    #[inline]
    fn clear(&mut self, id: u64) {
        if let Some(word) = self.words.get_mut((id / 64) as usize) {
            *word &= !(1 << (id % 64));
        }
    }

    /// The ids in the set, ascending.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().zip(0u64..).flat_map(|(&word, index)| {
            (0..64)
                .filter(move |bit| word & (1 << bit) != 0)
                .map(move |bit| index * 64 + bit)
        })
    }
}

/// Live state of one shard inside the event loop: the shared
/// [`ShardCore`] plus what only the event loop tracks.
struct ShardState {
    core: ShardCore,
    /// The executing batch (`None` = idle).
    in_flight: Option<InFlightBatch>,
    /// Monotone dispatch counter backing [`InFlightBatch::epoch`].
    epoch: u64,
    /// Crash state: the instant the shard comes back up (`None` = up).
    down_until: Option<f64>,
    /// When the current outage began (meaningful only while down).
    down_since: f64,
    /// Nesting depth of active degrade windows.
    degrade_depth: u32,
    /// Live service-time multiplier (1.0 when no window is active;
    /// with overlapping windows the most recent factor wins).
    degrade_factor: f64,
    /// Nesting depth of active compile-stall windows.
    stall_depth: u32,
    /// Extra compile-on-miss latency while stalled (0 when clear).
    stall_extra_ms: f64,
    /// Transient compile failures are active while `now` is before
    /// this instant.
    compile_fail_until: f64,
    /// Earliest batch-close timer currently scheduled (dedup only —
    /// stale timers are harmless, they just re-evaluate).
    pending_timer: f64,
    /// The last finished batch's request buffer, emptied and kept for
    /// the next dispatch.
    spare: Vec<Request>,
}

impl ShardState {
    /// Size of the in-flight batch (0 when idle).
    fn in_flight_len(&self) -> usize {
        self.in_flight.as_ref().map_or(0, |b| b.requests.len())
    }

    /// Outstanding requests on this shard: queued + in flight — the
    /// engine-side twin of [`ClusterView::outstanding`], and the one
    /// definition the backlog gauge and the autoscaler both read.
    fn outstanding(&self) -> usize {
        self.core.depth() + self.in_flight_len()
    }
}

/// The engine proper: all mutable run state behind one struct so the
/// event handlers stay readable. The placement is threaded through the
/// handlers that consult it (it is the caller's mutable state).
struct Engine<'a> {
    cluster: &'a ServeCluster,
    policy: &'a dyn BatchPolicy,
    config: &'a EngineConfig,
    /// The arrival trace; retry and hedge events read their request
    /// back from it by position.
    trace: &'a [Request],
    shards: Vec<ShardState>,
    heap: BinaryHeap<Event>,
    seq: u64,
    rejected: Vec<Request>,
    shed: Vec<Request>,
    failed: Vec<Request>,
    class_stats: Vec<ClassFaultStats>,
    /// Ids already served (first completion wins). Sized only when
    /// [`EngineConfig::track_ids`] holds — the feature-free path never
    /// consults it.
    served: IdSet,
    /// Ids already in `failed` (dedup — hedge twins can fail twice).
    /// Sized with `served`.
    failed_ids: IdSet,
    /// Retries scheduled so far, per request id.
    attempts: BTreeMap<u64, u32>,
    /// Arrivals still to come, per network.
    global_future: Vec<usize>,
    /// Number of SLO classes in the trace (max class + 1).
    num_classes: usize,
    /// Ids preempted at least once (sized only with preemption on).
    preempted_ids: IdSet,
    /// Autoscaler fleet state: whether each shard is powered.
    active: Vec<bool>,
    /// Drain-before-remove: a draining shard stops accepting
    /// placements but finishes its queue before it parks.
    draining: Vec<bool>,
    /// Consecutive over-watermark evaluations (hysteresis).
    up_streak: u32,
    /// Consecutive under-watermark evaluations (hysteresis).
    down_streak: u32,
    scale_stats: ScaleStats,
    /// The goodput-per-joule frontier (built only with autoscaling
    /// enabled — the static path never prices plans).
    frontier: Option<EnergyFrontier>,
    /// Cumulative arrivals per network: the observed traffic mix the
    /// frontier weighs shard costs by.
    mix_counts: Vec<u64>,
    /// Scratch for the ids one completion serves (hedge cancellation).
    newly_served: Vec<u64>,
    // The live view placements read, one entry per shard, kept current
    // by `refresh_view` as shard state changes.
    live_queued: Vec<usize>,
    live_in_flight: Vec<usize>,
    live_resident: Vec<u64>,
    live_healthy: Vec<bool>,
    live_degrade: Vec<f64>,
}

/// Runs the engine. Consumes the placement's mutable state for one
/// run; everything else is borrowed immutably, so distinct runs (and
/// distinct combos in the benchmark matrix) share one compiled
/// [`ServeCluster`].
pub(super) fn run_engine(
    cluster: &ServeCluster,
    policy: &dyn BatchPolicy,
    placement: &mut dyn Placement,
    trace: &[Request],
    config: &EngineConfig,
) -> Result<ServeRun, RuntimeError> {
    if let Some(scale) = &config.scale {
        scale.validate(cluster.shard_count());
    }
    let mut engine = Engine::new(cluster, policy, config, trace)?;
    engine.schedule_faults()?;
    engine.schedule_first_scale_tick();

    let mut cursor = 0usize;
    loop {
        // Merge the (already sorted) arrival trace with the event
        // heap; arrivals win ties (CLASS_ARRIVAL is the lowest class).
        let take_arrival = match (trace.get(cursor), engine.heap.peek()) {
            (Some(request), Some(event)) => {
                request.arrival_ms.total_cmp(&event.time) != Ordering::Greater
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_arrival {
            engine.on_arrival(placement, cursor)?;
            cursor += 1;
        } else if let Some(event) = engine.heap.pop() {
            engine.on_event(placement, event)?;
        } else {
            break;
        }
    }
    Ok(engine.finish())
}

impl<'a> Engine<'a> {
    /// Builds the run state in one pass over the trace, which also
    /// checks the id contract: [`RuntimeError::TraceIdMismatch`] unless
    /// every request's id is its trace position.
    fn new(
        cluster: &'a ServeCluster,
        policy: &'a dyn BatchPolicy,
        config: &'a EngineConfig,
        trace: &'a [Request],
    ) -> Result<Self, RuntimeError> {
        let shard_count = cluster.shard_count();
        let net_count = cluster.networks().len();
        let shards: Vec<ShardState> = ShardCore::fleet(cluster, config)
            .into_iter()
            .map(|core| ShardState {
                core,
                in_flight: None,
                epoch: 0,
                down_until: None,
                down_since: 0.0,
                degrade_depth: 0,
                degrade_factor: 1.0,
                stall_depth: 0,
                stall_extra_ms: 0.0,
                compile_fail_until: f64::NEG_INFINITY,
                pending_timer: f64::INFINITY,
                spare: Vec::new(),
            })
            .collect();
        let mut global_future = vec![0usize; net_count];
        let mut max_class = 0usize;
        for (position, request) in trace.iter().enumerate() {
            if usize::try_from(request.id) != Ok(position) {
                return Err(RuntimeError::TraceIdMismatch {
                    position,
                    id: request.id,
                });
            }
            global_future[request.network] += 1;
            max_class = max_class.max(usize::from(request.class));
        }
        let num_classes = max_class + 1;
        // The frontier prices plans through the energy ledger only
        // when the autoscaler will actually consult it.
        let frontier = config
            .scale
            .filter(AutoscalePolicy::enabled)
            .map(|_| EnergyFrontier::from_cluster(cluster, &EnergyModel::volta()));
        let ids_if = |used: bool| IdSet::with_len(if used { trace.len() } else { 0 });
        Ok(Engine {
            cluster,
            policy,
            config,
            trace,
            shards,
            heap: BinaryHeap::new(),
            seq: 0,
            rejected: Vec::new(),
            shed: Vec::new(),
            failed: Vec::new(),
            class_stats: vec![ClassFaultStats::default(); num_classes],
            served: ids_if(config.track_ids()),
            failed_ids: ids_if(config.track_ids()),
            attempts: BTreeMap::new(),
            global_future,
            num_classes,
            preempted_ids: ids_if(config.preempt.is_some()),
            active: vec![true; shard_count],
            draining: vec![false; shard_count],
            up_streak: 0,
            down_streak: 0,
            scale_stats: ScaleStats::default(),
            frontier,
            mix_counts: vec![0; net_count],
            newly_served: Vec::new(),
            live_queued: vec![0; shard_count],
            live_in_flight: vec![0; shard_count],
            live_resident: vec![0; shard_count],
            live_healthy: vec![true; shard_count],
            live_degrade: vec![1.0; shard_count],
        })
    }

    /// Seeds the autoscaler's first tick (a no-op when the feature is
    /// off or its energy headroom is zero — the static fleet schedules
    /// no control-plane events at all).
    fn schedule_first_scale_tick(&mut self) {
        if let Some(scale) = self.config.scale.filter(AutoscalePolicy::enabled) {
            self.push_event(scale.period_ms, CLASS_SCALE, 0, EventKind::ScaleTick);
        }
    }

    /// Seeds the event queue with the configured fault schedule;
    /// [`RuntimeError::FaultShardOutOfRange`] if a fault names a shard
    /// the cluster does not have.
    fn schedule_faults(&mut self) -> Result<(), RuntimeError> {
        let shard_count = self.shards.len();
        for (index, fault) in self.config.faults.events().iter().enumerate() {
            if fault.shard >= shard_count {
                return Err(RuntimeError::FaultShardOutOfRange {
                    shard: fault.shard,
                    shard_count,
                });
            }
            self.push_event(
                fault.at_ms,
                CLASS_FAULT,
                fault.shard,
                EventKind::Fault { index },
            );
        }
        Ok(())
    }

    fn push_event(&mut self, time: f64, class: u8, shard: usize, kind: EventKind) {
        self.heap.push(Event {
            time,
            class,
            seq: self.seq,
            shard,
            kind,
        });
        self.seq += 1;
    }

    /// Whether a shard can dispatch right now.
    fn idle_and_up(&self, shard: usize) -> bool {
        let state = &self.shards[shard];
        state.in_flight.is_none() && state.down_until.is_none()
    }

    /// Whether the autoscaler lets a shard take *new* placements
    /// (always true for the static fleet; draining and parked shards
    /// decline).
    fn accepting(&self, shard: usize) -> bool {
        self.active[shard] && !self.draining[shard]
    }

    /// Cluster-wide outstanding requests (queued + in flight).
    fn backlog(&self) -> usize {
        self.shards.iter().map(ShardState::outstanding).sum()
    }

    /// One shard's live-view entry, read from shard state: queued,
    /// in flight, resident plan bytes, healthy, degrade factor.
    fn view_entry(&self, shard: usize) -> (usize, usize, u64, bool, f64) {
        let state = &self.shards[shard];
        (
            state.core.depth(),
            state.in_flight_len(),
            state.core.resident_bytes(),
            // Draining/parked shards read as unhealthy so health-aware
            // placements steer around them; the static fleet (scale
            // off) leaves this the pure crash gauge.
            state.down_until.is_none() && self.accepting(shard),
            if state.degrade_depth > 0 {
                state.degrade_factor
            } else {
                1.0
            },
        )
    }

    /// Re-reads one shard's live-view entry. Every handler that changes
    /// a shard's queues, in-flight batch, cache, health or degrade
    /// state ends in a refresh of that shard, so the view placements
    /// read is always current.
    fn refresh_view(&mut self, shard: usize) {
        let (queued, in_flight, resident, healthy, degrade) = self.view_entry(shard);
        self.live_queued[shard] = queued;
        self.live_in_flight[shard] = in_flight;
        self.live_resident[shard] = resident;
        self.live_healthy[shard] = healthy;
        self.live_degrade[shard] = degrade;
    }

    /// Re-reads every shard's live-view entry.
    fn refresh_all_views(&mut self) {
        for shard in 0..self.shards.len() {
            self.refresh_view(shard);
        }
    }

    /// Whether the maintained live view equals a rebuild from shard
    /// state (the debug-build check on the incremental refreshes).
    fn view_is_current(&self) -> bool {
        (0..self.shards.len()).all(|shard| {
            let (queued, in_flight, resident, healthy, degrade) = self.view_entry(shard);
            queued == self.live_queued[shard]
                && in_flight == self.live_in_flight[shard]
                && resident == self.live_resident[shard]
                && healthy == self.live_healthy[shard]
                && degrade.to_bits() == self.live_degrade[shard].to_bits()
        })
    }

    /// Re-places a request online by the shared admission rule
    /// ([`shard::place`]) against the live view; `None` rejects.
    fn replace_online(
        &mut self,
        placement: &mut dyn Placement,
        request: &Request,
    ) -> Result<Option<usize>, RuntimeError> {
        debug_assert!(
            self.view_is_current(),
            "the live view drifted from shard state"
        );
        let view = ClusterView {
            platforms: self.cluster.platforms(),
            unit_service_ms: self.cluster.unit_service_ms(),
            queued: &self.live_queued,
            in_flight: &self.live_in_flight,
            resident_plan_bytes: &self.live_resident,
            healthy: &self.live_healthy,
            degrade: &self.live_degrade,
        };
        shard::place(
            placement,
            request,
            &view,
            self.cluster,
            &self.config.cache_budget,
            |shard| self.accepting(shard),
        )
    }

    /// One arrival: shed check, placement/admission, enqueue, hedge
    /// scheduling, preemption check, dispatch, and the tail flush.
    fn on_arrival(
        &mut self,
        placement: &mut dyn Placement,
        slot: usize,
    ) -> Result<(), RuntimeError> {
        let request = self.trace[slot];
        let now_ms = request.arrival_ms;
        let shard_count = self.shards.len();
        self.global_future[request.network] -= 1;
        self.mix_counts[request.network] += 1;

        // Graceful degradation: under backlog pressure, shed by SLO
        // class before placement even runs.
        let shed_now = self
            .config
            .shed
            .as_ref()
            .is_some_and(|p| p.sheds(request.class, self.num_classes, self.backlog()));

        let mut target: Option<usize> = None;
        if shed_now {
            self.shed.push(request);
        } else {
            target = self.replace_online(placement, &request)?;
            match target {
                Some(shard) => {
                    self.shards[shard].core.admit(request, now_ms);
                    if let Some(hedge) = self.config.hedge {
                        self.push_event(
                            now_ms + hedge.delay_ms,
                            CLASS_HEDGE,
                            shard,
                            EventKind::Hedge { slot },
                        );
                    }
                    // Preemption: an arrival urgent enough to displace
                    // the running batch claims the shard via a
                    // fixed-slot event, so every same-instant
                    // completion/fault/recovery settles first (a batch
                    // completing at this exact instant completes — its
                    // Preempt goes stale).
                    if let (Some(preempt), Some(batch)) =
                        (self.config.preempt, &self.shards[shard].in_flight)
                    {
                        let victim_class = batch
                            .requests
                            .iter()
                            .map(|r| r.class)
                            .fold(u8::MAX, u8::min);
                        if preempt.preempts(request.class, victim_class) {
                            let epoch = batch.epoch;
                            self.push_event(
                                now_ms,
                                CLASS_PREEMPT,
                                shard,
                                EventKind::Preempt { epoch },
                            );
                        }
                    }
                    self.attempt_dispatch(shard, now_ms)?;
                }
                None => self.rejected.push(request),
            }
        }
        // Tail flush: the last arrival of a network is an event for
        // *every* shard still holding that network — `more_arrivals`
        // just flipped false cluster-wide, and without this
        // re-evaluation a size-triggered policy would strand its
        // stragglers.
        if self.global_future[request.network] == 0 {
            for shard in 0..shard_count {
                if target == Some(shard) {
                    continue; // already evaluated above
                }
                if self.idle_and_up(shard) && self.shards[shard].core.has_queued(request.network) {
                    self.attempt_dispatch(shard, now_ms)?;
                }
            }
        }
        Ok(())
    }

    /// Routes one popped event to its handler.
    fn on_event(
        &mut self,
        placement: &mut dyn Placement,
        event: Event,
    ) -> Result<(), RuntimeError> {
        let Event {
            time: now_ms,
            shard,
            kind,
            ..
        } = event;
        let handled = match kind {
            EventKind::Complete { epoch } => self.on_complete(shard, now_ms, epoch),
            EventKind::Timer => {
                let state = &mut self.shards[shard];
                if now_ms.to_bits() == state.pending_timer.to_bits() {
                    state.pending_timer = f64::INFINITY;
                }
                self.attempt_dispatch(shard, now_ms)
            }
            EventKind::Fault { index } => {
                self.on_fault(shard, now_ms, self.config.faults.events()[index].kind);
                Ok(())
            }
            EventKind::Recover => self.on_recover(shard, now_ms),
            EventKind::DegradeEnd => {
                let state = &mut self.shards[shard];
                state.degrade_depth = state.degrade_depth.saturating_sub(1);
                if state.degrade_depth == 0 {
                    state.degrade_factor = 1.0;
                }
                Ok(())
            }
            EventKind::StallEnd => {
                let state = &mut self.shards[shard];
                state.stall_depth = state.stall_depth.saturating_sub(1);
                if state.stall_depth == 0 {
                    state.stall_extra_ms = 0.0;
                }
                Ok(())
            }
            EventKind::Retry { slot } => self.on_retry(placement, slot, shard, now_ms),
            EventKind::Hedge { slot } => self.on_hedge(slot, shard, now_ms),
            EventKind::Preempt { epoch } => self.on_preempt(shard, now_ms, epoch),
            EventKind::ScaleTick => {
                let ticked = self.on_scale_tick(now_ms);
                // A tick can park or wake any shard.
                self.refresh_all_views();
                ticked
            }
        };
        self.refresh_view(shard);
        handled
    }

    /// A scheduled fault fires: a crash, or a degrade, compile-stall or
    /// transient compile-failure window opens.
    fn on_fault(&mut self, shard: usize, now_ms: f64, kind: FaultKind) {
        let state = &mut self.shards[shard];
        match kind {
            FaultKind::Crash { recover_ms } => self.on_crash(shard, now_ms, recover_ms),
            FaultKind::Degrade { factor, window_ms } => {
                state.degrade_depth += 1;
                // Overlapping windows: the most recent factor wins.
                state.degrade_factor = factor;
                self.push_event(
                    now_ms + window_ms,
                    CLASS_FAULT,
                    shard,
                    EventKind::DegradeEnd,
                );
            }
            FaultKind::StallCompile {
                extra_ms,
                window_ms,
            } => {
                state.stall_depth += 1;
                state.stall_extra_ms = extra_ms;
                self.push_event(now_ms + window_ms, CLASS_FAULT, shard, EventKind::StallEnd);
            }
            // Closes by timestamp comparison; blocked shards schedule
            // their own wake.
            FaultKind::TransientCompileFail { window_ms } => {
                state.compile_fail_until = state.compile_fail_until.max(now_ms + window_ms);
            }
        }
    }

    /// An urgent arrival evicts the running batch (unless the epoch is
    /// stale — the batch completed, or was already evicted, at this
    /// instant). Unlike a crash abort, the partial work is *billed*:
    /// the elapsed slice counts as busy time and is reported as
    /// preempted busy time, so preemption's cost is visible without
    /// ever double-counting (the victims' eventual completion bills
    /// its own full batch). Victims re-enter their queue behind more
    /// urgent work but ahead of their own class peers, preserving
    /// their mutual order.
    fn on_preempt(&mut self, shard: usize, now_ms: f64, epoch: u64) -> Result<(), RuntimeError> {
        {
            let state = &mut self.shards[shard];
            let Some(batch) = state.in_flight.take() else {
                return Ok(()); // already completed, crashed or evicted
            };
            if batch.epoch != epoch {
                state.in_flight = Some(batch); // stale: a newer batch runs
                return Ok(());
            }
            // A same-instant completion (class 1 < 6) would have fired
            // first, so the eviction always lands strictly before the
            // batch's completion: elapsed < compile + service.
            let elapsed_ms = now_ms - batch.record.start_ms;
            let report = &mut state.core.report;
            report.busy_ms += elapsed_ms;
            report.fault.preemptions += 1;
            report.fault.preempted_busy_ms += elapsed_ms;
            report.fault.preempted_requests += batch.requests.len() as u64;
            let mut victims = batch.requests;
            for victim in &victims {
                self.class_stats[usize::from(victim.class)].preempted += 1;
                self.preempted_ids.set(victim.id);
            }
            state.core.requeue(&victims, now_ms);
            victims.clear();
            state.spare = victims;
        }
        self.attempt_dispatch(shard, now_ms)
    }

    /// One autoscaler evaluation: complete finished drains, update the
    /// hysteresis streaks from the backlog-per-active-shard gauge, and
    /// act at most once — activate the cheapest eligible shard on a
    /// sustained high, drain the costliest on a sustained low.
    fn on_scale_tick(&mut self, now_ms: f64) -> Result<(), RuntimeError> {
        // Ticks are only scheduled when an enabled policy (and with
        // it the frontier) exists; the guards make that local.
        let Some(scale) = self.config.scale else {
            return Ok(());
        };
        #[allow(clippy::needless_range_loop)]
        for shard in 0..self.shards.len() {
            if self.draining[shard] && self.shards[shard].outstanding() == 0 {
                self.draining[shard] = false;
                self.active[shard] = false;
                self.scale_stats.drains_completed += 1;
            }
        }
        self.scale_stats.evaluations += 1;
        let active_count = self.active.iter().filter(|&&a| a).count().max(1);
        let load = self.backlog() as f64 / active_count as f64;
        if load >= scale.high_watermark {
            self.up_streak += 1;
        } else {
            self.up_streak = 0;
        }
        if load <= scale.low_watermark {
            self.down_streak += 1;
        } else {
            self.down_streak = 0;
        }
        let Some(frontier) = self.frontier.as_ref() else {
            return Ok(());
        };
        if self.up_streak >= scale.hysteresis_ticks {
            // Scale up: the cheapest shard (under the observed mix)
            // among those not currently accepting, gated by the energy
            // budget — never activate capacity the headroom cannot pay
            // for. Cancelling an in-progress drain beats powering a
            // parked shard (same index rule: cheapest wins).
            let budget = (1.0 + scale.energy_headroom) * frontier.frontier_cost(&self.mix_counts);
            let candidate = frontier.cheapest(
                &self.mix_counts,
                (0..self.shards.len()).filter(|&s| {
                    !self.accepting(s) && frontier.cost_per_request(s, &self.mix_counts) <= budget
                }),
            );
            if let Some(shard) = candidate {
                self.draining[shard] = false;
                self.active[shard] = true;
                self.scale_stats.scale_ups += 1;
                self.up_streak = 0;
                self.down_streak = 0;
                if self.shards[shard].core.depth() > 0 && self.idle_and_up(shard) {
                    self.attempt_dispatch(shard, now_ms)?;
                }
            }
        } else if self.down_streak >= scale.hysteresis_ticks {
            // Scale down: drain the costliest accepting shard, never
            // below the floor. The drain finishes on a later tick once
            // the shard runs empty (drain-before-remove).
            let accepting_count = (0..self.shards.len())
                .filter(|&s| self.accepting(s))
                .count();
            if accepting_count > scale.min_active {
                let candidate = frontier.costliest(
                    &self.mix_counts,
                    (0..self.shards.len()).filter(|&s| self.accepting(s)),
                );
                if let Some(shard) = candidate {
                    self.draining[shard] = true;
                    self.scale_stats.scale_downs += 1;
                    self.up_streak = 0;
                    self.down_streak = 0;
                }
            }
        }
        // Re-arm while there is anything left to observe: future
        // arrivals, outstanding work, or an unfinished drain.
        let more = self.global_future.iter().sum::<usize>() > 0
            || self.backlog() > 0
            || self.draining.iter().any(|&d| d);
        if more {
            self.push_event(
                now_ms + scale.period_ms,
                CLASS_SCALE,
                0,
                EventKind::ScaleTick,
            );
        }
        Ok(())
    }

    /// A batch finished (unless a crash aborted it first — then the
    /// epoch is stale and the event is a no-op).
    fn on_complete(&mut self, shard: usize, now_ms: f64, epoch: u64) -> Result<(), RuntimeError> {
        let state = &mut self.shards[shard];
        let Some(batch) = state.in_flight.take() else {
            return Ok(()); // aborted by a crash, shard idle since
        };
        if batch.epoch != epoch {
            state.in_flight = Some(batch); // stale event, newer batch running
            return Ok(());
        }
        let track = self.config.track_ids();
        let mut newly_served = std::mem::take(&mut self.newly_served);
        newly_served.clear();
        let state = &mut self.shards[shard];
        let mut requests = batch.requests;
        let record = batch.record;
        state.core.note_batch(record, now_ms);
        for request in &requests {
            if track {
                if self.served.set(request.id) {
                    // A hedge twin already won: this completion is
                    // billed (busy time above) but not served.
                    continue;
                }
                newly_served.push(request.id);
                self.failed_ids.clear(request.id);
            }
            state
                .core
                .note_served(request, record.start_ms, now_ms, record.size);
        }
        requests.clear();
        state.spare = requests;
        // First completion wins: queued hedge twins of the ids just
        // served are cancelled cluster-wide.
        if self.config.hedge.is_some() && !newly_served.is_empty() {
            for state in &mut self.shards {
                state.core.cancel(&newly_served, now_ms);
            }
            // The cancel can shrink any shard's queue.
            self.refresh_all_views();
        }
        self.newly_served = newly_served;
        self.attempt_dispatch(shard, now_ms)
    }

    /// A crash fires: the shard goes dark, the in-flight batch is
    /// aborted and its requests enter retry.
    fn on_crash(&mut self, shard: usize, now_ms: f64, recover_ms: f64) {
        let until = now_ms + recover_ms;
        let schedule_recover = {
            let state = &mut self.shards[shard];
            state.core.report.fault.crashes += 1;
            match state.down_until {
                None => {
                    state.down_since = now_ms;
                    state.down_until = Some(until);
                    true
                }
                Some(current) if until > current => {
                    // Overlapping crash extends the outage; the
                    // earlier recovery event goes stale.
                    state.down_until = Some(until);
                    true
                }
                Some(_) => false,
            }
        };
        if schedule_recover {
            self.push_event(until, CLASS_FAULT, shard, EventKind::Recover);
        }
        if let Some(batch) = self.shards[shard].in_flight.take() {
            self.shards[shard].core.report.fault.aborted_batches += 1;
            // Aborted work is lost: not billed as busy time, no batch
            // or request records. The victims follow the retry policy.
            let mut victims = batch.requests;
            for request in &victims {
                self.retry_or_fail(request, now_ms, shard);
            }
            victims.clear();
            self.shards[shard].spare = victims;
        }
    }

    /// The recovery instant arrives (stale if a later crash extended
    /// the outage).
    fn on_recover(&mut self, shard: usize, now_ms: f64) -> Result<(), RuntimeError> {
        {
            let state = &mut self.shards[shard];
            if state.down_until.map(f64::to_bits) != Some(now_ms.to_bits()) {
                return Ok(()); // stale: a later crash extended the outage
            }
            state.down_until = None;
            state.core.report.fault.downtime_ms += now_ms - state.down_since;
        }
        self.attempt_dispatch(shard, now_ms)
    }

    /// Schedules a retry for a crash victim, or abandons it once the
    /// policy is exhausted.
    fn retry_or_fail(&mut self, request: &Request, now_ms: f64, from_shard: usize) {
        if self.served.contains(request.id) {
            return; // a hedge twin already completed it
        }
        let retries_so_far = self.attempts.get(&request.id).copied().unwrap_or(0);
        let retry = &self.config.retry;
        let fire_ms = now_ms + retry.backoff_ms(retries_so_far + 1);
        let within_timeout = fire_ms - request.arrival_ms <= retry.timeout_for(request.class);
        if !retry.allows(retries_so_far) || !within_timeout {
            if !self.failed_ids.set(request.id) {
                self.failed.push(*request);
            }
            return;
        }
        self.attempts.insert(request.id, retries_so_far + 1);
        self.class_stats[usize::from(request.class)].retries += 1;
        self.shards[from_shard].core.report.fault.retries += 1;
        // Ids are trace positions (the id contract).
        let slot = request.id as usize;
        self.push_event(fire_ms, CLASS_RETRY, from_shard, EventKind::Retry { slot });
    }

    /// A retry fires: re-place the request against the live view (so
    /// healthy siblings win — failover) and enqueue it.
    fn on_retry(
        &mut self,
        placement: &mut dyn Placement,
        slot: usize,
        from_shard: usize,
        now_ms: f64,
    ) -> Result<(), RuntimeError> {
        let request = self.trace[slot];
        if self.served.contains(request.id) {
            return Ok(()); // a twin won while the backoff elapsed
        }
        let Some(target) = self.replace_online(placement, &request)? else {
            if !self.failed_ids.set(request.id) {
                self.failed.push(request);
            }
            return Ok(());
        };
        if target != from_shard {
            self.class_stats[usize::from(request.class)].failovers += 1;
            self.shards[target].core.report.fault.failovers += 1;
        }
        self.shards[target].core.enqueue(request, now_ms);
        self.attempt_dispatch(target, now_ms)
    }

    /// A hedge delay expired with the request still incomplete:
    /// enqueue a duplicate on the second-best healthy shard.
    fn on_hedge(&mut self, slot: usize, origin: usize, now_ms: f64) -> Result<(), RuntimeError> {
        let request = self.trace[slot];
        if self.served.contains(request.id) {
            return Ok(()); // completed in time, nothing to hedge
        }
        let net = request.network;
        let costs = self.cluster.unit_service_ms();
        let bytes = self.cluster.unit_plan_bytes();
        let target = (0..self.shards.len())
            .filter(|&s| {
                s != origin
                    && self.shards[s].down_until.is_none()
                    && self.accepting(s)
                    && self.config.cache_budget.admits(s, bytes[s][net])
            })
            .min_by(|&a, &b| costs[a][net].total_cmp(&costs[b][net]).then(a.cmp(&b)));
        let Some(target) = target else {
            return Ok(()); // nowhere to hedge to; the original stands
        };
        self.class_stats[usize::from(request.class)].hedges += 1;
        self.shards[target].core.report.fault.hedges += 1;
        self.shards[target].core.enqueue(request, now_ms);
        self.attempt_dispatch(target, now_ms)
    }

    /// Evaluates a shard at `now_ms` — a no-op unless it is idle and
    /// up — through the shared ranking ([`ShardCore::next_batch`]) and
    /// either launches the most urgent ready batch or schedules the
    /// earliest batch-close timer. During a transient compile-failure
    /// window, ready batches whose plan is not resident are blocked and
    /// the next-best resident-plan batch launches instead (or the shard
    /// wakes when the window closes).
    fn attempt_dispatch(&mut self, shard: usize, now_ms: f64) -> Result<(), RuntimeError> {
        let attempted = self.try_launch(shard, now_ms);
        self.refresh_view(shard);
        attempted
    }

    /// [`Engine::attempt_dispatch`] without the view refresh.
    fn try_launch(&mut self, shard: usize, now_ms: f64) -> Result<(), RuntimeError> {
        if !self.idle_and_up(shard) {
            return Ok(());
        }
        let global_future = &self.global_future;
        let state = &mut self.shards[shard];
        let compile_fail = now_ms < state.compile_fail_until;
        let more_arrivals = |net: usize| global_future[net] > 0;
        let next = state
            .core
            .next_batch(self.policy, now_ms, more_arrivals, compile_fail);
        let (mut wake_ms, blocked) = match next {
            NextBatch::Launch { net, take } => return self.dispatch(shard, now_ms, net, take),
            NextBatch::Wait { wake_ms, blocked } => (wake_ms, blocked),
        };
        if blocked {
            state.core.report.fault.compile_failures += 1;
            wake_ms = wake_ms.min(state.compile_fail_until);
        }
        if wake_ms.is_finite() {
            // A batch-close event: without it, a queue whose deadline
            // expires between arrivals would stay open until the next
            // arrival happened by (the off-by-one-event bug).
            assert!(
                wake_ms > now_ms,
                "shard {shard} stalled at {now_ms} ms (policy asked to wait for the past)"
            );
            if wake_ms < state.pending_timer {
                state.pending_timer = wake_ms;
                self.push_event(wake_ms, CLASS_TIMER, shard, EventKind::Timer);
            }
        }
        Ok(())
    }

    /// Launches one batch: the shared pricing ([`ShardCore::price`])
    /// under the shard's live degrade and stall windows, and the
    /// completion event.
    fn dispatch(
        &mut self,
        shard: usize,
        now_ms: f64,
        net: usize,
        take: usize,
    ) -> Result<(), RuntimeError> {
        let state = &mut self.shards[shard];
        let degrade = (state.degrade_depth > 0).then_some(state.degrade_factor);
        let record = state.core.price(
            self.cluster,
            net,
            take,
            now_ms,
            degrade,
            state.stall_extra_ms,
        )?;
        let completion_ms = now_ms + record.compile_ms + record.service_ms;
        let mut requests = std::mem::take(&mut state.spare);
        state.core.take_batch(net, take, now_ms, &mut requests);
        state.epoch += 1;
        let epoch = state.epoch;
        state.in_flight = Some(InFlightBatch {
            record,
            epoch,
            requests,
        });
        self.push_event(
            completion_ms,
            CLASS_COMPLETE,
            shard,
            EventKind::Complete { epoch },
        );
        Ok(())
    }

    /// Closes the run: the shard reports (the drain assert, depth
    /// integrals, cache stats) and the exact-partition cleanup of the
    /// failed bucket.
    fn finish(mut self) -> ServeRun {
        let cores: Vec<ShardCore> = self
            .shards
            .into_iter()
            .map(|state| {
                assert!(
                    state.in_flight.is_none(),
                    "shard {} finished with a batch still in flight",
                    state.core.report.shard
                );
                state.core
            })
            .collect();
        let (reports, reconfig) = shard::close(cores);
        // A request that failed its retries but whose hedge twin later
        // completed anyway is served, not failed — keep the four
        // buckets an exact partition of the trace.
        let served = &self.served;
        self.failed.retain(|request| !served.contains(request.id));
        self.scale_stats.final_active = (0..self.active.len())
            .filter(|&shard| self.active[shard] && !self.draining[shard])
            .count();
        ServeRun {
            reports,
            rejected: self.rejected,
            shed: self.shed,
            failed: self.failed,
            class_stats: self.class_stats,
            preempted: self.preempted_ids.iter().collect(),
            scale: self.scale_stats,
            reconfig,
        }
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::serve::shard::{best_config, PlanCache};

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
    fn cache_budget_admission() {
        assert!(CacheBudget::Unbounded.admits(3, u64::MAX));
        assert!(CacheBudget::Uniform(10).admits(0, 10));
        assert!(!CacheBudget::Uniform(10).admits(0, 11));
        let per = CacheBudget::PerShard(vec![5, 50]);
        assert!(!per.admits(0, 20));
        assert!(per.admits(1, 20));
        assert_eq!(CacheBudget::Uniform(32 * 1024).label(), "32KiB");
    }

    #[test]
    fn events_order_by_time_class_then_seq() {
        let mut heap = BinaryHeap::new();
        let ev = |time, class, seq| Event {
            time,
            class,
            seq,
            shard: 0,
            kind: EventKind::Timer,
        };
        heap.push(ev(5.0, CLASS_TIMER, 0));
        heap.push(ev(5.0, CLASS_COMPLETE, 1));
        heap.push(ev(4.0, CLASS_TIMER, 2));
        heap.push(ev(5.0, CLASS_COMPLETE, 3));
        heap.push(ev(5.0, CLASS_FAULT, 4));
        heap.push(ev(5.0, CLASS_HEDGE, 5));
        heap.push(ev(5.0, CLASS_RETRY, 6));
        heap.push(ev(5.0, CLASS_SCALE, 7));
        heap.push(ev(5.0, CLASS_PREEMPT, 8));
        let order: Vec<(f64, u8, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.time, e.class, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (4.0, CLASS_TIMER, 2),
                (5.0, CLASS_COMPLETE, 1),
                (5.0, CLASS_COMPLETE, 3),
                (5.0, CLASS_TIMER, 0),
                (5.0, CLASS_FAULT, 4),
                (5.0, CLASS_RETRY, 6),
                (5.0, CLASS_HEDGE, 5),
                (5.0, CLASS_PREEMPT, 8),
                (5.0, CLASS_SCALE, 7),
            ],
            "completions before timers before faults before retries before \
             hedges before preemptions before scale ticks"
        );
    }

    #[test]
    fn id_set_tracks_word_edges_and_reports_the_previous_bit() {
        let n = 130;
        let mut set = IdSet::with_len(n);
        let edges = [0, 63, 64, n as u64 - 1];
        for &id in &edges {
            assert!(!set.contains(id));
            assert!(!set.set(id), "id {id} was clear");
            assert!(set.contains(id));
            assert!(set.set(id), "id {id} was already set");
        }
        assert!(!set.contains(1) && !set.contains(62) && !set.contains(65));
        assert_eq!(set.iter().collect::<Vec<_>>(), edges, "ascending scan");
        set.clear(63);
        assert!(!set.contains(63) && set.contains(64));
        assert!(!set.set(63), "a cleared id reads as clear");
        // An unsized set is empty: reads are false, clears are no-ops.
        let mut unsized_set = IdSet::with_len(0);
        unsized_set.clear(5);
        assert!(!unsized_set.contains(5));
        assert_eq!(unsized_set.iter().count(), 0);
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
}
