//! The discrete-event serving engine.
//!
//! One deterministic event queue drives the whole cluster: **arrival**
//! events admit requests (invoking the [`Placement`] online, with a
//! live [`ClusterView`]), **batch-close** events fire at the instant a
//! [`BatchPolicy`] named in a [`PolicyDecision::WaitUntil`],
//! **service-complete** events free a shard and let it dispatch again,
//! and **fault** events from the configured [`FaultPlan`] crash,
//! degrade or stall shards (recovery — retries, hedges — rides the
//! same order). Events are totally ordered by `(time, class,
//! sequence)` — time via `f64::total_cmp`, then arrivals before
//! completions before timers before fault/retry/hedge events at equal
//! instants, and a monotone sequence number last — so a run is a pure
//! function of its inputs: byte-identical across repeats, machines and
//! worker-thread counts, with or without faults.
//!
//! Three sorted sources feed that order. The arrival trace is already
//! sorted. Hedge timers fire one constant delay after their arrival, so
//! they are created in firing order and wait in a FIFO. Everything else
//! sits in a binary heap keyed by two integers: the instant's bits
//! mapped to `f64::total_cmp` order, and `class << 56 | seq`. The event
//! loop merges the three heads.
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
//! The engine itself is the event core: the queue, the trace cursor,
//! the shard states, dispatch, the outcome lists and the live view
//! placements read. Each opt-in feature owns its state and decisions
//! beside its policy and is one `Option` field here, `None` when off:
//! recovery and hedging (`serve/fault.rs`, with each shard's fault
//! windows), preemption (`serve/slo.rs`) and the autoscaler
//! (`serve/scale.rs`). Reconfiguration lives in the shard core.
//!
//! Request ids are trace positions, checked before the first event
//! (`serve/validate.rs`): the per-request sets are bitsets indexed by
//! id, and retry and hedge events carry a trace slot, not a copy of the
//! request. A completion cancels queued copies only of ids that a hedge
//! actually duplicated, and only in the finished batch's network queue;
//! only shards that lost a copy refresh their live view. The cluster
//! backlog the shed check and the autoscaler read is a counter kept
//! beside that view.
//!
//! The fault model, injected-event ordering and recovery semantics are
//! specified in `docs/FAULT_TOLERANCE.md`; an empty [`FaultPlan`] (the
//! default) leaves every byte of the fault-free engine's output
//! untouched, pinned by `tests/serve_fault.rs`.

use super::fault::{
    ClassFaultStats, FaultKind, FaultPlan, HedgePolicy, Hedging, IdSet, Recovery, RetryPolicy,
    ShardFaults, ShedPolicy,
};
use super::load::Request;
use super::placement::{LiveView, Placement, ShardGauge};
use super::policy::BatchPolicy;
use super::scale::{AutoscalePolicy, Autoscaler, ReconfigPolicy, ReconfigStats, ScaleStats};
use super::shard::{self, NextBatch, ShardCore};
use super::slo::{PreemptPolicy, Preemption};
use super::{BatchRecord, ServeCluster, ShardReport};
use crate::backend::RuntimeError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    pub(crate) fn for_shard(&self, shard: usize) -> Option<u64> {
        match self {
            CacheBudget::Unbounded => None,
            CacheBudget::Uniform(bytes) => Some(*bytes),
            CacheBudget::PerShard(bytes) => bytes.get(shard).copied(),
        }
    }

    /// Whether a plan of `bytes` can ever be resident on `shard`.
    #[must_use]
    pub(crate) fn admits(&self, shard: usize, bytes: u64) -> bool {
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
    /// records. Outcomes are identical either way; records cost 48
    /// bytes per served request ([`ServedRequest`](super::ServedRequest))
    /// and 40 per batch ([`BatchRecord`](super::BatchRecord)).
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
///
/// `rejected`, `shed` and `preempted` are [`IdSet`]s, one bit per
/// trace position: they iterate in ascending id, which is arrival
/// order, and a caller that needs a whole [`Request`] reads it back
/// from the trace by id. `failed` keeps its `Request`s in failure
/// order.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// One report per shard, in shard order.
    pub reports: Vec<ShardReport>,
    /// Ids rejected at admission (no shard's cache budget could ever
    /// hold their plan). Empty under an unbounded budget.
    pub rejected: IdSet,
    /// Ids shed by the [`ShedPolicy`] watermark (also counted per
    /// class in [`ClassFaultStats::shed`]). Empty without a shed
    /// policy.
    pub shed: IdSet,
    /// Requests abandoned after exhausting their [`RetryPolicy`], in
    /// failure order. Empty without faults.
    pub failed: Vec<Request>,
    /// Per-SLO-class recovery counters, indexed by class.
    pub class_stats: Vec<ClassFaultStats>,
    /// Ids whose batch a [`PreemptPolicy`] evicted at least once. Not
    /// a fifth partition bucket — preemption re-queues, so
    /// every preempted id still lands in exactly one of the four
    /// buckets (preempted-then-served = this set ∩ served, pinned by
    /// `tests/serve_scale.rs`).
    pub preempted: IdSet,
    /// Autoscaler counters (zero counts and the whole fleet active
    /// without an enabled [`AutoscalePolicy`]).
    pub scale: ScaleStats,
    /// Reconfiguration counters (all zero without a
    /// [`ReconfigPolicy`]).
    pub reconfig: ReconfigStats,
}

impl ServeRun {
    /// Per-class counters for a trace whose highest SLO class is
    /// `max_class`: one slot per class up to it, and one slot for an
    /// empty trace (`None`). The engine and the live twin both size
    /// [`ServeRun::class_stats`] here.
    pub(super) fn class_slots(max_class: Option<u8>) -> Vec<ClassFaultStats> {
        vec![ClassFaultStats::default(); max_class.map_or(1, |c| usize::from(c) + 1)]
    }

    /// The scale report of a static fleet (no enabled autoscaler): zero
    /// counts, every shard still accepting work. The engine without an
    /// [`AutoscalePolicy`] and the live twin both report this.
    pub(super) fn static_fleet(shard_count: usize) -> ScaleStats {
        ScaleStats {
            final_active: shard_count,
            ..ScaleStats::default()
        }
    }
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
    /// The degrade or compile-stall window of fault event `index`
    /// closes.
    WindowEnd { index: usize },
    /// The crash victim at trace position `slot` re-enters admission
    /// after its backoff; the event's shard is the one it crashed on.
    Retry { slot: usize },
    /// An urgent arrival claimed the shard: evict the running batch of
    /// epoch `epoch` (stale epochs — the batch completed or was
    /// already evicted at this instant — are ignored).
    Preempt { epoch: u64 },
    /// The autoscaler evaluates the fleet against the energy frontier.
    ScaleTick,
}

/// One queued engine event. Ordering is ascending `(time, class,
/// seq)`; `seq` is a global push counter, so ties are broken by
/// creation order and the queue is a total order. Both halves of the
/// order are plain integers, so a heap comparison is two `u64`
/// compares: `time` is [`time_key`] of the instant, and `tie` packs
/// `class << 56 | seq`.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: u64,
    tie: u64,
    shard: usize,
    kind: EventKind,
}

// Every heap push and pop moves entries, so events stay small: no
// variant may carry a `Request` or other bulky payload.
const _: () = assert!(std::mem::size_of::<Event>() <= 40);

/// Bits of `seq` in [`Event::tie`]; the class sits above them.
const SEQ_BITS: u32 = 56;

/// Maps an instant to a `u64` whose unsigned order is exactly
/// [`f64::total_cmp`] order: negative values flip every bit, the rest
/// flip only the sign bit. [`key_time`] inverts it bit for bit.
#[inline]
fn time_key(time: f64) -> u64 {
    let bits = time.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// The instant whose [`time_key`] is `key`.
#[inline]
fn key_time(key: u64) -> f64 {
    f64::from_bits(key ^ ((key >> 63).wrapping_sub(1) | 1 << 63))
}

impl Event {
    fn new(time: f64, class: u8, seq: u64, shard: usize, kind: EventKind) -> Self {
        debug_assert!(
            seq < 1 << SEQ_BITS,
            "event sequence overflowed its key bits"
        );
        Event {
            time: time_key(time),
            tie: u64::from(class) << SEQ_BITS | seq,
            shard,
            kind,
        }
    }

    /// The `(time, class << 56 | seq)` pair the heap orders by.
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.tie)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
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

/// Live state of one shard inside the event loop: the shared
/// [`ShardCore`] plus what only the event loop tracks.
struct ShardState {
    core: ShardCore,
    /// The executing batch (`None` = idle).
    in_flight: Option<InFlightBatch>,
    /// Monotone dispatch counter backing [`InFlightBatch::epoch`].
    epoch: u64,
    /// Crash outage and open fault windows (empty without faults).
    faults: ShardFaults,
    /// Earliest batch-close timer currently scheduled (dedup only —
    /// stale timers are harmless, they just re-evaluate).
    pending_timer: f64,
    /// The last finished batch's request buffer, emptied and kept for
    /// the next dispatch.
    spare: Vec<Request>,
}

/// The engine proper: the event core (queue, shard states, dispatch,
/// outcome lists and the live view) plus one field per opt-in feature,
/// each `None` when its feature is off. Each feature's state and
/// decisions live beside its policy; the handlers here sequence them.
/// The placement is threaded through the handlers that consult it (it
/// is the caller's mutable state).
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
    rejected: IdSet,
    shed: IdSet,
    /// Per-SLO-class recovery counters, one entry per class in the
    /// trace.
    class_stats: Vec<ClassFaultStats>,
    /// Arrivals still to come, per network.
    global_future: Vec<usize>,
    /// The live view placements read, kept current by
    /// [`Engine::refresh_view`] as shard state changes.
    view: LiveView,
    /// Served and failed ids and retry attempts (only when
    /// [`EngineConfig::track_ids`] holds).
    recovery: Option<Recovery>,
    hedging: Option<Hedging>,
    preemption: Option<Preemption>,
    /// Only for an enabled [`AutoscalePolicy`].
    autoscaler: Option<Autoscaler>,
}

/// Runs the engine. Consumes the placement's mutable state for one
/// run; everything else is borrowed immutably, so distinct runs (and
/// distinct combos in the benchmark matrix) share one compiled
/// [`ServeCluster`]. The config and trace are checked before any
/// event runs ([`EngineConfig::validate`]).
pub(super) fn run_engine(
    cluster: &ServeCluster,
    policy: &dyn BatchPolicy,
    placement: &mut dyn Placement,
    trace: &[Request],
    config: &EngineConfig,
) -> Result<ServeRun, RuntimeError> {
    let mut engine = Engine::new(cluster, policy, config, trace)?;
    engine.schedule_faults();
    if let Some(first_ms) = engine.autoscaler.as_ref().map(Autoscaler::first_tick_ms) {
        engine.push_event(first_ms, CLASS_SCALE, 0, EventKind::ScaleTick);
    }

    let mut cursor = 0usize;
    loop {
        // Merge three sorted sources by `(time, class, seq)`. The hedge
        // FIFO holds all of class 5 and the heap none of it, so their
        // heads never tie; arrivals (class 0) win every time tie.
        let event = engine.heap.peek().map(Event::key);
        let hedge = engine
            .hedging
            .as_ref()
            .and_then(|hedging| hedging.timers.front())
            .map(|timer| (time_key(timer.time), u64::from(CLASS_HEDGE) << SEQ_BITS));
        let timed = match (hedge, event) {
            (Some(h), Some(e)) => Some(h.min(e)),
            (h, e) => h.or(e),
        };
        let take_arrival = trace
            .get(cursor)
            .is_some_and(|r| timed.is_none_or(|(time, _)| time_key(r.arrival_ms) <= time));
        if take_arrival {
            engine.on_arrival(placement, cursor)?;
            cursor += 1;
        } else if timed.is_none() {
            break;
        } else if timed == hedge {
            if let Some(timer) = engine.hedging.as_mut().and_then(|h| h.timers.pop_front()) {
                engine.on_hedge(timer.slot, timer.shard, timer.time)?;
            }
        } else if let Some(event) = engine.heap.pop() {
            engine.on_event(placement, event)?;
        }
    }
    Ok(engine.finish())
}

impl<'a> Engine<'a> {
    /// Builds the run state, after [`EngineConfig::validate`] accepts
    /// the config and trace.
    fn new(
        cluster: &'a ServeCluster,
        policy: &'a dyn BatchPolicy,
        config: &'a EngineConfig,
        trace: &'a [Request],
    ) -> Result<Self, RuntimeError> {
        config.validate(cluster, trace)?;
        let shards: Vec<ShardState> = ShardCore::fleet(cluster, config)
            .into_iter()
            .map(|core| ShardState {
                core,
                in_flight: None,
                epoch: 0,
                faults: ShardFaults::default(),
                pending_timer: f64::INFINITY,
                spare: Vec::new(),
            })
            .collect();
        let mut global_future = vec![0usize; cluster.networks().len()];
        let mut max_class = None;
        for request in trace {
            global_future[usize::from(request.network)] += 1;
            max_class = max_class.max(Some(request.class));
        }
        Ok(Engine {
            cluster,
            policy,
            config,
            trace,
            shards,
            heap: BinaryHeap::new(),
            seq: 0,
            rejected: IdSet::default(),
            shed: IdSet::default(),
            class_stats: ServeRun::class_slots(max_class),
            global_future,
            view: LiveView::new(cluster.shard_count()),
            recovery: config.track_ids().then(Recovery::default),
            hedging: config.hedge.map(Hedging::new),
            preemption: config.preempt.map(Preemption::new),
            autoscaler: Autoscaler::new(config.scale, cluster),
        })
    }

    /// Seeds the event queue with the configured fault schedule.
    fn schedule_faults(&mut self) {
        for (index, fault) in self.config.faults.events().iter().enumerate() {
            self.push_event(
                fault.at_ms,
                CLASS_FAULT,
                fault.shard,
                EventKind::Fault { index },
            );
        }
    }

    fn push_event(&mut self, time: f64, class: u8, shard: usize, kind: EventKind) {
        self.heap
            .push(Event::new(time, class, self.seq, shard, kind));
        self.seq += 1;
    }

    /// Whether a shard can dispatch right now.
    fn idle_and_up(&self, shard: usize) -> bool {
        let state = &self.shards[shard];
        state.in_flight.is_none() && state.faults.is_up()
    }

    /// Whether the autoscaler lets a shard take *new* placements
    /// (always true for the static fleet).
    #[inline]
    fn accepting(&self, shard: usize) -> bool {
        self.autoscaler
            .as_ref()
            .is_none_or(|scaler| scaler.accepting(shard))
    }

    /// Whether a hedge twin or an earlier attempt already served `id`.
    fn is_served(&self, id: u32) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|recovery| recovery.is_served(id))
    }

    /// One shard's live-view entry, read from shard state.
    fn gauge(&self, shard: usize) -> ShardGauge {
        let state = &self.shards[shard];
        ShardGauge {
            queued: state.core.depth(),
            in_flight: state.in_flight.as_ref().map_or(0, |b| b.requests.len()),
            resident_plan_bytes: state.core.resident_bytes(),
            // Draining/parked shards read as unhealthy so health-aware
            // placements steer around them; the static fleet leaves
            // this the pure crash gauge.
            healthy: state.faults.is_up() && self.accepting(shard),
            degrade: state.faults.price().0.unwrap_or(1.0),
        }
    }

    /// Re-reads one shard's live-view entry. Every handler that changes
    /// a shard's queues, in-flight batch, cache, health or degrade
    /// state ends in a refresh of that shard, so the view placements
    /// read is always current. An event's own shard is refreshed once,
    /// by [`Engine::on_event`] after the handler, so handlers of events
    /// end in [`Engine::try_launch`] on it.
    fn refresh_view(&mut self, shard: usize) {
        let gauge = self.gauge(shard);
        self.view.set(shard, gauge);
    }

    /// Whether the maintained live view equals a rebuild from shard
    /// state (the debug-build check on the incremental refreshes).
    fn view_is_current(&self) -> bool {
        let mut rebuilt = LiveView::new(self.shards.len());
        for shard in 0..self.shards.len() {
            rebuilt.set(shard, self.gauge(shard));
        }
        rebuilt == self.view
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
        shard::place(
            placement,
            request,
            &self.view.of(self.cluster),
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
        let network = usize::from(request.network);
        self.global_future[network] -= 1;
        if let Some(scaler) = &mut self.autoscaler {
            scaler.observe(network);
        }

        // Graceful degradation: under backlog pressure, shed by SLO
        // class before placement even runs.
        let shed_now =
            self.config.shed.as_ref().is_some_and(|p| {
                p.sheds(request.class, self.class_stats.len(), self.view.backlog())
            });

        let mut target: Option<usize> = None;
        if shed_now {
            self.class_stats[usize::from(request.class)].shed += 1;
            self.shed.set(request.id);
        } else {
            target = self.replace_online(placement, &request)?;
            match target {
                Some(shard) => {
                    self.shards[shard].core.admit(request, now_ms);
                    if let Some(hedging) = &mut self.hedging {
                        hedging.arm(now_ms, shard, slot);
                    }
                    // Preemption: an arrival urgent enough to displace
                    // the running batch claims the shard via a
                    // fixed-slot event, so every same-instant
                    // completion/fault/recovery settles first (a batch
                    // completing at this exact instant completes — its
                    // Preempt goes stale).
                    if let (Some(preemption), Some(batch)) =
                        (&self.preemption, &self.shards[shard].in_flight)
                    {
                        if preemption.evicts(request.class, &batch.requests) {
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
                None => {
                    self.rejected.set(request.id);
                }
            }
        }
        // Tail flush: the last arrival of a network is an event for
        // *every* shard still holding that network — `more_arrivals`
        // just flipped false cluster-wide, and without this
        // re-evaluation a size-triggered policy would strand its
        // stragglers.
        if self.global_future[network] == 0 {
            for shard in 0..self.shards.len() {
                if target == Some(shard) {
                    continue; // already evaluated above
                }
                if self.idle_and_up(shard) && self.shards[shard].core.has_queued(network) {
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
        let now_ms = key_time(event.time);
        let Event { shard, kind, .. } = event;
        let handled = match kind {
            EventKind::Complete { epoch } => self.on_complete(shard, now_ms, epoch),
            EventKind::Timer => {
                let state = &mut self.shards[shard];
                if now_ms.to_bits() == state.pending_timer.to_bits() {
                    state.pending_timer = f64::INFINITY;
                }
                self.try_launch(shard, now_ms)
            }
            EventKind::Fault { index } => {
                self.on_fault(shard, now_ms, index);
                Ok(())
            }
            EventKind::Recover => self.on_recover(shard, now_ms),
            EventKind::WindowEnd { index } => {
                self.shards[shard].faults.close(index);
                Ok(())
            }
            EventKind::Retry { slot } => self.on_retry(placement, slot, shard, now_ms),
            EventKind::Preempt { epoch } => self.on_preempt(shard, now_ms, epoch),
            EventKind::ScaleTick => {
                let ticked = self.on_scale_tick(now_ms);
                // A tick can park or wake any shard.
                for shard in 0..self.shards.len() {
                    self.refresh_view(shard);
                }
                ticked
            }
        };
        // The single refresh of the event's shard.
        self.refresh_view(shard);
        handled
    }

    /// A scheduled fault fires: a crash, or a degrade, compile-stall or
    /// transient compile-failure window opens.
    fn on_fault(&mut self, shard: usize, now_ms: f64, index: usize) {
        let kind = self.config.faults.events()[index].kind;
        if let FaultKind::Crash { recover_ms } = kind {
            self.on_crash(shard, now_ms, recover_ms);
        } else if let Some(end_ms) = self.shards[shard].faults.open(index, kind, now_ms) {
            self.push_event(end_ms, CLASS_FAULT, shard, EventKind::WindowEnd { index });
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
            if let Some(preemption) = &mut self.preemption {
                preemption.note(&victims, &mut self.class_stats);
            }
            state.core.requeue(&victims, now_ms);
            victims.clear();
            state.spare = victims;
        }
        self.try_launch(shard, now_ms)
    }

    /// One autoscaler evaluation against the live view, then its
    /// decision: dispatch an activated shard that has work waiting,
    /// and re-arm the tick.
    fn on_scale_tick(&mut self, now_ms: f64) -> Result<(), RuntimeError> {
        debug_assert!(
            self.view_is_current(),
            "the live view drifted from shard state"
        );
        let more_arrivals = self.global_future.iter().sum::<usize>() > 0;
        let Some(scaler) = &mut self.autoscaler else {
            return Ok(()); // ticks exist only with an autoscaler
        };
        let view = self.view.of(self.cluster);
        let decision = scaler.tick(now_ms, &view, self.view.backlog(), more_arrivals);
        if let Some(shard) = decision.activated {
            if self.shards[shard].core.depth() > 0 && self.idle_and_up(shard) {
                self.attempt_dispatch(shard, now_ms)?;
            }
        }
        if let Some(next_ms) = decision.next_ms {
            self.push_event(next_ms, CLASS_SCALE, 0, EventKind::ScaleTick);
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
        let mut requests = batch.requests;
        let record = batch.record;
        state.core.note_batch(record, now_ms);
        for request in &requests {
            if let Some(recovery) = &mut self.recovery {
                if !recovery.serve(request.id) {
                    // A hedge twin already won: this completion is
                    // billed (busy time above) but not served.
                    continue;
                }
                if let Some(hedging) = &mut self.hedging {
                    if hedging.hedged.contains(request.id) {
                        hedging.served_twins.push(request.id);
                    }
                }
            }
            state
                .core
                .note_served(request, record.start_ms, now_ms, record.size);
        }
        requests.clear();
        state.spare = requests;
        // First completion wins: queued copies of the hedged ids just
        // served are cancelled cluster-wide. Every copy of an id shares
        // its network, so only that queue is scanned, and only shards
        // that lost a copy refresh their view.
        let mut twins = self
            .hedging
            .as_mut()
            .map(|h| std::mem::take(&mut h.served_twins))
            .unwrap_or_default();
        if !twins.is_empty() {
            for other in 0..self.shards.len() {
                if self.shards[other]
                    .core
                    .cancel(record.network, &twins, now_ms)
                {
                    self.refresh_view(other);
                }
            }
            twins.clear();
        }
        if let Some(hedging) = &mut self.hedging {
            hedging.served_twins = twins; // the buffer, kept for reuse
        }
        self.try_launch(shard, now_ms)
    }

    /// A crash fires: the shard goes dark, the in-flight batch is
    /// aborted and its requests enter retry.
    fn on_crash(&mut self, shard: usize, now_ms: f64, recover_ms: f64) {
        let until = now_ms + recover_ms;
        let state = &mut self.shards[shard];
        state.core.report.fault.crashes += 1;
        if state.faults.crash(now_ms, until) {
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
        let state = &mut self.shards[shard];
        let Some(downtime_ms) = state.faults.recover(now_ms) else {
            return Ok(()); // stale: a later crash extended the outage
        };
        state.core.report.fault.downtime_ms += downtime_ms;
        self.try_launch(shard, now_ms)
    }

    /// Schedules a retry for a crash victim, or abandons it once the
    /// policy is exhausted.
    fn retry_or_fail(&mut self, request: &Request, now_ms: f64, from_shard: usize) {
        // Crashes come only from a fault plan, which builds recovery.
        let Some(recovery) = &mut self.recovery else {
            return;
        };
        let Some(fire_ms) = recovery.retry(&self.config.retry, request, now_ms) else {
            return;
        };
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
        if self.is_served(request.id) {
            return Ok(()); // a twin won while the backoff elapsed
        }
        let Some(target) = self.replace_online(placement, &request)? else {
            if let Some(recovery) = &mut self.recovery {
                recovery.fail(&request);
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

    /// A hedge timer fired with the request still incomplete: enqueue a
    /// duplicate on the second-best healthy shard and mark the id
    /// hedged, so the first completion cancels the other copy.
    fn on_hedge(&mut self, slot: usize, origin: usize, now_ms: f64) -> Result<(), RuntimeError> {
        let request = self.trace[slot];
        if self.is_served(request.id) {
            return Ok(()); // completed in time, nothing to hedge
        }
        let target = Hedging::target(
            self.cluster,
            &self.config.cache_budget,
            origin,
            usize::from(request.network),
            |s| self.shards[s].faults.is_up() && self.accepting(s),
        );
        let (Some(target), Some(hedging)) = (target, &mut self.hedging) else {
            return Ok(()); // nowhere to hedge to; the original stands
        };
        hedging.hedged.set(request.id);
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
        let compile_fail_until = state.faults.compile_fail_until;
        let more_arrivals = |net: usize| global_future[net] > 0;
        let next = state.core.next_batch(
            self.policy,
            now_ms,
            more_arrivals,
            now_ms < compile_fail_until,
        );
        let (mut wake_ms, blocked) = match next {
            NextBatch::Launch { net, take } => return self.dispatch(shard, now_ms, net, take),
            NextBatch::Wait { wake_ms, blocked } => (wake_ms, blocked),
        };
        if blocked {
            state.core.report.fault.compile_failures += 1;
            wake_ms = wake_ms.min(compile_fail_until);
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
    /// under the shard's open fault windows, and the completion event.
    fn dispatch(
        &mut self,
        shard: usize,
        now_ms: f64,
        net: usize,
        take: usize,
    ) -> Result<(), RuntimeError> {
        let state = &mut self.shards[shard];
        let (degrade, stall_extra_ms) = state.faults.price();
        let record = state
            .core
            .price(self.cluster, net, take, now_ms, degrade, stall_extra_ms)?;
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
    /// integrals, cache stats) and each feature's outcome.
    fn finish(self) -> ServeRun {
        let shard_count = self.shards.len();
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
        ServeRun {
            reports,
            rejected: self.rejected,
            shed: self.shed,
            failed: self.recovery.map_or_else(Vec::new, Recovery::into_failed),
            class_stats: self.class_stats,
            preempted: self
                .preemption
                .map_or_else(IdSet::default, Preemption::into_ids),
            scale: self
                .autoscaler
                .map_or(ServeRun::static_fleet(shard_count), Autoscaler::finish),
            reconfig,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ev = |time, class, seq| Event::new(time, class, seq, 0, EventKind::Timer);
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
            .map(|e| {
                let (time, tie) = e.key();
                (
                    key_time(time),
                    (tie >> SEQ_BITS) as u8,
                    tie & ((1 << SEQ_BITS) - 1),
                )
            })
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

    /// Instants the key must order exactly like `f64::total_cmp`: both
    /// zeros, subnormals, the normal extremes, both infinities and NaNs
    /// of either sign with quiet, signalling and payload bits.
    const EDGE_TIMES: [u64; 20] = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x8000_0000_0000_0001,
        0x000F_FFFF_FFFF_FFFF, // largest subnormal
        0x800F_FFFF_FFFF_FFFF,
        0x0010_0000_0000_0000, // f64::MIN_POSITIVE
        0x3FF0_0000_0000_0000, // 1.0
        0xBFF0_0000_0000_0000, // -1.0
        0x7FEF_FFFF_FFFF_FFFF, // f64::MAX
        0xFFEF_FFFF_FFFF_FFFF, // f64::MIN
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x7FF8_0000_0000_0000, // quiet NaN
        0xFFF8_0000_0000_0000, // negative quiet NaN
        0x7FF0_0000_0000_0001, // signalling NaN
        0xFFF0_0000_0000_0001,
        0x7FFF_FFFF_FFFF_FFFF, // NaN, every payload bit set
        0xFFFF_FFFF_FFFF_FFFF,
        0x7FF8_DEAD_BEEF_0001, // NaN with a payload
    ];

    /// An edge instant when `pick` indexes [`EDGE_TIMES`], else the raw
    /// `bits` (any finite, infinite or NaN value).
    fn instant(pick: usize, bits: u64) -> f64 {
        f64::from_bits(EDGE_TIMES.get(pick).copied().unwrap_or(bits))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// The integer event key sorts exactly like `(f64::total_cmp(time),
        /// class, seq)` and gives every instant back bit for bit. `b_pick`
        /// past the edge table and the raw range reuses `a`'s instant, so
        /// equal times (and with them class and seq ties) come up often.
        #[test]
        fn event_key_orders_like_total_cmp_then_class_then_seq(
            a_pick in 0usize..40,
            a_bits in 0u64..u64::MAX,
            b_pick in 0usize..48,
            b_bits in 0u64..u64::MAX,
            a_class in 0u64..8,
            b_class in 0u64..8,
            a_seq in 0u64..(1 << SEQ_BITS),
            b_seq_pick in 0u64..(1 << SEQ_BITS),
        ) {
            let a_time = instant(a_pick, a_bits);
            let b_time = if b_pick >= 40 { a_time } else { instant(b_pick, b_bits) };
            // Half the time b reuses a's seq, so full ties come up too.
            let b_seq = if b_seq_pick % 2 == 0 { a_seq } else { b_seq_pick };
            let (a_class, b_class) = (a_class as u8, b_class as u8);
            let a = Event::new(a_time, a_class, a_seq, 0, EventKind::Timer);
            let b = Event::new(b_time, b_class, b_seq, 1, EventKind::Timer);
            let expected = a_time
                .total_cmp(&b_time)
                .then(a_class.cmp(&b_class))
                .then(a_seq.cmp(&b_seq));
            proptest::prop_assert_eq!(a.key().cmp(&b.key()), expected);
            // The heap's max-first order is the reverse.
            proptest::prop_assert_eq!(a.cmp(&b), expected.reverse());
            proptest::prop_assert_eq!(key_time(a.time).to_bits(), a_time.to_bits());
            proptest::prop_assert_eq!(key_time(b.time).to_bits(), b_time.to_bits());
        }
    }
}
