//! The per-shard core both serving worlds share.
//!
//! The discrete-event engine's `ShardState` and the live twin's worker
//! thread each wrap one [`ShardCore`], so every per-shard decision the
//! two worlds make is written once:
//!
//! * **admission** — per-network queues, the reconfiguration window
//!   fed by admissions only, and the re-placement rule ([`place`]);
//! * **ready-queue ranking** — [`BatchPolicy::decide`] per queue, then
//!   class, urgency and network ([`ShardCore::next_batch`]);
//! * **batch pricing** — the memoized service time, the degrade
//!   multiplier, the reconfiguration penalty, the compile charge plus
//!   any stall surcharge, and the plan cache ([`ShardCore::price`]);
//! * **accounting** — the time-weighted depth gauge, the
//!   [`ShardTally`], the opt-in records and the closed [`ShardReport`]
//!   ([`close`]).
//!
//! What differs between the worlds stays with the caller: the engine
//! owns its event queue and epochs and sequences the fault, recovery
//! and control-plane state; the live worker owns its channels,
//! transport gating, wall-clock sleeps and atomics. Both price batches
//! under `ShardFaults::price` (`serve/fault.rs`) and fill a `LiveView`
//! (`serve/placement.rs`) for placement. Every method takes simulated
//! instants as inputs and reads no clock.

use super::engine::{CacheBudget, EngineConfig};
use super::fault::ShardFaultStats;
use super::load::Request;
use super::metrics::PlanCacheStats;
use super::placement::{ClusterView, Placement};
use super::policy::{BatchPolicy, PolicyDecision};
use super::scale::ReconfigStats;
use super::{BatchRecord, ServeCluster, ServedRequest, ShardReport, ShardTally};
use crate::backend::RuntimeError;
use std::collections::VecDeque;

/// Capacity-bounded LRU over simulated plan residency, keyed on
/// `(network, batch)`.
///
/// Slots are dense, `[network][batch]`, grown on first touch, so a
/// lookup is two indexed loads. The resident keys also sit in an
/// unordered list that the eviction scan walks; `last_use` ticks are
/// unique, so the LRU victim is always unambiguous.
#[derive(Debug)]
pub(super) struct PlanCache {
    budget: Option<u64>,
    /// `(bytes, last_use)` per plan; `last_use == 0` marks an empty
    /// slot (ticks start at 1).
    slots: Vec<Vec<(u64, u64)>>,
    /// Keys of the resident plans, in no particular order.
    resident: Vec<(usize, usize)>,
    resident_bytes: u64,
    tick: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    pub(super) fn new(budget: Option<u64>) -> Self {
        PlanCache {
            budget,
            slots: Vec::new(),
            resident: Vec::new(),
            resident_bytes: 0,
            tick: 0,
            stats: PlanCacheStats::default(),
        }
    }

    /// Whether a plan is resident right now (no stats side effects —
    /// the transient-compile-fail gate peeks without billing).
    pub(super) fn contains(&self, &(net, batch): &(usize, usize)) -> bool {
        self.slots
            .get(net)
            .and_then(|row| row.get(batch))
            .is_some_and(|&(_, last_use)| last_use != 0)
    }

    /// Looks up (and on miss admits) a plan, returning the simulated
    /// compile charge: 0 on a hit, `compile_ms` on a miss. Eviction is
    /// LRU until the new plan fits; a plan larger than the whole
    /// budget empties the cache and is admitted anyway (the engine's
    /// admission controller keeps such requests out, so this arises
    /// only when the cache is driven directly).
    #[inline]
    pub(super) fn access(
        &mut self,
        (net, batch): (usize, usize),
        bytes: u64,
        compile_ms: f64,
    ) -> f64 {
        self.stats.lookups += 1;
        self.tick += 1;
        if let Some(slot) = self.slots.get_mut(net).and_then(|row| row.get_mut(batch)) {
            if slot.1 != 0 {
                slot.1 = self.tick;
                self.stats.hits += 1;
                return 0.0;
            }
        }
        self.stats.misses += 1;
        if let Some(budget) = self.budget {
            while self.resident_bytes + bytes > budget {
                let slots = &self.slots;
                let Some(index) = (0..self.resident.len()).min_by_key(|&i| {
                    let (n, b) = self.resident[i];
                    slots[n][b].1
                }) else {
                    break;
                };
                let (n, b) = self.resident.swap_remove(index);
                let slot = &mut self.slots[n][b];
                self.resident_bytes -= slot.0;
                *slot = (0, 0);
                self.stats.evictions += 1;
            }
        }
        if self.slots.len() <= net {
            self.slots.resize_with(net + 1, Vec::new);
        }
        let row = &mut self.slots[net];
        if row.len() <= batch {
            row.resize(batch + 1, (0, 0));
        }
        row[batch] = (bytes, self.tick);
        self.resident.push((net, batch));
        self.resident_bytes += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.resident_bytes);
        compile_ms
    }

    pub(super) fn into_stats(mut self) -> PlanCacheStats {
        self.stats.resident_bytes = self.resident_bytes;
        self.stats
    }
}

/// Per-shard reconfiguration state: the admission window and the
/// pinned fabric configuration, priced once per run from the backend's
/// `Reconfigurable` capability.
///
/// Decisions read only the shard's *admission* history (arrival
/// enqueues — never retries, hedges or preemption re-queues, and never
/// completion timing), so the pinned configuration at any point is a
/// pure function of (trace, placement): trace-deterministic, inside
/// the live-twin oracle's timing-robust envelope.
struct ReconfigShard {
    /// Sliding window of admitted network ids, newest at the back.
    window: VecDeque<usize>,
    window_cap: usize,
    every: u64,
    admissions: u64,
    /// The currently pinned configuration index.
    pinned: usize,
    /// `cycles[config][network]`: whole-network compute cycles under a
    /// pinned configuration (pure integers — no float ties).
    cycles: Vec<Vec<u64>>,
    /// `penalty[config][network]`: pinned service-time multiplier
    /// relative to per-shape-best (always >= 1).
    penalty: Vec<Vec<f64>>,
    stats: ReconfigStats,
}

impl ReconfigShard {
    /// Feeds one admission into the window; every `every` admissions,
    /// re-pins the configuration minimising total cycles over the
    /// window's shape histogram (ties to the lowest index).
    fn observe(&mut self, net: usize) {
        self.window.push_back(net);
        if self.window.len() > self.window_cap {
            self.window.pop_front();
        }
        self.admissions += 1;
        if !self.admissions.is_multiple_of(self.every) {
            return;
        }
        self.stats.evaluations += 1;
        let mut counts = vec![0u64; self.cycles[0].len()];
        for &observed in &self.window {
            counts[observed] += 1;
        }
        let best = best_config(&self.cycles, &counts);
        if best != self.pinned {
            self.pinned = best;
            self.stats.reconfigs += 1;
        }
    }
}

/// The configuration minimising `Σ counts[net] × cycles[config][net]`
/// (ties to the lowest index; u128 accumulation cannot overflow).
pub(super) fn best_config(cycles: &[Vec<u64>], counts: &[u64]) -> usize {
    let mut best = 0usize;
    let mut best_cost = u128::MAX;
    for (config, row) in cycles.iter().enumerate() {
        let cost: u128 = row
            .iter()
            .zip(counts)
            .map(|(&c, &k)| u128::from(c) * u128::from(k))
            .sum();
        if cost < best_cost {
            best_cost = cost;
            best = config;
        }
    }
    best
}

/// Admission's placement rule: the placement's choice if its cache
/// budget can ever hold the request's plan and it accepts new work,
/// else the first shard that fits and accepts, else the first shard
/// that fits (scaling never causes a rejection), else `None` (admission
/// rejects). The live front door accepts on every shard.
///
/// # Errors
///
/// [`RuntimeError::PlacementOutOfRange`] when the placement names a
/// shard the cluster does not have.
#[inline]
pub(super) fn place(
    placement: &mut dyn Placement,
    request: &Request,
    view: &ClusterView<'_>,
    cluster: &ServeCluster,
    budget: &CacheBudget,
    accepting: impl Fn(usize) -> bool,
) -> Result<Option<usize>, RuntimeError> {
    let shard_count = cluster.shard_count();
    let chosen = placement.assign(request, view);
    if chosen >= shard_count {
        return Err(RuntimeError::PlacementOutOfRange {
            request: u64::from(request.id),
            shard: chosen,
            shard_count,
        });
    }
    let network = usize::from(request.network);
    let fits = |shard: usize| budget.admits(shard, cluster.unit_plan_bytes()[shard][network]);
    Ok(if fits(chosen) && accepting(chosen) {
        Some(chosen)
    } else {
        (0..shard_count)
            .find(|&shard| fits(shard) && accepting(shard))
            .or_else(|| (0..shard_count).find(|&shard| fits(shard)))
    })
}

/// What [`ShardCore::next_batch`] decided.
pub(super) enum NextBatch {
    /// Launch the first `take` requests of network `net`'s queue.
    Launch { net: usize, take: usize },
    /// Nothing launches now. `wake_ms` is the earliest batch-close
    /// instant a policy named (∞ = wait for the next arrival);
    /// `blocked` says the compile-failure gate held a ready batch back.
    Wait { wake_ms: f64, blocked: bool },
}

/// One shard's queues, pricing state and accounting.
pub(super) struct ShardCore {
    /// The report this core accumulates; callers add their own fault
    /// and recovery counters to `report.fault`.
    pub(super) report: ShardReport,
    /// Per-network FIFO queues of admitted-but-undispatched requests.
    queues: Vec<VecDeque<Request>>,
    /// Strict class order within a queue and across ready queues
    /// (preemption on); `false` keeps plain FIFO and urgency order.
    strict: bool,
    /// Keep [`ServedRequest`] and [`BatchRecord`] records.
    records: bool,
    compile_ms_per_layer: f64,
    /// Memoized service ms, `[network][batch]` (`None` = not yet
    /// compiled); first touch compiles the plan through the executor.
    service_ms: Vec<Vec<Option<f64>>>,
    cache: PlanCache,
    /// Serve-time reconfiguration state (`None` = the backend is not
    /// reconfigurable, or the feature is off).
    reconfig: Option<ReconfigShard>,
    /// Scratch for [`ShardCore::next_batch`]'s ready queues:
    /// `(head class, urgency, net, take)`.
    ready: Vec<(u8, f64, usize, usize)>,
    /// Live queued-request count (all networks).
    depth: usize,
    depth_max: usize,
    /// `∫ depth dt` for the time-weighted mean queue depth.
    depth_integral_ms: f64,
    depth_last_ms: f64,
}

// The engine calls the per-request methods below from another codegen
// unit; `#[inline]` lets them inline there, which its throughput needs.
impl ShardCore {
    /// One core per shard of `cluster`, configured by `config` (which
    /// [`EngineConfig::validate`] has accepted).
    pub(super) fn fleet(cluster: &ServeCluster, config: &EngineConfig) -> Vec<ShardCore> {
        let net_count = cluster.networks().len();
        // Reconfiguration pricing: pure integers off the backend's
        // cycle model, computed once per run (and only when the
        // feature is on — the default path never touches it).
        let net_shapes: Vec<Vec<sma_tensor::GemmShape>> = if config.reconfig.is_some() {
            cluster
                .networks()
                .iter()
                .map(sma_models::Network::gemm_shapes)
                .collect()
        } else {
            Vec::new()
        };
        let reconfig_shard = |shard: usize| -> Option<ReconfigShard> {
            let policy = config.reconfig?;
            let executor = cluster.shard_executor(shard);
            let backend = executor.backend();
            let rc = backend.as_reconfigurable()?;
            let cycles: Vec<Vec<u64>> = (0..rc.config_count())
                .map(|cfg| {
                    net_shapes
                        .iter()
                        .map(|shapes| rc.pinned_cycles(shapes, cfg))
                        .collect()
                })
                .collect();
            let penalty: Vec<Vec<f64>> = cycles
                .iter()
                .map(|row| {
                    net_shapes
                        .iter()
                        .zip(row)
                        .map(|(shapes, &pinned)| {
                            let flexible = rc.flexible_cycles(shapes).max(1);
                            pinned.max(flexible) as f64 / flexible as f64
                        })
                        .collect()
                })
                .collect();
            // The initial pin assumes a uniform mix (not counted as a
            // reconfiguration).
            let uniform = vec![1u64; net_count];
            Some(ReconfigShard {
                window: VecDeque::new(),
                window_cap: policy.window,
                every: policy.every as u64,
                admissions: 0,
                pinned: best_config(&cycles, &uniform),
                cycles,
                penalty,
                stats: ReconfigStats::default(),
            })
        };
        (0..cluster.shard_count())
            .map(|shard| ShardCore {
                report: ShardReport {
                    shard,
                    platform: cluster.platforms()[shard],
                    tally: ShardTally::default(),
                    requests: Vec::new(),
                    batches: Vec::new(),
                    busy_ms: 0.0,
                    makespan_ms: 0.0,
                    plans_compiled: Vec::new(),
                    cache: PlanCacheStats::default(),
                    queue_depth_mean: 0.0,
                    queue_depth_max: 0,
                    fault: ShardFaultStats::default(),
                },
                queues: vec![VecDeque::new(); net_count],
                strict: config.preempt.is_some(),
                records: config.records,
                compile_ms_per_layer: config.compile_ms_per_layer,
                // Batch-1 service times come off the cluster's
                // pre-compiled plans (bit-identical to a fresh
                // compile).
                service_ms: cluster.unit_service_ms()[shard]
                    .iter()
                    .map(|&ms| vec![None, Some(ms)])
                    .collect(),
                cache: PlanCache::new(config.cache_budget.for_shard(shard)),
                reconfig: reconfig_shard(shard),
                ready: Vec::new(),
                depth: 0,
                depth_max: 0,
                depth_integral_ms: 0.0,
                depth_last_ms: 0.0,
            })
            .collect()
    }

    /// Queued requests (all networks).
    #[inline]
    pub(super) fn depth(&self) -> usize {
        self.depth
    }

    /// Whether `net`'s queue holds anything.
    pub(super) fn has_queued(&self, net: usize) -> bool {
        !self.queues[net].is_empty()
    }

    /// Plan bytes resident in this shard's cache right now.
    #[inline]
    pub(super) fn resident_bytes(&self) -> u64 {
        self.cache.resident_bytes
    }

    /// Records a queue-depth change at `now_ms` (time-weighted).
    #[inline]
    fn note_depth(&mut self, now_ms: f64, depth: usize) {
        self.depth_integral_ms += self.depth as f64 * (now_ms - self.depth_last_ms);
        self.depth_last_ms = now_ms;
        self.depth = depth;
        self.depth_max = self.depth_max.max(depth);
    }

    /// Admits an arrival: enqueues it and feeds the reconfiguration
    /// window, which sees admissions only — never retries, hedges or
    /// preemption re-queues — so its decisions stay a pure function of
    /// (trace, placement).
    #[inline]
    pub(super) fn admit(&mut self, request: Request, now_ms: f64) {
        self.enqueue(request, now_ms);
        if let Some(rc) = &mut self.reconfig {
            rc.observe(usize::from(request.network));
        }
    }

    /// Enqueues one request. Without strict classes this is a FIFO
    /// push; with them, queues hold strict class order (stable FIFO
    /// within a class), so the dispatch head is always the most urgent
    /// admitted work.
    #[inline]
    pub(super) fn enqueue(&mut self, request: Request, now_ms: f64) {
        self.note_depth(now_ms, self.depth + 1);
        let queue = &mut self.queues[usize::from(request.network)];
        if self.strict {
            let pos = queue
                .iter()
                .take_while(|r| r.class <= request.class)
                .count();
            queue.insert(pos, request);
        } else {
            queue.push_back(request);
        }
    }

    /// Re-queues an evicted batch's members behind more urgent work
    /// but ahead of their own class peers. Reverse insertion at the
    /// class boundary keeps the victims' mutual order.
    pub(super) fn requeue(&mut self, victims: &[Request], now_ms: f64) {
        for victim in victims.iter().rev() {
            let queue = &mut self.queues[usize::from(victim.network)];
            let pos = queue.iter().take_while(|r| r.class < victim.class).count();
            queue.insert(pos, *victim);
        }
        self.note_depth(now_ms, self.depth + victims.len());
    }

    /// Drops every request queued for network `net` whose id is in
    /// `ids`, and says whether it dropped any. Callers pass the ids'
    /// own network: a request only ever waits in its network's queue.
    pub(super) fn cancel(&mut self, net: usize, ids: &[u32], now_ms: f64) -> bool {
        let queue = &mut self.queues[net];
        let before = queue.len();
        queue.retain(|r| !ids.contains(&r.id));
        let removed = before - queue.len();
        if removed > 0 {
            self.note_depth(now_ms, self.depth - removed);
        }
        removed > 0
    }

    /// Evaluates every non-empty queue at `now_ms` and picks the batch
    /// to launch. Ready queues rank by head class (strict classes
    /// only), then [`BatchPolicy::urgency`] (default: head arrival —
    /// FIFO across networks), then the lowest network index; networks
    /// are distinct, so the order is total. While `compile_fail` holds,
    /// a ready batch whose plan is not resident is skipped for the
    /// next-best one.
    #[inline]
    pub(super) fn next_batch(
        &mut self,
        policy: &dyn BatchPolicy,
        now_ms: f64,
        more_arrivals: impl Fn(usize) -> bool,
        compile_fail: bool,
    ) -> NextBatch {
        self.ready.clear();
        let mut wake_ms = f64::INFINITY;
        for (net, queue) in self.queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            // O(1) when the ring has not wrapped since the last front
            // drain; policies see a plain FIFO slice.
            let contiguous: &[Request] = queue.make_contiguous();
            match policy.decide(contiguous, now_ms, more_arrivals(net)) {
                PolicyDecision::Dispatch { take } => {
                    let take = take.clamp(1, contiguous.len());
                    let urgency = policy.urgency(contiguous, now_ms);
                    let class = if self.strict { contiguous[0].class } else { 0 };
                    self.ready.push((class, urgency, net, take));
                }
                PolicyDecision::WaitUntil(at) => wake_ms = wake_ms.min(at),
                PolicyDecision::WaitForArrivals => {}
            }
        }
        self.ready
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut blocked = false;
        for &(_, _, net, take) in &self.ready {
            if compile_fail && !self.cache.contains(&(net, take)) {
                blocked = true; // compile would fail; try the next queue
                continue;
            }
            return NextBatch::Launch { net, take };
        }
        NextBatch::Wait { wake_ms, blocked }
    }

    /// Prices a batch of `take` requests of `net` starting at
    /// `start_ms`: the memoized service time (first touch compiles the
    /// plan through the executor), times `degrade` when a degrade
    /// window is active (counted as a degraded batch), times the pinned
    /// configuration's penalty; and the compile-on-miss charge plus
    /// `stall_extra_ms`, billed through the plan cache.
    ///
    /// # Errors
    ///
    /// The backend's [`RuntimeError`] when it rejects the batched-plan
    /// compile.
    #[inline]
    pub(super) fn price(
        &mut self,
        cluster: &ServeCluster,
        net: usize,
        take: usize,
        start_ms: f64,
        degrade: Option<f64>,
        stall_extra_ms: f64,
    ) -> Result<BatchRecord, RuntimeError> {
        let shard = self.report.shard;
        let memo = &mut self.service_ms[net];
        let service_base = match memo.get(take).copied().flatten() {
            Some(ms) => ms,
            None => {
                let plan = cluster
                    .shard_executor(shard)
                    .with_batch(take)
                    .try_plan(&cluster.networks()[net])?;
                self.report.plans_compiled.push((net, take));
                let ms = plan.run().total_ms;
                if memo.len() <= take {
                    memo.resize(take + 1, None);
                }
                memo[take] = Some(ms);
                ms
            }
        };
        // FlexSA-style reduced mode: inside a degrade window the batch
        // runs slower by the window's factor. (Guarded so the
        // fault-free path performs the exact same float ops.)
        let mut service_ms = match degrade {
            Some(factor) => {
                self.report.fault.degraded_batches += 1;
                service_base * factor
            }
            None => service_base,
        };
        // Serve-time reconfiguration: the pinned fabric configuration
        // pays its latency penalty relative to per-shape-best. (Also
        // guarded — `None` performs no float ops at all.)
        if let Some(rc) = &self.reconfig {
            service_ms *= rc.penalty[rc.pinned][net];
        }
        // Simulated plan residency: a miss bills the compile before
        // the batch starts (0 with free compiles), plus any stall
        // surcharge.
        let compile_charge = self.compile_ms_per_layer
            * cluster.unit_plan(shard, net).layer_count() as f64
            + stall_extra_ms;
        let compile_ms = self.cache.access(
            (net, take),
            cluster.unit_plan_bytes()[shard][net],
            compile_charge,
        );
        Ok(BatchRecord {
            network: net,
            size: take,
            start_ms,
            service_ms,
            compile_ms,
        })
    }

    /// Moves the first `take` requests of `net`'s queue into `into`.
    #[inline]
    pub(super) fn take_batch(
        &mut self,
        net: usize,
        take: usize,
        now_ms: f64,
        into: &mut Vec<Request>,
    ) {
        // Slice copies, not `extend(drain(..))`, which moves one
        // request at a time.
        let queue = &mut self.queues[net];
        let (front, back) = queue.as_slices();
        let from_front = take.min(front.len());
        into.extend_from_slice(&front[..from_front]);
        into.extend_from_slice(&back[..take - from_front]);
        queue.drain(..take);
        self.note_depth(now_ms, self.depth - take);
    }

    /// Accounts one completed batch finishing at `finish_ms`: its
    /// tally entry, record and busy time. Its served members follow
    /// through [`ShardCore::note_served`].
    #[inline]
    pub(super) fn note_batch(&mut self, batch: BatchRecord, finish_ms: f64) {
        self.report.tally.note_batch(batch.size);
        self.report.busy_ms += batch.compile_ms + batch.service_ms;
        self.report.makespan_ms = finish_ms;
        if self.records {
            self.report.batches.push(batch);
        }
    }

    /// Accounts one served request of a batch of `batch_size` that
    /// started at `start_ms`.
    #[inline]
    pub(super) fn note_served(
        &mut self,
        request: &Request,
        start_ms: f64,
        completion_ms: f64,
        batch_size: usize,
    ) {
        let served = ServedRequest {
            id: request.id,
            network: request.network,
            arrival_ms: request.arrival_ms,
            deadline_ms: request.deadline_ms,
            class: request.class,
            start_ms,
            completion_ms,
            // A batch never outgrows its queue, nor a queue its trace
            // (at most 2^32 requests); saturate rather than wrap.
            batch_size: u32::try_from(batch_size).unwrap_or(u32::MAX),
        };
        self.report.tally.note_served(&served);
        if self.records {
            self.report.requests.push(served);
        }
    }
}

/// Closes every shard's report against the cluster-wide horizon (the
/// latest makespan) — depth integral, depth maximum, cache counters —
/// and sums the shards' reconfiguration counters.
///
/// # Panics
///
/// Panics if a shard still holds queued requests (its policy never
/// became ready — a bug in the policy, not in the caller's input).
pub(super) fn close(cores: Vec<ShardCore>) -> (Vec<ShardReport>, ReconfigStats) {
    let makespan_ms = cores
        .iter()
        .map(|core| core.report.makespan_ms)
        .fold(0.0_f64, f64::max);
    let mut reconfig = ReconfigStats::default();
    let reports = cores
        .into_iter()
        .map(|mut core| {
            assert!(
                core.queues.iter().all(VecDeque::is_empty),
                "shard {} stalled with queued requests (policy never became ready)",
                core.report.shard
            );
            core.note_depth(core.depth_last_ms.max(makespan_ms), 0);
            core.report.queue_depth_mean = if makespan_ms > 0.0 {
                core.depth_integral_ms / makespan_ms
            } else {
                0.0
            };
            core.report.queue_depth_max = core.depth_max;
            core.report.cache = core.cache.into_stats();
            if let Some(rc) = &core.reconfig {
                reconfig.evaluations += rc.stats.evaluations;
                reconfig.reconfigs += rc.stats.reconfigs;
            }
            core.report
        })
        .collect();
    (reports, reconfig)
}

#[cfg(test)]
mod tests;
