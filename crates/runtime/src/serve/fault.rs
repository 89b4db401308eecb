//! Deterministic fault injection and recovery policy.
//!
//! A [`FaultPlan`] is a pre-drawn schedule of shard faults — crashes,
//! FlexSA-style degraded windows, compile stalls and transient compile
//! failures — generated from its **own** splitmix64 stream
//! ([`SeededRng`]). The plan draws nothing from the arrival RNG, so a
//! trace generated with any seed is bit-identical with and without a
//! fault plan, and a zero-rate plan is exactly the fault-free engine
//! (pinned by `tests/serve_fault.rs`).
//!
//! Faults enter the engine as first-class events in the one global
//! queue (see `docs/FAULT_TOLERANCE.md` for the total order), and the
//! recovery side is policy: [`RetryPolicy`] (bounded attempts,
//! exponential backoff in *simulated* milliseconds, per-class
//! timeouts), opt-in [`HedgePolicy`] (duplicate a straggling request
//! onto the second-best healthy shard; first completion wins, the
//! loser is cancelled if queued and billed if in flight) and
//! [`ShedPolicy`] (admission shedding by SLO class once cluster-wide
//! backlog crosses a watermark — lowest class first).
//! The engine's per-run state for them lives here too: each shard's
//! `ShardFaults`, and `Recovery` and `Hedging`, built only when used.

use super::engine::CacheBudget;
use super::load::{Request, SeededRng};
use super::placement;
use super::ServeCluster;
use crate::backend::RuntimeError;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};

/// What happens to a shard when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The shard goes dark for `recover_ms`: its in-flight batch is
    /// aborted (victims follow the [`RetryPolicy`]) and nothing
    /// dispatches until recovery.
    Crash {
        /// Simulated downtime, ms (must be finite and positive — a
        /// shard that never recovers would wedge queued requests).
        recover_ms: f64,
    },
    /// FlexSA-style reduced mode: batch service times are multiplied
    /// by `factor` for `window_ms` (the shard keeps serving, slower).
    /// Overlapping windows nest: the most recently opened window that is
    /// still open sets the factor.
    Degrade {
        /// Service-time multiplier (≥ 1).
        factor: f64,
        /// How long the degraded window lasts, ms.
        window_ms: f64,
    },
    /// Plan compiles stall: every compile-on-miss inside the window
    /// bills `extra_ms` on top of the configured compile cost.
    StallCompile {
        /// Additional simulated compile latency per miss, ms.
        extra_ms: f64,
        /// How long the stall window lasts, ms.
        window_ms: f64,
    },
    /// Plan compiles fail outright: inside the window a batch whose
    /// plan is not already resident cannot dispatch (the shard falls
    /// back to queues with resident plans, or waits the window out).
    TransientCompileFail {
        /// How long compiles keep failing, ms.
        window_ms: f64,
    },
}

/// One scheduled fault: which shard, when, what.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Target shard index.
    pub shard: usize,
    /// Simulated instant the fault fires, ms.
    pub at_ms: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Relative weights of the four fault kinds in [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Weight of [`FaultKind::Crash`].
    pub crash: f64,
    /// Weight of [`FaultKind::Degrade`].
    pub degrade: f64,
    /// Weight of [`FaultKind::StallCompile`].
    pub stall: f64,
    /// Weight of [`FaultKind::TransientCompileFail`].
    pub compile_fail: f64,
}

impl FaultMix {
    /// Even weights over all four kinds.
    #[must_use]
    pub fn balanced() -> Self {
        FaultMix {
            crash: 1.0,
            degrade: 1.0,
            stall: 1.0,
            compile_fail: 1.0,
        }
    }

    /// Mostly crashes, some transient compile failures — the mix that
    /// exercises retry/failover hardest.
    #[must_use]
    pub fn crash_heavy() -> Self {
        FaultMix {
            crash: 0.7,
            degrade: 0.0,
            stall: 0.1,
            compile_fail: 0.2,
        }
    }

    /// Mostly degraded windows plus compile stalls — shards never go
    /// dark, they just slow down.
    #[must_use]
    pub fn degrade_heavy() -> Self {
        FaultMix {
            crash: 0.0,
            degrade: 0.7,
            stall: 0.3,
            compile_fail: 0.0,
        }
    }

    fn total(&self) -> f64 {
        self.crash + self.degrade + self.stall + self.compile_fail
    }
}

/// A pre-drawn, sorted schedule of shard faults.
///
/// The schedule is a pure function of `(seed, rate, shard count,
/// horizon, mix)`; generation uses a dedicated splitmix64 stream per
/// shard, decoupled from the arrival RNG — zero extra draws on the
/// trace generator, so arrivals stay bit-identical under any plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, the engine behaves exactly as the
    /// fault-free build.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule, sorted by `(at_ms, shard)`.
    #[must_use]
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds one hand-built fault (tests and targeted experiments),
    /// keeping the schedule sorted.
    ///
    /// # Panics
    ///
    /// Panics on non-finite instants, non-positive windows or recovery
    /// times, or a degrade factor below 1 — every one of those would
    /// wedge or bias the engine silently.
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        assert!(
            event.at_ms.is_finite() && event.at_ms >= 0.0,
            "fault instant must be finite and non-negative"
        );
        match event.kind {
            FaultKind::Crash { recover_ms } => assert!(
                recover_ms.is_finite() && recover_ms > 0.0,
                "a crash must recover after a finite positive downtime"
            ),
            FaultKind::Degrade { factor, window_ms } => assert!(
                factor.is_finite() && factor >= 1.0 && window_ms.is_finite() && window_ms > 0.0,
                "degrade needs factor >= 1 and a finite positive window"
            ),
            FaultKind::StallCompile {
                extra_ms,
                window_ms,
            } => assert!(
                extra_ms.is_finite() && extra_ms >= 0.0 && window_ms.is_finite() && window_ms > 0.0,
                "compile stall needs finite extra latency and window"
            ),
            FaultKind::TransientCompileFail { window_ms } => assert!(
                window_ms.is_finite() && window_ms > 0.0,
                "compile-fail window must be finite and positive"
            ),
        }
        self.events.push(event);
        self.events
            .sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms).then(a.shard.cmp(&b.shard)));
        self
    }

    /// Draws a schedule averaging `rate` faults per shard over
    /// `[0, horizon_ms)`, kinds weighted by `mix`. Each shard gets its
    /// own derived splitmix64 stream, so adding a shard never perturbs
    /// another shard's faults. `rate <= 0` (or a zero horizon) yields
    /// the empty plan.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite/negative rate or horizon, or a mix with
    /// no positive weight while `rate > 0`.
    #[must_use]
    pub fn generate(
        seed: u64,
        rate: f64,
        shard_count: usize,
        horizon_ms: f64,
        mix: &FaultMix,
    ) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "fault rate must be finite and non-negative"
        );
        assert!(
            horizon_ms.is_finite() && horizon_ms >= 0.0,
            "fault horizon must be finite and non-negative"
        );
        let mut plan = FaultPlan::none();
        if rate <= 0.0 || horizon_ms <= 0.0 || shard_count == 0 {
            return plan;
        }
        let total = mix.total();
        assert!(
            total.is_finite() && total > 0.0,
            "a positive fault rate needs at least one positive mix weight"
        );
        for shard in 0..shard_count {
            // One derived stream per shard (golden-ratio spaced), fully
            // decoupled from the arrival RNG.
            let mut rng = SeededRng::new(
                seed ^ (shard as u64)
                    .wrapping_mul(0xA24B_AED4_963E_E407)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15),
            );
            #[expect(
                clippy::disallowed_methods,
                reason = "rate was validated finite and non-negative above, so the floored cast is in range"
            )]
            let count = rate.floor() as usize + usize::from(rng.next_unit() < rate.fract());
            for _ in 0..count {
                // Faults land in the first 90% of the horizon so
                // recovery and window ends stay near the active run.
                let at_ms = rng.next_unit() * horizon_ms * 0.9;
                let pick = rng.next_unit() * total;
                let kind = if pick < mix.crash {
                    FaultKind::Crash {
                        recover_ms: (0.02 + 0.08 * rng.next_unit()) * horizon_ms,
                    }
                } else if pick < mix.crash + mix.degrade {
                    FaultKind::Degrade {
                        factor: 1.5 + 2.5 * rng.next_unit(),
                        window_ms: (0.05 + 0.15 * rng.next_unit()) * horizon_ms,
                    }
                } else if pick < mix.crash + mix.degrade + mix.stall {
                    FaultKind::StallCompile {
                        extra_ms: (0.001 + 0.004 * rng.next_unit()) * horizon_ms,
                        window_ms: (0.05 + 0.10 * rng.next_unit()) * horizon_ms,
                    }
                } else {
                    FaultKind::TransientCompileFail {
                        window_ms: (0.02 + 0.08 * rng.next_unit()) * horizon_ms,
                    }
                };
                plan = plan.with_event(FaultEvent { shard, at_ms, kind });
            }
        }
        plan
    }
}

/// Bounded retry with exponential backoff, in simulated milliseconds.
///
/// A request whose batch is aborted by a crash is re-placed after
/// `backoff_base_ms · 2^(retry-1)`, at most `max_attempts` total tries
/// (the first dispatch counts as try 1), and never past its class
/// timeout: class `k` gives up once the retry would fire more than
/// `timeout_ms · (k+1)` after arrival — lower-priority classes queue
/// longer, so they get proportionally more patience. Exhausted
/// requests land in `ServeRun::failed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total tries allowed per request (first dispatch included).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base_ms · 2^(n-1)`.
    pub backoff_base_ms: f64,
    /// Per-class give-up bound: class `k` abandons a retry that would
    /// fire later than `timeout_ms · (k+1)` after arrival
    /// (`f64::INFINITY` = never time out).
    pub timeout_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 1.0,
            timeout_ms: f64::INFINITY,
        }
    }
}

impl RetryPolicy {
    /// Whether another retry is allowed after `retries_so_far`
    /// already-scheduled retries.
    #[must_use]
    pub(crate) fn allows(&self, retries_so_far: u32) -> bool {
        retries_so_far + 1 < self.max_attempts
    }

    /// Backoff before retry number `retry` (1-based), ms.
    #[must_use]
    pub(crate) fn backoff_ms(&self, retry: u32) -> f64 {
        let exponent = retry.saturating_sub(1).min(52);
        self.backoff_base_ms * (1u64 << exponent) as f64
    }

    /// The absolute give-up bound (relative to arrival) for a class.
    #[must_use]
    pub(crate) fn timeout_for(&self, class: u8) -> f64 {
        self.timeout_ms * f64::from(u16::from(class) + 1)
    }
}

/// Opt-in request hedging: if an admitted request has not completed
/// `delay_ms` after admission, a duplicate is enqueued on the
/// second-best healthy shard (fastest batch-1 service for the network,
/// excluding the original target). First completion wins; a queued
/// loser is cancelled, an in-flight loser runs to completion and is
/// billed as busy time but never double-counted as served.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// How long a request may remain incomplete before it is hedged,
    /// ms. Derive from a tail service percentile (the benchmark uses
    /// the p99 of the cluster's batch-1 cost matrix). A negative or
    /// NaN delay is refused with
    /// [`RuntimeError::InvalidHedgeDelay`](crate::backend::RuntimeError::InvalidHedgeDelay).
    pub delay_ms: f64,
}

/// A dense set of request ids: one bit per trace position, in `u64`
/// words. Request ids are trace positions (checked before a run
/// starts), so this replaces a tree set at a bit per request. A set
/// sized for no ids allocates nothing and reads as empty.
#[derive(Debug)]
pub(super) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// An empty set with room for ids `0..len`.
    pub(super) fn with_len(len: usize) -> Self {
        IdSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Whether `id` is in the set.
    #[inline]
    pub(super) fn contains(&self, id: u32) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|word| word & (1 << (id % 64)) != 0)
    }

    /// Adds `id` and returns whether it was already in the set.
    #[inline]
    pub(super) fn set(&mut self, id: u32) -> bool {
        let word = &mut self.words[(id / 64) as usize];
        let bit = 1 << (id % 64);
        let was_set = *word & bit != 0;
        *word |= bit;
        was_set
    }

    /// Removes `id`.
    #[inline]
    fn clear(&mut self, id: u32) {
        if let Some(word) = self.words.get_mut((id / 64) as usize) {
            *word &= !(1 << (id % 64));
        }
    }

    /// The ids in the set, ascending.
    pub(super) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().zip(0u64..).flat_map(|(&word, index)| {
            (0..64)
                .filter(move |bit| word & (1 << bit) != 0)
                .map(move |bit| index * 64 + bit)
        })
    }
}

/// One shard's fault state: the crash outage and the open windows. A
/// fault-free shard keeps it empty: up, with no window open.
#[derive(Debug)]
pub(super) struct ShardFaults {
    /// The instant the shard comes back up (`None` = up).
    down_until: Option<f64>,
    /// When the current outage began (meaningful only while down).
    down_since: f64,
    /// Open degrade windows as `(fault index, factor)`, in opening
    /// order.
    degrade: Vec<(usize, f64)>,
    /// Open compile-stall windows as `(fault index, extra ms)`, in
    /// opening order.
    stall: Vec<(usize, f64)>,
    /// Transient compile failures are active while `now` is before
    /// this instant.
    pub(super) compile_fail_until: f64,
}

impl Default for ShardFaults {
    fn default() -> Self {
        ShardFaults {
            down_until: None,
            down_since: 0.0,
            degrade: Vec::new(),
            stall: Vec::new(),
            compile_fail_until: f64::NEG_INFINITY,
        }
    }
}

impl ShardFaults {
    /// The degrade and compile-stall windows of `shard` in `events`
    /// that cover `t_ms`, opened in plan order: how the live twin's
    /// workers, which see no fault events, price a batch.
    pub(super) fn windows_at(events: &[FaultEvent], shard: usize, t_ms: f64) -> Self {
        let mut faults = ShardFaults::default();
        for (index, event) in events.iter().enumerate() {
            if let FaultKind::Degrade { window_ms, .. }
            | FaultKind::StallCompile { window_ms, .. } = event.kind
            {
                if event.shard == shard && event.at_ms <= t_ms && t_ms < event.at_ms + window_ms {
                    faults.open(index, event.kind, event.at_ms);
                }
            }
        }
        faults
    }

    /// Whether the shard is up (no crash outage).
    #[inline]
    pub(super) fn is_up(&self) -> bool {
        self.down_until.is_none()
    }

    /// What a batch starting now pays, by the one rule both worlds
    /// share: the most recently opened window that is still open sets
    /// the price. Returns the degrade factor (`None` outside every
    /// degrade window; a factor-1.0 window still counts) and the
    /// compile-stall surcharge (0 outside every stall window).
    #[inline]
    pub(super) fn price(&self) -> (Option<f64>, f64) {
        (
            self.degrade.last().map(|&(_, factor)| factor),
            self.stall.last().map_or(0.0, |&(_, extra_ms)| extra_ms),
        )
    }

    /// Opens the window of fault `index` at `now_ms` and returns the
    /// instant it closes: `None` for a compile-failure window, which
    /// closes by timestamp comparison, and for a crash ([`Self::crash`]).
    pub(super) fn open(&mut self, index: usize, kind: FaultKind, now_ms: f64) -> Option<f64> {
        let (windows, value, window_ms) = match kind {
            FaultKind::Degrade { factor, window_ms } => (&mut self.degrade, factor, window_ms),
            FaultKind::StallCompile {
                extra_ms,
                window_ms,
            } => (&mut self.stall, extra_ms, window_ms),
            FaultKind::TransientCompileFail { window_ms } => {
                self.compile_fail_until = self.compile_fail_until.max(now_ms + window_ms);
                return None;
            }
            FaultKind::Crash { .. } => return None,
        };
        windows.push((index, value));
        Some(now_ms + window_ms)
    }

    /// Closes the degrade or compile-stall window of fault `index`.
    pub(super) fn close(&mut self, index: usize) {
        self.degrade.retain(|&(i, _)| i != index);
        self.stall.retain(|&(i, _)| i != index);
    }

    /// A crash at `now_ms` takes the shard down until `until`. Returns
    /// whether to schedule a recovery: an overlapping crash that ends
    /// later extends the outage (the earlier recovery goes stale), one
    /// that ends sooner changes nothing.
    pub(super) fn crash(&mut self, now_ms: f64, until: f64) -> bool {
        match self.down_until {
            None => self.down_since = now_ms,
            Some(current) if until > current => {}
            Some(_) => return false,
        }
        self.down_until = Some(until);
        true
    }

    /// Brings the shard up at `now_ms` and returns how long it was
    /// down, or `None` for a stale recovery.
    pub(super) fn recover(&mut self, now_ms: f64) -> Option<f64> {
        if self.down_until.map(f64::to_bits) != Some(now_ms.to_bits()) {
            return None;
        }
        self.down_until = None;
        Some(now_ms - self.down_since)
    }
}

/// Which ids a run has served or failed, and crash-retry's attempt
/// counts. Built only when a run can try to serve one id twice:
/// hedging, crash-retry or preemption.
#[derive(Debug)]
pub(super) struct Recovery {
    /// Ids already served (first completion wins).
    served: IdSet,
    /// Ids already in `failed` (dedup — hedge twins can fail twice).
    failed_ids: IdSet,
    failed: Vec<Request>,
    /// Retries scheduled so far, per request id.
    attempts: BTreeMap<u32, u32>,
}

impl Recovery {
    /// Recovery state for a trace of `len` requests.
    pub(super) fn new(len: usize) -> Self {
        Recovery {
            served: IdSet::with_len(len),
            failed_ids: IdSet::with_len(len),
            failed: Vec::new(),
            attempts: BTreeMap::new(),
        }
    }

    /// Whether `id` has been served.
    #[inline]
    pub(super) fn is_served(&self, id: u32) -> bool {
        self.served.contains(id)
    }

    /// Marks `id` served; `false` if a hedge twin already was (this
    /// completion is billed but not served).
    #[inline]
    pub(super) fn serve(&mut self, id: u32) -> bool {
        if self.served.set(id) {
            return false;
        }
        self.failed_ids.clear(id);
        true
    }

    /// Abandons a request (once per id).
    pub(super) fn fail(&mut self, request: &Request) {
        if !self.failed_ids.set(request.id) {
            self.failed.push(*request);
        }
    }

    /// A crash victim's fate at `now_ms`: the instant its retry fires,
    /// or `None` when it is already served or `policy` abandons it
    /// (attempts exhausted, or past its class timeout).
    pub(super) fn retry(
        &mut self,
        policy: &RetryPolicy,
        request: &Request,
        now_ms: f64,
    ) -> Option<f64> {
        if self.is_served(request.id) {
            return None;
        }
        let retries_so_far = self.attempts.get(&request.id).copied().unwrap_or(0);
        let fire_ms = now_ms + policy.backoff_ms(retries_so_far + 1);
        let within_timeout = fire_ms - request.arrival_ms <= policy.timeout_for(request.class);
        if !policy.allows(retries_so_far) || !within_timeout {
            self.fail(request);
            return None;
        }
        self.attempts.insert(request.id, retries_so_far + 1);
        Some(fire_ms)
    }

    /// The failed bucket, less requests a hedge twin served after they
    /// failed, so the four buckets stay an exact partition of the trace.
    pub(super) fn into_failed(mut self) -> Vec<Request> {
        let served = &self.served;
        self.failed.retain(|request| !served.contains(request.id));
        self.failed
    }
}

/// A pending hedge: at `time` the request at trace position `slot`,
/// admitted to `shard`, gets a twin unless it is already served.
#[derive(Debug, Clone, Copy)]
pub(super) struct HedgeTimer {
    pub(super) time: f64,
    pub(super) shard: usize,
    pub(super) slot: usize,
}

/// Request hedging's run state.
#[derive(Debug)]
pub(super) struct Hedging {
    delay_ms: f64,
    /// Pending timers in firing order. Every hedge fires one constant
    /// delay after its arrival, and arrivals are sorted, so a new timer
    /// goes to the back (signed zeros aside, see [`Hedging::arm`]);
    /// equal instants keep creation order.
    pub(super) timers: VecDeque<HedgeTimer>,
    /// Ids a hedge gave a twin: the only ids a completion may have to
    /// cancel a queued copy of.
    pub(super) hedged: IdSet,
    /// Scratch for the hedged ids one completion serves.
    pub(super) served_twins: Vec<u32>,
}

impl Hedging {
    /// Hedging over a trace of `len` requests. A negative or NaN delay
    /// is refused ([`RuntimeError::InvalidHedgeDelay`]): its twin would
    /// fire before the request arrived. `-0.0` is a valid zero delay.
    pub(super) fn new(policy: HedgePolicy, len: usize) -> Result<Self, RuntimeError> {
        let HedgePolicy { delay_ms } = policy;
        if delay_ms.is_nan() || delay_ms < 0.0 {
            return Err(RuntimeError::InvalidHedgeDelay {
                delay_ms_bits: delay_ms.to_bits(),
            });
        }
        Ok(Hedging {
            delay_ms,
            timers: VecDeque::new(),
            hedged: IdSet::with_len(len),
            served_twins: Vec::new(),
        })
    }

    /// Arms the hedge of the request at trace position `slot`, admitted
    /// to `shard` at `now_ms`.
    #[inline]
    pub(super) fn arm(&mut self, now_ms: f64, shard: usize, slot: usize) {
        let time = now_ms + self.delay_ms;
        // A push to the back: the last timer fires no later. Only
        // signed zeros (arrivals +0.0 then -0.0, delay -0.0) can break
        // that, and then the scan keeps `(time, seq)` order anyway.
        let at = self
            .timers
            .iter()
            .rposition(|t| t.time.total_cmp(&time) != Ordering::Greater)
            .map_or(0, |last| last + 1);
        self.timers.insert(at, HedgeTimer { time, shard, slot });
    }

    /// Where a twin of a request for `net` admitted to `origin` goes:
    /// the fastest batch-1 shard other than `origin` that is `usable`
    /// and whose cache budget can hold the plan (ties to the lowest
    /// index), or `None` — the original stands.
    pub(super) fn target(
        cluster: &ServeCluster,
        budget: &CacheBudget,
        origin: usize,
        net: usize,
        usable: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let costs = cluster.unit_service_ms();
        let bytes = cluster.unit_plan_bytes();
        placement::lowest(
            (0..cluster.shard_count())
                .filter(|&s| s != origin && usable(s) && budget.admits(s, bytes[s][net])),
            |s| costs[s][net],
            f64::total_cmp,
        )
    }
}

/// Graceful degradation by SLO class: once cluster-wide backlog
/// (queued + in flight) reaches the watermark, admission starts
/// shedding the **lowest-priority** class (the highest class number);
/// every further watermark of backlog sheds one class more. Class 0 is
/// shed only at `watermark · num_classes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Cluster-wide outstanding-request count at which the lowest
    /// class starts shedding.
    pub backlog_watermark: usize,
}

impl ShedPolicy {
    /// Whether a request of `class` (0 = highest priority) is shed at
    /// `backlog` outstanding requests, with `num_classes` classes in
    /// the trace.
    #[must_use]
    pub(crate) fn sheds(&self, class: u8, num_classes: usize, backlog: usize) -> bool {
        let rank = num_classes.saturating_sub(usize::from(class));
        backlog >= self.backlog_watermark.saturating_mul(rank.max(1))
    }
}

/// Per-shard fault and recovery counters, reported in
/// `ShardReport::fault` and aggregated into `ServeOutcome`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardFaultStats {
    /// Crash faults that hit this shard.
    pub crashes: u64,
    /// Total simulated milliseconds the shard was down.
    pub downtime_ms: f64,
    /// In-flight batches a crash aborted (their work is lost, not
    /// billed as busy time).
    pub aborted_batches: u64,
    /// Batches that executed inside a degraded window.
    pub degraded_batches: u64,
    /// Dispatch attempts blocked because the best ready batch needed a
    /// compile during a transient compile-failure window.
    pub compile_failures: u64,
    /// Retries scheduled for requests this shard's crashes aborted.
    pub retries: u64,
    /// Retried requests that landed here after failing over from
    /// another shard.
    pub failovers: u64,
    /// Hedge duplicates enqueued onto this shard.
    pub hedges: u64,
    /// In-flight batches an SLO-class preemption evicted (unlike a
    /// crash abort, the elapsed slice *is* billed as busy time).
    pub preemptions: u64,
    /// Requests those evictions re-queued.
    pub preempted_requests: u64,
    /// Busy milliseconds billed for evicted partial work (always less
    /// than the batch's full cost — a same-instant completion outranks
    /// the preemption event).
    pub preempted_busy_ms: f64,
}

impl ShardFaultStats {
    /// Fold another shard's counters into this one.
    pub(crate) fn absorb(&mut self, other: &ShardFaultStats) {
        self.crashes += other.crashes;
        self.downtime_ms += other.downtime_ms;
        self.aborted_batches += other.aborted_batches;
        self.degraded_batches += other.degraded_batches;
        self.compile_failures += other.compile_failures;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.hedges += other.hedges;
        self.preemptions += other.preemptions;
        self.preempted_requests += other.preempted_requests;
        self.preempted_busy_ms += other.preempted_busy_ms;
    }
}

/// Per-SLO-class recovery counters of one run (indexed by class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassFaultStats {
    /// Retries scheduled for this class.
    pub retries: u64,
    /// Hedge duplicates issued for this class.
    pub hedges: u64,
    /// Retries that landed on a different shard than the one that
    /// failed.
    pub failovers: u64,
    /// Requests of this class evicted by an SLO-class preemption (and
    /// re-queued).
    pub preempted: u64,
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
    )]

    use super::*;

    #[test]
    fn zero_rate_is_the_empty_plan() {
        let plan = FaultPlan::generate(7, 0.0, 6, 1000.0, &FaultMix::balanced());
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
        assert!(FaultPlan::generate(7, 2.0, 6, 0.0, &FaultMix::balanced()).is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let mix = FaultMix::balanced();
        let a = FaultPlan::generate(42, 2.5, 4, 800.0, &mix);
        let b = FaultPlan::generate(42, 2.5, 4, 800.0, &mix);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 2.5, 4, 800.0, &mix);
        assert_ne!(a, c, "different seed, different schedule");
        assert!(!a.is_empty());
    }

    #[test]
    fn schedule_is_sorted_and_in_horizon() {
        let plan = FaultPlan::generate(11, 3.0, 5, 1000.0, &FaultMix::balanced());
        let events = plan.events();
        assert!(
            events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms),
            "sorted by instant"
        );
        assert!(events.iter().all(|e| e.shard < 5));
        assert!(events.iter().all(|e| (0.0..1000.0).contains(&e.at_ms)));
    }

    #[test]
    fn adding_a_shard_never_perturbs_existing_streams() {
        let mix = FaultMix::crash_heavy();
        let four = FaultPlan::generate(9, 2.0, 4, 500.0, &mix);
        let five = FaultPlan::generate(9, 2.0, 5, 500.0, &mix);
        let only_first_four: Vec<FaultEvent> = five
            .events()
            .iter()
            .copied()
            .filter(|e| e.shard < 4)
            .collect();
        assert_eq!(four.events(), &only_first_four[..]);
    }

    #[test]
    fn mix_presets_bias_the_kinds() {
        let crashy = FaultPlan::generate(3, 4.0, 8, 1000.0, &FaultMix::crash_heavy());
        assert!(crashy
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Crash { .. })));
        assert!(!crashy
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Degrade { .. })));
        let slow = FaultPlan::generate(3, 4.0, 8, 1000.0, &FaultMix::degrade_heavy());
        assert!(slow
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Degrade { .. })));
        assert!(!slow
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Crash { .. })));
    }

    #[test]
    fn retry_policy_backoff_doubles_and_bounds_attempts() {
        let retry = RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 2.0,
            timeout_ms: 100.0,
        };
        assert_eq!(retry.backoff_ms(1), 2.0);
        assert_eq!(retry.backoff_ms(2), 4.0);
        assert_eq!(retry.backoff_ms(3), 8.0);
        assert!(retry.allows(0), "first retry (try 2 of 3)");
        assert!(retry.allows(1), "second retry (try 3 of 3)");
        assert!(!retry.allows(2), "a fourth try is out");
        assert_eq!(retry.timeout_for(0), 100.0);
        assert_eq!(retry.timeout_for(2), 300.0);
    }

    #[test]
    fn shed_policy_sheds_lowest_class_first() {
        let shed = ShedPolicy {
            backlog_watermark: 10,
        };
        // 3 classes: class 2 sheds at 10, class 1 at 20, class 0 at 30.
        assert!(!shed.sheds(2, 3, 9));
        assert!(shed.sheds(2, 3, 10));
        assert!(!shed.sheds(1, 3, 19));
        assert!(shed.sheds(1, 3, 20));
        assert!(!shed.sheds(0, 3, 29));
        assert!(shed.sheds(0, 3, 30));
    }

    #[test]
    fn hand_built_plans_stay_sorted() {
        let plan = FaultPlan::none()
            .with_event(FaultEvent {
                shard: 1,
                at_ms: 50.0,
                kind: FaultKind::Crash { recover_ms: 5.0 },
            })
            .with_event(FaultEvent {
                shard: 0,
                at_ms: 10.0,
                kind: FaultKind::Degrade {
                    factor: 2.0,
                    window_ms: 20.0,
                },
            });
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.events()[0].at_ms, 10.0);
        assert_eq!(plan.events()[1].at_ms, 50.0);
    }

    #[test]
    fn id_set_tracks_word_edges_and_reports_the_previous_bit() {
        let n = 130;
        let mut set = IdSet::with_len(n);
        let edges = [0, 63, 64, n as u32 - 1];
        for &id in &edges {
            assert!(!set.contains(id));
            assert!(!set.set(id), "id {id} was clear");
            assert!(set.contains(id));
            assert!(set.set(id), "id {id} was already set");
        }
        assert!(!set.contains(1) && !set.contains(62) && !set.contains(65));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            edges.map(u64::from),
            "ascending scan"
        );
        set.clear(63);
        assert!(!set.contains(63) && set.contains(64));
        assert!(!set.set(63), "a cleared id reads as clear");
        // An unsized set is empty: reads are false, clears are no-ops.
        let mut unsized_set = IdSet::with_len(0);
        unsized_set.clear(5);
        assert!(!unsized_set.contains(5));
        assert_eq!(unsized_set.iter().count(), 0);
    }
}
