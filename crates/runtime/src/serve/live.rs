//! The threaded serving twin: real threads, real queues, wall-clock
//! pacing — with the discrete-event engine as its oracle.
//!
//! This is the **one** module in the workspace allowed to read the
//! wall clock (`[rule.wallclock] sanctioned` in `lint.toml`; see
//! `docs/LIVE_SERVING.md` for the full justification). Everything it
//! does with that clock is bounded by a contract:
//!
//! * A **front-door thread** paces the seeded trace onto wall-clock
//!   time (`time_scale` wall-ms per simulated ms), runs placement and
//!   admission control per request exactly as the engine
//!   does, and records every *realized* admission instant.
//! * **Shard worker threads** each own their executor, plan cache
//!   (the engine's own [`PlanCache`] type) and per-network FIFO
//!   queues, fed over MPSC channels; batches form by the same
//!   [`BatchPolicy`] the engine consults, execution occupies the
//!   worker for the *modeled* service time scaled to wall time, and
//!   all recorded costs (service, compile) are the modeled values —
//!   the wall clock enters only through pacing and start/completion
//!   instants.
//! * A modeled [`TransportModel`] charges per-hop latency/bandwidth
//!   to request and response envelopes; the engine sees no transport,
//!   so live latencies exceed replay latencies by at most one round
//!   trip plus scheduler jitter.
//!
//! The oracle contract (enforced by `serve/oracle.rs` and
//! `tests/serve_live.rs`): replaying the recorded realized trace
//! through the discrete-event engine reproduces the live run's
//! *discrete outcomes* — served/rejected counts and id sets, per-shard
//! routing, per-(shard, network) batch partition — exactly, for
//! timing-robust configurations (trace-deterministic placements such
//! as [`RoundRobin`](super::RoundRobin) /
//! [`PlatformAffinity`](super::PlatformAffinity), and policies whose
//! partition is timing-independent: [`Immediate`](super::Immediate),
//! [`SizeK`](super::SizeK)). Load-adaptive placements
//! (e.g. [`LeastBacklog`](super::LeastBacklog)) legitimately read
//! racy live state and are checked by conservation, not exactness.
//! Latency statistics get tolerance bands, never equality.
//!
//! Live fault support is deliberately the timing-only subset:
//! [`FaultKind::Degrade`] and [`FaultKind::StallCompile`] windows
//! stretch time without changing any discrete outcome. Crash and
//! transient-compile-fail faults reroute work and are engine-only —
//! [`LiveServer::new`] rejects them.

use super::engine::PlanCache;
use super::fault::{FaultEvent, FaultKind, ShardFaultStats};
use super::load::Request;
use super::metrics::PlanCacheStats;
use super::placement::{ClusterView, Placement};
use super::policy::{BatchPolicy, PolicyDecision};
use super::transport::TransportModel;
use super::{
    BatchRecord, EngineConfig, ServeCluster, ServeRun, ServedRequest, ShardReport, ShardTally,
};
use crate::backend::RuntimeError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the front door issues requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveMode {
    /// Pace the trace's arrival instants onto wall time (scaled).
    /// Arrivals never react to completions — the same pressure the
    /// open-loop generator models.
    OpenLoop,
    /// Issue-on-completion under a concurrency window: the next
    /// request is admitted as soon as fewer than `window` admitted
    /// requests are outstanding. Trace arrival instants are ignored;
    /// realized instants are recorded as always. The window must keep
    /// a size-triggered policy fed (`window >= k × shards` for
    /// `SizeK`), or the run deadlocks until the watchdog trips.
    ClosedLoop {
        /// Maximum admitted-but-uncompleted requests.
        window: usize,
    },
}

/// Knobs specific to the live twin (everything else — cache budget,
/// compile cost, faults — comes from the shared [`EngineConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Wall milliseconds per simulated millisecond. `0.02` replays a
    /// 1-second simulated horizon in 20 wall-ms. Must be positive and
    /// finite.
    pub time_scale: f64,
    /// Modeled inter-node transport applied to request/response
    /// envelopes.
    pub transport: TransportModel,
    /// Open- or closed-loop drive.
    pub mode: LiveMode,
    /// Admission stamps are floored to a multiple of this quantum (in
    /// simulated ms; `0.0` = full resolution). A coarse quantum makes
    /// simultaneous admissions — identical recorded stamps — routine
    /// rather than astronomically unlikely, which is exactly what the
    /// oracle's tie-break contract is tested against.
    pub stamp_quantum_ms: f64,
}

impl LiveConfig {
    /// A config with the given time scale, no transport, open-loop
    /// drive and full stamp resolution.
    #[must_use]
    pub fn new(time_scale: f64) -> Self {
        LiveConfig {
            time_scale,
            transport: TransportModel::none(),
            mode: LiveMode::OpenLoop,
            stamp_quantum_ms: 0.0,
        }
    }

    /// This config with a transport model.
    #[must_use]
    pub fn with_transport(mut self, transport: TransportModel) -> Self {
        self.transport = transport;
        self
    }

    /// This config with a drive mode.
    #[must_use]
    pub fn with_mode(mut self, mode: LiveMode) -> Self {
        self.mode = mode;
        self
    }

    /// This config with a stamp quantum.
    #[must_use]
    pub fn with_stamp_quantum(mut self, quantum_ms: f64) -> Self {
        self.stamp_quantum_ms = quantum_ms;
        self
    }
}

/// Everything a live run produced.
#[derive(Debug)]
pub struct LiveReport {
    /// Every admission the front door performed, in admission order,
    /// with *realized* (wall-clock-derived, scaled to simulated ms)
    /// arrival stamps and deadlines re-offset from them. Sorted and
    /// replayable through [`ServeSim`](super::ServeSim) — rejected
    /// requests are included, since the replay re-derives rejection.
    pub realized_trace: Vec<Request>,
    /// The run in the engine's own result shape: per-shard reports
    /// (modeled costs, live instants), rejections, and empty
    /// shed/failed buckets (the live twin supports neither).
    pub run: ServeRun,
    /// Wall-clock milliseconds the whole run took (informational —
    /// never asserted against; CI runs on noisy machines).
    pub wall_elapsed_ms: f64,
    /// The live config the run used.
    pub config: LiveConfig,
}

/// Why a live run failed.
#[derive(Debug)]
pub enum LiveError {
    /// A backend rejected a batched-plan compile mid-run.
    Runtime(RuntimeError),
    /// A shard worker died or wedged (details inside), or the closed
    /// loop's completion watchdog tripped.
    Worker {
        /// The shard whose worker failed (`usize::MAX` = front door).
        shard: usize,
        /// Human-readable failure description.
        detail: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Runtime(e) => write!(f, "live serve: {e}"),
            LiveError::Worker { shard, detail } if *shard == usize::MAX => {
                write!(f, "live serve front door: {detail}")
            }
            LiveError::Worker { shard, detail } => {
                write!(f, "live serve shard {shard}: {detail}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<RuntimeError> for LiveError {
    fn from(e: RuntimeError) -> Self {
        LiveError::Runtime(e)
    }
}

/// One admission envelope, front door → shard worker.
#[derive(Debug, Clone, Copy)]
struct Admit {
    /// The realized request (arrival = admission stamp).
    request: Request,
    /// Earliest simulated instant the shard may batch it: the
    /// admission stamp plus the modeled request-hop delay.
    available_ms: f64,
}

/// The threaded serving twin over a compiled cluster.
///
/// Construction validates the same invariants as
/// [`ServeSim::with_cluster`](super::ServeSim::with_cluster) plus the
/// live-support envelope; [`LiveServer::run`] spawns the shard workers
/// and drives the front door on the calling thread.
#[derive(Debug)]
pub struct LiveServer {
    cluster: Arc<ServeCluster>,
    policy: Arc<dyn BatchPolicy>,
    trace: Vec<Request>,
    engine: EngineConfig,
    live: LiveConfig,
}

impl LiveServer {
    /// Builds a live server over an already-compiled cluster.
    ///
    /// # Panics
    ///
    /// Panics if the trace is unsorted or names an unknown network, if
    /// the live config is invalid (`time_scale` must be positive and
    /// finite, the transport and stamp quantum well-formed, a closed
    /// loop's window non-zero), or if the engine config asks for
    /// features the live twin does not implement: hedging, shedding,
    /// preemption, autoscaling, or fault kinds other than
    /// [`FaultKind::Degrade`] / [`FaultKind::StallCompile`].
    #[must_use]
    pub fn new(
        cluster: Arc<ServeCluster>,
        policy: Arc<dyn BatchPolicy>,
        trace: &[Request],
        engine: EngineConfig,
        live: LiveConfig,
    ) -> Self {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms),
            "trace must be sorted by arrival_ms"
        );
        for request in trace {
            assert!(
                request.network < cluster.networks().len(),
                "request {} targets unknown network {}",
                request.id,
                request.network
            );
        }
        assert!(
            live.time_scale > 0.0 && live.time_scale.is_finite(),
            "time_scale must be positive and finite, got {}",
            live.time_scale
        );
        assert!(live.transport.is_valid(), "invalid transport model");
        assert!(
            live.stamp_quantum_ms >= 0.0 && live.stamp_quantum_ms.is_finite(),
            "stamp quantum must be non-negative and finite"
        );
        if let LiveMode::ClosedLoop { window } = live.mode {
            assert!(window > 0, "closed-loop window must be non-zero");
        }
        assert!(
            engine.hedge.is_none() && engine.shed.is_none(),
            "hedging and shedding are engine-only features"
        );
        assert!(
            engine.preempt.is_none() && engine.scale.is_none(),
            "preemption and autoscaling are engine-only features \
             (reconfiguration is allowed: it is trace-deterministic)"
        );
        for event in engine.faults.events() {
            assert!(
                matches!(
                    event.kind,
                    FaultKind::Degrade { .. } | FaultKind::StallCompile { .. }
                ),
                "live faults are the timing-only subset (degrade/stall); {:?} is engine-only",
                event.kind
            );
        }
        LiveServer {
            cluster,
            policy,
            trace: trace.to_vec(),
            engine,
            live,
        }
    }

    /// The compiled cluster this server runs over.
    #[must_use]
    pub fn cluster(&self) -> &Arc<ServeCluster> {
        &self.cluster
    }

    /// Runs the live twin: spawns one worker thread per shard, drives
    /// the front door on the calling thread, and assembles the
    /// engine-shaped result.
    ///
    /// `placement` is consulted once per request, in admission order,
    /// on the front-door thread — the same discipline as the engine's
    /// admission.
    ///
    /// # Errors
    ///
    /// [`LiveError::Runtime`] when a backend rejects a batched-plan
    /// compile; [`LiveError::Worker`] when a worker thread dies or a
    /// policy wedges a queue.
    pub fn run(&self, placement: &mut dyn Placement) -> Result<LiveReport, LiveError> {
        let shard_count = self.cluster.shard_count();
        let num_networks = self.cluster.networks().len();
        let scale = self.live.time_scale;

        // Live-view gauges, shared lock-free with the front door.
        let queued: Vec<AtomicUsize> = (0..shard_count).map(|_| AtomicUsize::new(0)).collect();
        let in_flight: Vec<AtomicUsize> = (0..shard_count).map(|_| AtomicUsize::new(0)).collect();
        let resident: Vec<AtomicU64> = (0..shard_count).map(|_| AtomicU64::new(0)).collect();

        // Per-shard fault windows (already validated as degrade/stall).
        let faults: Vec<Vec<FaultEvent>> = (0..shard_count)
            .map(|shard| {
                self.engine
                    .faults
                    .events()
                    .iter()
                    .filter(|e| e.shard == shard)
                    .copied()
                    .collect()
            })
            .collect();

        let mut to_shard: Vec<Sender<Admit>> = Vec::with_capacity(shard_count);
        let mut from_door: Vec<Receiver<Admit>> = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = std::sync::mpsc::channel();
            to_shard.push(tx);
            from_door.push(rx);
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel::<u64>();
        let closed_loop = matches!(self.live.mode, LiveMode::ClosedLoop { .. });

        let anchor = Instant::now();
        let result = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shard_count);
            for (shard, rx) in from_door.into_iter().enumerate() {
                let worker = Worker {
                    shard,
                    cluster: &self.cluster,
                    policy: self.policy.clone(),
                    budget: self.engine.cache_budget.for_shard(shard),
                    compile_ms_per_layer: self.engine.compile_ms_per_layer,
                    faults: &faults[shard],
                    scale,
                    transport: self.live.transport,
                    anchor,
                    queued: &queued[shard],
                    in_flight: &in_flight[shard],
                    resident: &resident[shard],
                    num_networks,
                };
                let done = closed_loop.then(|| done_tx.clone());
                handles.push(scope.spawn(move || worker.serve(&rx, done.as_ref())));
            }
            // The workers hold clones; the front door only receives.
            drop(done_tx);

            let door = self.front_door(
                placement, &to_shard, &done_rx, anchor, &queued, &in_flight, &resident,
            );
            // Closing the admission channels is the workers' stop
            // signal — they drain, flush and return.
            drop(to_shard);

            let mut outputs: Vec<WorkerOutput> = Vec::with_capacity(shard_count);
            let mut first_error: Option<LiveError> = None;
            for (shard, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok(output)) => outputs.push(output),
                    Ok(Err(error)) => {
                        first_error.get_or_insert(error);
                    }
                    Err(_) => {
                        first_error.get_or_insert(LiveError::Worker {
                            shard,
                            detail: "worker thread panicked".into(),
                        });
                    }
                }
            }
            if let Some(error) = first_error {
                return Err(error);
            }
            let (realized_trace, rejected) = door?;
            Ok((realized_trace, rejected, outputs))
        });
        let (realized_trace, rejected, outputs) = result?;
        let wall_elapsed_ms = anchor.elapsed().as_secs_f64() * 1000.0;

        let num_classes = self
            .trace
            .iter()
            .map(|r| usize::from(r.class))
            .max()
            .map_or(1, |c| c + 1);
        let makespan_ms = outputs
            .iter()
            .map(|o| o.makespan_ms)
            .fold(0.0_f64, f64::max);
        let reports: Vec<ShardReport> = outputs
            .into_iter()
            .enumerate()
            .map(|(shard, output)| ShardReport {
                shard,
                platform: self.cluster.platforms()[shard],
                tally: ShardTally::from_records(&output.requests, &output.batches),
                requests: output.requests,
                batches: output.batches,
                busy_ms: output.busy_ms,
                makespan_ms: output.makespan_ms,
                plans_compiled: output.plans_compiled,
                cache: output.cache,
                queue_depth_mean: if makespan_ms > 0.0 {
                    output.depth_integral_ms / makespan_ms
                } else {
                    0.0
                },
                queue_depth_max: output.depth_max,
                fault: ShardFaultStats {
                    degraded_batches: output.degraded_batches,
                    ..ShardFaultStats::default()
                },
            })
            .collect();
        Ok(LiveReport {
            realized_trace,
            run: ServeRun {
                reports,
                rejected,
                shed: Vec::new(),
                failed: Vec::new(),
                class_stats: vec![super::ClassFaultStats::default(); num_classes],
                preempted: Vec::new(),
                scale: super::ScaleStats::default(),
                reconfig: super::ReconfigStats::default(),
            },
            wall_elapsed_ms,
            config: self.live,
        })
    }

    /// Paces admissions, runs placement + admission control, records
    /// realized stamps. Returns `(realized_trace, rejected)`.
    #[allow(clippy::too_many_arguments)]
    fn front_door(
        &self,
        placement: &mut dyn Placement,
        to_shard: &[Sender<Admit>],
        done_rx: &Receiver<u64>,
        anchor: Instant,
        queued: &[AtomicUsize],
        in_flight: &[AtomicUsize],
        resident: &[AtomicU64],
    ) -> Result<(Vec<Request>, Vec<Request>), LiveError> {
        let shard_count = to_shard.len();
        let scale = self.live.time_scale;
        let request_delay = self.live.transport.request_delay_ms();
        let healthy = vec![true; shard_count];
        let degrade = vec![1.0_f64; shard_count];
        let mut queued_snap = vec![0_usize; shard_count];
        let mut in_flight_snap = vec![0_usize; shard_count];
        let mut resident_snap = vec![0_u64; shard_count];

        let mut realized_trace: Vec<Request> = Vec::with_capacity(self.trace.len());
        let mut rejected: Vec<Request> = Vec::new();
        let mut last_stamp = 0.0_f64;
        let mut outstanding = 0_usize;

        for planned in &self.trace {
            match self.live.mode {
                LiveMode::OpenLoop => {
                    // Sleep until the planned (scaled) arrival instant;
                    // if we are already past it, admit immediately —
                    // the realized stamp records the slip.
                    let target_wall_ms = planned.arrival_ms * scale;
                    let now_wall_ms = anchor.elapsed().as_secs_f64() * 1000.0;
                    if target_wall_ms > now_wall_ms {
                        std::thread::sleep(wall_duration(target_wall_ms - now_wall_ms));
                    }
                }
                LiveMode::ClosedLoop { window } => {
                    while outstanding >= window {
                        // The watchdog bounds a wedged worker or an
                        // undersized window: no completion for 30 wall
                        // seconds means the loop cannot make progress.
                        match done_rx.recv_timeout(Duration::from_secs(30)) {
                            Ok(_) => outstanding -= 1,
                            Err(RecvTimeoutError::Timeout) => {
                                return Err(LiveError::Worker {
                                    shard: usize::MAX,
                                    detail: format!(
                                        "closed loop stalled: {outstanding} outstanding \
                                         requests, no completion in 30s (window too small \
                                         for the batching policy?)"
                                    ),
                                });
                            }
                            Err(RecvTimeoutError::Disconnected) => {
                                return Err(LiveError::Worker {
                                    shard: usize::MAX,
                                    detail: "all workers exited mid-run".into(),
                                });
                            }
                        }
                    }
                }
            }

            // Realized admission stamp: monotone by construction
            // (quantization floors, and flooring preserves order).
            let raw_ms = anchor.elapsed().as_secs_f64() * 1000.0 / scale;
            let mut stamp = if self.live.stamp_quantum_ms > 0.0 {
                (raw_ms / self.live.stamp_quantum_ms).floor() * self.live.stamp_quantum_ms
            } else {
                raw_ms
            };
            stamp = stamp.max(last_stamp);
            last_stamp = stamp;
            let realized = Request {
                id: planned.id,
                network: planned.network,
                arrival_ms: stamp,
                deadline_ms: if planned.deadline_ms.is_finite() {
                    stamp + (planned.deadline_ms - planned.arrival_ms)
                } else {
                    f64::INFINITY
                },
                class: planned.class,
            };
            realized_trace.push(realized);

            // Placement + admission control, mirroring the engine's
            // online arrival handler over a live-gauge snapshot.
            for shard in 0..shard_count {
                queued_snap[shard] = queued[shard].load(Ordering::Relaxed);
                in_flight_snap[shard] = in_flight[shard].load(Ordering::Relaxed);
                resident_snap[shard] = resident[shard].load(Ordering::Relaxed);
            }
            let view = ClusterView {
                platforms: self.cluster.platforms(),
                unit_service_ms: self.cluster.unit_service_ms(),
                queued: &queued_snap,
                in_flight: &in_flight_snap,
                resident_plan_bytes: &resident_snap,
                healthy: &healthy,
                degrade: &degrade,
            };
            let chosen = placement.assign(&realized, &view);
            assert!(
                chosen < shard_count,
                "placement routed request {} to shard {chosen} of {shard_count}",
                realized.id
            );
            let fits = |shard: usize| {
                self.engine.cache_budget.admits(
                    shard,
                    self.cluster.unit_plan_bytes()[shard][realized.network],
                )
            };
            let target = if fits(chosen) {
                Some(chosen)
            } else {
                (0..shard_count).find(|&shard| fits(shard))
            };
            match target {
                Some(shard) => {
                    queued[shard].fetch_add(1, Ordering::Relaxed);
                    if to_shard[shard]
                        .send(Admit {
                            request: realized,
                            available_ms: stamp + request_delay,
                        })
                        .is_err()
                    {
                        // The worker is gone; its join result carries
                        // the real failure.
                        return Err(LiveError::Worker {
                            shard,
                            detail: "admission channel closed mid-run".into(),
                        });
                    }
                    outstanding += 1;
                }
                None => rejected.push(realized),
            }
        }
        Ok((realized_trace, rejected))
    }
}

/// Per-shard worker state and parameters (borrowed into its thread).
struct Worker<'a> {
    shard: usize,
    cluster: &'a ServeCluster,
    policy: Arc<dyn BatchPolicy>,
    budget: Option<u64>,
    compile_ms_per_layer: f64,
    faults: &'a [FaultEvent],
    scale: f64,
    transport: TransportModel,
    anchor: Instant,
    queued: &'a AtomicUsize,
    in_flight: &'a AtomicUsize,
    resident: &'a AtomicU64,
    num_networks: usize,
}

/// What one worker hands back at join time.
struct WorkerOutput {
    requests: Vec<ServedRequest>,
    batches: Vec<BatchRecord>,
    busy_ms: f64,
    makespan_ms: f64,
    plans_compiled: Vec<(usize, usize)>,
    cache: PlanCacheStats,
    depth_integral_ms: f64,
    depth_max: usize,
    degraded_batches: u64,
}

impl Worker<'_> {
    /// Simulated "now" on this worker's clock.
    fn sim_now(&self) -> f64 {
        self.anchor.elapsed().as_secs_f64() * 1000.0 / self.scale
    }

    /// Sleeps until simulated instant `target_ms` (no-op if past).
    fn sleep_until(&self, target_ms: f64) {
        let wall_target_ms = target_ms * self.scale;
        let now_wall_ms = self.anchor.elapsed().as_secs_f64() * 1000.0;
        if wall_target_ms > now_wall_ms {
            std::thread::sleep(wall_duration(wall_target_ms - now_wall_ms));
        }
    }

    /// The service multiplier and compile surcharge of the fault
    /// windows active at `t_ms` (latest-starting window wins, like the
    /// engine's depth-tracked state).
    fn fault_state_at(&self, t_ms: f64) -> (f64, f64) {
        let mut factor = 1.0;
        let mut extra = 0.0;
        for event in self.faults {
            match event.kind {
                FaultKind::Degrade {
                    factor: f,
                    window_ms,
                } => {
                    if event.at_ms <= t_ms && t_ms < event.at_ms + window_ms {
                        factor = f;
                    }
                }
                FaultKind::StallCompile {
                    extra_ms,
                    window_ms,
                } => {
                    if event.at_ms <= t_ms && t_ms < event.at_ms + window_ms {
                        extra = extra_ms;
                    }
                }
                // Rejected at construction.
                FaultKind::Crash { .. } | FaultKind::TransientCompileFail { .. } => {}
            }
        }
        (factor, extra)
    }

    /// The worker loop: drain admissions, form batches by the shared
    /// policy, execute each batch for its modeled (scaled) duration.
    fn serve(
        self,
        rx: &Receiver<Admit>,
        done: Option<&Sender<u64>>,
    ) -> Result<WorkerOutput, LiveError> {
        let mut queues: Vec<VecDeque<Request>> =
            (0..self.num_networks).map(|_| VecDeque::new()).collect();
        let mut available: Vec<VecDeque<f64>> =
            (0..self.num_networks).map(|_| VecDeque::new()).collect();
        let mut cache = PlanCache::new(self.budget);
        let mut service_memo: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        let mut out = WorkerOutput {
            requests: Vec::new(),
            batches: Vec::new(),
            busy_ms: 0.0,
            makespan_ms: 0.0,
            plans_compiled: Vec::new(),
            cache: PlanCacheStats::default(),
            depth_integral_ms: 0.0,
            depth_max: 0,
            degraded_batches: 0,
        };
        let mut depth = 0_usize;
        let mut depth_last_ms = 0.0_f64;
        let mut open = true;

        let note_depth = |integral: &mut f64,
                          depth: &mut usize,
                          last: &mut f64,
                          max: &mut usize,
                          now: f64,
                          next: usize| {
            *integral += *depth as f64 * (now - *last);
            *last = now;
            *depth = next;
            *max = (*max).max(next);
        };

        loop {
            // Drain everything already admitted, without blocking.
            loop {
                match rx.try_recv() {
                    Ok(admit) => {
                        let now = self.sim_now();
                        let next = depth + 1;
                        note_depth(
                            &mut out.depth_integral_ms,
                            &mut depth,
                            &mut depth_last_ms,
                            &mut out.depth_max,
                            now,
                            next,
                        );
                        queues[admit.request.network].push_back(admit.request);
                        available[admit.request.network].push_back(admit.available_ms);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }

            // Policy pass, mirroring the engine's dispatch selection:
            // most urgent ready queue first, lowest network on ties.
            let now_ms = self.sim_now();
            let mut ready: Vec<(f64, usize, usize)> = Vec::new();
            let mut wake_ms = f64::INFINITY;
            for (net, queue) in queues.iter_mut().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let contiguous: &[Request] = queue.make_contiguous();
                match self.policy.decide(contiguous, now_ms, open) {
                    PolicyDecision::Dispatch { take } => {
                        let take = take.clamp(1, contiguous.len());
                        let urgency = self.policy.urgency(contiguous, now_ms);
                        ready.push((urgency, net, take));
                    }
                    PolicyDecision::WaitUntil(at) => wake_ms = wake_ms.min(at),
                    PolicyDecision::WaitForArrivals => {}
                }
            }
            ready.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

            if let Some(&(_, net, take)) = ready.first() {
                self.execute_batch(
                    net,
                    take,
                    &mut queues,
                    &mut available,
                    &mut cache,
                    &mut service_memo,
                    &mut out,
                    done,
                )?;
                let now = self.sim_now();
                let next = depth.saturating_sub(take);
                note_depth(
                    &mut out.depth_integral_ms,
                    &mut depth,
                    &mut depth_last_ms,
                    &mut out.depth_max,
                    now,
                    next,
                );
                continue;
            }

            let all_empty = queues.iter().all(VecDeque::is_empty);
            if !open && all_empty {
                break;
            }
            if !open {
                if wake_ms.is_finite() {
                    // A timed batch close (e.g. a Deadline expiry)
                    // still pending after the trace ended.
                    self.sleep_until(wake_ms);
                    continue;
                }
                let pending: usize = queues.iter().map(VecDeque::len).sum();
                return Err(LiveError::Worker {
                    shard: self.shard,
                    detail: format!(
                        "wedged with {pending} queued requests (policy never became ready \
                         after the trace ended)"
                    ),
                });
            }
            // Open: block until the next admission (or the batch-close
            // instant, whichever is sooner).
            if wake_ms.is_finite() {
                let wall_ms = ((wake_ms - self.sim_now()) * self.scale).max(0.0);
                match rx.recv_timeout(wall_duration(wall_ms)) {
                    Ok(admit) => {
                        let now = self.sim_now();
                        let next = depth + 1;
                        note_depth(
                            &mut out.depth_integral_ms,
                            &mut depth,
                            &mut depth_last_ms,
                            &mut out.depth_max,
                            now,
                            next,
                        );
                        queues[admit.request.network].push_back(admit.request);
                        available[admit.request.network].push_back(admit.available_ms);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => open = false,
                }
            } else {
                match rx.recv() {
                    Ok(admit) => {
                        let now = self.sim_now();
                        let next = depth + 1;
                        note_depth(
                            &mut out.depth_integral_ms,
                            &mut depth,
                            &mut depth_last_ms,
                            &mut out.depth_max,
                            now,
                            next,
                        );
                        queues[admit.request.network].push_back(admit.request);
                        available[admit.request.network].push_back(admit.available_ms);
                    }
                    Err(_) => open = false,
                }
            }
        }
        out.cache = cache.into_stats();
        Ok(out)
    }

    /// Launches one batch: transport gate, modeled compile + service
    /// (fault windows applied), scaled occupancy sleep, records.
    #[allow(clippy::too_many_arguments)]
    fn execute_batch(
        &self,
        net: usize,
        take: usize,
        queues: &mut [VecDeque<Request>],
        available: &mut [VecDeque<f64>],
        cache: &mut PlanCache,
        service_memo: &mut std::collections::BTreeMap<(usize, usize), f64>,
        out: &mut WorkerOutput,
        done: Option<&Sender<u64>>,
    ) -> Result<(), LiveError> {
        let members: Vec<Request> = queues[net].drain(..take).collect();
        let mut gate_ms = 0.0_f64;
        for _ in 0..take {
            if let Some(avail) = available[net].pop_front() {
                gate_ms = gate_ms.max(avail);
            }
        }
        self.queued.fetch_sub(take, Ordering::Relaxed);
        // No member may be batched before its request envelope has
        // crossed the modeled link.
        self.sleep_until(gate_ms);
        let start_ms = self.sim_now();

        let service_base = match service_memo.get(&(net, take)) {
            Some(&ms) => ms,
            None => {
                let plan = self
                    .cluster
                    .shard_executor(self.shard)
                    .with_batch(take)
                    .try_plan(&self.cluster.networks()[net])?;
                let ms = plan.run().total_ms;
                out.plans_compiled.push((net, take));
                service_memo.insert((net, take), ms);
                ms
            }
        };
        let (degrade_factor, stall_extra) = self.fault_state_at(start_ms);
        // Window membership decides the counter (the engine's rule —
        // a factor-1.0 window still counts), and the factor is exactly
        // 1.0 outside every window, so the multiply is an identity
        // there.
        let service_ms = if self.degrade_window_active(start_ms) {
            out.degraded_batches += 1;
            service_base * degrade_factor
        } else {
            service_base
        };
        let compile_charge = self.compile_ms_per_layer
            * self.cluster.unit_plan(self.shard, net).layer_count() as f64
            + stall_extra;
        let compile_ms = cache.access(
            (net, take),
            self.cluster.unit_plan_bytes()[self.shard][net],
            compile_charge,
        );
        self.resident
            .store(cache.resident_bytes(), Ordering::Relaxed);

        // Occupy the shard for the modeled duration, scaled to wall
        // time. The recorded costs stay the modeled values; only the
        // instants are live.
        self.in_flight.store(take, Ordering::Relaxed);
        self.sleep_until(start_ms + compile_ms + service_ms);
        self.in_flight.store(0, Ordering::Relaxed);
        let finish_ms = self.sim_now();
        let response_delay = self.transport.response_delay_ms();

        out.busy_ms += compile_ms + service_ms;
        out.makespan_ms = out.makespan_ms.max(finish_ms);
        out.batches.push(BatchRecord {
            network: net,
            size: take,
            start_ms,
            service_ms,
            compile_ms,
        });
        for request in members {
            out.requests.push(ServedRequest {
                id: request.id,
                network: request.network,
                arrival_ms: request.arrival_ms,
                deadline_ms: request.deadline_ms,
                class: request.class,
                start_ms,
                completion_ms: finish_ms + response_delay,
                batch_size: take,
            });
            if let Some(done_tx) = done {
                // The front door may have stopped listening (open
                // loop drains nothing); that is not an error.
                let _ = done_tx.send(request.id);
            }
        }
        Ok(())
    }

    /// Whether any degrade window (even factor 1.0) covers `t_ms` —
    /// the engine counts window membership, not slowdown.
    fn degrade_window_active(&self, t_ms: f64) -> bool {
        self.faults.iter().any(|event| {
            matches!(event.kind, FaultKind::Degrade { window_ms, .. }
                if event.at_ms <= t_ms && t_ms < event.at_ms + window_ms)
        })
    }
}

/// A non-negative wall duration from (possibly jittery) milliseconds.
fn wall_duration(ms: f64) -> Duration {
    if ms.is_finite() && ms > 0.0 {
        Duration::from_secs_f64(ms / 1000.0)
    } else {
        Duration::ZERO
    }
}
