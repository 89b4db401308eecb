//! The threaded serving twin: real threads, real queues, wall-clock
//! pacing — with the discrete-event engine as its oracle.
//!
//! This is the **one** serve module allowed to read the wall clock and
//! spawn threads (the module-level `#![expect]` below; see
//! `docs/LIVE_SERVING.md` for the full justification). Everything it
//! does with that clock is bounded by a contract:
//!
//! * A **front-door thread** paces the seeded trace onto wall-clock
//!   time (`time_scale` wall-ms per simulated ms), runs placement and
//!   admission control per request through the engine's own rule
//!   (`serve/shard.rs`), and records every *realized* admission
//!   instant.
//! * **Shard worker threads**, fed over MPSC channels, each own one
//!   shard core — the same `ShardCore` the engine's shards wrap — so
//!   queueing, the reconfiguration window, ready-queue ranking, batch
//!   pricing and the shard report are the engine's code, not a copy.
//!   A worker adds only what is live: it gates each batch on its
//!   members' admission stamps plus the modeled request hop, occupies
//!   itself for the *modeled* compile + service time scaled to wall
//!   time, and publishes the live-view atomics. All recorded costs are the
//!   modeled values — the wall clock enters only through pacing and
//!   start/completion instants.
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
//! [`LiveServer::run`] refuses them.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "pacing the seeded trace onto wall-clock time on real threads is this module's measurand; the discrete-event oracle replays what it realizes"
)]

use super::fault::{FaultEvent, FaultKind, IdSet, ShardFaults};
use super::load::Request;
use super::placement::{LiveView, Placement, ShardGauge};
use super::policy::BatchPolicy;
use super::shard::{self, NextBatch, ShardCore};
use super::transport::TransportModel;
use super::validate::require;
use super::{EngineConfig, ServeCluster, ServeRun};
use crate::backend::RuntimeError;
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
    /// a size-triggered policy fed — `SizeK` batches per (shard,
    /// network) queue, so `window > (k − 1) × shards × networks` — or
    /// the run deadlocks until the watchdog trips.
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
}

impl LiveConfig {
    /// A config with the given time scale, no transport and open-loop
    /// drive.
    #[must_use]
    pub fn new(time_scale: f64) -> Self {
        LiveConfig {
            time_scale,
            transport: TransportModel::none(),
            mode: LiveMode::OpenLoop,
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
    /// The input broke a rule of the engine or the live twin, a
    /// backend rejected a batched-plan compile mid-run, or the
    /// placement routed a request to a shard that does not exist.
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

/// The threaded serving twin over a compiled cluster.
///
/// [`LiveServer::run`] checks the engine's input rules plus the
/// live-support envelope, then spawns the shard workers and drives the
/// front door on the calling thread. The trace is borrowed, not copied;
/// the worker threads are scoped to [`LiveServer::run`], so they never
/// outlive it.
#[derive(Debug)]
pub struct LiveServer<'t> {
    cluster: Arc<ServeCluster>,
    policy: Arc<dyn BatchPolicy>,
    trace: &'t [Request],
    engine: EngineConfig,
    live: LiveConfig,
}

impl<'t> LiveServer<'t> {
    /// Builds a live server over an already-compiled cluster. Nothing
    /// is checked here: [`LiveServer::run`] refuses an invalid input.
    #[must_use]
    pub fn new(
        cluster: Arc<ServeCluster>,
        policy: Arc<dyn BatchPolicy>,
        trace: &'t [Request],
        engine: EngineConfig,
        live: LiveConfig,
    ) -> Self {
        LiveServer {
            cluster,
            policy,
            trace,
            // The oracle reads served ids and batch partitions from the
            // records, so the live twin always keeps them.
            engine: engine.with_records(),
            live,
        }
    }

    /// The live twin's own rules, on top of the engine's: a valid live
    /// config, and none of the features it does not implement.
    fn check_envelope(&self) -> Result<(), RuntimeError> {
        let (live, engine) = (&self.live, &self.engine);
        let time_scale = live.time_scale > 0.0 && live.time_scale.is_finite();
        let window = live.mode != LiveMode::ClosedLoop { window: 0 };
        let no_twins = engine.hedge.is_none() && engine.shed.is_none();
        // Reconfiguration runs in both worlds: its window reads
        // admissions only.
        let no_control = engine.preempt.is_none() && engine.scale.is_none();
        let timing_only = engine.faults.events().iter().all(|event| {
            matches!(
                event.kind,
                FaultKind::Degrade { .. } | FaultKind::StallCompile { .. }
            )
        });
        require([
            (time_scale, "time_scale must be positive and finite"),
            (live.transport.is_valid(), "invalid transport model"),
            (window, "closed-loop window must be non-zero"),
            (no_twins, "hedging and shedding are engine-only features"),
            (
                no_control,
                "preemption and autoscaling are engine-only features",
            ),
            (timing_only, "crash and compile-fail faults are engine-only"),
        ])
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
    /// [`LiveError::Runtime`] before any thread starts: the engine's
    /// input errors ([`ServeSim::try_run`](super::ServeSim::try_run)),
    /// then [`RuntimeError::InvalidConfig`] for an invalid live config
    /// (`time_scale` must be positive and finite, the transport
    /// well-formed, a closed loop's window non-zero) or an engine-only
    /// feature: hedging, shedding, preemption, autoscaling, or fault
    /// kinds other than [`FaultKind::Degrade`] /
    /// [`FaultKind::StallCompile`]. During the run, [`LiveError::Runtime`]
    /// when a backend rejects a batched-plan compile or `placement`
    /// routes a request out of range
    /// ([`RuntimeError::PlacementOutOfRange`]); [`LiveError::Worker`]
    /// when a worker thread dies or a policy wedges a queue.
    pub fn run(&self, placement: &mut dyn Placement) -> Result<LiveReport, LiveError> {
        self.engine.validate(&self.cluster, self.trace)?;
        self.check_envelope()?;
        let shard_count = self.cluster.shard_count();

        // Live-view gauges, shared lock-free with the front door.
        let gauges: Vec<Gauges> = (0..shard_count).map(|_| Gauges::default()).collect();

        let (to_shard, from_door): (Vec<Sender<Request>>, Vec<Receiver<Request>>) =
            (0..shard_count).map(|_| std::sync::mpsc::channel()).unzip();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let closed_loop = matches!(self.live.mode, LiveMode::ClosedLoop { .. });

        let cores = ShardCore::fleet(&self.cluster, &self.engine);
        let anchor = Instant::now();
        let result: Result<_, LiveError> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shard_count);
            for ((shard, rx), core) in from_door.into_iter().enumerate().zip(cores) {
                let worker = Worker {
                    core,
                    cluster: &self.cluster,
                    policy: self.policy.as_ref(),
                    faults: self.engine.faults.events(),
                    scale: self.live.time_scale,
                    transport: self.live.transport,
                    anchor,
                    gauges: &gauges[shard],
                };
                let done = closed_loop.then(|| done_tx.clone());
                handles.push(scope.spawn(move || worker.serve(&rx, done.as_ref())));
            }
            // The workers hold clones; the front door only receives.
            drop(done_tx);

            let door = self.front_door(placement, &to_shard, &done_rx, anchor, &gauges);
            // Closing the admission channels is the workers' stop
            // signal — they drain, flush and return.
            drop(to_shard);

            // Join every worker before reporting; the first failure in
            // shard order wins.
            let joined: Vec<Result<ShardCore, LiveError>> = handles
                .into_iter()
                .enumerate()
                .map(|(shard, handle)| {
                    handle.join().unwrap_or_else(|_| {
                        Err(LiveError::Worker {
                            shard,
                            detail: "worker thread panicked".into(),
                        })
                    })
                })
                .collect();
            let cores = joined.into_iter().collect::<Result<Vec<_>, _>>()?;
            let (realized_trace, rejected) = door?;
            Ok((realized_trace, rejected, cores))
        });
        let (realized_trace, rejected, cores) = result?;
        let wall_elapsed_ms = anchor.elapsed().as_secs_f64() * 1000.0;

        let max_class = self.trace.iter().map(|r| r.class).max();
        let (reports, reconfig) = shard::close(cores);
        Ok(LiveReport {
            realized_trace,
            run: ServeRun {
                reports,
                rejected,
                shed: IdSet::default(),
                failed: Vec::new(),
                class_stats: ServeRun::class_slots(max_class),
                preempted: IdSet::default(),
                scale: ServeRun::static_fleet(shard_count),
                reconfig,
            },
            wall_elapsed_ms,
            config: self.live,
        })
    }

    /// Paces admissions, runs placement + admission control, records
    /// realized stamps. Returns `(realized_trace, rejected ids)`.
    fn front_door(
        &self,
        placement: &mut dyn Placement,
        to_shard: &[Sender<Request>],
        done_rx: &Receiver<()>,
        anchor: Instant,
        gauges: &[Gauges],
    ) -> Result<(Vec<Request>, IdSet), LiveError> {
        let scale = self.live.time_scale;
        let mut view = LiveView::new(to_shard.len());

        let mut realized_trace: Vec<Request> = Vec::with_capacity(self.trace.len());
        let mut rejected = IdSet::default();
        let mut last_stamp = 0.0_f64;
        let mut outstanding = 0_usize;

        for planned in self.trace {
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
                            Ok(()) => outstanding -= 1,
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

            // Realized admission stamp, clamped monotone.
            let stamp = (anchor.elapsed().as_secs_f64() * 1000.0 / scale).max(last_stamp);
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

            // Placement + admission control: the engine's rule, over a
            // live-gauge snapshot.
            for (shard, gauge) in gauges.iter().enumerate() {
                view.set(shard, gauge.read());
            }
            let target = shard::place(
                placement,
                &realized,
                &view.of(&self.cluster),
                &self.cluster,
                &self.engine.cache_budget,
                |_| true,
            )?;
            match target {
                Some(shard) => {
                    gauges[shard].queued.fetch_add(1, Ordering::Relaxed);
                    if to_shard[shard].send(realized).is_err() {
                        // The worker is gone; its join result carries
                        // the real failure.
                        return Err(LiveError::Worker {
                            shard,
                            detail: "admission channel closed mid-run".into(),
                        });
                    }
                    outstanding += 1;
                }
                None => {
                    rejected.set(realized.id);
                }
            }
        }
        Ok((realized_trace, rejected))
    }
}

/// One shard's live-view gauges, written by its worker and read
/// lock-free by the front door.
#[derive(Default)]
struct Gauges {
    queued: AtomicUsize,
    in_flight: AtomicUsize,
    resident: AtomicU64,
}

impl Gauges {
    /// The shard's live-view entry: every live shard reads healthy and
    /// undegraded (crashes are engine-only, and degrade windows only
    /// stretch time).
    fn read(&self) -> ShardGauge {
        ShardGauge {
            queued: self.queued.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            resident_plan_bytes: self.resident.load(Ordering::Relaxed),
            healthy: true,
            degrade: 1.0,
        }
    }
}

/// One shard's worker: the shared [`ShardCore`] plus the live-only
/// parts — transport gating, wall-clock sleeps and the live-view
/// gauges.
struct Worker<'a> {
    core: ShardCore,
    cluster: &'a ServeCluster,
    policy: &'a dyn BatchPolicy,
    faults: &'a [FaultEvent],
    scale: f64,
    transport: TransportModel,
    anchor: Instant,
    gauges: &'a Gauges,
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

    /// The worker loop: drain admissions, form batches by the shared
    /// ranking, execute each batch for its modeled (scaled) duration.
    /// Returns the core for [`shard::close`].
    fn serve(
        mut self,
        rx: &Receiver<Request>,
        done: Option<&Sender<()>>,
    ) -> Result<ShardCore, LiveError> {
        let mut members: Vec<Request> = Vec::new();
        let mut open = true;
        loop {
            // Drain everything already admitted, without blocking.
            loop {
                match rx.try_recv() {
                    Ok(request) => self.core.admit(request, self.sim_now()),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }

            let now_ms = self.sim_now();
            let wake_ms = match self.core.next_batch(self.policy, now_ms, |_| open, false) {
                NextBatch::Launch { net, take } => {
                    self.execute_batch(net, take, &mut members, done)?;
                    continue;
                }
                NextBatch::Wait { wake_ms, .. } => wake_ms,
            };

            if !open {
                if self.core.depth() == 0 {
                    break;
                }
                if wake_ms.is_finite() {
                    // A timed batch close (e.g. a Deadline expiry)
                    // still pending after the trace ended.
                    self.sleep_until(wake_ms);
                    continue;
                }
                return Err(LiveError::Worker {
                    shard: self.core.report.shard,
                    detail: format!(
                        "wedged with {} queued requests (policy never became ready after \
                         the trace ended)",
                        self.core.depth()
                    ),
                });
            }
            // Open: block until the next admission (or the batch-close
            // instant, whichever is sooner).
            let received = if wake_ms.is_finite() {
                let wall_ms = ((wake_ms - self.sim_now()) * self.scale).max(0.0);
                rx.recv_timeout(wall_duration(wall_ms))
            } else {
                rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            };
            match received {
                Ok(request) => self.core.admit(request, self.sim_now()),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
        }
        Ok(self.core)
    }

    /// Launches one batch: transport gate, the shared pricing under
    /// the fault windows at its start, scaled occupancy sleep, and the
    /// shared accounting.
    fn execute_batch(
        &mut self,
        net: usize,
        take: usize,
        members: &mut Vec<Request>,
        done: Option<&Sender<()>>,
    ) -> Result<(), LiveError> {
        members.clear();
        let now_ms = self.sim_now();
        self.core.take_batch(net, take, now_ms, members);
        self.gauges.queued.fetch_sub(take, Ordering::Relaxed);
        // No member may be batched before its request envelope has
        // crossed the modeled link: admission stamp plus request hop.
        let hop_ms = self.transport.request_delay_ms();
        let gate_ms = members
            .iter()
            .map(|request| request.arrival_ms + hop_ms)
            .fold(0.0_f64, f64::max);
        self.sleep_until(gate_ms);
        let start_ms = self.sim_now();
        let (degrade, stall_extra_ms) =
            ShardFaults::windows_at(self.faults, self.core.report.shard, start_ms).price();
        let batch = self
            .core
            .price(self.cluster, net, take, start_ms, degrade, stall_extra_ms)?;
        self.gauges
            .resident
            .store(self.core.resident_bytes(), Ordering::Relaxed);

        // Occupy the shard for the modeled duration, scaled to wall
        // time. The recorded costs stay the modeled values; only the
        // instants are live.
        self.gauges.in_flight.store(take, Ordering::Relaxed);
        self.sleep_until(start_ms + batch.compile_ms + batch.service_ms);
        self.gauges.in_flight.store(0, Ordering::Relaxed);
        let finish_ms = self.sim_now();
        let completion_ms = finish_ms + self.transport.response_delay_ms();
        self.core.note_batch(batch, finish_ms);
        for request in members.iter() {
            self.core
                .note_served(request, start_ms, completion_ms, take);
            if let Some(done_tx) = done {
                // The front door may have stopped listening (open
                // loop drains nothing); that is not an error.
                let _ = done_tx.send(());
            }
        }
        Ok(())
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
