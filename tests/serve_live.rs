//! Live-twin ↔ discrete-event-engine oracle agreement.
//!
//! Every test runs the threaded live server ([`LiveServer`]), takes
//! the realized arrival trace it recorded, replays that trace through
//! the discrete-event engine under the identical cluster / policy /
//! placement / engine config, and pins **exact agreement on the
//! discrete outcomes** — served and rejected id sets, per-shard
//! routing, the per-(shard, network) batch partition and the
//! plan-cache counters — via [`discrete_outcomes`] / [`diff_outcomes`].
//! Latency statistics only ever get one-sided tolerance bands: the
//! live run pays modeled transport plus real scheduler jitter on top
//! of the replay's modeled time, and CI machines are noisy.
//!
//! The configurations pinned exactly here are the timing-robust ones
//! derived in `docs/LIVE_SERVING.md`: trace-deterministic placements
//! (round-robin, platform-affinity) × timing-independent batch
//! partitions (immediate, size-k) × unbounded plan cache, plus the
//! timing-only fault subset (degrade windows spanning the horizon)
//! and trace-deterministic backend reconfiguration (the mix window
//! reads admissions, never completion timing).

use sma::runtime::serve::{
    diff_outcomes, discrete_outcomes, replay, BatchPolicy, CacheBudget, ClusterView, EngineConfig,
    FaultEvent, FaultKind, FaultPlan, Immediate, LiveConfig, LiveError, LiveMode, LiveReport,
    LiveServer, LoadGenerator, Placement, PlatformAffinity, ReconfigPolicy, Request, RoundRobin,
    ServeCluster, ServeSim, ShardTally, SizeK, TransportModel,
};
use sma::runtime::{Executor, Platform, RuntimeError};
use std::sync::Arc;

mod common;

/// A deliberately small cluster: two shards on different platforms,
/// two networks, so routing and affinity are non-trivial but a full
/// live run takes milliseconds of wall time.
fn small_cluster() -> Arc<ServeCluster> {
    Arc::new(
        ServeCluster::try_new(
            vec![
                Executor::new(Platform::Sma3),
                Executor::new(Platform::GpuTensorCore),
            ],
            vec![sma::models::zoo::alexnet(), sma::models::zoo::vgg_a()],
        )
        .expect("cluster compiles"),
    )
}

/// A seeded two-network trace with SLO deadlines.
fn trace(seed: u64, count: usize) -> Vec<Request> {
    LoadGenerator::new(seed, 2.0).with_slo(60.0).trace(count, 2)
}

/// Runs the live twin, replays its realized trace through the engine,
/// and asserts exact discrete agreement. Returns the pair for extra
/// per-test assertions.
fn assert_live_replay_agree(
    cluster: &Arc<ServeCluster>,
    policy: &Arc<dyn BatchPolicy>,
    trace: &[Request],
    engine: EngineConfig,
    live_config: LiveConfig,
    live_placement: &mut dyn Placement,
    replay_placement: &mut dyn Placement,
) -> (LiveReport, sma::runtime::serve::ServeRun) {
    let server = LiveServer::new(
        cluster.clone(),
        policy.clone(),
        trace,
        engine.clone(),
        live_config,
    );
    let report = server.run(live_placement).expect("live run completes");
    assert_eq!(
        report.realized_trace.len(),
        trace.len(),
        "every planned request gets a realized admission stamp"
    );
    assert!(
        report
            .realized_trace
            .windows(2)
            .all(|w| w[0].arrival_ms <= w[1].arrival_ms),
        "realized stamps are monotone"
    );
    let replayed = replay(
        cluster,
        policy,
        &report.realized_trace,
        &engine,
        replay_placement,
    )
    .expect("replay completes");
    let live_outcomes = discrete_outcomes(&report.run);
    let replay_outcomes = discrete_outcomes(&replayed);
    let diffs = diff_outcomes(&live_outcomes, &replay_outcomes);
    assert!(diffs.is_empty(), "live/replay diverged: {diffs:#?}");
    // Both worlds price batches through one service memo, seeded with
    // the cluster's batch-1 plans: they compile the same plan keys.
    let sorted = |plans: &[(usize, usize)]| {
        let mut plans = plans.to_vec();
        plans.sort_unstable();
        plans
    };
    for (live, oracle) in report.run.reports.iter().zip(&replayed.reports) {
        assert_eq!(
            sorted(&live.plans_compiled),
            sorted(&oracle.plans_compiled),
            "shard {} plans",
            live.shard
        );
        // The live tally is built incrementally, like the engine's.
        assert_eq!(
            ShardTally::from_records(&live.requests, &live.batches),
            live.tally
        );
    }
    (report, replayed)
}

/// Mean end-to-end latency over every served request of a run.
fn mean_latency_ms(run: &sma::runtime::serve::ServeRun) -> f64 {
    let latencies: Vec<f64> = run
        .reports
        .iter()
        .flat_map(|r| r.tally.latencies_ms().iter().copied())
        .collect();
    if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    }
}

#[test]
fn open_loop_immediate_round_robin_agrees_exactly() {
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let trace = trace(41, 120);
    let scale = 0.02;
    let transport = TransportModel::symmetric(0.25, 64.0 * 1024.0);
    let live_config = LiveConfig::new(scale).with_transport(transport);
    let (report, replayed) = assert_live_replay_agree(
        &cluster,
        &policy,
        &trace,
        EngineConfig::default(),
        live_config,
        &mut RoundRobin::default(),
        &mut RoundRobin::default(),
    );
    assert_eq!(discrete_outcomes(&report.run).served_total(), 120);
    assert!(report.run.rejected.is_empty());

    // Timing gets a band, not equality: the live mean exceeds the
    // replay mean by at most the modeled round trip plus a generous
    // scheduler-jitter allowance (500 wall-ms spread over the run,
    // expressed in simulated ms).
    let jitter_budget_ms = 500.0 / scale;
    assert!(
        mean_latency_ms(&report.run)
            <= mean_latency_ms(&replayed) + transport.round_trip_ms() + jitter_budget_ms,
        "live mean latency out of band"
    );
    // And the live clock only ever runs late, never early: no request
    // finishes before its realized arrival plus the response hop.
    for shard in &report.run.reports {
        for request in &shard.requests {
            assert!(request.completion_ms >= request.arrival_ms - 1e-9);
            assert!(request.start_ms >= request.arrival_ms - 1e-9);
        }
    }
}

#[test]
fn size_k_platform_affinity_agrees_exactly() {
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(SizeK::new(4));
    let trace = trace(43, 96);
    let (report, _) = assert_live_replay_agree(
        &cluster,
        &policy,
        &trace,
        EngineConfig::default(),
        LiveConfig::new(0.02),
        &mut PlatformAffinity::default(),
        &mut PlatformAffinity::default(),
    );
    // The size-k partition actually batched: at least one full group.
    let sizes: Vec<usize> = report
        .run
        .reports
        .iter()
        .flat_map(|r| r.batches.iter().map(|b| b.size))
        .collect();
    assert!(sizes.iter().all(|&s| s <= 4));
    assert!(sizes.contains(&4), "no full batch formed: {sizes:?}");
}

#[test]
fn degrade_faults_agree_exactly() {
    // Timing-only faults: a degrade window and a compile stall both
    // spanning the whole horizon, so the discrete outcomes — and even
    // the degraded-batch counters — are timing-independent.
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let trace = trace(47, 90);
    let faults = FaultPlan::none()
        .with_event(FaultEvent {
            shard: 0,
            at_ms: 0.0,
            kind: FaultKind::Degrade {
                factor: 2.5,
                window_ms: 1e9,
            },
        })
        .with_event(FaultEvent {
            shard: 1,
            at_ms: 0.0,
            kind: FaultKind::StallCompile {
                extra_ms: 0.75,
                window_ms: 1e9,
            },
        });
    let engine = EngineConfig::default()
        .with_compile_cost(0.01)
        .with_faults(faults);
    let (report, replayed) = assert_live_replay_agree(
        &cluster,
        &policy,
        &trace,
        engine,
        LiveConfig::new(0.02),
        &mut RoundRobin::default(),
        &mut RoundRobin::default(),
    );
    // Whole-horizon window: every batch on shard 0 is degraded, in
    // both worlds.
    let live0 = &report.run.reports[0];
    assert_eq!(live0.fault.degraded_batches as usize, live0.batches.len());
    assert_eq!(
        live0.fault.degraded_batches,
        replayed.reports[0].fault.degraded_batches
    );
}

#[test]
fn closed_loop_immediate_agrees_exactly() {
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let trace = trace(53, 60);
    let (report, _) = assert_live_replay_agree(
        &cluster,
        &policy,
        &trace,
        EngineConfig::default(),
        LiveConfig::new(0.02).with_mode(LiveMode::ClosedLoop { window: 6 }),
        &mut RoundRobin::default(),
        &mut RoundRobin::default(),
    );
    assert_eq!(discrete_outcomes(&report.run).served_total(), 60);
    // Closed loop ignores planned arrival instants: the realized trace
    // is its own schedule, and the replay above already proved it is a
    // valid engine input.
    assert!(report.wall_elapsed_ms > 0.0);
}

#[test]
fn zero_budget_rejects_everything_in_both_worlds() {
    // Admission control is a pure function of the frozen plan-size
    // matrix, so a budget nothing fits rejects the entire trace — in
    // the live front door and in the replay, identically.
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let trace = trace(59, 40);
    let engine = EngineConfig::default().with_cache_budget(CacheBudget::Uniform(1));
    let (report, replayed) = assert_live_replay_agree(
        &cluster,
        &policy,
        &trace,
        engine,
        LiveConfig::new(0.02),
        &mut RoundRobin::default(),
        &mut RoundRobin::default(),
    );
    assert_eq!(report.run.rejected.len(), 40);
    assert_eq!(replayed.rejected.len(), 40);
    assert_eq!(discrete_outcomes(&report.run).served_total(), 0);
    for shard in &report.run.reports {
        assert!(shard.batches.is_empty());
        assert_eq!(shard.cache.lookups, 0);
    }
}

#[test]
fn quantized_simultaneous_stamps_replay_deterministically() {
    // A coarse stamp quantum makes identical admission stamps routine;
    // the replay must still agree with the live run, and two replays
    // of the same realized trace must agree bit for bit — the
    // engine's (time, class, sequence) tie-break is total.
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let trace = trace(61, 80);
    let engine = EngineConfig::default();
    let (report, replayed) = assert_live_replay_agree(
        &cluster,
        &policy,
        &trace,
        engine.clone(),
        LiveConfig::new(0.02).with_stamp_quantum(25.0),
        &mut RoundRobin::default(),
        &mut RoundRobin::default(),
    );
    let stamps: Vec<f64> = report.realized_trace.iter().map(|r| r.arrival_ms).collect();
    assert!(
        stamps.windows(2).any(|w| w[0].to_bits() == w[1].to_bits()),
        "a 25ms quantum over a 2ms-mean trace must produce ties: {stamps:?}"
    );
    let again = replay(
        &cluster,
        &policy,
        &report.realized_trace,
        &engine,
        &mut RoundRobin::default(),
    )
    .expect("second replay completes");
    assert_eq!(discrete_outcomes(&replayed), discrete_outcomes(&again));
    for (a, b) in replayed.reports.iter().zip(&again.reports) {
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.start_ms.to_bits(), y.start_ms.to_bits());
            assert_eq!(x.completion_ms.to_bits(), y.completion_ms.to_bits());
        }
    }
}

#[test]
fn zero_rate_live_run_is_empty_but_valid() {
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let (report, _) = assert_live_replay_agree(
        &cluster,
        &policy,
        &[],
        EngineConfig::default(),
        LiveConfig::new(0.02),
        &mut RoundRobin::default(),
        &mut RoundRobin::default(),
    );
    assert!(report.realized_trace.is_empty());
    assert!(report.run.rejected.is_empty());
    assert_eq!(report.run.reports.len(), cluster.shard_count());
    for (shard, shard_report) in report.run.reports.iter().enumerate() {
        assert_eq!(shard_report.shard, shard);
        assert!(shard_report.requests.is_empty());
        assert!(shard_report.batches.is_empty());
        assert_eq!(shard_report.busy_ms.to_bits(), 0.0_f64.to_bits());
        assert_eq!(shard_report.queue_depth_max, 0);
    }
}

#[test]
fn bursty_and_diurnal_shapes_flow_through_the_live_path() {
    // The load shapes perturb only arrival instants, so a shaped trace
    // is as replayable as a steady one.
    use sma::runtime::serve::LoadShape;
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(SizeK::new(3));
    for shape in [
        LoadShape::Bursty {
            period_ms: 40.0,
            duty: 0.3,
            amplitude: 0.8,
        },
        LoadShape::Diurnal {
            period_ms: 120.0,
            amplitude: 0.6,
        },
    ] {
        let trace = LoadGenerator::new(67, 2.0)
            .with_slo(60.0)
            .with_shape(shape)
            .trace(72, 2);
        assert_live_replay_agree(
            &cluster,
            &policy,
            &trace,
            EngineConfig::default(),
            LiveConfig::new(0.02),
            &mut RoundRobin::default(),
            &mut RoundRobin::default(),
        );
    }
}

#[test]
fn traffic_mix_reconfiguration_agrees_exactly() {
    // Reconfiguration is trace-deterministic: the pinned fabric
    // configuration is a pure function of the admission history (the
    // sliding shape-histogram window reads arrivals and placements,
    // never completion timing), so a reconfig-enabled run sits inside
    // the oracle's timing-robust envelope. Under a size-k partition
    // and a trace-deterministic placement the discrete outcomes and
    // the compiled plans replay exactly, and so do the window's
    // evaluation and reconfiguration counts — both worlds feed it
    // through the same shard core.
    let cluster = Arc::new(
        ServeCluster::try_new(
            vec![
                Executor::new(Platform::ArrayFlex),
                Executor::new(Platform::FlexSa),
            ],
            vec![sma::models::zoo::alexnet(), sma::models::zoo::vgg_a()],
        )
        .expect("reconfigurable cluster compiles"),
    );
    let policy: Arc<dyn BatchPolicy> = Arc::new(SizeK::new(4));
    let trace = trace(71, 96);
    // A short window and stride so the 96-request trace re-evaluates
    // the mix many times per shard.
    let engine = EngineConfig::default().with_reconfig(ReconfigPolicy {
        window: 16,
        every: 4,
    });
    let (report, replayed) = assert_live_replay_agree(
        &cluster,
        &policy,
        &trace,
        engine,
        LiveConfig::new(0.02),
        &mut RoundRobin::default(),
        &mut RoundRobin::default(),
    );
    assert_eq!(discrete_outcomes(&report.run).served_total(), 96);
    assert!(
        replayed.reconfig.evaluations > 0,
        "the replay exercised the traffic-mix window"
    );
    assert_eq!(report.run.reconfig, replayed.reconfig);
}

/// Routes every request to a shard one past the end of the cluster.
#[derive(Debug)]
struct Rogue;

impl Placement for Rogue {
    fn label(&self) -> String {
        "rogue".into()
    }

    fn assign(&mut self, _: &Request, cluster: &ClusterView<'_>) -> usize {
        cluster.shard_count()
    }
}

#[test]
fn out_of_range_placement_is_an_error_in_both_worlds() {
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let trace = trace(73, 8);
    let expected = RuntimeError::PlacementOutOfRange {
        request: trace[0].id,
        shard: 2,
        shard_count: 2,
    };
    let sim = ServeSim::with_cluster(
        cluster.clone(),
        policy.clone(),
        &trace,
        EngineConfig::default(),
    );
    assert_eq!(sim.try_run(&mut Rogue).err(), Some(expected.clone()));
    let server = LiveServer::new(
        cluster,
        policy,
        &trace,
        EngineConfig::default(),
        LiveConfig::new(0.02),
    );
    let live = server.run(&mut Rogue);
    assert!(
        matches!(&live, Err(LiveError::Runtime(error)) if *error == expected),
        "{live:?}"
    );
}

#[test]
#[should_panic(expected = "engine-only")]
fn crash_faults_are_rejected_by_the_live_twin() {
    let cluster = small_cluster();
    let policy: Arc<dyn BatchPolicy> = Arc::new(Immediate);
    let faults = FaultPlan::none().with_event(FaultEvent {
        shard: 0,
        at_ms: 10.0,
        kind: FaultKind::Crash { recover_ms: 5.0 },
    });
    let _ = LiveServer::new(
        cluster,
        policy,
        &trace(3, 10),
        EngineConfig::default().with_faults(faults),
        LiveConfig::new(0.02),
    );
}
