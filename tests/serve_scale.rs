//! Control-plane system tests: SLO-class preemption, the cost-aware
//! autoscaler, and traffic-mix backend reconfiguration.
//!
//! Three property suites pin the `ISSUE 9` contract. **Outcome buckets
//! partition the trace exactly** — under arbitrary seeded traffic and
//! fault schedules with preemption, autoscaling and reconfiguration
//! all enabled, every request id lands in exactly one of served /
//! rejected / shed / failed, and the preempted annotation only ever
//! marks requests that were dispatched (so it intersects served and
//! failed, never rejected or shed — "preempted-then-served" is exactly
//! `preempted ∩ served`). **Preemption never double-bills** — per
//! shard, busy time is exactly the completed batches' compile+service
//! plus the preempted partial slices. **The autoscaler cannot flap** —
//! its action count is bounded by `evaluations / hysteresis_ticks`,
//! and a zero-headroom energy budget degenerates bit-identically to
//! the fixed-shard engine (no tick events are even scheduled).
//! Targeted tests pin the crafted single-preemption timeline.

use proptest::prelude::*;
use sma::runtime::serve::{
    AutoscalePolicy, BatchPolicy, EarliestDeadlineFirst, EngineConfig, FaultMix, FaultPlan,
    HealthWeighted, HedgePolicy, LeastBacklog, LoadGenerator, PreemptPolicy, ReconfigPolicy,
    Request, RetryPolicy, RoundRobin, ServeCluster, ServeRun, ServeSim, ShedPolicy, SizeK,
};
use sma::runtime::{Executor, Platform};
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;
use common::serve_networks;

const SLO_MS: f64 = 25.0;

/// Four shards on four platforms — the last two reconfigurable, so the
/// traffic-mix window has real fabric configurations to pin.
fn control_cluster() -> Arc<ServeCluster> {
    let shards = vec![
        Executor::new(Platform::Sma3),
        Executor::new(Platform::GpuTensorCore),
        Executor::new(Platform::ArrayFlex),
        Executor::new(Platform::FlexSa),
    ];
    Arc::new(ServeCluster::try_new(shards, serve_networks()).unwrap())
}

/// Every simulated quantity of two runs, compared bit for bit —
/// including the control-plane annotations and counters.
fn assert_runs_bit_identical(a: &ServeRun, b: &ServeRun, label: &str) {
    assert_eq!(a.rejected.len(), b.rejected.len(), "{label} rejected");
    assert_eq!(a.shed.len(), b.shed.len(), "{label} shed");
    assert_eq!(a.failed.len(), b.failed.len(), "{label} failed");
    assert_eq!(a.preempted, b.preempted, "{label} preempted ids");
    assert_eq!(a.scale, b.scale, "{label} scale stats");
    assert_eq!(a.reconfig, b.reconfig, "{label} reconfig stats");
    assert_eq!(a.class_stats, b.class_stats, "{label} class stats");
    assert_eq!(a.reports.len(), b.reports.len(), "{label} shard count");
    for (x, y) in a.reports.iter().zip(&b.reports) {
        let shard = x.shard;
        assert_eq!(
            x.busy_ms.to_bits(),
            y.busy_ms.to_bits(),
            "{label} s{shard} busy"
        );
        assert_eq!(x.fault, y.fault, "{label} s{shard} fault stats");
        assert_eq!(x.tally, y.tally, "{label} s{shard} tally");
        assert_eq!(x.batches.len(), y.batches.len(), "{label} s{shard} batches");
        for (p, q) in x.batches.iter().zip(&y.batches) {
            assert_eq!(p.network, q.network, "{label} s{shard} batch net");
            assert_eq!(p.size, q.size, "{label} s{shard} batch size");
            assert_eq!(
                p.start_ms.to_bits(),
                q.start_ms.to_bits(),
                "{label} s{shard} start"
            );
            assert_eq!(
                p.service_ms.to_bits(),
                q.service_ms.to_bits(),
                "{label} s{shard} service"
            );
        }
        assert_eq!(
            x.requests.len(),
            y.requests.len(),
            "{label} s{shard} served"
        );
        for (p, q) in x.requests.iter().zip(&y.requests) {
            assert_eq!(p.id, q.id, "{label} s{shard} id order");
            assert_eq!(
                p.completion_ms.to_bits(),
                q.completion_ms.to_bits(),
                "{label} s{shard} completion"
            );
        }
    }
}

/// The exact-partition and exact-billing invariants of one run over a
/// `0..count` id trace.
fn assert_partition_and_billing(run: &ServeRun, count: usize, label: &str) {
    // Partition: every id in exactly one bucket, each exactly once.
    let mut served: Vec<u64> = Vec::new();
    for report in &run.reports {
        served.extend(report.requests.iter().map(|r| r.id));
    }
    let served: BTreeSet<u64> = {
        let n = served.len();
        let set: BTreeSet<u64> = served.into_iter().collect();
        assert_eq!(set.len(), n, "{label}: a request was served twice");
        set
    };
    let rejected: BTreeSet<u64> = run.rejected.iter().map(|r| r.id).collect();
    let shed: BTreeSet<u64> = run.shed.iter().map(|r| r.id).collect();
    let failed: BTreeSet<u64> = run.failed.iter().map(|r| r.id).collect();
    let mut all: Vec<u64> = Vec::with_capacity(count);
    all.extend(&served);
    all.extend(&rejected);
    all.extend(&shed);
    all.extend(&failed);
    all.sort_unstable();
    assert_eq!(
        all,
        (0..count as u64).collect::<Vec<u64>>(),
        "{label}: buckets must partition the trace exactly"
    );

    // The preempted annotation only marks dispatched requests: it may
    // intersect served (preempted-then-served) and failed (preempted
    // then crashed out of retries), never rejected or shed — both of
    // those buckets are decided at admission, before any dispatch.
    let preempted: BTreeSet<u64> = run.preempted.iter().copied().collect();
    assert_eq!(
        preempted.len(),
        run.preempted.len(),
        "{label}: preempted ids listed once each"
    );
    assert!(
        preempted.is_disjoint(&rejected),
        "{label}: a rejected request was never dispatched, so it cannot be preempted"
    );
    assert!(
        preempted.is_disjoint(&shed),
        "{label}: a shed request was never dispatched, so it cannot be preempted"
    );
    let then_served = preempted.intersection(&served).count();
    let then_failed = preempted.intersection(&failed).count();
    assert_eq!(
        then_served + then_failed,
        preempted.len(),
        "{label}: preempted splits exactly into preempted-then-served and preempted-then-failed"
    );

    // Preemption instances vs distinct victims, and the class rollup.
    let requeued: u64 = run.reports.iter().map(|r| r.fault.preempted_requests).sum();
    assert!(
        requeued >= preempted.len() as u64,
        "{label}: requeue instances at least cover the distinct victims"
    );
    let class_preempted: u64 = run.class_stats.iter().map(|c| c.preempted).sum();
    assert_eq!(
        class_preempted, requeued,
        "{label}: class rollup counts every requeued victim"
    );

    // No double-billing: per shard, busy time is exactly the completed
    // batches (compile + service) plus the preempted partial slices.
    for report in &run.reports {
        let batched: f64 = report
            .batches
            .iter()
            .map(|b| b.compile_ms + b.service_ms)
            .sum();
        let expected = batched + report.fault.preempted_busy_ms;
        assert!(
            (report.busy_ms - expected).abs() <= 1e-9 * expected.max(1.0),
            "{label} s{}: busy {} != batches {} + preempted slices {}",
            report.shard,
            report.busy_ms,
            batched,
            report.fault.preempted_busy_ms,
        );
    }
}

/// A crafted single-preemption timeline: a low-priority batch is
/// in flight when an urgent request lands, the remainder is evicted at
/// exactly the arrival instant, the partial slice is billed, and the
/// victim is re-queued behind the urgent work and served to
/// completion.
#[test]
fn preemption_evicts_the_running_batch_and_bills_the_partial_slice() {
    let shards = || vec![Executor::new(Platform::Sma3)];
    let networks = || vec![sma::models::zoo::alexnet()];
    let policy: Arc<dyn BatchPolicy> = Arc::new(SizeK::new(1));
    let probe = ServeSim::try_new(
        shards(),
        networks(),
        Arc::clone(&policy),
        &[],
        EngineConfig::default(),
    )
    .unwrap();
    let unit_ms = probe.cluster().unit_service_ms()[0][0];

    let preempt_at = 0.25 * unit_ms;
    let trace = vec![
        Request {
            id: 0,
            network: 0,
            arrival_ms: 0.0,
            deadline_ms: f64::INFINITY,
            class: 2,
        },
        Request {
            id: 1,
            network: 0,
            arrival_ms: preempt_at,
            deadline_ms: f64::INFINITY,
            class: 0,
        },
    ];
    let sim = ServeSim::try_new(
        shards(),
        networks(),
        policy,
        &trace,
        EngineConfig::default()
            .with_records()
            .with_preempt(PreemptPolicy::new(1)),
    )
    .unwrap();
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    let report = &run.reports[0];

    assert_eq!(report.fault.preemptions, 1);
    assert_eq!(report.fault.preempted_requests, 1);
    assert!(
        (report.fault.preempted_busy_ms - preempt_at).abs() < 1e-9,
        "the evicted batch bills exactly its elapsed slice"
    );
    assert_eq!(run.preempted, vec![0], "the victim is annotated");
    assert_eq!(run.class_stats[2].preempted, 1);
    assert_eq!(run.class_stats[0].preempted, 0);

    // Both requests are served — preempted-then-served is non-empty —
    // and the urgent request finishes first despite arriving second.
    assert!(run.failed.is_empty() && run.rejected.is_empty() && run.shed.is_empty());
    let completion = |id: u64| {
        report
            .requests
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.completion_ms)
            .unwrap()
    };
    assert!(
        completion(1) < completion(0),
        "the urgent request overtakes the evicted one"
    );
    // The victim's rerun starts from scratch after the urgent batch.
    assert!(completion(0) >= preempt_at + 2.0 * unit_ms - 1e-9);
    assert_partition_and_billing(&run, 2, "crafted preemption");
}

/// A crafted two-phase trace drives the full autoscaler cycle
/// deterministically: a sparse phase drains the fleet to `min_active`
/// (drain-before-remove completes on the emptied shards), then a
/// burst re-activates parked capacity along the energy frontier.
#[test]
fn autoscaler_drains_the_idle_fleet_and_reactivates_on_a_burst() {
    let cluster = control_cluster();
    let request = |id: u64, arrival_ms: f64| Request {
        id,
        network: 0,
        arrival_ms,
        deadline_ms: f64::INFINITY,
        class: 0,
    };
    // Phase 1: one request every 50 ms — the backlog sits at zero on
    // almost every tick, so the low-watermark streak drains shard
    // after shard down to `min_active`.
    let mut trace: Vec<Request> = (0..10).map(|i| request(i, 50.0 * i as f64)).collect();
    // Phase 2: sixty near-simultaneous arrivals — backlog per active
    // shard leaps far over the high watermark and stays there while
    // the queue serializes, so the scaler re-activates capacity.
    trace.extend((10..70).map(|i| request(i, 500.0 + 0.01 * (i - 10) as f64)));
    let config = EngineConfig::default()
        .with_records()
        .with_scale(AutoscalePolicy {
            period_ms: 10.0,
            high_watermark: 3.0,
            low_watermark: 0.5,
            hysteresis_ticks: 2,
            min_active: 1,
            // A generous budget: every parked shard stays frontier-eligible,
            // so this test exercises the scaling cycle, not the gate.
            energy_headroom: 10.0,
        });
    let policy: Arc<dyn BatchPolicy> = Arc::new(SizeK::new(4));
    let sim = ServeSim::with_cluster(Arc::clone(&cluster), policy, &trace, config);
    let run = sim.try_run(&mut LeastBacklog).unwrap();

    let scale = &run.scale;
    assert!(scale.evaluations > 0, "the tick loop ran: {scale:?}");
    assert!(scale.scale_downs >= 1, "the idle phase drains: {scale:?}");
    assert!(
        scale.drains_completed >= 1,
        "an emptied shard parks: {scale:?}"
    );
    assert!(
        scale.scale_ups >= 1,
        "the burst re-activates capacity: {scale:?}"
    );
    assert!(scale.final_active >= 1, "{scale:?}");
    assert_partition_and_billing(&run, 70, "two-phase autoscale");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exact reconciliation with the whole control plane on: under
    /// arbitrary traffic and fault schedules with preemption,
    /// autoscaling and traffic-mix reconfiguration all enabled, the
    /// outcome buckets partition the trace exactly, the preempted
    /// annotation stays inside served ∪ failed, busy time never
    /// double-bills an evicted slice, and the run replays bit for bit.
    #[test]
    fn control_plane_buckets_partition_and_bill_exactly(
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        rate_tenths in 0u64..40,
        gap in 1u16..3,
        period_tenths in 5u64..30,
        hedge_sel in 0usize..2,
        shed_sel in 0usize..2,
        scale_sel in 0usize..2,
        reconfig_sel in 0usize..2,
    ) {
        let cluster = control_cluster();
        let count = 120usize;
        let trace = LoadGenerator::new(seed, 0.8)
            .with_slo(SLO_MS)
            .with_classes(3)
            .trace(count, cluster.networks().len());
        let horizon_ms = trace.last().map_or(0.0, |r| r.arrival_ms);
        let plan = FaultPlan::generate(
            fault_seed,
            rate_tenths as f64 / 10.0,
            cluster.shard_count(),
            horizon_ms,
            &FaultMix::balanced(),
        );
        let mut config = EngineConfig::default()
            .with_records()
            .with_faults(plan)
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff_base_ms: 0.5,
                timeout_ms: 40.0 * SLO_MS,
            })
            .with_preempt(PreemptPolicy::new(u8::try_from(gap).unwrap()));
        if hedge_sel == 1 {
            config = config.with_hedge(HedgePolicy { delay_ms: 4.0 });
        }
        if shed_sel == 1 {
            config = config.with_shed(ShedPolicy { backlog_watermark: 6 });
        }
        if scale_sel == 1 {
            config = config.with_scale(AutoscalePolicy {
                period_ms: period_tenths as f64 / 10.0,
                high_watermark: 3.0,
                low_watermark: 0.5,
                hysteresis_ticks: 2,
                min_active: 1,
                energy_headroom: 0.25,
            });
        }
        if reconfig_sel == 1 {
            config = config.with_reconfig(ReconfigPolicy { window: 16, every: 4 });
        }
        let policy: Arc<dyn BatchPolicy> = Arc::new(EarliestDeadlineFirst::new(6.0, 16));
        let sim = ServeSim::with_cluster(Arc::clone(&cluster), policy, &trace, config);

        let run = sim.try_run(&mut HealthWeighted).unwrap();
        assert_partition_and_billing(&run, count, "control-plane chaos");

        // Control-plane determinism: the same inputs replay bit for bit.
        let again = sim.try_run(&mut HealthWeighted).unwrap();
        assert_runs_bit_identical(&run, &again, "control-plane repeat");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hysteresis damps the autoscaler: under a steady load shape the
    /// action count is bounded by `evaluations / hysteresis_ticks` (+1
    /// for the final partial streak), the accepting fleet never sinks
    /// below `min_active`, and drains only complete after they start.
    #[test]
    fn autoscaler_hysteresis_bounds_the_action_rate(
        seed in 0u64..10_000,
        hysteresis in 1u32..4,
        period_tenths in 5u64..25,
        min_active in 1usize..3,
    ) {
        let cluster = control_cluster();
        let count = 150usize;
        // LoadGenerator's default shape is Steady: no bursts to excuse
        // flapping.
        let trace = LoadGenerator::new(seed, 0.8)
            .with_slo(SLO_MS)
            .with_classes(3)
            .trace(count, cluster.networks().len());
        let config = EngineConfig::default().with_records().with_scale(AutoscalePolicy {
            period_ms: period_tenths as f64 / 10.0,
            high_watermark: 3.0,
            low_watermark: 0.5,
            hysteresis_ticks: hysteresis,
            min_active,
            energy_headroom: 0.25,
        });
        let policy: Arc<dyn BatchPolicy> = Arc::new(EarliestDeadlineFirst::new(6.0, 16));
        let sim = ServeSim::with_cluster(Arc::clone(&cluster), policy, &trace, config);
        let run = sim.try_run(&mut LeastBacklog).unwrap();

        let scale = &run.scale;
        prop_assert!(scale.evaluations >= 1, "the tick loop ran");
        let actions = scale.scale_ups + scale.scale_downs;
        prop_assert!(
            actions <= scale.evaluations / u64::from(hysteresis) + 1,
            "hysteresis bounds the action rate: {actions} actions in {} evaluations at {} ticks",
            scale.evaluations,
            hysteresis,
        );
        prop_assert!(scale.drains_completed <= scale.scale_downs);
        prop_assert!(
            scale.final_active >= min_active,
            "the accepting fleet never sinks below min_active"
        );
        assert_partition_and_billing(&run, count, "autoscaled steady run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A zero-headroom energy budget cannot pay for any fleet change,
    /// so an autoscale policy with `energy_headroom: 0` schedules no
    /// tick events at all and the run is bit-identical to an engine
    /// with no autoscaler configured.
    #[test]
    fn zero_headroom_autoscaler_is_bit_identical_to_the_static_fleet(
        seed in 0u64..10_000,
        policy_sel in 0usize..2,
    ) {
        let cluster = control_cluster();
        let trace = LoadGenerator::new(seed, 1.0)
            .with_slo(SLO_MS)
            .with_classes(3)
            .trace(100, cluster.networks().len());
        let policy: Arc<dyn BatchPolicy> = match policy_sel {
            0 => Arc::new(EarliestDeadlineFirst::new(6.0, 16)),
            _ => Arc::new(SizeK::new(4)),
        };
        let plain = ServeSim::with_cluster(
            Arc::clone(&cluster),
            Arc::clone(&policy),
            &trace,
            EngineConfig::default().with_records(),
        );
        let degenerate = ServeSim::with_cluster(
            Arc::clone(&cluster),
            Arc::clone(&policy),
            &trace,
            EngineConfig::default().with_records().with_scale(AutoscalePolicy {
                energy_headroom: 0.0,
                ..AutoscalePolicy::default()
            }),
        );
        let a = plain.try_run(&mut LeastBacklog).unwrap();
        let b = degenerate.try_run(&mut LeastBacklog).unwrap();
        prop_assert_eq!(b.scale.evaluations, 0, "no tick events were scheduled");
        assert_runs_bit_identical(&a, &b, "zero-headroom degenerate");
    }
}
