//! Fault-tolerance system tests for the serving engine.
//!
//! Two property suites pin the contract of the fault layer: a
//! **zero-rate fault plan is free** — wiring a generated-but-empty
//! [`FaultPlan`] (plus a live [`RetryPolicy`]) into the engine leaves
//! every report of the full fault-free combo grid bit-identical
//! to the fault-free run (and so does a hedge whose delay outlasts the
//! run's makespan) — and **no request is ever lost or
//! double-counted** — under arbitrary crash/degrade/stall/compile-fail
//! schedules with retries, hedging and shedding, the final buckets
//! (served, rejected, shed, failed) partition the trace exactly.
//! Targeted tests pin the individual mechanisms: crash abort + retry
//! accounting, degrade factors scaling service time, hedges never
//! double-serving, and class-striped shedding triaging the lowest
//! class first.

use proptest::prelude::*;
use sma::runtime::serve::{
    BatchPolicy, CacheBudget, Deadline, EarliestDeadlineFirst, EngineConfig, FaultEvent, FaultKind,
    FaultMix, FaultPlan, HealthWeighted, HedgePolicy, Immediate, LeastBacklog, LoadGenerator,
    Placement, Request, RetryPolicy, RoundRobin, ServeCluster, ServeSim, ShedPolicy, SizeK,
};
use sma::runtime::{Executor, Platform};
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;
use common::{assert_runs_bit_identical, serve_networks};

const SLO_MS: f64 = 25.0;

fn grid_cluster() -> Arc<ServeCluster> {
    let shards = vec![
        Executor::new(Platform::Sma3),
        Executor::new(Platform::GpuTensorCore),
        Executor::new(Platform::ArrayFlex),
    ];
    Arc::new(ServeCluster::try_new(shards, serve_networks()).unwrap())
}

/// The benchmark's 16 fault-free combos, the 4 policy x 2 placement x
/// 2 budget block, as (policy, placement, config) constructors so each
/// run gets fresh state.
#[expect(
    clippy::type_complexity,
    reason = "the tuple spells out the three constructors each combo takes"
)]
fn fault_free_grid(
    bounded_bytes: u64,
) -> Vec<(
    Arc<dyn BatchPolicy>,
    fn() -> Box<dyn Placement>,
    EngineConfig,
)> {
    let online_policies: Vec<Arc<dyn BatchPolicy>> = vec![
        Arc::new(Immediate),
        Arc::new(SizeK::new(8)),
        Arc::new(Deadline::new(5.0, 16)),
        Arc::new(EarliestDeadlineFirst::new(6.0, 16)),
    ];
    let online_placements: Vec<fn() -> Box<dyn Placement>> =
        vec![|| Box::new(RoundRobin::default()), || {
            Box::new(LeastBacklog)
        }];
    let mut grid = Vec::new();
    for policy in &online_policies {
        for placement in &online_placements {
            for config in [
                EngineConfig::default(),
                EngineConfig::default()
                    .with_cache_budget(CacheBudget::Uniform(bounded_bytes))
                    .with_compile_cost(0.05),
            ] {
                grid.push((Arc::clone(policy), *placement, config));
            }
        }
    }
    assert_eq!(grid.len(), 16);
    grid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Zero-rate fault plans are bit-free: for every combo of the
    /// benchmark grid, a config carrying a generated-but-empty
    /// [`FaultPlan`] and a live [`RetryPolicy`] reproduces the
    /// fault-free run exactly — same events, same seq numbers, same
    /// float bits. This is the invariant that lets the fault layer
    /// coexist with the byte-identical `BENCH_serve.json` contract.
    #[test]
    fn zero_rate_fault_plan_is_bit_identical_across_the_grid(
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        attempts in 1u32..6,
        backoff_tenths in 1u64..40,
    ) {
        let cluster = grid_cluster();
        let trace = LoadGenerator::new(seed, 1.5)
            .with_slo(SLO_MS)
            .with_classes(3)
            .trace(80, cluster.networks().len());
        let horizon_ms = trace.last().map_or(0.0, |r| r.arrival_ms);
        let empty = FaultPlan::generate(
            fault_seed,
            0.0,
            cluster.shard_count(),
            horizon_ms,
            &FaultMix::balanced(),
        );
        prop_assert!(empty.is_empty(), "rate 0 must generate no faults");
        let retry = RetryPolicy {
            max_attempts: attempts,
            backoff_base_ms: backoff_tenths as f64 / 10.0,
            timeout_ms: f64::INFINITY,
        };
        let max_plan = cluster.unit_plan_bytes().iter().flatten().copied().max().unwrap();

        for (which, (policy, placement, config)) in
            fault_free_grid(max_plan + max_plan / 4).into_iter().enumerate()
        {
            let config = config.with_records();
            let plain = ServeSim::with_cluster(
                Arc::clone(&cluster), Arc::clone(&policy), &trace, config.clone(),
            );
            let faulted = ServeSim::with_cluster(
                Arc::clone(&cluster),
                Arc::clone(&policy),
                &trace,
                config.with_faults(empty.clone()).with_retry(retry),
            );
            let a = plain.try_run(placement().as_mut()).unwrap();
            let b = faulted.try_run(placement().as_mut()).unwrap();
            assert_runs_bit_identical(&a, &b, &format!("combo {which}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A hedge that never fires is free: with no fault plan, a hedge
    /// delay longer than the hedge-free run's makespan puts every timer
    /// after the last completion, so for every combo of the grid the
    /// run equals the `hedge: None` run bit for bit — the timers (and
    /// the id tracking hedging turns on) leave no trace.
    #[test]
    fn hedge_past_the_makespan_is_bit_identical_across_the_grid(
        seed in 0u64..10_000,
        slack_tenths in 1u64..100,
    ) {
        let cluster = grid_cluster();
        let trace = LoadGenerator::new(seed, 1.5)
            .with_slo(SLO_MS)
            .with_classes(3)
            .trace(80, cluster.networks().len());
        let max_plan = cluster.unit_plan_bytes().iter().flatten().copied().max().unwrap();

        for (which, (policy, placement, config)) in
            fault_free_grid(max_plan + max_plan / 4).into_iter().enumerate()
        {
            let config = config.with_records();
            let plain = ServeSim::with_cluster(
                Arc::clone(&cluster), Arc::clone(&policy), &trace, config.clone(),
            );
            let a = plain.try_run(placement().as_mut()).unwrap();
            let makespan_ms = a.reports.iter().map(|r| r.makespan_ms).fold(0.0, f64::max);
            let hedge = HedgePolicy { delay_ms: makespan_ms + slack_tenths as f64 / 10.0 };
            let hedged = ServeSim::with_cluster(
                Arc::clone(&cluster), Arc::clone(&policy), &trace, config.with_hedge(hedge),
            );
            let b = hedged.try_run(placement().as_mut()).unwrap();
            prop_assert!(b.class_stats.iter().all(|c| c.hedges == 0), "combo {} hedged", which);
            assert_runs_bit_identical(&a, &b, &format!("combo {which}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact reconciliation under arbitrary fault schedules: served,
    /// rejected, shed and failed partition the trace — every id lands
    /// in exactly one bucket, no id is served twice (hedging dedups),
    /// and the whole run is repeatable bit for bit.
    #[test]
    fn fault_buckets_partition_the_trace_exactly(
        seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        rate_tenths in 0u64..45,
        mix_sel in 0usize..3,
        placement_sel in 0usize..2,
        hedge_sel in 0usize..2,
        shed_sel in 0usize..2,
    ) {
        let cluster = grid_cluster();
        let count = 120usize;
        let trace = LoadGenerator::new(seed, 1.0)
            .with_slo(SLO_MS)
            .with_classes(3)
            .trace(count, cluster.networks().len());
        let horizon_ms = trace.last().map_or(0.0, |r| r.arrival_ms);
        let mix = match mix_sel {
            0 => FaultMix::balanced(),
            1 => FaultMix::crash_heavy(),
            _ => FaultMix::degrade_heavy(),
        };
        let plan = FaultPlan::generate(
            fault_seed,
            rate_tenths as f64 / 10.0,
            cluster.shard_count(),
            horizon_ms,
            &mix,
        );
        let (hedge_on, shed_on) = (hedge_sel == 1, shed_sel == 1);
        let mut config = EngineConfig::default()
            .with_records()
            .with_faults(plan)
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff_base_ms: 0.5,
                timeout_ms: 40.0 * SLO_MS,
            });
        if hedge_on {
            config = config.with_hedge(HedgePolicy { delay_ms: 4.0 });
        }
        if shed_on {
            config = config.with_shed(ShedPolicy { backlog_watermark: 4 });
        }
        let policy: Arc<dyn BatchPolicy> = Arc::new(EarliestDeadlineFirst::new(6.0, 16));
        let placement = |sel: usize| -> Box<dyn Placement> {
            match sel {
                0 => Box::new(HealthWeighted),
                _ => Box::new(LeastBacklog),
            }
        };
        let sim = ServeSim::with_cluster(Arc::clone(&cluster), policy, &trace, config);
        let run = sim.try_run(placement(placement_sel).as_mut()).unwrap();

        // Partition: every id in exactly one bucket, each exactly once.
        let mut ids: Vec<u32> = Vec::with_capacity(count);
        for report in &run.reports {
            ids.extend(report.requests.iter().map(|r| r.id));
        }
        let served = ids.len();
        prop_assert_eq!(
            ids.iter().copied().collect::<BTreeSet<u32>>().len(),
            served,
            "a request was served twice"
        );
        ids.extend(run.rejected.iter().map(|id| id as u32));
        ids.extend(run.shed.iter().map(|id| id as u32));
        ids.extend(run.failed.iter().map(|r| r.id));
        ids.sort_unstable();
        prop_assert_eq!(
            ids,
            (0..count as u32).collect::<Vec<u32>>(),
            "buckets must partition the trace exactly"
        );

        // Counter coherence: class rollups match shard totals, and
        // downtime only exists where crashes happened.
        let shard_retries: u64 = run.reports.iter().map(|r| r.fault.retries).sum();
        let class_retries: u64 = run.class_stats.iter().map(|c| c.retries).sum();
        prop_assert_eq!(shard_retries, class_retries);
        let shard_hedges: u64 = run.reports.iter().map(|r| r.fault.hedges).sum();
        let class_hedges: u64 = run.class_stats.iter().map(|c| c.hedges).sum();
        prop_assert_eq!(shard_hedges, class_hedges);
        for report in &run.reports {
            if report.fault.crashes == 0 {
                prop_assert_eq!(report.fault.downtime_ms.to_bits(), 0.0f64.to_bits());
            }
        }
        if !hedge_on {
            prop_assert_eq!(shard_hedges, 0);
        }
        if !shed_on {
            prop_assert!(run.shed.is_empty());
        }

        // Chaos determinism: the same inputs replay bit for bit.
        let again = sim.try_run(placement(placement_sel).as_mut()).unwrap();
        assert_runs_bit_identical(&run, &again, "chaos repeat");
    }
}

/// A one-request trace arriving at `arrival_ms`.
fn one_request_trace(arrival_ms: f64) -> Vec<Request> {
    vec![Request {
        id: 0,
        network: 0,
        arrival_ms,
        deadline_ms: f64::INFINITY,
        class: 0,
    }]
}

/// The batch-1 AlexNet service time on the one 3-SMA shard the
/// single-request sims run.
fn unit_service_ms() -> f64 {
    let cluster = ServeCluster::try_new(
        vec![Executor::new(Platform::Sma3)],
        vec![sma::models::zoo::alexnet()],
    )
    .unwrap();
    cluster.unit_service_ms()[0][0]
}

fn one_request_sim(trace: &[Request], plan: FaultPlan, retry: RetryPolicy) -> ServeSim<'_> {
    ServeSim::try_new(
        vec![Executor::new(Platform::Sma3)],
        vec![sma::models::zoo::alexnet()],
        Arc::new(Immediate),
        trace,
        EngineConfig::default()
            .with_records()
            .with_faults(plan)
            .with_retry(retry),
    )
    .unwrap()
}

/// A crash mid-batch aborts the in-flight work (no busy time billed
/// for it), takes the shard down for exactly the recovery window, and
/// the victim is retried to completion once the shard is back.
#[test]
fn crash_aborts_the_batch_and_retry_lands_the_victim() {
    let trace = one_request_trace(0.0);
    let unit_ms = unit_service_ms();

    let crash_at = 0.25 * unit_ms;
    let recover_ms = 0.5 * unit_ms;
    let plan = FaultPlan::none().with_event(FaultEvent {
        shard: 0,
        at_ms: crash_at,
        kind: FaultKind::Crash { recover_ms },
    });
    let sim = one_request_sim(
        &trace,
        plan,
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 0.1,
            timeout_ms: f64::INFINITY,
        },
    );
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    let report = &run.reports[0];

    assert_eq!(report.fault.crashes, 1);
    assert_eq!(report.fault.aborted_batches, 1);
    assert_eq!(report.fault.retries, 1);
    assert!(
        (report.fault.downtime_ms - recover_ms).abs() < 1e-9,
        "downtime must equal the recovery window"
    );
    assert!(run.failed.is_empty(), "the retry must land the request");
    assert_eq!(report.requests.len(), 1);
    // The aborted attempt bills nothing: busy time is exactly the one
    // successful batch.
    assert_eq!(report.busy_ms.to_bits(), unit_ms.to_bits());
    // And the request could not have completed before the shard came
    // back up and re-ran it in full.
    assert!(report.requests[0].completion_ms >= crash_at + recover_ms + unit_ms - 1e-9);
}

/// A degrade window scales service time by its factor — exactly, in
/// float bits — and the batch is counted as degraded. Windows nest: a
/// batch is priced by the most recently opened window still open, so
/// an inner window that already closed no longer counts.
#[test]
fn degrade_window_scales_service_time_by_its_factor() {
    let trace = one_request_trace(1.0);
    let unit_ms = unit_service_ms();
    let degrade = |at_ms: f64, factor: f64, window_ms: f64| FaultEvent {
        shard: 0,
        at_ms,
        kind: FaultKind::Degrade { factor, window_ms },
    };

    let single = FaultPlan::none().with_event(degrade(0.5, 2.0, 100.0 * unit_ms));
    // A 3x window over 10–20 ms inside a 2x window over 0–100 ms; the
    // batch launches at 50 ms, after the inner window closed.
    let nested = FaultPlan::none()
        .with_event(degrade(0.0, 2.0, 100.0))
        .with_event(degrade(10.0, 3.0, 10.0));
    let late_trace = one_request_trace(50.0);
    for (plan, trace) in [(single, &trace), (nested, &late_trace)] {
        let sim = one_request_sim(trace, plan, RetryPolicy::default());
        let run = sim.try_run(&mut RoundRobin::default()).unwrap();
        let report = &run.reports[0];
        assert_eq!(report.fault.degraded_batches, 1);
        assert_eq!(report.batches.len(), 1);
        assert_eq!(
            report.batches[0].service_ms.to_bits(),
            (unit_ms * 2.0).to_bits(),
            "a 2x degrade factor must exactly double the batched service time"
        );
    }
}

/// Hedging duplicates a still-pending request onto a second shard;
/// first completion wins, the loser's work is still billed, and the
/// request is served exactly once.
#[test]
fn hedge_bills_the_loser_but_serves_exactly_once() {
    let trace = vec![Request {
        id: 0,
        network: 0,
        arrival_ms: 0.0,
        deadline_ms: f64::INFINITY,
        class: 0,
    }];
    let sim = ServeSim::try_new(
        vec![Executor::new(Platform::Sma3), Executor::new(Platform::Sma3)],
        vec![sma::models::zoo::alexnet()],
        Arc::new(Immediate),
        &trace,
        EngineConfig::default().with_hedge(HedgePolicy { delay_ms: 0.01 }),
    )
    .unwrap();
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();

    let served: usize = run.reports.iter().map(|r| r.tally.served()).sum();
    assert_eq!(served, 1, "first completion wins; the duplicate is dropped");
    let hedges: u64 = run.reports.iter().map(|r| r.fault.hedges).sum();
    assert_eq!(hedges, 1);
    // Both shards ran the batch: the losing duplicate is billed.
    assert!(run.reports.iter().all(|r| r.busy_ms > 0.0));
    assert_eq!(run.class_stats[0].hedges, 1);
}

/// Class-striped shedding triages strictly by class: under a backlog
/// watermark the lowest class (the highest class index) sheds first,
/// and no higher class sheds more than a lower one.
#[test]
fn shedding_triages_the_lowest_class_first() {
    let networks = vec![sma::models::zoo::alexnet()];
    let trace = LoadGenerator::new(0xFA17, 0.05)
        .with_slo(SLO_MS)
        .with_classes(3)
        .trace(300, networks.len());
    let sim = ServeSim::try_new(
        vec![Executor::new(Platform::Sma3)],
        networks,
        Arc::new(Immediate),
        &trace,
        EngineConfig::default().with_shed(ShedPolicy {
            backlog_watermark: 2,
        }),
    )
    .unwrap();
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    assert!(!run.shed.is_empty(), "an overloaded shard must shed");
    let shed_of = |class: u8| {
        run.shed
            .iter()
            .filter(|&id| trace[id as usize].class == class)
            .count()
    };
    // The per-class counts the engine keeps as it sheds agree with a
    // recount from the trace and with what `aggregate` reports.
    let outcome = sim.outcome(&run);
    assert_eq!(run.class_stats.len(), 3);
    assert_eq!(outcome.classes.len(), 3);
    for (class, (stats, summary)) in run.class_stats.iter().zip(&outcome.classes).enumerate() {
        let recount = shed_of(class as u8);
        assert_eq!(stats.shed, recount, "class {class} shed counter");
        assert_eq!(summary.shed, recount, "class {class} aggregated shed");
    }
    assert_eq!(outcome.shed, run.shed.len());
    assert!(
        shed_of(2) >= shed_of(1) && shed_of(1) >= shed_of(0),
        "shedding must be ordered by class priority: {} / {} / {}",
        shed_of(0),
        shed_of(1),
        shed_of(2)
    );
    assert!(shed_of(2) > 0, "the lowest class sheds first");
}
