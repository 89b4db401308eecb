//! Event-engine system tests: the Deadline batch-close regression (a
//! ripe batch closes at the triggering event, never the next arrival),
//! bounded-plan-cache eviction and admission-control behaviour, EDF
//! deadline-miss accounting, repeat-run bit-identity, a digest pin of
//! one run with every feature on, a digest pin of hedge timers firing
//! on the instants of every other event class, and the input checks that run before
//! the first event (trace ids are positions, faults name real shards,
//! a cluster has shards and networks, a hedge delay is not negative or
//! NaN).

use proptest::prelude::*;
use sma::core::GemmEstimate;
use sma::mem::MemStats;
use sma::runtime::backend::{Backend, ExecPath, IrregularEstimate, IrregularWork, RuntimeError};
use sma::runtime::serve::{
    AutoscalePolicy, BatchPolicy, CacheBudget, Deadline, EarliestDeadlineFirst, EngineConfig,
    FaultEvent, FaultKind, FaultMix, FaultPlan, HealthWeighted, HedgePolicy, Immediate,
    LoadGenerator, PreemptPolicy, ReconfigPolicy, Request, RetryPolicy, RoundRobin, ServeCluster,
    ServeSim, ShedPolicy,
};
use sma::runtime::{Executor, Platform};
use sma::tensor::GemmShape;
use sma_bench::stream::fnv1a64;
use std::sync::Arc;

mod common;
use common::{serve_networks, serve_trace};

/// Regression for the latent off-by-one-event bug: a queue whose
/// deadline expires between arrivals closes at the batch-close event
/// the policy scheduled — not at the next arrival, which here is 990
/// simulated ms later.
#[test]
fn deadline_batch_closes_at_expiry_not_at_the_next_arrival() {
    let request = |id, arrival_ms| Request {
        id,
        network: 0,
        arrival_ms,
        deadline_ms: f64::INFINITY,
        class: 0,
    };
    let trace = vec![request(0, 10.0), request(1, 1000.0)];
    let sim = ServeSim::try_new(
        vec![Executor::new(Platform::Sma3)],
        vec![sma::models::zoo::alexnet()],
        Arc::new(Deadline::new(5.0, 16)),
        &trace,
        EngineConfig::default().with_records(),
    )
    .unwrap();
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    let report = &run.reports[0];
    assert_eq!(report.batches.len(), 2);
    // r0 arrives at 10, `more_arrivals` is true (r1 is still to come) —
    // the batch must close exactly when the 5 ms wait bound expires, at
    // t = 15, not when r1 arrives at t = 1000.
    assert_eq!(
        report.batches[0].start_ms.to_bits(),
        15.0_f64.to_bits(),
        "ripe batch must close at its expiry event"
    );
    assert_eq!(report.requests[0].id, 0);
    assert!(report.requests[0].completion_ms < 1000.0);
    // The tail request flushes at its own arrival (no more to come).
    assert_eq!(report.batches[1].start_ms.to_bits(), 1000.0_f64.to_bits());
}

/// A bounded plan cache under a multi-network shard must actually
/// evict, keep its counters exact, and charge compile latency on
/// misses (making the run strictly slower than the unbounded twin).
#[test]
fn bounded_plan_cache_evicts_and_charges_compiles() {
    let cluster = Arc::new(
        ServeCluster::try_new(
            vec![
                Executor::new(Platform::Sma3),
                Executor::new(Platform::GpuTensorCore),
            ],
            serve_networks(),
        )
        .unwrap(),
    );
    let trace = LoadGenerator::new(0xCAFE, 1.2)
        .with_slo(60.0)
        .trace(600, cluster.networks().len());
    // Budget: the largest plan plus a quarter — one plan always fits,
    // three networks' worth never does.
    let max_plan = cluster
        .unit_plan_bytes()
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap();
    let bounded = EngineConfig::default()
        .with_cache_budget(CacheBudget::Uniform(max_plan + max_plan / 4))
        .with_compile_cost(0.05)
        .with_records();
    let unbounded = EngineConfig::default().with_compile_cost(0.05);
    let policy: Arc<dyn BatchPolicy> = Arc::new(Deadline::new(4.0, 16));

    let run_b = ServeSim::with_cluster(Arc::clone(&cluster), Arc::clone(&policy), &trace, bounded)
        .try_run(&mut RoundRobin::default())
        .unwrap();
    let run_u =
        ServeSim::with_cluster(Arc::clone(&cluster), Arc::clone(&policy), &trace, unbounded)
            .try_run(&mut RoundRobin::default())
            .unwrap();

    let mut evictions = 0;
    for (report_b, report_u) in run_b.reports.iter().zip(&run_u.reports) {
        let cache_b = &report_b.cache;
        assert_eq!(cache_b.hits + cache_b.misses, cache_b.lookups);
        assert_eq!(cache_b.lookups, report_b.batches.len() as u64);
        assert!(
            cache_b.peak_bytes <= max_plan + max_plan / 4,
            "residency must respect the budget"
        );
        evictions += cache_b.evictions;
        // Unbounded twin: no evictions, resident == peak, and misses
        // are exactly the distinct (network, batch) keys it compiled
        // once each.
        assert_eq!(report_u.cache.evictions, 0);
        assert_eq!(report_u.cache.resident_bytes, report_u.cache.peak_bytes);
        // Every compile charge appears in the batch records and sums
        // to the shard's miss bill.
        let charged: f64 = report_b.batches.iter().map(|b| b.compile_ms).sum();
        assert!(charged > 0.0, "misses must bill compile latency");
        let replay: f64 = report_b.batches.iter().map(|b| b.service_ms).sum();
        assert!(
            (report_b.busy_ms - (charged + replay)).abs() < 1e-9,
            "busy time = replays + compile charges"
        );
    }
    assert!(evictions > 0, "the bounded budget must force evictions");
    // Eviction means re-compiling plans the unbounded twin kept: the
    // cluster as a whole must miss strictly more often.
    let misses = |run: &sma::runtime::serve::ServeRun| -> u64 {
        run.reports.iter().map(|r| r.cache.misses).sum()
    };
    assert!(misses(&run_b) > misses(&run_u), "evictions cause re-misses");
}

/// Admission control: a plan that can never fit the placed shard's
/// budget is re-placed onto a shard whose budget admits it; when no
/// shard can ever hold it, the request is rejected and accounted.
#[test]
fn admission_controller_replaces_then_rejects() {
    let networks = serve_networks();
    let trace = serve_trace(0xBEEF, 120, 1.0);
    let cluster = Arc::new(
        ServeCluster::try_new(
            vec![Executor::new(Platform::Sma3), Executor::new(Platform::Sma3)],
            networks,
        )
        .unwrap(),
    );
    let max_plan = cluster
        .unit_plan_bytes()
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap();

    // Shard 0 can hold nothing; shard 1 can hold anything: every
    // request round-robined onto shard 0 is re-placed onto shard 1.
    let replace =
        EngineConfig::default().with_cache_budget(CacheBudget::PerShard(vec![1, 8 * max_plan]));
    let sim = ServeSim::with_cluster(Arc::clone(&cluster), Arc::new(Immediate), &trace, replace);
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    assert!(run.rejected.is_empty(), "shard 1 admits every plan");
    assert_eq!(run.reports[0].tally.served(), 0, "shard 0 admits nothing");
    assert_eq!(run.reports[1].tally.served(), trace.len());

    // No shard can hold any plan: everything is rejected, loudly.
    let reject = EngineConfig::default().with_cache_budget(CacheBudget::Uniform(1));
    let sim = ServeSim::with_cluster(Arc::clone(&cluster), Arc::new(Immediate), &trace, reject);
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    assert_eq!(run.rejected.len(), trace.len());
    let outcome = sim.outcome(&run);
    assert_eq!(outcome.requests, 0);
    assert_eq!(outcome.rejected, trace.len());
    assert_eq!(outcome.goodput.to_bits(), 0.0f64.to_bits());
}

/// SLO accounting under EDF: the trace's deadlines produce a nonzero
/// miss count under load, the outcome's counters reconcile with the
/// per-request records, and goodput is exactly the served-and-on-time
/// fraction.
#[test]
fn edf_deadline_miss_accounting_reconciles() {
    let cluster = Arc::new(
        ServeCluster::try_new(
            vec![
                Executor::new(Platform::Sma3),
                Executor::new(Platform::GpuTensorCore),
            ],
            serve_networks(),
        )
        .unwrap(),
    );
    // Heavy load (gap well under the mean service time) with a tight
    // SLO: misses are inevitable; EDF triages.
    let trace = LoadGenerator::new(0x0510, 1.0)
        .with_slo(25.0)
        .trace(800, cluster.networks().len());
    let sim = ServeSim::with_cluster(
        Arc::clone(&cluster),
        Arc::new(EarliestDeadlineFirst::new(8.0, 16)),
        &trace,
        EngineConfig::default().with_records(),
    );
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    let outcome = sim.outcome(&run);

    let recounted: u64 = run
        .reports
        .iter()
        .flat_map(|r| r.requests.iter())
        .filter(|r| r.completion_ms > r.deadline_ms)
        .count() as u64;
    assert_eq!(outcome.deadline_misses, recounted);
    assert!(
        outcome.deadline_misses > 0,
        "an overloaded cluster must miss deadlines"
    );
    assert!(
        outcome.deadline_misses < outcome.requests as u64,
        "EDF must still land some requests in time"
    );
    let expected_goodput = (outcome.requests as u64 - outcome.deadline_misses) as f64
        / (outcome.requests + outcome.rejected) as f64;
    assert_eq!(outcome.goodput.to_bits(), expected_goodput.to_bits());
    // Queue-depth accounting is live under load.
    assert!(outcome.shards.iter().any(|s| s.queue_depth_max > 0));
    assert!(outcome.shards.iter().any(|s| s.queue_depth_mean > 0.0));
}

/// The same engine inputs give byte-identical outcomes when the run is
/// repeated — including under the bounded cache and EDF, where the new
/// machinery (LRU ticks, compile charges, admission control) could
/// most plausibly leak nondeterminism.
#[test]
fn bounded_edf_runs_are_bit_identical_across_repeats() {
    let cluster = Arc::new(
        ServeCluster::try_new(
            vec![
                Executor::new(Platform::Sma3),
                Executor::new(Platform::FlexSa),
            ],
            serve_networks(),
        )
        .unwrap(),
    );
    let trace = LoadGenerator::new(7, 1.5)
        .with_slo(30.0)
        .trace(500, cluster.networks().len());
    let config = EngineConfig::default()
        .with_cache_budget(CacheBudget::Uniform(16 * 1024))
        .with_compile_cost(0.05)
        .with_records();
    let sim = ServeSim::with_cluster(
        Arc::clone(&cluster),
        Arc::new(EarliestDeadlineFirst::new(10.0, 16)),
        &trace,
        config,
    );
    let a = sim.try_run(&mut sma::runtime::serve::LeastBacklog).unwrap();
    let b = sim.try_run(&mut sma::runtime::serve::LeastBacklog).unwrap();
    assert_eq!(a.rejected.len(), b.rejected.len());
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.busy_ms.to_bits(), y.busy_ms.to_bits());
        assert_eq!(x.cache, y.cache);
        assert_eq!(x.tally, y.tally);
        assert_eq!(x.requests.len(), y.requests.len());
        for (p, q) in x.requests.iter().zip(&y.requests) {
            assert_eq!(p.id, q.id);
            assert_eq!(p.completion_ms.to_bits(), q.completion_ms.to_bits());
        }
    }
}

/// One 3,000-request run with every engine feature on at once —
/// faults, retry, hedge, preempt, shed, autoscale and reconfig — pinned
/// by digest. No committed benchmark row combines hedging with
/// preemption, so this is the one place their interaction (hedge twins
/// of evicted victims, retries of preempted ids) is held byte for byte.
#[test]
fn every_feature_at_once_is_pinned_by_digest() {
    let cluster = Arc::new(
        ServeCluster::try_new(
            vec![
                Executor::new(Platform::Sma3),
                Executor::new(Platform::GpuTensorCore),
                Executor::new(Platform::ArrayFlex),
                Executor::new(Platform::FlexSa),
            ],
            serve_networks(),
        )
        .unwrap(),
    );
    let slo_ms = 25.0;
    let trace = LoadGenerator::new(19, 1.5)
        .with_slo(slo_ms)
        .with_classes(3)
        .trace(3_000, cluster.networks().len());
    let horizon_ms = trace.last().map_or(0.0, |r| r.arrival_ms);
    let faults = FaultPlan::generate(
        0xFA17,
        12.0,
        cluster.shard_count(),
        horizon_ms,
        &FaultMix::balanced(),
    );
    let config = EngineConfig::default()
        .with_compile_cost(0.05)
        .with_faults(faults)
        .with_retry(RetryPolicy {
            max_attempts: 2,
            backoff_base_ms: 0.5,
            timeout_ms: slo_ms,
        })
        .with_hedge(HedgePolicy { delay_ms: 4.0 })
        .with_preempt(PreemptPolicy::new(1))
        .with_shed(ShedPolicy {
            backlog_watermark: 40,
        })
        .with_scale(AutoscalePolicy {
            period_ms: 2.0,
            high_watermark: 3.0,
            low_watermark: 0.5,
            hysteresis_ticks: 2,
            min_active: 1,
            energy_headroom: 10.0,
        })
        .with_reconfig(ReconfigPolicy {
            window: 16,
            every: 4,
        });
    let sim = ServeSim::with_cluster(
        Arc::clone(&cluster),
        Arc::new(EarliestDeadlineFirst::new(6.0, 16)),
        &trace,
        config,
    );
    let run = sim.try_run(&mut HealthWeighted).unwrap();
    let outcome = sim.outcome(&run);
    // Every feature actually fired, so the digest covers its path.
    assert!(outcome.retries > 0 && outcome.hedges > 0 && outcome.preemptions > 0);
    assert!(outcome.shed > 0 && outcome.failed > 0);
    assert!(outcome.scale_ups > 0 && outcome.scale_downs > 0 && outcome.reconfigs > 0);
    let failed: Vec<u64> = run.failed.iter().map(|r| u64::from(r.id)).collect();
    let preempted: Vec<u64> = run.preempted.iter().collect();
    let rendered = format!("{outcome:?}|{preempted:?}|{failed:?}");
    assert_eq!(
        fnv1a64(rendered.as_bytes()),
        0xa995_839c_beb5_360e,
        "every-feature outcome drifted"
    );
}

/// A backend whose every GEMM takes exactly `gemm_ms` and every
/// irregular op nothing: batch service times are small dyadic sums, so
/// engine instants built from integer-ms arrivals stay exact and land
/// on each other.
#[derive(Debug)]
struct FixedMs {
    name: &'static str,
    gemm_ms: f64,
}

impl Backend for FixedMs {
    fn name(&self) -> &'static str {
        self.name
    }
    fn gemm(&self, _shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
        Ok(GemmEstimate {
            cycles: 1,
            time_ms: self.gemm_ms,
            efficiency: 1.0,
            tflops: 1.0,
            mem: MemStats::default(),
            sm_cycles: 1,
        })
    }
    fn irregular(&self, _work: IrregularWork) -> IrregularEstimate {
        IrregularEstimate {
            time_ms: 0.0,
            transfer_ms: 0.0,
            mem: MemStats::default(),
            sm_cycles: 0,
            path: ExecPath::SimdMode,
        }
    }
    fn transfer_ms(&self, _bytes: u64) -> f64 {
        0.0
    }
    fn simd_mode_boost(&self) -> f64 {
        1.0
    }
}

/// An executor over [`FixedMs`] with no framework or post-processing
/// time, so a plan's total is its GEMM count times `gemm_ms`.
fn fixed_ms_shard(name: &'static str, gemm_ms: f64) -> Executor {
    Executor::builder(Platform::Sma3)
        .framework_ms(0.0)
        .postprocessing(false)
        .backend(Arc::new(FixedMs { name, gemm_ms }))
        .build()
}

/// Hedge timers ride their own arrival-ordered queue beside the event
/// heap; this pins that they still interleave with every other event
/// class by `(time, class, seq)`. Arrivals sit on whole milliseconds,
/// the hedge delay is a whole number of milliseconds and every service,
/// compile, fault, backoff, batch-close and scale instant is an exact
/// dyadic sum, so hedge fire instants coincide with completions,
/// batch-close timers, faults, retries, preemptions and scale ticks
/// (the test checks that the observable ones really do). The digest was
/// taken from the engine that kept hedges in the heap.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "flooring stamps to whole ms is how the test lands hedges on other events"
)]
fn hedges_landing_on_every_event_class_keep_their_order() {
    let cluster = Arc::new(
        ServeCluster::try_new(
            vec![
                fixed_ms_shard("fast", 0.25),
                fixed_ms_shard("mid", 0.5),
                fixed_ms_shard("fast", 0.25),
                fixed_ms_shard("slow", 1.0),
            ],
            vec![sma::models::zoo::alexnet(), sma::models::zoo::vgg_a()],
        )
        .unwrap(),
    );
    let slo_ms = 24.0;
    let trace: Vec<Request> = LoadGenerator::new(23, 1.0)
        .with_slo(slo_ms)
        .with_classes(3)
        .trace(1_500, cluster.networks().len())
        .into_iter()
        .map(|r| Request {
            arrival_ms: r.arrival_ms.floor(),
            deadline_ms: r.arrival_ms.floor() + slo_ms,
            ..r
        })
        .collect();
    let crash = |shard, at_ms| FaultEvent {
        shard,
        at_ms,
        kind: FaultKind::Crash { recover_ms: 12.0 },
    };
    let degrade = |shard, at_ms| FaultEvent {
        shard,
        at_ms,
        kind: FaultKind::Degrade {
            factor: 2.0,
            window_ms: 30.0,
        },
    };
    let fault_events = [
        crash(0, 40.0),
        crash(3, 150.0),
        crash(1, 333.0),
        crash(2, 600.0),
        crash(0, 901.0),
        degrade(1, 90.0),
        degrade(2, 420.0),
        degrade(3, 1200.0),
        FaultEvent {
            shard: 0,
            at_ms: 250.0,
            kind: FaultKind::StallCompile {
                extra_ms: 3.0,
                window_ms: 20.0,
            },
        },
        FaultEvent {
            shard: 2,
            at_ms: 700.0,
            kind: FaultKind::TransientCompileFail { window_ms: 9.0 },
        },
    ];
    let faults = fault_events
        .iter()
        .fold(FaultPlan::none(), |plan, event| plan.with_event(*event));
    let delay_ms = 6.0;
    let config = EngineConfig::default()
        .with_compile_cost(0.5)
        .with_cache_budget(CacheBudget::Uniform(u64::MAX))
        .with_faults(faults)
        .with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 2.0,
            timeout_ms: slo_ms,
        })
        .with_hedge(HedgePolicy { delay_ms })
        .with_preempt(PreemptPolicy::new(1))
        .with_scale(AutoscalePolicy {
            period_ms: 4.0,
            high_watermark: 2.0,
            low_watermark: 1.0,
            hysteresis_ticks: 2,
            min_active: 1,
            energy_headroom: 10.0,
        })
        .with_records();
    let sim = ServeSim::with_cluster(
        Arc::clone(&cluster),
        Arc::new(Deadline::new(2.0, 8)),
        &trace,
        config,
    );
    let run = sim.try_run(&mut HealthWeighted).unwrap();
    let outcome = sim.outcome(&run);
    let hedge_instants: std::collections::BTreeSet<u64> = trace
        .iter()
        .map(|r| (r.arrival_ms + delay_ms).to_bits())
        .collect();
    let completions = run
        .reports
        .iter()
        .flat_map(|report| &report.batches)
        .filter(|b| hedge_instants.contains(&(b.start_ms + b.compile_ms + b.service_ms).to_bits()))
        .count();
    let on_faults = fault_events
        .iter()
        .filter(|fault| hedge_instants.contains(&fault.at_ms.to_bits()))
        .count();
    // A crash victim's first retry fires one base backoff after it.
    let on_retries = fault_events
        .iter()
        .filter(|fault| matches!(fault.kind, FaultKind::Crash { .. }))
        .filter(|fault| hedge_instants.contains(&(fault.at_ms + 2.0).to_bits()))
        .count();
    assert!(
        completions > 0 && on_faults > 0 && on_retries > 0,
        "hedges must coincide with completions ({completions}), faults ({on_faults}) \
         and retries ({on_retries})"
    );
    assert!(outcome.hedges > 0 && outcome.retries > 0 && outcome.preemptions > 0);
    assert!(outcome.scale_ups > 0 && outcome.scale_downs > 0);
    let failed: Vec<u64> = run.failed.iter().map(|r| u64::from(r.id)).collect();
    let preempted: Vec<u64> = run.preempted.iter().collect();
    let rendered = format!("{outcome:?}|{preempted:?}|{failed:?}");
    assert_eq!(
        fnv1a64(rendered.as_bytes()),
        0xf59f_5230_a555_e431,
        "hedge-coincidence outcome drifted"
    );
}

/// The one way hedge timers can be created out of firing order: arrivals
/// `+0.0` then `-0.0` are in arrival order, but with a `-0.0` delay the
/// second hedge fires at `-0.0`, before the first at `+0.0`. Both twins
/// go to the one fast shard, and the earlier-firing twin (request 1)
/// must run there first.
#[test]
fn signed_zero_hedges_fire_in_time_order() {
    let request = |id, arrival_ms: f64| Request {
        id,
        network: 0,
        arrival_ms,
        deadline_ms: f64::INFINITY,
        class: 0,
    };
    let trace = [request(0, 0.0), request(1, -0.0)];
    let sim = ServeSim::try_new(
        vec![
            fixed_ms_shard("slow", 1.0),
            fixed_ms_shard("slow", 1.0),
            fixed_ms_shard("fast", 0.25),
        ],
        vec![sma::models::zoo::alexnet()],
        Arc::new(Immediate),
        &trace,
        EngineConfig::default()
            .with_hedge(HedgePolicy { delay_ms: -0.0 })
            .with_records(),
    )
    .unwrap();
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    let fast = &run.reports[2];
    assert_eq!(fast.fault.hedges, 2, "both twins land on the fast shard");
    let order: Vec<u32> = fast.requests.iter().map(|r| r.id).collect();
    assert_eq!(order, [1, 0], "the -0.0 hedge fires first");
}

/// Request ids are trace positions. A trace that breaks the contract —
/// a gap (`[0, 2]`) or a repeat (`[0, 0]`, with hedging on so the
/// engine tracks ids) — is refused before any event runs.
#[test]
fn trace_ids_must_equal_positions() {
    let request = |id| Request {
        id,
        network: 0,
        arrival_ms: 1.0,
        deadline_ms: f64::INFINITY,
        class: 0,
    };
    let run = |ids: [u32; 2], config: EngineConfig| {
        let trace = ids.map(request);
        ServeSim::try_new(
            vec![Executor::new(Platform::Sma3), Executor::new(Platform::Sma3)],
            vec![sma::models::zoo::alexnet()],
            Arc::new(Immediate),
            &trace,
            config,
        )
        .unwrap()
        .try_run(&mut RoundRobin::default())
        .err()
    };
    assert_eq!(
        run([0, 2], EngineConfig::default()),
        Some(RuntimeError::TraceIdMismatch { position: 1, id: 2 })
    );
    let hedged = EngineConfig::default().with_hedge(HedgePolicy { delay_ms: 0.5 });
    assert_eq!(
        run([0, 0], hedged),
        Some(RuntimeError::TraceIdMismatch { position: 1, id: 0 })
    );
}

/// A fault plan that names a shard the cluster does not have is an
/// error, not a panic.
#[test]
fn fault_plan_on_a_missing_shard_is_an_error() {
    let faults = FaultPlan::none().with_event(FaultEvent {
        shard: 3,
        at_ms: 1.0,
        kind: FaultKind::Crash { recover_ms: 2.0 },
    });
    let trace = LoadGenerator::new(5, 1.0).trace(20, 1);
    let sim = ServeSim::try_new(
        vec![Executor::new(Platform::Sma3), Executor::new(Platform::Sma3)],
        vec![sma::models::zoo::alexnet()],
        Arc::new(Immediate),
        &trace,
        EngineConfig::default().with_faults(faults),
    )
    .unwrap();
    assert_eq!(
        sim.try_run(&mut RoundRobin::default()).err(),
        Some(RuntimeError::FaultShardOutOfRange {
            shard: 3,
            shard_count: 2,
        })
    );
}

/// A cluster with no shards or no networks is an error from its `try_`
/// constructor, not a panic.
#[test]
fn empty_fleet_or_network_table_is_an_error() {
    let no_shards = ServeCluster::try_new(Vec::new(), vec![sma::models::zoo::alexnet()]);
    assert_eq!(
        no_shards.err(),
        Some(RuntimeError::EmptyCluster {
            shards: 0,
            networks: 1,
        })
    );
    let no_networks = ServeCluster::try_new(vec![Executor::new(Platform::Sma3)], Vec::new());
    assert_eq!(
        no_networks.err(),
        Some(RuntimeError::EmptyCluster {
            shards: 1,
            networks: 0,
        })
    );
}

/// A negative or NaN hedge delay is refused before any event runs. On a
/// 3-SMA + 4-TC pair, a -5 ms delay used to serve most requests before
/// they arrived (negative latencies); `-0.0` stays a valid zero delay
/// (`signed_zero_hedges_fire_in_time_order`).
#[test]
fn negative_or_nan_hedge_delay_is_an_error() {
    let trace = LoadGenerator::new(3, 20.0).trace(50, 1);
    let run = |delay_ms: f64| {
        ServeSim::try_new(
            vec![
                Executor::new(Platform::Sma3),
                Executor::new(Platform::GpuTensorCore),
            ],
            vec![sma::models::zoo::alexnet()],
            Arc::new(Immediate),
            &trace,
            EngineConfig::default()
                .with_hedge(HedgePolicy { delay_ms })
                .with_records(),
        )
        .unwrap()
        .try_run(&mut RoundRobin::default())
    };
    for delay_ms in [-5.0, f64::NAN, -f64::NAN, f64::NEG_INFINITY] {
        assert_eq!(
            run(delay_ms).err(),
            Some(RuntimeError::InvalidHedgeDelay {
                delay_ms_bits: delay_ms.to_bits(),
            }),
            "delay {delay_ms}"
        );
    }
    let served = run(5.0).expect("a positive delay runs");
    let requests = served.reports.iter().flat_map(|r| &r.requests);
    assert!(requests.clone().count() > 0);
    assert!(requests.clone().all(|r| r.start_ms >= r.arrival_ms));
}

/// The float fields [`try_run_returns_ok_or_err_and_never_panics`]
/// draws, by index: both NaNs, both infinities, both zeros, a negative,
/// and tiny, unit and huge magnitudes.
const FLOATS: [f64; 10] = [
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    -1.0,
    1e-300,
    1.0,
    1e300,
];
/// Where `1e-300` and `1e300` sit in [`FLOATS`].
const TINY: usize = 7;
const HUGE: usize = 9;

/// Decimal digit `k` of a packed draw: one [`FLOATS`] index.
fn digit(code: usize, k: u32) -> usize {
    code / 10usize.pow(k) % 10
}

/// Two shards, one of them reconfigurable, hosting two networks;
/// compiled once for every case of the input proptest.
fn input_check_cluster() -> Arc<ServeCluster> {
    static CLUSTER: std::sync::OnceLock<Arc<ServeCluster>> = std::sync::OnceLock::new();
    Arc::clone(CLUSTER.get_or_init(|| {
        let shards = vec![
            Executor::new(Platform::Sma3),
            Executor::new(Platform::ArrayFlex),
        ];
        let networks = vec![sma::models::zoo::alexnet(), sma::models::zoo::vgg_a()];
        Arc::new(ServeCluster::try_new(shards, networks).unwrap())
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `ServeSim::try_run` answers any trace and engine config with
    /// `Ok` or `Err`, never a panic. One request of a seeded trace
    /// (0–4 requests) may take a drawn arrival and network (network 2
    /// is not hosted), and the config may draw a fault on shard 0–2 (2
    /// is missing) with [`FLOATS`] instant and parameters, a per-shard
    /// budget of the wrong length, reconfiguration windows and strides
    /// from 0, an autoscaler with [`FLOATS`] period, watermarks and
    /// headroom, hysteresis from 0 and `min_active` from 0 to one past
    /// the fleet, and a [`FLOATS`] hedge delay. A draw past its table
    /// keeps the seeded or default value, so most cases break one rule
    /// or none and the valid ones run the engine.
    #[test]
    fn try_run_returns_ok_or_err_and_never_panics(
        seed in 0usize..10_000,
        arrival in 0usize..40,
        network in 0u16..12,
        fault_kind in 0usize..12,
        fault_shard in 0usize..3,
        fault_floats in 0usize..1_000,
        budget in 0usize..8,
        reconfig in 0usize..30,
        scale_floats in 0usize..10_000,
        scale_ints in 0usize..36,
        hedge in 0usize..40,
        policy in 0usize..3,
    ) {
        let len = seed % 5;
        let mut trace = LoadGenerator::new(seed as u64, 2.0)
            .with_slo(20.0)
            .with_classes(2)
            .trace(len, 2);
        if let Some(request) = trace.get_mut(seed / 5 % len.max(1)) {
            request.arrival_ms = FLOATS.get(arrival).copied().unwrap_or(request.arrival_ms);
            if network <= 2 {
                request.network = network;
            }
        }

        let (at_ms, p, q) = (
            FLOATS[digit(fault_floats, 0)],
            FLOATS[digit(fault_floats, 1)],
            FLOATS[digit(fault_floats, 2)],
        );
        let kind = match fault_kind {
            0 => Some(FaultKind::Crash { recover_ms: p }),
            1 => Some(FaultKind::Degrade { factor: p, window_ms: q }),
            2 => Some(FaultKind::StallCompile { extra_ms: p, window_ms: q }),
            3 => Some(FaultKind::TransientCompileFail { window_ms: q }),
            _ => None,
        };
        let faults = kind.map_or_else(FaultPlan::none, |kind| {
            FaultPlan::none().with_event(FaultEvent { shard: fault_shard, at_ms, kind })
        });
        let scale = (scale_ints < 12).then(|| AutoscalePolicy {
            period_ms: FLOATS[digit(scale_floats, 0)],
            high_watermark: FLOATS[digit(scale_floats, 1)],
            low_watermark: FLOATS[digit(scale_floats, 2)],
            hysteresis_ticks: u32::try_from(scale_ints % 3).unwrap(),
            min_active: scale_ints / 3,
            energy_headroom: FLOATS[digit(scale_floats, 3)],
        });
        // A running autoscaler ticks once a period until the last
        // arrival and its backlog are done, so a 1e-300 ms period, or a
        // 1e300 ms instant anywhere in the run, never finishes: skip
        // those runs (a hang, not a panic).
        let huge_instant = arrival == HUGE || (0..3).any(|k| digit(fault_floats, k) == HUGE);
        prop_assume!(!scale.is_some_and(|s| {
            s.energy_headroom > 0.0 && (digit(scale_floats, 0) == TINY || huge_instant)
        }));

        let config = EngineConfig {
            cache_budget: match budget {
                0 => CacheBudget::PerShard(vec![1 << 30]),
                1 => CacheBudget::PerShard(vec![1 << 30, 1]),
                2 => CacheBudget::Uniform(1 << 30),
                _ => CacheBudget::Unbounded,
            },
            faults,
            hedge: FLOATS.get(hedge).map(|&delay_ms| HedgePolicy { delay_ms }),
            scale,
            reconfig: (reconfig < 9).then_some(ReconfigPolicy {
                window: reconfig % 3,
                every: reconfig / 3,
            }),
            ..EngineConfig::default()
        };
        let policy: Arc<dyn BatchPolicy> = match policy {
            0 => Arc::new(Immediate),
            1 => Arc::new(Deadline::new(8.0, 4)),
            _ => Arc::new(EarliestDeadlineFirst::new(5.0, 4)),
        };
        // Nothing the closure touches is read after a panic.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ServeSim::with_cluster(input_check_cluster(), policy, &trace, config)
                .try_run(&mut HealthWeighted)
                .map(drop)
        }));
        prop_assert!(outcome.is_ok(), "try_run panicked");
    }
}
