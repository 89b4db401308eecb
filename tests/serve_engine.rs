//! Event-engine system tests.
//!
//! The heart of this suite is the **legacy-parity pin**: a faithful
//! in-test reimplementation of the pre-engine three-phase pipeline
//! (sequential admission → independent per-shard drains → aggregation)
//! is run against the event engine under [`EngineConfig::legacy`] for
//! every legacy policy × placement combination, and every simulated
//! instant must match bit for bit. On top of that: the Deadline
//! batch-close regression (a ripe batch closes at the triggering
//! event, never the next arrival), bounded-plan-cache eviction and
//! admission-control behaviour, and EDF deadline-miss accounting.

use sma::runtime::serve::{
    Admission, BatchPolicy, CacheBudget, ClusterView, Deadline, EarliestDeadlineFirst,
    EngineConfig, Immediate, LeastOutstanding, LoadGenerator, Placement, PlatformAffinity,
    PolicyDecision, Request, RoundRobin, ServeCluster, ServeSim, SizeK,
};
use sma::runtime::{Executor, Platform};
use std::collections::VecDeque;
use std::sync::Arc;

mod common;
use common::{serve_networks, serve_trace};

/// What the pre-engine pipeline produced for one shard, reduced to the
/// simulated quantities parity is pinned on.
struct ReferenceReport {
    /// `(id, start_ms bits, completion_ms bits, batch_size)`.
    requests: Vec<(u64, u64, u64, usize)>,
    /// `(network, size, start_ms bits, service_ms bits)`.
    batches: Vec<(usize, usize, u64, u64)>,
    busy_ms: f64,
    makespan_ms: f64,
    plans_compiled: Vec<(usize, usize)>,
}

/// The pre-engine sequential admission pass: placement walks the trace
/// in arrival order against a view with no live state.
fn reference_admit(
    cluster: &ServeCluster,
    placement: &mut dyn Placement,
    trace: &[Request],
) -> Vec<Vec<Request>> {
    let zero_counts = vec![0usize; cluster.shard_count()];
    let zero_bytes = vec![0u64; cluster.shard_count()];
    let all_up = vec![true; cluster.shard_count()];
    let no_degrade = vec![1.0f64; cluster.shard_count()];
    let view = ClusterView {
        platforms: cluster.platforms(),
        unit_service_ms: cluster.unit_service_ms(),
        queued: &zero_counts,
        in_flight: &zero_counts,
        resident_plan_bytes: &zero_bytes,
        healthy: &all_up,
        degrade: &no_degrade,
    };
    let mut assigned: Vec<Vec<Request>> = vec![Vec::new(); cluster.shard_count()];
    for request in trace {
        assigned[placement.assign(request, &view)].push(*request);
    }
    assigned
}

/// A faithful copy of the pre-engine per-shard drain loop
/// (`ServeSim::try_simulate_shard` before the event-engine refactor):
/// admit arrivals up to the clock, ask the policy about every
/// non-empty queue, dispatch the ready queue with the oldest head
/// (FIFO across networks, ties to the lowest index), else advance to
/// the next deadline expiry or arrival.
fn reference_drain(
    cluster: &ServeCluster,
    shard: usize,
    assigned: &[Request],
    policy: &dyn BatchPolicy,
) -> ReferenceReport {
    let networks = cluster.networks();
    let mut service_cache: std::collections::HashMap<(usize, usize), f64> = cluster
        .unit_service_ms()[shard]
        .iter()
        .enumerate()
        .map(|(net, &ms)| ((net, 1), ms))
        .collect();
    let mut report = ReferenceReport {
        requests: Vec::new(),
        batches: Vec::new(),
        busy_ms: 0.0,
        makespan_ms: 0.0,
        plans_compiled: Vec::new(),
    };
    let mut queues: Vec<VecDeque<Request>> = vec![VecDeque::new(); networks.len()];
    let mut future_per_net = vec![0usize; networks.len()];
    for request in assigned {
        future_per_net[request.network] += 1;
    }
    let mut next = 0usize;
    let mut now_ms = 0.0_f64;
    loop {
        while next < assigned.len() && assigned[next].arrival_ms <= now_ms {
            let request = assigned[next];
            future_per_net[request.network] -= 1;
            queues[request.network].push_back(request);
            next += 1;
        }
        if next == assigned.len() && queues.iter().all(VecDeque::is_empty) {
            break;
        }
        let mut dispatch: Option<(usize, usize, f64)> = None;
        let mut wake_ms = f64::INFINITY;
        for (net, queue) in queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let contiguous: &[Request] = queue.make_contiguous();
            match policy.decide(contiguous, now_ms, future_per_net[net] > 0) {
                PolicyDecision::Dispatch { take } => {
                    let take = take.clamp(1, contiguous.len());
                    let head = contiguous[0].arrival_ms;
                    if dispatch.is_none_or(|(_, _, best)| head < best) {
                        dispatch = Some((net, take, head));
                    }
                }
                PolicyDecision::WaitUntil(at) => wake_ms = wake_ms.min(at),
                PolicyDecision::WaitForArrivals => {}
            }
        }
        if let Some((net, take, _)) = dispatch {
            let service_ms = *service_cache.entry((net, take)).or_insert_with(|| {
                report.plans_compiled.push((net, take));
                cluster
                    .shard_executor(shard)
                    .with_batch(take)
                    .try_plan(&networks[net])
                    .expect("built-in backends accept batched plans")
                    .run()
                    .total_ms
            });
            let completion_ms = now_ms + service_ms;
            report
                .batches
                .push((net, take, now_ms.to_bits(), service_ms.to_bits()));
            for request in queues[net].drain(..take) {
                report
                    .requests
                    .push((request.id, now_ms.to_bits(), completion_ms.to_bits(), take));
            }
            report.busy_ms += service_ms;
            report.makespan_ms = completion_ms;
            now_ms = completion_ms;
            continue;
        }
        if next < assigned.len() {
            wake_ms = wake_ms.min(assigned[next].arrival_ms);
        }
        assert!(
            wake_ms.is_finite() && wake_ms > now_ms,
            "reference shard {shard} stalled at {now_ms} ms"
        );
        now_ms = wake_ms;
    }
    report
}

fn legacy_policies(max_wait_ms: f64) -> Vec<Arc<dyn BatchPolicy>> {
    vec![
        Arc::new(Immediate),
        Arc::new(SizeK::new(6)),
        Arc::new(Deadline::new(max_wait_ms, 16)),
    ]
}

fn legacy_placements() -> Vec<Box<dyn Placement>> {
    vec![
        Box::new(RoundRobin::default()),
        Box::new(LeastOutstanding::default()),
        Box::new(PlatformAffinity::default()),
    ]
}

/// THE refactor honesty check: for every legacy policy × placement
/// combination, the event engine under the legacy shim (preplaced
/// admission, unbounded cache, free compiles) reproduces the
/// pre-engine pipeline's simulated instants bit for bit.
#[test]
fn engine_reproduces_the_three_phase_pipeline_bit_for_bit() {
    let shards = vec![
        Executor::new(Platform::Sma3),
        Executor::new(Platform::GpuTensorCore),
        Executor::new(Platform::ArrayFlex),
    ];
    let cluster = Arc::new(ServeCluster::try_new(shards, serve_networks()).unwrap());
    let trace = serve_trace(0xE4E7, 500, 1.0);

    for policy in legacy_policies(5.0) {
        for (which, mut placement) in legacy_placements().into_iter().enumerate() {
            // Pre-engine pipeline: sequential admission + independent
            // per-shard drains.
            let assigned = reference_admit(&cluster, placement.as_mut(), &trace);
            let reference: Vec<ReferenceReport> = (0..cluster.shard_count())
                .map(|s| reference_drain(&cluster, s, &assigned[s], policy.as_ref()))
                .collect();

            // Event engine under the legacy shim (fresh placement —
            // strategies carry state).
            let sim = ServeSim::with_cluster(
                Arc::clone(&cluster),
                Arc::clone(&policy),
                &trace,
                EngineConfig::legacy().with_records(),
            );
            let mut fresh = legacy_placements().swap_remove(which);
            let run = sim.try_run(fresh.as_mut()).unwrap();
            assert!(run.rejected.is_empty());

            for (shard, (old, new)) in reference.iter().zip(&run.reports).enumerate() {
                let label = format!("{} x {} shard {shard}", policy.label(), fresh.label());
                assert_eq!(old.busy_ms.to_bits(), new.busy_ms.to_bits(), "{label} busy");
                assert_eq!(
                    old.makespan_ms.to_bits(),
                    new.makespan_ms.to_bits(),
                    "{label} makespan"
                );
                assert_eq!(old.plans_compiled, new.plans_compiled, "{label} compiles");
                assert_eq!(old.batches.len(), new.batches.len(), "{label} batch count");
                for (b_old, b_new) in old.batches.iter().zip(&new.batches) {
                    assert_eq!(b_old.0, b_new.network, "{label} batch net");
                    assert_eq!(b_old.1, b_new.size, "{label} batch size");
                    assert_eq!(b_old.2, b_new.start_ms.to_bits(), "{label} batch start");
                    assert_eq!(b_old.3, b_new.service_ms.to_bits(), "{label} batch service");
                    assert_eq!(
                        b_new.compile_ms.to_bits(),
                        0.0f64.to_bits(),
                        "{label} legacy compiles are free"
                    );
                }
                assert_eq!(old.requests.len(), new.requests.len(), "{label} requests");
                for (r_old, r_new) in old.requests.iter().zip(&new.requests) {
                    assert_eq!(r_old.0, r_new.id, "{label} request order");
                    assert_eq!(r_old.1, r_new.start_ms.to_bits(), "{label} start");
                    assert_eq!(r_old.2, r_new.completion_ms.to_bits(), "{label} completion");
                    assert_eq!(r_old.3, r_new.batch_size, "{label} batch size");
                }
            }
        }
    }
}

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
    for config in [
        EngineConfig::default().with_records(),
        EngineConfig::legacy().with_records(),
    ] {
        let sim = ServeSim::try_new(
            vec![Executor::new(Platform::Sma3)],
            vec![sma::models::zoo::alexnet()],
            Arc::new(Deadline::new(5.0, 16)),
            &trace,
            config,
        )
        .unwrap();
        let run = sim.try_run(&mut RoundRobin::default()).unwrap();
        let report = &run.reports[0];
        assert_eq!(report.batches.len(), 2);
        // r0 arrives at 10, `more_arrivals` is true (r1 is still to
        // come) — the batch must close exactly when the 5 ms wait
        // bound expires, at t = 15, not when r1 arrives at t = 1000.
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
    assert_eq!(sim.config().admission, Admission::Online);
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();
    let outcome = sim.outcome(&run);

    let recounted: u64 = run
        .reports
        .iter()
        .flat_map(|r| r.requests.iter())
        .filter(|r| !r.met_deadline())
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
