//! Serving parity and generator determinism: the serve layer's batched
//! costs must stay inside the bounds batch monotonicity implies, every
//! batch it executes must be bit-identical to the equivalent direct
//! [`Executor`] batch run — extending the plan-parity guarantee up
//! through the distribution layer — and the [`LoadGenerator`] must be
//! a pure function of its seed (same seed ⇒ identical trace, distinct
//! seeds ⇒ distinct traces, arrivals non-decreasing).

use proptest::prelude::*;
use sma::runtime::serve::{
    BatchPolicy, Deadline, EarliestDeadlineFirst, EngineConfig, Immediate, LeastBacklog,
    LoadGenerator, Placement, PlatformAffinity, RoundRobin, ServeCluster, ServeSim, SizeK,
};
use sma::runtime::{Executor, Platform};
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;
use common::{serve_networks, serve_shards, serve_trace};

/// SLO stamped on the proptest traces (ms); EDF's slack below must
/// stay under it.
const SLO_MS: f64 = 20.0;

fn policy_for(selector: usize, k: usize) -> (Arc<dyn BatchPolicy>, f64) {
    // Returns the policy plus its worst-case added wait (for the
    // makespan bound below).
    match selector {
        0 => (Arc::new(Immediate), 0.0),
        1 => (Arc::new(SizeK::new(k)), 0.0),
        2 => (Arc::new(Deadline::new(6.0, 2 * k)), 6.0),
        // EDF holds an undersized batch until deadline - slack, i.e.
        // at most slo - slack past the head's arrival.
        _ => (
            Arc::new(EarliestDeadlineFirst::new(6.0, 2 * k)),
            SLO_MS - 6.0,
        ),
    }
}

fn placement_for(selector: usize) -> Box<dyn Placement> {
    match selector {
        0 => Box::new(RoundRobin::default()),
        1 => Box::new(LeastBacklog),
        _ => Box::new(PlatformAffinity::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random traces under every policy × placement shape: the
    /// partition into batches conserves requests, and each batch's
    /// service time lands inside the batch-monotonicity envelope
    /// `unit <= service(B) <= B * unit` (batching stacks GEMMs along
    /// `m`, pays irregular work and framework glue once — it can never
    /// be cheaper than one inference nor dearer than B separate ones).
    #[test]
    fn batch_partitions_stay_inside_the_monotonicity_envelope(
        seed in 0u64..10_000,
        policy_sel in 0usize..4,
        placement_sel in 0usize..3,
        k in 2usize..9,
    ) {
        let shards = vec![
            Executor::new(Platform::Sma3),
            Executor::new(Platform::GpuTensorCore),
        ];
        let networks = serve_networks();
        let trace = LoadGenerator::new(seed, 2.0)
            .with_slo(SLO_MS)
            .trace(60, networks.len());
        let (policy, wait_bound) = policy_for(policy_sel, k);
        let cluster = Arc::new(ServeCluster::try_new(shards, networks).unwrap());
        let sim = ServeSim::with_cluster(
            Arc::clone(&cluster),
            policy,
            &trace,
            EngineConfig::default().with_records(),
        );
        let run = sim.try_run(placement_for(placement_sel).as_mut()).unwrap();
        prop_assert!(run.rejected.is_empty(), "unbounded cache rejects nothing");

        // The batch partition conserves the trace: every request served
        // exactly once, batch sizes sum to the shard's served set.
        let mut ids = Vec::new();
        for (shard, report) in run.reports.iter().enumerate() {
            ids.extend(report.requests.iter().map(|r| r.id));
            let batched: usize = report.batches.iter().map(|b| b.size).sum();
            prop_assert_eq!(batched, report.requests.len(), "shard {} partition", shard);
        }
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..trace.len() as u32).collect::<Vec<u32>>());

        let last_arrival = trace.last().map_or(0.0, |r| r.arrival_ms);
        for (shard, report) in run.reports.iter().enumerate() {
            let mut busy = 0.0;
            for batch in &report.batches {
                let unit = cluster.unit_service_ms()[shard][batch.network];
                prop_assert!(
                    batch.service_ms >= unit - 1e-9,
                    "shard {shard}: batch of {} cheaper than one inference ({} < {unit})",
                    batch.size, batch.service_ms
                );
                prop_assert!(
                    batch.service_ms <= batch.size as f64 * unit * (1.0 + 1e-9) + 1e-9,
                    "shard {shard}: batch of {} dearer than {} separate runs ({} > {})",
                    batch.size, batch.size, batch.service_ms, batch.size as f64 * unit
                );
                prop_assert_eq!(batch.compile_ms.to_bits(), 0.0_f64.to_bits());
                busy += batch.service_ms;
            }
            // Latency bounds implied by the envelope: a request can
            // never finish faster than one batch-1 inference of its
            // network, and the shard's drain can never stretch past
            // last-arrival + bounded-wait + total-busy.
            for request in &report.requests {
                let unit = cluster.unit_service_ms()[shard][usize::from(request.network)];
                prop_assert!(request.latency_ms() >= unit - 1e-9);
                prop_assert!(request.start_ms - request.arrival_ms >= -1e-12);
                prop_assert!(request.completion_ms <= report.makespan_ms + 1e-9);
            }
            prop_assert!(
                report.makespan_ms <= last_arrival + wait_bound + busy + 1e-6,
                "shard {shard} drained past the monotonicity makespan bound"
            );
        }
    }

    /// Generator determinism: the same seed reproduces the trace
    /// bit for bit; a different seed diverges; and arrivals are always
    /// non-decreasing with deadlines a constant SLO past them.
    #[test]
    fn load_generator_is_a_pure_function_of_its_seed(
        seed in 0u64..1_000_000,
        mean_tenths in 1u64..80,
        count in 1usize..400,
    ) {
        let mean = mean_tenths as f64 / 10.0;
        let a = LoadGenerator::new(seed, mean).with_slo(SLO_MS).trace(count, 3);
        let b = LoadGenerator::new(seed, mean).with_slo(SLO_MS).trace(count, 3);
        prop_assert_eq!(a.len(), count);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.network, y.network);
            prop_assert_eq!(x.arrival_ms.to_bits(), y.arrival_ms.to_bits());
            prop_assert_eq!(x.deadline_ms.to_bits(), y.deadline_ms.to_bits());
        }

        // Distinct seeds ⇒ distinct traces (the arrival stream depends
        // on every draw, so one differing bit suffices).
        let c = LoadGenerator::new(seed ^ 0x9E37_79B9, mean).with_slo(SLO_MS).trace(count, 3);
        prop_assert!(
            a.iter().zip(&c).any(|(x, y)| {
                x.arrival_ms.to_bits() != y.arrival_ms.to_bits() || x.network != y.network
            }),
            "distinct seeds must yield distinct traces"
        );

        // Arrival times are non-decreasing and deadlines track them.
        for window in a.windows(2) {
            prop_assert!(window[0].arrival_ms <= window[1].arrival_ms);
        }
        for request in &a {
            prop_assert!(request.arrival_ms >= 0.0);
            prop_assert_eq!(
                request.deadline_ms.to_bits(),
                (request.arrival_ms + SLO_MS).to_bits()
            );
        }
    }
}

/// Every batch the serve layer executes replays the plan compiled at
/// that exact batch size — and that replay is bit-identical to the
/// equivalent direct `Executor` batch run, for every platform in the
/// evaluation grid.
#[test]
fn serve_batches_are_bit_identical_to_direct_executor_runs() {
    let trace = serve_trace(0x0D0C_5EED, 400, 1.0);
    let cluster = Arc::new(ServeCluster::try_new(serve_shards(), serve_networks()).unwrap());
    let sim = ServeSim::with_cluster(
        Arc::clone(&cluster),
        Arc::new(Deadline::new(4.0, 16)),
        &trace,
        EngineConfig::default().with_records(),
    );
    let run = sim.try_run(&mut RoundRobin::default()).unwrap();

    let mut seen: BTreeSet<(usize, usize, u64)> = BTreeSet::new();
    let mut checked = 0usize;
    for report in &run.reports {
        for batch in &report.batches {
            // One direct run per distinct (shard, network, size) cell.
            if !seen.insert((report.shard, batch.network, batch.size as u64)) {
                continue;
            }
            let direct = cluster
                .shard_executor(report.shard)
                .with_batch(batch.size)
                .try_run(&cluster.networks()[batch.network])
                .unwrap();
            assert_eq!(
                direct.total_ms.to_bits(),
                batch.service_ms.to_bits(),
                "shard {} ({}): {} at batch {} diverged from the direct run",
                report.shard,
                report.platform,
                cluster.networks()[batch.network].name(),
                batch.size
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "parity grid too thin: {checked} cells");
    // The grid exercised batched cells, not just singletons.
    assert!(
        seen.iter().any(|&(_, _, size)| size > 1),
        "no batched cell formed"
    );
}
