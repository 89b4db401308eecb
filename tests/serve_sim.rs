//! Serving-simulation system tests: byte-identical `BENCH_serve.json`
//! across runs and thread counts, the acceptance pins on the benchmark
//! matrix (distinct policy × placement profiles and eviction/SLO
//! activity in the online rows), and exact GEMM-cache invariants under
//! concurrent engine runs sharing one backend.

use sma::runtime::backend::{Backend, SmaBackend};
use sma::runtime::serve::{EngineConfig, RoundRobin, ServeSim, SizeK};
use sma::runtime::{Executor, Platform};
use sma_bench::serve::{run_matrix, scenario, ScenarioOptions};
use std::collections::BTreeSet;
use std::sync::Arc;

mod common;
use common::{serve_networks, serve_trace};

/// Same seed + same matrix ⇒ byte-identical report, whether the combos
/// run on one sweep worker or many — each combo's engine run is
/// single-threaded, so worker count can only move wall-clock.
/// Wall-clock leaking into the simulated clock would break this
/// immediately.
#[test]
fn bench_serve_json_is_byte_identical_across_runs_and_threads() {
    let first = run_matrix(&scenario(800, 42, ScenarioOptions::default()).unwrap(), 1)
        .expect("matrix runs");
    let second = run_matrix(&scenario(800, 42, ScenarioOptions::default()).unwrap(), 4)
        .expect("matrix runs");
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "serve report diverged across runs / thread counts"
    );
    // A different seed must actually change the report (the comparison
    // above is not vacuous).
    let other = run_matrix(&scenario(800, 43, ScenarioOptions::default()).unwrap(), 4)
        .expect("matrix runs");
    assert_ne!(first.to_json(), other.to_json());
}

/// The acceptance grid: the online block serves the same trace to
/// distinct, explainable latency profiles (deterministic, so exact
/// comparison is safe) and shows the engine's machinery working —
/// eviction activity under the bounded cache and nonzero deadline-miss
/// accounting under EDF.
#[test]
fn matrix_blocks_pin_the_acceptance_criteria() {
    let report = run_matrix(
        &scenario(1200, 0xDAC2_0020, ScenarioOptions::default()).unwrap(),
        2,
    )
    .expect("matrix runs");
    assert_eq!(report.combos.len(), 30);

    // Control block: eight fault-free rows exercising the control
    // plane ({static, auto} x {preempt} x {mix}); everything else
    // carries "none". `crates/bench/src/serve.rs` pins their activity
    // counters; here we pin the block's shape.
    assert_eq!(
        report.combos.iter().filter(|c| c.control != "none").count(),
        8
    );

    // Unbounded fault-free online rows: eight pairwise-distinct
    // p50/p99 profiles, one per policy x placement.
    let unbounded: Vec<_> = report
        .combos
        .iter()
        .filter(|c| c.cache_budget == "unbounded" && c.recovery == "none" && c.control == "none")
        .collect();
    assert_eq!(unbounded.len(), 8);
    let profiles: BTreeSet<(u64, u64)> = unbounded
        .iter()
        .map(|c| (c.outcome.p50_ms.to_bits(), c.outcome.p99_ms.to_bits()))
        .collect();
    assert_eq!(
        profiles.len(),
        8,
        "two policy x placement combos produced identical p50/p99"
    );

    for combo in &report.combos {
        let o = &combo.outcome;
        assert_eq!(o.requests + o.rejected + o.shed + o.failed, 1200);
        assert!(o.p50_ms > 0.0 && o.p99_ms >= o.p50_ms && o.p999_ms >= o.p99_ms);
        assert!(o.max_ms >= o.p999_ms);
        assert!(o
            .shards
            .iter()
            .all(|s| (0.0..=1.0 + 1e-9).contains(&s.utilization)));
        assert_eq!(o.cache.hits + o.cache.misses, o.cache.lookups);
        assert!((0.0..=1.0).contains(&o.goodput));
        let batched: u64 = o.batch_histogram.iter().map(|&(_, n)| n).sum();
        assert!(batched > 0);
        if combo.policy == "immediate" {
            assert_eq!(
                o.batch_histogram,
                vec![(1, o.requests as u64)],
                "immediate dispatch must never form a batch"
            );
        }
    }

    // Online bounded rows: the budget forces evictions, and goodput
    // reconciles with the miss/reject accounting.
    let bounded: Vec<_> = report
        .combos
        .iter()
        .filter(|c| c.cache_budget != "unbounded")
        .collect();
    assert_eq!(bounded.len(), 8);
    assert!(
        bounded.iter().all(|c| c.outcome.cache.evictions > 0),
        "every bounded-cache row must show eviction activity"
    );

    // EDF rows of the fault-free online block: the SLO is tight enough
    // that misses are nonzero, and EDF still lands most requests. The
    // fault and control blocks reuse EDF, so key on recovery == "none"
    // and control == "none" to keep this pin on the original four rows.
    let edf: Vec<_> = report
        .combos
        .iter()
        .filter(|c| c.policy.starts_with("edf") && c.recovery == "none" && c.control == "none")
        .collect();
    assert_eq!(edf.len(), 4);
    for combo in &edf {
        let o = &combo.outcome;
        assert!(
            o.deadline_misses > 0,
            "EDF under ~0.9 load with a 2.5x-unit SLO must miss some deadlines"
        );
        assert!(o.deadline_misses < o.requests as u64);
        let expected =
            (o.requests as u64 - o.deadline_misses) as f64 / (o.requests + o.rejected) as f64;
        assert_eq!(o.goodput.to_bits(), expected.to_bits());
    }
}

/// GemmCache invariants end-to-end under serving concurrency: four
/// engine runs over four clusters whose sixteen shards all share one
/// backend instance, compiling plans in parallel; afterwards the
/// shared cache's counters must balance exactly — `hits + misses ==
/// lookups` and `misses == resident shapes` — not just in isolation
/// but through full serve runs racing each other.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test races serve runs on purpose to check the shared cache counters"
)]
fn shared_gemm_cache_counters_stay_exact_through_concurrent_serve_runs() {
    const SIMS: usize = 4;
    const SHARDS: usize = 4;
    let backend: Arc<SmaBackend> = Arc::new(SmaBackend::iso_area_3sma());
    let networks = serve_networks();
    let gemm_layers: Vec<u64> = networks
        .iter()
        .map(|n| n.gemm_shapes().len() as u64)
        .collect();
    let trace = serve_trace(7, 600, 0.5);

    let sims: Vec<ServeSim> = (0..SIMS)
        .map(|i| {
            let shards: Vec<Executor> = (0..SHARDS)
                .map(|_| {
                    Executor::builder(Platform::Sma3)
                        .backend(Arc::clone(&backend) as Arc<dyn Backend>)
                        .build()
                })
                .collect();
            ServeSim::try_new(
                shards,
                serve_networks(),
                Arc::new(SizeK::new(3 + i)), // distinct batch keys per sim
                &trace,
                EngineConfig::default(),
            )
            .unwrap()
        })
        .collect();

    // Race the four engine runs: every worker hammers the one shared
    // cache through its lazy batched-plan compiles.
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = sims
            .iter()
            .map(|sim| scope.spawn(move || sim.try_run(&mut RoundRobin::default()).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every gemm() lookup is accounted for: each cluster compiled one
    // batch-1 plan per shard x network, each run compiled its recorded
    // (network, batch) plans, and a plan compile performs one lookup
    // per GEMM layer. Replays perform none.
    let mut lookups: u64 = (SIMS * SHARDS) as u64 * gemm_layers.iter().sum::<u64>();
    for run in &runs {
        for report in &run.reports {
            for &(network, _batch) in &report.plans_compiled {
                lookups += gemm_layers[network];
            }
        }
    }

    let stats = backend.gemm_cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "a lookup escaped the counters"
    );
    assert_eq!(
        stats.misses,
        backend.gemm_cache_len() as u64,
        "misses must equal resident shapes, even under contention"
    );
    assert!(stats.hits > 0, "concurrent runs must share estimates");

    // And every serve run itself stayed coherent.
    for run in &runs {
        let served: usize = run.reports.iter().map(|r| r.tally.served()).sum();
        assert_eq!(served, 600);
    }
}
