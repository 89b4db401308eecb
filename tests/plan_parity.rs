//! Plan replay: a compiled [`NetworkPlan`](sma::runtime::NetworkPlan)
//! replays without touching the backend's GEMM cache, and concurrent
//! replays of one plan agree with each other. The replayed values
//! themselves are pinned bit for bit by `tests/golden_profiles.txt`.

use sma::models::zoo;
use sma::runtime::{Executor, Platform};

mod common;
use common::networks;

/// A planned replay performs zero GEMM-cache traffic: planning pre-warms
/// the cache (misses), replays never query it again (no hits, no
/// misses).
#[test]
fn planned_replay_performs_zero_cache_misses() {
    use sma::runtime::backend::{Backend, SmaBackend};
    use std::sync::Arc;

    // A private backend instance so concurrent tests sharing the global
    // registry cannot perturb the counters.
    let backend: Arc<SmaBackend> = Arc::new(SmaBackend::iso_area_3sma());
    let exec = Executor::builder(Platform::Sma3)
        .batch(16)
        .backend(Arc::clone(&backend) as Arc<dyn Backend>)
        .build();

    let mut plans = Vec::new();
    for net in networks() {
        plans.push(exec.try_plan(&net).unwrap());
    }
    let after_planning = backend.gemm_cache_stats();
    assert!(
        after_planning.misses > 0,
        "planning must populate the cache"
    );

    for plan in &plans {
        for _ in 0..3 {
            let profile = plan.run();
            assert!(profile.total_ms > 0.0);
        }
    }
    let after_replay = backend.gemm_cache_stats();
    assert_eq!(
        after_replay.misses, after_planning.misses,
        "a planned replay recomputed an estimate"
    );
    assert_eq!(
        after_replay.hits, after_planning.hits,
        "a planned replay queried the cache"
    );

    // …and a later step-by-step run hits the plan-warmed cache: misses
    // stay flat while hits climb.
    for net in networks() {
        let _ = exec.try_run(&net).unwrap();
    }
    let after_rerun = backend.gemm_cache_stats();
    assert_eq!(after_rerun.misses, after_planning.misses);
    assert!(after_rerun.hits > after_planning.hits);
}

/// Concurrent replays of shared plans agree with the serial profile —
/// the lock-free property the parallel sweep driver relies on.
#[test]
fn concurrent_replays_match_serial() {
    let exec = Executor::kernel_study(Platform::Sma3);
    let net = zoo::mask_rcnn();
    let plan = exec.try_plan(&net).unwrap();
    let reference = plan.run();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (plan, reference) = (&plan, &reference);
            scope.spawn(move || {
                for _ in 0..50 {
                    let p = plan.run();
                    assert_eq!(p.total_ms.to_bits(), reference.total_ms.to_bits());
                    assert_eq!(p.layers.len(), reference.layers.len());
                }
            });
        }
    });
}
