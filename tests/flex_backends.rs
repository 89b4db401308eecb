//! Acceptance suite for the reconfigurable-systolic backends
//! (ArrayFlex, FlexSA): plan-replay bit-parity, exact GemmCache
//! accounting under contention, per-shape configuration selection
//! observable end-to-end, and the pruning-aware irregular path.

use proptest::prelude::*;
use sma::models::zoo;
use sma::runtime::backend::{ArrayFlexBackend, Backend, FlexSaBackend, FlexSaMode, PipelineConfig};
use sma::runtime::{Executor, Platform};
use sma::tensor::GemmShape;
use std::sync::Arc;

mod common;
use common::networks;

const FLEX_PLATFORMS: [Platform; 2] = [Platform::ArrayFlex, Platform::FlexSa];

/// Plans derived from a batch-1 family replay bit-identically to plans
/// compiled from scratch at the batch on both new platforms, across the
/// zoo and both evaluation batch points (the standard
/// `tests/plan_family.rs` samples over every platform — restated here
/// so a regression in the new models fails with a targeted name).
#[test]
fn plan_replay_is_bit_identical_on_reconfigurable_platforms() {
    for platform in FLEX_PLATFORMS {
        for network in networks() {
            for batch in [1usize, 16] {
                let family = Executor::new(platform).plan_family(&network);
                let replay = family.try_plan(batch).unwrap().run();
                let stepwise = Executor::builder(platform)
                    .batch(batch)
                    .build()
                    .try_run(&network)
                    .unwrap();
                assert_eq!(
                    replay.total_ms.to_bits(),
                    stepwise.total_ms.to_bits(),
                    "{platform} / {} / b{batch}: total_ms",
                    network.name()
                );
                assert_eq!(
                    replay.gemm_ms.to_bits(),
                    stepwise.gemm_ms.to_bits(),
                    "{platform} / {} / b{batch}: gemm_ms",
                    network.name()
                );
                assert_eq!(replay.mem, stepwise.mem, "{platform}: ledger");
                assert_eq!(replay.sm_cycles, stepwise.sm_cycles);
            }
        }
    }
}

/// Eight threads hammer each new backend's private cache with
/// overlapping shape sets: every lookup lands in exactly one counter
/// (`hits + misses == lookups`) and `misses` equals the resident
/// shapes, exactly as the shared built-in caches guarantee.
#[test]
fn flex_caches_stay_exact_under_contention() {
    let backends: [Arc<dyn Backend>; 2] = [
        Arc::new(ArrayFlexBackend::new()),
        Arc::new(FlexSaBackend::new()),
    ];
    const THREADS: u64 = 8;
    const LOOKUPS: u64 = 96;
    const SHAPES: u64 = 24;
    for backend in backends {
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let backend = Arc::clone(&backend);
                scope.spawn(move || {
                    for i in 0..LOOKUPS {
                        let size = 16 + 16 * ((i + t) % SHAPES) as usize;
                        let est = backend.gemm(GemmShape::square(size)).unwrap();
                        assert!(est.time_ms > 0.0);
                    }
                });
            }
        });
        let stats = backend.gemm_cache_stats();
        assert_eq!(
            stats.hits + stats.misses,
            THREADS * LOOKUPS,
            "{}: a lookup escaped the counters",
            backend.name()
        );
        assert_eq!(
            stats.misses,
            backend.gemm_cache_len() as u64,
            "{}: misses must equal resident shapes",
            backend.name()
        );
    }
}

/// The configuration selections are visible end-to-end: batch stacking
/// flips ArrayFlex from transparent stages to the full pipeline (and
/// FlexSA from sub-arrays to the full array) on the same FC layer, and
/// the batched estimate stays inside the monotonicity envelope.
#[test]
fn batch_stacking_flips_the_selected_configuration() {
    let fc = GemmShape::new(1, 4096, 4096); // VGG-style FC at batch 1
    let stacked = GemmShape::new(512, 4096, 4096);

    let af = ArrayFlexBackend::new();
    assert!(af.config_for(fc).span() > 1, "batch 1 wants shallow stages");
    assert_eq!(
        af.config_for(stacked),
        PipelineConfig::ALL[0],
        "a long stream wants the full pipeline"
    );

    let fs = FlexSaBackend::new();
    assert_eq!(fs.mode_for(fc), FlexSaMode::SubArrays);
    assert_eq!(fs.mode_for(stacked), FlexSaMode::FullArray);

    for backend in [&af as &dyn Backend, &fs as &dyn Backend] {
        let unit = backend.gemm(fc).unwrap().time_ms;
        let batched = backend.gemm(stacked).unwrap().time_ms;
        assert!(unit <= batched, "{}: batching got cheaper", backend.name());
        assert!(
            batched <= 512.0 * unit,
            "{}: batching dearer than 512 separate runs",
            backend.name()
        );
    }
}

/// FlexSA's structured-pruning path shows up in whole-network profiles:
/// on a hybrid model its irregular milliseconds undercut every
/// fixed-array GPU platform (same SIMD lanes, less work), while NMS/CRF
/// (control-bound, unprunable) keep it from being free.
#[test]
fn pruning_aware_irregular_path_beats_fixed_arrays_end_to_end() {
    let net = zoo::mask_rcnn();
    let flexsa = Executor::new(Platform::FlexSa).try_run(&net).unwrap();
    for fixed in [
        Platform::GpuSimd,
        Platform::GpuTensorCore,
        Platform::ArrayFlex,
    ] {
        let profile = Executor::new(fixed).try_run(&net).unwrap();
        assert!(
            flexsa.irregular_ms < profile.irregular_ms,
            "{fixed}: {} <= {}",
            profile.irregular_ms,
            flexsa.irregular_ms
        );
    }
    assert!(flexsa.irregular_ms > 0.0, "unprunable ops still bill");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GEMM latency on both reconfigurable backends is monotone in
    /// every dimension for arbitrary shapes — configuration selection
    /// (a min over monotone per-config costs) must never break it.
    #[test]
    fn flex_gemm_latency_monotone_in_every_dimension(
        m in 1usize..2048,
        n in 1usize..2048,
        k in 1usize..2048,
        grow in 1usize..1024,
    ) {
        let backends: [Arc<dyn Backend>; 2] = [
            Arc::new(ArrayFlexBackend::new()),
            Arc::new(FlexSaBackend::new()),
        ];
        for backend in backends {
            let base = backend.gemm(GemmShape::new(m, n, k)).unwrap().time_ms;
            for bigger in [
                GemmShape::new(m + grow, n, k),
                GemmShape::new(m, n + grow, k),
                GemmShape::new(m, n, k + grow),
            ] {
                let t = backend.gemm(bigger).unwrap().time_ms;
                prop_assert!(
                    t >= base,
                    "{}: {bigger:?} took {t} ms < {base} ms at ({m},{n},{k})",
                    backend.name()
                );
            }
        }
    }
}
