//! The GPU-family backends: baseline SIMD, spatially integrated
//! TensorCores, the temporally integrated SMA configurations and the
//! reconfigurable arrays (ArrayFlex, FlexSA). All of them run irregular
//! ops on the programmable SIMD lanes, so they share one [`Backend`]
//! impl, [`GpuBackend`]; a [`GemmModel`] supplies what differs.

use super::{
    Backend, CacheStats, ExecPath, GemmCache, IrregularEstimate, IrregularWork, Reconfigurable,
    RuntimeError,
};
use sma_accel::TcGemmModel;
use sma_core::model::GemmEstimate;
use sma_core::{SimdGemmModel, SmaConfig, SmaGemmModel};
use sma_mem::MemStats;
use sma_sim::GpuConfig;
use sma_tensor::GemmShape;

/// GPU execution model for an irregular (GEMM-incompatible) op.
///
/// `parallel_fraction` of the FLOPs run across the SIMD lanes at 50%
/// issue efficiency (divergence, gathers); the serial remainder crawls at
/// single-thread GPU speed; bandwidth is capped by the op's
/// `memory_efficiency`; a fixed launch overhead is charged.
///
/// `parallel_fraction` and `memory_efficiency` are fractions: values
/// outside `[0, 1]` are clamped (a fraction above 1 would mint FLOPs or
/// bandwidth out of thin air). NaN inputs are a caller bug and
/// debug-assert; release builds treat NaN as the safe bound (0.0 — fully
/// serial, resp. floor bandwidth).
#[must_use]
pub(crate) fn gpu_irregular_ms(
    gpu: &GpuConfig,
    flops: u64,
    bytes: u64,
    parallel_fraction: f64,
    memory_efficiency: f64,
    simd_boost: f64,
) -> f64 {
    const LAUNCH_MS: f64 = 0.02;
    const ISSUE_EFFICIENCY: f64 = 0.5;
    const SERIAL_GFLOPS: f64 = 2.0;

    debug_assert!(!parallel_fraction.is_nan(), "parallel_fraction is NaN");
    debug_assert!(!memory_efficiency.is_nan(), "memory_efficiency is NaN");
    debug_assert!(!simd_boost.is_nan(), "simd_boost is NaN");
    // f64::clamp maps NaN to NaN; route NaN to the conservative bound.
    let parallel_fraction = if parallel_fraction.is_nan() {
        0.0
    } else {
        parallel_fraction.clamp(0.0, 1.0)
    };
    let memory_efficiency = if memory_efficiency.is_nan() {
        0.0
    } else {
        memory_efficiency.clamp(0.0, 1.0)
    };

    let peak_flops = gpu.simd_fp32_tflops() * 1e12 * simd_boost.max(1e-9);
    let par = flops as f64 * parallel_fraction / (peak_flops * ISSUE_EFFICIENCY) * 1e3;
    let serial = flops as f64 * (1.0 - parallel_fraction) / (SERIAL_GFLOPS * 1e9) * 1e3;
    let bw = gpu.dram_bytes_per_cycle_per_sm * f64::from(gpu.sms) * gpu.clock_ghz * 1e9;
    let mem = bytes as f64 / (bw * memory_efficiency.max(1e-9)) * 1e3;
    par.max(mem) + serial + LAUNCH_MS
}

/// Approximate access ledger of an irregular GPU op (for the energy
/// model): every byte through L1/L2/DRAM, one ALU op per FLOP.
#[must_use]
pub(crate) fn gpu_irregular_ledger(flops: u64, bytes: u64) -> MemStats {
    MemStats {
        dram_bytes: bytes,
        l1_misses: bytes / 128,
        l2_misses: bytes / 128,
        alu_ops: flops,
        rf_reads: flops / 32,
        rf_writes: flops / 64,
        instructions: flops / 32,
        ..MemStats::default()
    }
}

/// The full irregular-op estimate on a GPU-family substrate: time from
/// `gpu_irregular_ms`, ledger from `gpu_irregular_ledger`, SM-cycles
/// for the constant-power account, no host transfer.
#[must_use]
pub fn gpu_irregular_estimate(gpu: &GpuConfig, work: &IrregularWork) -> IrregularEstimate {
    let time_ms = gpu_irregular_ms(
        gpu,
        work.flops,
        work.bytes,
        work.parallel_fraction,
        work.memory_efficiency,
        work.simd_boost,
    );
    IrregularEstimate {
        time_ms,
        transfer_ms: 0.0,
        mem: gpu_irregular_ledger(work.flops, work.bytes),
        sm_cycles: gpu.cycles_for_seconds(time_ms / 1e3) * u64::from(gpu.sms),
        path: ExecPath::SimdMode,
    }
}

/// The matrix engine of a [`GpuBackend`]: the one thing the GPU-family
/// backends differ in.
pub(crate) trait GemmModel: std::fmt::Debug + Send + Sync {
    /// Short label used in experiment tables (paper nomenclature).
    fn name(&self) -> &'static str;

    /// Estimate of one GEMM (pure; the backend memoizes it).
    fn estimate(&self, shape: GemmShape) -> GemmEstimate;

    /// Multiplier on baseline SIMD throughput when the matrix units
    /// fold into lanes (1.0: they cannot).
    fn simd_mode_boost(&self) -> f64 {
        1.0
    }

    /// The irregular work left for the SIMD lanes (all of it, unless
    /// the engine can shed some).
    fn irregular_work(&self, work: IrregularWork) -> IrregularWork {
        work
    }

    /// The engine's serve-time reconfiguration capability, if any.
    fn as_reconfigurable(&self) -> Option<&dyn Reconfigurable> {
        None
    }
}

/// A GPU-family backend: a [`GemmModel`] matrix engine beside the SIMD
/// lanes of an on-die Volta substrate, with its own [`GemmCache`] unless
/// it estimates straight from the model.
#[derive(Debug)]
pub struct GpuBackend<M> {
    gpu: GpuConfig,
    pub(super) model: M,
    /// The memo; `None` when every GEMM is estimated from `model` anew.
    cache: Option<GemmCache>,
}

impl<M> GpuBackend<M> {
    /// `model` beside the SIMD lanes of the Volta substrate, memoized.
    pub(super) fn volta(model: M) -> Self {
        GpuBackend {
            gpu: GpuConfig::volta(),
            model,
            cache: Some(GemmCache::default()),
        }
    }

    /// [`GpuBackend::volta`] without a memo, for a backend built for one
    /// pass over shapes it would never look up again.
    pub(super) fn volta_unmemoized(model: M) -> Self {
        GpuBackend {
            gpu: GpuConfig::volta(),
            model,
            cache: None,
        }
    }
}

impl<M: GemmModel> Backend for GpuBackend<M> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
        Ok(match &self.cache {
            Some(cache) => cache.get_or_compute(shape, || self.model.estimate(shape)),
            None => self.model.estimate(shape),
        })
    }

    fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
        gpu_irregular_estimate(&self.gpu, &self.model.irregular_work(work))
    }

    fn transfer_ms(&self, _bytes: u64) -> f64 {
        0.0
    }

    fn simd_mode_boost(&self) -> f64 {
        self.model.simd_mode_boost()
    }

    fn gemm_cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map_or_else(CacheStats::default, GemmCache::stats)
    }

    fn gemm_cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, GemmCache::len)
    }

    fn as_reconfigurable(&self) -> Option<&dyn Reconfigurable> {
        self.model.as_reconfigurable()
    }
}

/// Baseline Volta SIMD lanes (FP32 CUTLASS-style GEMM).
pub type SimdBackend = GpuBackend<SimdGemmModel>;

impl GemmModel for SimdGemmModel {
    fn name(&self) -> &'static str {
        "SIMD"
    }

    fn estimate(&self, shape: GemmShape) -> GemmEstimate {
        SimdGemmModel::estimate(self, shape)
    }
}

impl SimdBackend {
    /// The Volta baseline of the evaluation.
    #[must_use]
    pub fn new() -> Self {
        GpuBackend::volta(SimdGemmModel::new(GpuConfig::volta()))
    }
}

/// Volta with its four TensorCores doing the GEMMs (spatial
/// integration). The tensor cores cannot run irregular code at all: no
/// boost.
pub type TensorCoreBackend = GpuBackend<TcGemmModel>;

impl GemmModel for TcGemmModel {
    fn name(&self) -> &'static str {
        "4-TC"
    }

    fn estimate(&self, shape: GemmShape) -> GemmEstimate {
        TcGemmModel::estimate(self, shape)
    }
}

impl TensorCoreBackend {
    /// The 4-TC configuration of the evaluation.
    #[must_use]
    pub fn new() -> Self {
        GpuBackend::volta(TcGemmModel::new(GpuConfig::volta()))
    }
}

/// SMA units per SM doing GEMMs systolically and folding back into SIMD
/// lanes for irregular phases (the temporal integration of the paper).
pub type SmaBackend = GpuBackend<SmaGemmModel>;

impl GemmModel for SmaGemmModel {
    fn name(&self) -> &'static str {
        match self.config().units {
            2 => "2-SMA",
            3 => "3-SMA",
            _ => "SMA",
        }
    }

    fn estimate(&self, shape: GemmShape) -> GemmEstimate {
        SmaGemmModel::estimate(self, shape)
    }

    /// The units reconfigure into SIMD lanes when not running GEMMs:
    /// 3 units = 192 FP32-lane-equivalents vs. the baseline 64 — the
    /// "dynamic resource allocation" of §V-C.
    fn simd_mode_boost(&self) -> f64 {
        f64::from(self.config().units)
    }
}

impl SmaBackend {
    /// Two SMA units per SM (iso-FLOP with 4-TC).
    #[must_use]
    pub(crate) fn iso_flop_2sma() -> Self {
        GpuBackend::volta(SmaGemmModel::new(SmaConfig::iso_flop_2sma()))
    }

    /// Three SMA units per SM (iso-area; the temporal-integration win).
    #[must_use]
    pub fn iso_area_3sma() -> Self {
        GpuBackend::volta(SmaGemmModel::new(SmaConfig::iso_area_3sma()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_models::{Layer, LayerWork};

    #[test]
    fn crf_on_gpu_matches_paper_order() {
        // Fig. 3: CRF ≈ 52 ms on the GPU. Our cost model should land in
        // the right decade (40-65 ms) from the byte counts alone.
        let crf = Layer::Crf {
            pixels: 513 * 513,
            classes: 21,
            iterations: 10,
        };
        let LayerWork::Irregular {
            flops,
            bytes,
            parallel_fraction,
            memory_efficiency,
        } = crf.work()
        else {
            panic!("crf is irregular")
        };
        let t = gpu_irregular_ms(
            &GpuConfig::volta(),
            flops,
            bytes,
            parallel_fraction,
            memory_efficiency,
            1.0,
        );
        assert!((40.0..65.0).contains(&t), "CRF on GPU {t:.1} ms");
    }

    #[test]
    fn simd_boost_speeds_irregular_work() {
        let gpu = GpuConfig::volta();
        let base = gpu_irregular_ms(&gpu, 10_000_000_000, 0, 0.9, 0.8, 1.0);
        let boosted = gpu_irregular_ms(&gpu, 10_000_000_000, 0, 0.9, 0.8, 3.0);
        assert!(boosted < base);
        // Amdahl: the serial 10% limits the gain.
        assert!(boosted > base / 3.0);
    }

    #[test]
    fn ledger_is_proportional() {
        let a = gpu_irregular_ledger(1000, 4096);
        let b = gpu_irregular_ledger(2000, 8192);
        assert_eq!(b.dram_bytes, 2 * a.dram_bytes);
        assert_eq!(b.alu_ops, 2 * a.alu_ops);
    }

    #[test]
    fn fractions_are_clamped_to_unit_interval() {
        let gpu = GpuConfig::volta();
        let (flops, bytes) = (1_000_000_000, 1 << 26);
        // Above 1.0 clamps to exactly 1.0 …
        let at_one = gpu_irregular_ms(&gpu, flops, bytes, 1.0, 1.0, 1.0);
        let above = gpu_irregular_ms(&gpu, flops, bytes, 1.7, 42.0, 1.0);
        assert_eq!(above.to_bits(), at_one.to_bits());
        // … and below 0.0 clamps to exactly 0.0 (fully serial / floor
        // bandwidth), never a negative time.
        let at_zero = gpu_irregular_ms(&gpu, flops, bytes, 0.0, 0.0, 1.0);
        let below = gpu_irregular_ms(&gpu, flops, bytes, -0.3, -1.0, 1.0);
        assert_eq!(below.to_bits(), at_zero.to_bits());
        assert!(at_zero.is_finite() && at_zero > 0.0);
    }

    #[test]
    fn boundary_fractions_are_finite_and_ordered() {
        let gpu = GpuConfig::volta();
        let (flops, bytes) = (1_000_000_000, 1 << 26);
        let serial = gpu_irregular_ms(&gpu, flops, bytes, 0.0, 1.0, 1.0);
        let parallel = gpu_irregular_ms(&gpu, flops, bytes, 1.0, 1.0, 1.0);
        assert!(serial.is_finite() && parallel.is_finite());
        assert!(serial > parallel, "serial {serial} vs parallel {parallel}");
        // memory_efficiency = 0 floors at the epsilon bandwidth but must
        // stay finite.
        assert!(gpu_irregular_ms(&gpu, flops, bytes, 1.0, 0.0, 1.0).is_finite());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN"))]
    fn nan_fractions_debug_assert() {
        let gpu = GpuConfig::volta();
        let t = gpu_irregular_ms(&gpu, 1_000, 1_000, f64::NAN, f64::NAN, 1.0);
        // Release builds: NaN routes to the conservative bound.
        assert!(t.is_finite());
    }

    #[test]
    fn backends_memoize_gemm_estimates() {
        let backend = SmaBackend::iso_area_3sma();
        let shape = GemmShape::square(256);
        let first = backend.gemm(shape).unwrap();
        let before = backend.gemm_cache_stats();
        let again = backend.gemm(shape).unwrap();
        let after = backend.gemm_cache_stats();
        assert_eq!(first.time_ms.to_bits(), again.time_ms.to_bits());
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }
}
