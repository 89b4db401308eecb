//! The platform keys of the evaluation.
//!
//! [`Platform`] is a thin, serialisable key naming the seven evaluated
//! architectures: the paper's five plus the two reconfigurable-systolic
//! designs the ROADMAP named (ArrayFlex, FlexSA). All execution
//! behaviour lives behind [`Platform::backend`], which returns the
//! shared [`Backend`] trait object for the key — the
//! executor, the experiment harness and the application studies never
//! match on the variant.

use crate::backend::{self, Backend};
use std::sync::Arc;

/// The seven platforms of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Baseline Volta SIMD lanes (FP32 CUTLASS-style GEMM).
    GpuSimd,
    /// Volta with its four TensorCores doing the GEMMs (spatial
    /// integration).
    GpuTensorCore,
    /// Two SMA units per SM (iso-FLOP with 4-TC).
    Sma2,
    /// Three SMA units per SM (iso-area; the temporal-integration win).
    Sma3,
    /// A TPU-v2 core plus host CPU over the cloud link.
    TpuHost,
    /// One configurable-transparent-pipelining systolic array per SM
    /// (ArrayFlex), selecting a pipeline depth per GEMM shape.
    ArrayFlex,
    /// One reconfigurable 16×16 ⇄ 4×8×8 tile per SM (FlexSA) with a
    /// structured-pruning-aware irregular path.
    FlexSa,
}

impl Platform {
    /// Every evaluated platform, in golden-file/report order — the
    /// single source of truth the sweep grids and the parity fixtures
    /// both iterate. The paper's original five keep their positions,
    /// the four GPU-family platforms first in Fig. 8 order; the
    /// reconfigurable-systolic additions append after them.
    pub const ALL: [Platform; 7] = [
        Platform::GpuSimd,
        Platform::GpuTensorCore,
        Platform::Sma2,
        Platform::Sma3,
        Platform::TpuHost,
        Platform::ArrayFlex,
        Platform::FlexSa,
    ];

    /// Short label used in experiment tables (paper nomenclature).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Platform::GpuSimd => "SIMD",
            Platform::GpuTensorCore => "4-TC",
            Platform::Sma2 => "2-SMA",
            Platform::Sma3 => "3-SMA",
            Platform::TpuHost => "TPU",
            Platform::ArrayFlex => "ArrayFlex",
            Platform::FlexSa => "FlexSA",
        }
    }

    /// The shared [`Backend`] instance for this key.
    ///
    /// Backends are constructed once, on first use, and cached for the
    /// lifetime of the process — repeated calls return the same
    /// instance (and therefore the same memoized GEMM cache).
    #[must_use]
    pub fn backend(self) -> Arc<dyn Backend> {
        backend::backend_for(self)
    }

    /// Multiplier on SIMD throughput available for irregular work
    /// (delegates to the backend — see
    /// [`Backend::simd_mode_boost`]).
    #[must_use]
    pub(crate) fn simd_mode_boost(self) -> f64 {
        self.backend().simd_mode_boost()
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
    )]

    use super::*;
    use sma_tensor::GemmShape;

    #[test]
    fn labels_and_family() {
        assert_eq!(Platform::Sma3.label(), "3-SMA");
        assert_eq!(Platform::GpuSimd.to_string(), "SIMD");
    }

    #[test]
    fn gemm_dispatches_per_platform() {
        let shape = GemmShape::square(1024);
        let time_ms = |p: Platform| p.backend().gemm(shape).unwrap().time_ms;
        let simd = time_ms(Platform::GpuSimd);
        let tc = time_ms(Platform::GpuTensorCore);
        let sma2 = time_ms(Platform::Sma2);
        let sma3 = time_ms(Platform::Sma3);
        assert!(simd > tc, "TC beats SIMD");
        assert!(tc > sma2, "2-SMA beats TC");
        assert!(sma2 > sma3, "3-SMA beats 2-SMA");
    }

    #[test]
    fn simd_boost_comes_from_the_backend() {
        assert_eq!(Platform::GpuSimd.simd_mode_boost(), 1.0);
        assert_eq!(Platform::GpuTensorCore.simd_mode_boost(), 1.0);
        assert_eq!(Platform::Sma2.simd_mode_boost(), 2.0);
        assert_eq!(Platform::Sma3.simd_mode_boost(), 3.0);
        assert_eq!(Platform::TpuHost.simd_mode_boost(), 0.0);
        // The reconfigurable arrays reconfigure within the systolic
        // domain, not into SIMD lanes.
        assert_eq!(Platform::ArrayFlex.simd_mode_boost(), 1.0);
        assert_eq!(Platform::FlexSa.simd_mode_boost(), 1.0);
    }

    #[test]
    fn reconfigurable_platforms_serve_gpu_clock_estimates() {
        let shape = GemmShape::square(1024);
        for p in [Platform::ArrayFlex, Platform::FlexSa] {
            let est = p.backend().gemm(shape).unwrap();
            assert!(est.time_ms > 0.0 && est.cycles > 0, "{p}");
        }
        assert_eq!(Platform::ALL.len(), 7);
    }
}
