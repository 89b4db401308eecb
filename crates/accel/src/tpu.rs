//! TPU-class accelerator: one large weight-stationary systolic array
//! behind a unified buffer, attached to the host over PCIe.

use sma_sim::calib;
use sma_systolic::{SystolicGemm, WeightStationaryArray};
use sma_tensor::{GemmShape, Matrix, TensorError};

/// TPU chip configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpuConfig {
    /// Systolic array edge (256 on TPU-v1, 128 per core on TPU-v2).
    pub array_dim: usize,
    /// Core clock in GHz (0.7 on TPU-v2).
    pub clock_ghz: f64,
    /// On-chip memory bandwidth in bytes/cycle (HBM on v2: ~850 B/cycle).
    pub mem_bytes_per_cycle: f64,
    /// Fixed per-launch host dispatch overhead in microseconds
    /// (instruction stream over PCIe).
    pub dispatch_us: f64,
    /// Effective host↔device bandwidth in GB/s. Cloud TPU-v2 moves data
    /// through a gRPC path, not a local PCIe DMA — effective throughput
    /// for inference-sized tensors is well under 1 GB/s, which is exactly
    /// why Fig. 3's transfer bar rivals the compute bars.
    pub host_gbps: f64,
}

impl TpuConfig {
    /// One TPU-v2 core: 128×128 array at 0.7 GHz = 22.9 peak TFLOPS,
    /// matching §II-A's "128×128 systolic array with peak 22.5 TFLOPS".
    #[must_use]
    pub const fn v2_core() -> Self {
        TpuConfig {
            array_dim: 128,
            clock_ghz: 0.7,
            mem_bytes_per_cycle: 850.0,
            dispatch_us: 15.0,
            host_gbps: 0.4,
        }
    }

    /// Peak TFLOPS of the array.
    #[must_use]
    pub fn peak_tflops(&self) -> f64 {
        (self.array_dim * self.array_dim) as f64 * 2.0 * self.clock_ghz / 1000.0
    }
}

impl Default for TpuConfig {
    fn default() -> Self {
        Self::v2_core()
    }
}

/// Latency estimate of one operation on the TPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpuEstimate {
    /// Device cycles.
    pub cycles: u64,
    /// Wall-clock milliseconds including dispatch overhead.
    pub time_ms: f64,
    /// Achieved fraction of peak FLOPS.
    pub efficiency: f64,
}

/// The TPU simulator: functional weight-stationary execution for small
/// shapes, analytical timing for sweeps.
#[derive(Debug, Clone)]
pub struct TpuSim {
    config: TpuConfig,
}

impl TpuSim {
    /// Creates a simulator.
    #[must_use]
    pub const fn new(config: TpuConfig) -> Self {
        TpuSim { config }
    }

    /// The configuration.
    #[must_use]
    pub const fn config(&self) -> TpuConfig {
        self.config
    }

    /// Functional GEMM through the weight-stationary array engine — the
    /// same PE-level machinery as the on-GPU ablation, at TPU geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on incompatible shapes.
    pub fn functional_gemm(
        &self,
        a: &Matrix<f32>,
        b: &Matrix<f32>,
    ) -> Result<Matrix<f32>, TensorError> {
        if a.cols() != b.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "tpu::functional_gemm",
                lhs: a.shape(),
                rhs: b.shape(),
            });
        }
        let mut engine = WeightStationaryArray::new(self.config.array_dim);
        engine.overlap_weight_load = true;
        let run = engine.gemm(a, b).expect("shapes checked above");
        Ok(run.result)
    }

    /// Analytical GEMM timing: weight-FIFO-overlapped passes of the
    /// `dim×dim` array, a unified-buffer streaming floor, and the fixed
    /// host dispatch overhead. Matches the functional engine's schedule
    /// (`m + 2·dim - 2 + 1` cycles per pass with overlapped loads).
    #[must_use]
    pub fn estimate_gemm(&self, shape: GemmShape) -> TpuEstimate {
        let d = self.config.array_dim;
        let passes = (shape.k.div_ceil(d) * shape.n.div_ceil(d)) as u64;
        let pass_cycles = (shape.m + 2 * d - 2 + 1) as u64;
        let compute = passes * pass_cycles;

        // Streaming floor: every operand crosses the unified buffer once.
        let bytes = shape.min_bytes(2) as f64;
        let mem_floor = (bytes / self.config.mem_bytes_per_cycle).ceil() as u64;

        let cycles = compute.max(mem_floor);
        let time_s = cycles as f64 / (self.config.clock_ghz * 1e9) + self.config.dispatch_us * 1e-6;
        let peak_macs = (d * d) as f64;
        TpuEstimate {
            cycles,
            time_ms: time_s * 1e3,
            efficiency: shape.macs() as f64 / ((time_s * self.config.clock_ghz * 1e9) * peak_macs),
        }
    }

    /// Host↔device transfer time for `bytes` over the cloud-TPU gRPC
    /// path, including the driver software overhead (`calib`).
    #[must_use]
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        calib::TRANSFER_SOFTWARE_MS + bytes as f64 / (self.config.host_gbps * 1e9) * 1e3
    }
}

impl Default for TpuSim {
    fn default() -> Self {
        Self::new(TpuConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_tensor::gemm;

    #[test]
    fn v2_core_peak_matches_paper() {
        let cfg = TpuConfig::v2_core();
        // §II-A: "peak 22.5 TFLOPS" for the 128×128 core.
        assert!((cfg.peak_tflops() - 22.9).abs() < 0.5);
    }

    #[test]
    fn functional_gemm_is_correct_at_small_geometry() {
        let tpu = TpuSim::new(TpuConfig {
            array_dim: 16,
            ..TpuConfig::v2_core()
        });
        let a = Matrix::<f32>::random(24, 20, 1);
        let b = Matrix::<f32>::random(20, 18, 2);
        let c = tpu.functional_gemm(&a, &b).unwrap();
        assert!(c.approx_eq(&gemm::reference(&a, &b).unwrap(), 1e-3));
    }

    #[test]
    fn efficiency_rises_to_near_one() {
        // Fig. 1: TPU reaches ~100% FLOPS efficiency on big square GEMMs
        // and is poor on small ones (array quantisation + dispatch).
        let tpu = TpuSim::default();
        let small = tpu.estimate_gemm(GemmShape::square(128)).efficiency;
        let mid = tpu.estimate_gemm(GemmShape::square(2048)).efficiency;
        let big = tpu.estimate_gemm(GemmShape::square(16384)).efficiency;
        assert!(small < 0.15, "small {small:.3}");
        assert!(mid > 0.5, "mid {mid:.3}");
        assert!(big > 0.90, "big {big:.3}");
    }

    #[test]
    fn dispatch_overhead_dominates_tiny_ops() {
        let tpu = TpuSim::default();
        let t = tpu.estimate_gemm(GemmShape::square(64));
        assert!(t.time_ms >= 0.015); // at least the dispatch time
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let tpu = TpuSim::default();
        let small = tpu.transfer_ms(1 << 20);
        let big = tpu.transfer_ms(100 << 20);
        assert!(big > small);
        // 100 MiB at 0.4 GB/s ≈ 262 ms.
        assert!((big - 262.5).abs() < 10.0, "big {big:.1}");
    }

    #[test]
    fn shape_mismatch_is_error() {
        let tpu = TpuSim::default();
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(4, 4);
        assert!(tpu.functional_gemm(&a, &b).is_err());
    }
}
