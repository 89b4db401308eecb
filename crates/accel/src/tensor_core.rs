//! The Volta TensorCore: functional 4×4×4 dot-product GEMM and the 4-TC
//! analytical model.

use sma_core::{GemmEstimate, L2_REUSE_DRAM_FACTOR, LAUNCH_OVERHEAD_CYCLES, TC_TB_OVERHEAD_CYCLES};
use sma_mem::{ceil_u64, MemStats};
use sma_sim::{calib, GpuConfig};
use sma_tensor::{GemmShape, Matrix, TensorError, TileConfig, F16};

/// One 4×4×4 HMMA step: `D = A·B + C` with FP16 operands and FP32
/// accumulation — the primitive of the reverse-engineered TC pipeline
/// (Raihan et al., cited as \[20\]).
#[must_use]
pub(crate) fn hmma_step(a: &[[F16; 4]; 4], b: &[[F16; 4]; 4], c: &[[f32; 4]; 4]) -> [[f32; 4]; 4] {
    let mut d = [[0.0f32; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            // A dot-product unit: 4 parallel multiplies, an adder tree,
            // then the accumulator add — one rounding at FP32.
            let mut acc = c[i][j];
            for (k, &aik) in a[i].iter().enumerate() {
                acc += aik.to_f32() * b[k][j].to_f32();
            }
            d[i][j] = acc;
        }
    }
    d
}

/// Full GEMM through 4×4×4 HMMA steps (the `wmma` decomposition):
/// operands quantised to FP16, accumulation in FP32.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn wmma_gemm(a: &Matrix<f32>, b: &Matrix<f32>) -> Result<Matrix<f32>, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "wmma_gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let ah = a.map(F16::from_f32);
    let bh = b.map(F16::from_f32);
    let mut c = Matrix::<f32>::zeros(m, n);

    let frag = |src: &Matrix<F16>, r0: usize, c0: usize| {
        let mut f = [[F16::ZERO; 4]; 4];
        for (i, row) in f.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = src.get(r0 + i, c0 + j).copied().unwrap_or(F16::ZERO);
            }
        }
        f
    };

    for i0 in (0..m).step_by(4) {
        for j0 in (0..n).step_by(4) {
            let mut acc = [[0.0f32; 4]; 4];
            for k0 in (0..k).step_by(4) {
                let fa = frag(&ah, i0, k0);
                let fb = frag(&bh, k0, j0);
                acc = hmma_step(&fa, &fb, &acc);
            }
            for i in 0..4 {
                for j in 0..4 {
                    if i0 + i < m && j0 + j < n {
                        c[(i0 + i, j0 + j)] = acc[i][j];
                    }
                }
            }
        }
    }
    Ok(c)
}

/// Analytical latency/energy model of GEMM on the 4-TC configuration.
///
/// Mechanisms: 256 FP16 MACs/cycle/SM peak; the dot-product dataflow
/// reloads fragments from the register file with only ~4× reuse, pinning
/// steady state at [`calib::TC_GEMM_PEAK_FRACTION`] (the paper's measured
/// 68.46%); the decoupled execution model (§III-A) exposes fragment
/// staging per thread block ([`TC_TB_OVERHEAD_CYCLES`]).
#[derive(Debug, Clone, Copy)]
pub struct TcGemmModel {
    gpu: GpuConfig,
    tile: TileConfig,
}

impl TcGemmModel {
    /// Creates the model on a Volta configuration.
    #[must_use]
    pub fn new(gpu: GpuConfig) -> Self {
        TcGemmModel {
            gpu,
            tile: TileConfig::paper(),
        }
    }

    /// Peak FP16 MACs per SM-cycle (256 for 4 TCs).
    #[must_use]
    pub(crate) fn peak_macs_per_sm_cycle(&self) -> f64 {
        f64::from(self.gpu.tensor_cores) * 64.0
    }

    /// Estimates one FP16 GEMM on the TensorCores.
    #[must_use]
    pub fn estimate(&self, shape: GemmShape) -> GemmEstimate {
        let walk = self.tile.walk(shape);
        let blocks = walk.blocks() as u64;
        let k_tiles = walk.k_tiles() as u64;

        let macs_per_ktile = (self.tile.block_m * self.tile.block_n * self.tile.block_k) as f64;
        let rate = self.peak_macs_per_sm_cycle() * calib::TC_GEMM_PEAK_FRACTION;
        let per_ktile = ceil_u64(macs_per_ktile / rate);
        let per_tb = k_tiles * per_ktile + TC_TB_OVERHEAD_CYCLES;

        let sms = u64::from(self.gpu.sms);
        let active = blocks.min(sms);
        let waves = blocks.div_ceil(sms);
        let dram_bytes = (shape.min_bytes(2) as f64 * L2_REUSE_DRAM_FACTOR) as u64;
        let full_bw = self.gpu.dram_bytes_per_cycle_per_sm * f64::from(self.gpu.sms);
        let dram_floor = ceil_u64(dram_bytes as f64 / full_bw);
        let cycles = (waves * per_tb).max(dram_floor) + LAUNCH_OVERHEAD_CYCLES;

        // --- Ledger --------------------------------------------------------
        let mut mem = MemStats::default();
        let hmma_ops = walk.issued_macs() / 64;
        mem.tc_macs = walk.issued_macs();
        // Fragment traffic from the reverse-engineered pipeline [20]:
        // operands are reused across the 4 HMMA steps of a set, leaving
        // ~1 operand read per step and one accumulator write per set.
        mem.rf_reads = hmma_ops;
        mem.rf_writes = hmma_ops / 4;
        // Fragment loads from shared per warp tile (32×32 per warp).
        mem.shared_reads = blocks * k_tiles * 256;
        let tile_elems = (self.tile.block_k * (self.tile.block_m + self.tile.block_n)) as u64;
        mem.shared_writes = blocks * k_tiles * tile_elems / 32;
        mem.dram_bytes = dram_bytes;
        let tile_bytes = walk.dram_bytes(2);
        mem.l1_misses = tile_bytes / 128;
        mem.l2_hits = (tile_bytes - dram_bytes.min(tile_bytes)) / 128;
        mem.l2_misses = dram_bytes / 128;
        // wmma sequences plus the explicit sync instructions of the
        // decoupled model.
        mem.instructions = hmma_ops + blocks * k_tiles * (8 + 7 * 32);
        mem.alu_ops = blocks * k_tiles * 4 * 32 * 32;

        let time_s = cycles as f64 / (self.gpu.clock_ghz * 1e9);
        let useful = shape.macs() as f64;
        GemmEstimate {
            cycles,
            time_ms: time_s * 1e3,
            efficiency: useful / (cycles as f64 * self.peak_macs_per_sm_cycle() * active as f64),
            tflops: 2.0 * useful / time_s / 1e12,
            mem,
            sm_cycles: cycles * active,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_core::{SmaConfig, SmaGemmModel};
    use sma_tensor::gemm;

    #[test]
    fn hmma_matches_reference_4x4() {
        let a = Matrix::<f32>::random(4, 4, 1);
        let b = Matrix::<f32>::random(4, 4, 2);
        let c = wmma_gemm(&a, &b).unwrap();
        let expected = gemm::mixed_precision_f16(&a, &b).unwrap();
        assert!(c.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn wmma_matches_mixed_precision_reference() {
        let a = Matrix::<f32>::random(20, 36, 3);
        let b = Matrix::<f32>::random(36, 28, 4);
        let c = wmma_gemm(&a, &b).unwrap();
        let expected = gemm::mixed_precision_f16(&a, &b).unwrap();
        // Same quantisation, same FP32 accumulation; only association of
        // the k-loop differs (4-wide adder tree), so tolerance is tiny.
        assert!(c.approx_eq(&expected, 1e-4));
    }

    #[test]
    fn wmma_rejects_bad_shapes() {
        let a = Matrix::<f32>::zeros(4, 5);
        let b = Matrix::<f32>::zeros(4, 4);
        assert!(wmma_gemm(&a, &b).is_err());
    }

    #[test]
    fn tc_large_gemm_hits_calibrated_efficiency() {
        let model = TcGemmModel::new(GpuConfig::volta());
        let e = model.estimate(GemmShape::square(8192));
        assert!(
            (e.efficiency - calib::TC_GEMM_PEAK_FRACTION).abs() < 0.02,
            "efficiency {:.4}",
            e.efficiency
        );
    }

    #[test]
    fn sma_beats_tc_across_the_sweep() {
        // Fig. 7 (left): 2-SMA vs 4-TC at iso-FLOP, speedup up to ~1.47×
        // at small sizes, settling near 1.32× at large sizes.
        let tc = TcGemmModel::new(GpuConfig::volta());
        let sma = SmaGemmModel::new(SmaConfig::iso_flop_2sma());
        let mut max_speedup: f64 = 0.0;
        for p in 7..=13u32 {
            let shape = GemmShape::square(1 << p);
            let s = tc.estimate(shape).time_ms / sma.estimate(shape).time_ms;
            assert!(s > 1.2 && s < 1.6, "2^{p}: speedup {s:.3}");
            max_speedup = max_speedup.max(s);
        }
        assert!(
            (1.40..=1.55).contains(&max_speedup),
            "max speedup {max_speedup:.3}"
        );
        let large = tc.estimate(GemmShape::square(8192)).time_ms
            / sma.estimate(GemmShape::square(8192)).time_ms;
        assert!((1.25..=1.40).contains(&large), "large speedup {large:.3}");
    }

    #[test]
    fn tc_rf_traffic_per_mac_exceeds_sma() {
        let tc = TcGemmModel::new(GpuConfig::volta());
        let sma = SmaGemmModel::new(SmaConfig::iso_flop_2sma());
        let shape = GemmShape::square(2048);
        let t = tc.estimate(shape).mem;
        let s = sma.estimate(shape).mem;
        let tc_rf = t.rf_accesses() as f64 / t.tc_macs as f64;
        let sma_rf = s.rf_accesses() as f64 / s.systolic_macs as f64;
        // Even after wmma fragment reuse, the dot-product dataflow touches
        // the RF more per MAC than the weight-stationary drain does.
        assert!(tc_rf > 1.2 * sma_rf, "tc {tc_rf:.5} vs sma {sma_rf:.5}");
    }

    #[test]
    fn efficiency_rises_with_size() {
        let model = TcGemmModel::new(GpuConfig::volta());
        let small = model.estimate(GemmShape::square(128)).efficiency;
        let large = model.estimate(GemmShape::square(4096)).efficiency;
        assert!(small < large);
        assert!(small < 0.6);
    }
}
