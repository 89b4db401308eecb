//! One dual-mode SMA unit (Fig. 5-C).
//!
//! In SIMD mode the unit's 64 FP32 lanes behave as two warp-slots of
//! ordinary CUDA cores; in systolic mode the same lanes form an 8×8 FP32
//! (8×16 FP16) semi-broadcast weight-stationary array. The paper keeps
//! the stationary weights in the repurposed operand collectors (§IV-A);
//! here the dataflow engine holds them for the pass, and the RF traffic
//! that reuse saves is priced in [`SmaGemmModel`](crate::SmaGemmModel)'s
//! ledger. Switching is a register-write, not a reconfiguration of
//! routing — the temporal integration with "zero switching overhead"
//! (§III-A; `LsmaOp`'s pass charges one cycle to be conservative). An
//! `LSMA` outside systolic mode is [`SmaError::WrongMode`].

use crate::{SmaConfig, SmaError};
use sma_systolic::{DataflowKind, SemiBroadcastArray, SystolicGemm, WeightStationaryArray};
use sma_tensor::Matrix;

/// Which personality the unit currently presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum ExecutionMode {
    /// Conventional SIMD lanes.
    #[default]
    Simd,
    /// Systolic array.
    Systolic,
}

/// A functional dual-mode unit.
///
/// # Example
///
/// ```
/// use sma_core::{SmaConfig, SmaUnit};
/// use sma_tensor::Matrix;
///
/// # fn main() -> Result<(), sma_core::SmaError> {
/// let mut unit = SmaUnit::new(&SmaConfig::iso_flop_2sma());
/// unit.enter_systolic();
/// let a = Matrix::<f32>::random(16, 8, 1);
/// let b = Matrix::<f32>::random(8, 8, 2);
/// let mut c = Matrix::zeros(16, 8);
/// unit.execute_lsma(&a, &b, &mut c)?;
/// unit.exit_systolic();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SmaUnit {
    dim: usize,
    dataflow: DataflowKind,
    mode: ExecutionMode,
}

impl SmaUnit {
    /// Creates a unit under a configuration.
    #[must_use]
    pub fn new(cfg: &SmaConfig) -> Self {
        SmaUnit {
            dim: cfg.dim as usize,
            dataflow: cfg.dataflow,
            mode: ExecutionMode::Simd,
        }
    }

    /// Switches to systolic mode (idempotent).
    pub fn enter_systolic(&mut self) {
        self.mode = ExecutionMode::Systolic;
    }

    /// Switches back to SIMD mode (idempotent).
    pub fn exit_systolic(&mut self) {
        self.mode = ExecutionMode::Simd;
    }

    /// Warp-wide FP32 FMA slots this unit contributes in SIMD mode
    /// (64 lanes = 2 warp slots).
    #[must_use]
    pub const fn simd_warp_slots(&self) -> u32 {
        ((self.dim * self.dim) / 32) as u32
    }

    /// Functionally executes one `LSMA`-shaped operation:
    /// `C += A · B_sub` where `A` is `k×dim` and `B_sub` is `dim×dim`,
    /// through the configured dataflow engine (real PE-level movement).
    ///
    /// # Errors
    ///
    /// Returns [`SmaError::WrongMode`] in SIMD mode and
    /// [`SmaError::ShapeMismatch`] for incompatible operands.
    pub fn execute_lsma(
        &mut self,
        a: &Matrix<f32>,
        b_sub: &Matrix<f32>,
        c: &mut Matrix<f32>,
    ) -> Result<(), SmaError> {
        if self.mode != ExecutionMode::Systolic {
            return Err(SmaError::WrongMode { op: "execute_lsma" });
        }
        if a.cols() > self.dim || b_sub.shape() != (self.dim, self.dim) {
            return Err(SmaError::ShapeMismatch {
                a: a.shape(),
                b: b_sub.shape(),
            });
        }
        if c.rows() != a.rows() || c.cols() < b_sub.cols().min(self.dim) {
            return Err(SmaError::ShapeMismatch {
                a: c.shape(),
                b: (a.rows(), self.dim),
            });
        }

        // Run the configured dataflow engine. Pad A's k dimension to the
        // array width; the engines handle it internally.
        let run = match self.dataflow {
            DataflowKind::SemiBroadcastWeightStationary => {
                let mut engine = SemiBroadcastArray::new(self.dim);
                engine.overlap_weight_load = true;
                engine.gemm(a, b_sub)
            }
            DataflowKind::WeightStationary => {
                let mut engine = WeightStationaryArray::new(self.dim);
                engine.overlap_weight_load = true;
                engine.gemm(a, b_sub)
            }
            DataflowKind::OutputStationary => {
                let mut engine = sma_systolic::OutputStationaryArray::new(self.dim);
                engine.gemm(a, b_sub)
            }
        }
        .map_err(|_| SmaError::ShapeMismatch {
            a: a.shape(),
            b: b_sub.shape(),
        })?;

        // Accumulate into C (the RF-side adders of Fig. 4/5).
        c.accumulate_block(0, 0, &run.result);

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_tensor::gemm;

    fn unit() -> SmaUnit {
        let mut u = SmaUnit::new(&SmaConfig::iso_flop_2sma());
        u.enter_systolic();
        u
    }

    #[test]
    fn lsma_computes_correct_product() {
        let mut u = unit();
        let a = Matrix::<f32>::random(32, 8, 3);
        let b = Matrix::<f32>::random(8, 8, 4);
        let mut c = Matrix::zeros(32, 8);
        u.execute_lsma(&a, &b, &mut c).unwrap();
        let expected = gemm::reference(&a, &b).unwrap();
        assert!(c.approx_eq(&expected, 1e-4));
    }

    #[test]
    fn lsma_accumulates_into_c() {
        let mut u = unit();
        let a = Matrix::<f32>::random(8, 8, 5);
        let b = Matrix::<f32>::random(8, 8, 6);
        let mut c = Matrix::zeros(8, 8);
        u.execute_lsma(&a, &b, &mut c).unwrap();
        u.execute_lsma(&a, &b, &mut c).unwrap();
        let once = gemm::reference(&a, &b).unwrap();
        let mut twice = once.clone();
        twice.accumulate_block(0, 0, &once);
        assert!(c.approx_eq(&twice, 1e-4));
    }

    #[test]
    fn simd_mode_rejects_lsma() {
        let mut u = SmaUnit::new(&SmaConfig::iso_flop_2sma());
        let a = Matrix::<f32>::zeros(8, 8);
        let b = Matrix::<f32>::zeros(8, 8);
        let mut c = Matrix::zeros(8, 8);
        assert!(matches!(
            u.execute_lsma(&a, &b, &mut c),
            Err(SmaError::WrongMode { .. })
        ));
    }

    #[test]
    fn mode_switching_is_counted_and_idempotent() {
        let mut u = SmaUnit::new(&SmaConfig::iso_flop_2sma());
        assert_eq!(u.mode, ExecutionMode::Simd);
        u.enter_systolic();
        u.enter_systolic(); // idempotent
        assert_eq!(u.mode, ExecutionMode::Systolic);
        u.exit_systolic();
        u.exit_systolic();
        assert_eq!(u.mode, ExecutionMode::Simd);
    }

    #[test]
    fn simd_mode_contributes_two_warp_slots() {
        let u = SmaUnit::new(&SmaConfig::iso_flop_2sma());
        assert_eq!(u.simd_warp_slots(), 2);
    }

    #[test]
    fn ws_dataflow_unit_still_computes_correctly() {
        let mut u = SmaUnit::new(&SmaConfig::tpu_dataflow_ablation());
        u.enter_systolic();
        let a = Matrix::<f32>::random(16, 8, 7);
        let b = Matrix::<f32>::random(8, 8, 8);
        let mut c = Matrix::zeros(16, 8);
        u.execute_lsma(&a, &b, &mut c).unwrap();
        assert!(c.approx_eq(&gemm::reference(&a, &b).unwrap(), 1e-4));
        // …on the configured plain weight-stationary engine.
        assert_eq!(u.dataflow, DataflowKind::WeightStationary);
    }

    #[test]
    fn shape_validation() {
        let mut u = unit();
        let a = Matrix::<f32>::zeros(8, 16); // k too wide for one LSMA
        let b = Matrix::<f32>::zeros(8, 8);
        let mut c = Matrix::zeros(8, 8);
        assert!(u.execute_lsma(&a, &b, &mut c).is_err());
        let a = Matrix::<f32>::zeros(8, 8);
        let b_bad = Matrix::<f32>::zeros(4, 8);
        assert!(u.execute_lsma(&a, &b_bad, &mut c).is_err());
    }
}
