//! INT8 quantisation support.
//!
//! §IV-A notes the SMA unit "can also be built from other data types such
//! as INT8": with four INT8 MACs packed per FP32 lane, an 8×8 unit becomes
//! an 8×32 INT8 array. This module provides the symmetric-quantisation
//! machinery to run the functional engines at INT8 — quantise operands,
//! multiply-accumulate in `i32` (bit-exact in the systolic engines), and
//! dequantise — plus the error analysis the examples use.

use crate::gemm;
use crate::matrix::Matrix;
use crate::TensorError;

/// Symmetric linear quantisation parameters: `real = scale * int`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Scale factor (positive).
    pub scale: f32,
}

impl QuantParams {
    /// Chooses the scale so `max_abs` maps to 127.
    ///
    /// # Panics
    ///
    /// Panics if `max_abs` is not finite and positive.
    #[must_use]
    pub(crate) fn fit(max_abs: f32) -> Self {
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "quantisation range must be positive and finite"
        );
        QuantParams {
            scale: max_abs / 127.0,
        }
    }

    /// Fits the scale to a matrix's value range (falls back to scale 1.0
    /// for an all-zero matrix).
    #[must_use]
    pub(crate) fn fit_matrix(m: &Matrix<f32>) -> Self {
        let max_abs = m.as_slice().iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        // sma-lint: allow(float-eq) — exact-zero guard: a fold of
        // abs() over any nonempty input is >= 0.0 and only an all-zero
        // matrix produces exactly 0.0.
        if max_abs == 0.0 {
            QuantParams { scale: 1.0 }
        } else {
            Self::fit(max_abs)
        }
    }

    /// Quantises one value with round-to-nearest and saturation.
    #[must_use]
    pub(crate) fn quantise(&self, v: f32) -> i8 {
        (v / self.scale).round().clamp(-127.0, 127.0) as i8
    }

    /// Dequantises one value.
    #[must_use]
    pub fn dequantise(&self, q: i8) -> f32 {
        f32::from(q) * self.scale
    }
}

/// A quantised matrix: `i8` storage (held widened to `i32` so the integer
/// GEMM engines can run on it directly) plus its scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantisedMatrix {
    /// Quantised values widened to the accumulate type.
    pub data: Matrix<i32>,
    /// Quantisation parameters.
    pub params: QuantParams,
}

impl QuantisedMatrix {
    /// Quantises a matrix symmetrically.
    #[must_use]
    pub(crate) fn from_f32(m: &Matrix<f32>) -> Self {
        let params = QuantParams::fit_matrix(m);
        QuantisedMatrix {
            data: m.map(|v| i32::from(params.quantise(v))),
            params,
        }
    }

    /// Dequantises back to `f32`.
    #[must_use]
    pub fn to_f32(&self) -> Matrix<f32> {
        self.data.map(|q| q as f32 * self.params.scale)
    }
}

/// INT8 GEMM: quantise `A` and `B`, multiply-accumulate exactly in `i32`
/// (the same arithmetic the INT8 systolic array performs), and dequantise
/// with the product of the scales.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions
/// disagree.
pub fn gemm_int8(a: &Matrix<f32>, b: &Matrix<f32>) -> Result<Matrix<f32>, TensorError> {
    let qa = QuantisedMatrix::from_f32(a);
    let qb = QuantisedMatrix::from_f32(b);
    let acc = gemm::reference(&qa.data, &qb.data)?;
    let scale = qa.params.scale * qb.params.scale;
    Ok(acc.map(|v| v as f32 * scale))
}

/// Root-mean-square error between two matrices of the same shape.
///
/// # Panics
///
/// Panics if the shapes differ.
#[must_use]
pub fn rmse(a: &Matrix<f32>, b: &Matrix<f32>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "rmse shape mismatch");
    let n = (a.rows() * a.cols()) as f64;
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum();
    (sum / n).sqrt()
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn quantise_roundtrip_on_grid_values() {
        let p = QuantParams::fit(127.0); // scale 1: integers are exact
        for v in [-127i8, -1, 0, 1, 42, 127] {
            assert_eq!(p.quantise(f32::from(v)), v);
            assert_eq!(p.dequantise(v), f32::from(v));
        }
    }

    #[test]
    fn quantise_saturates() {
        let p = QuantParams::fit(1.0);
        assert_eq!(p.quantise(10.0), 127);
        assert_eq!(p.quantise(-10.0), -127);
    }

    #[test]
    fn fit_matrix_uses_max_abs() {
        let m = Matrix::from_fn(2, 2, |r, c| if r == c { -2.54 } else { 0.1 });
        let p = QuantParams::fit_matrix(&m);
        assert!((p.scale - 2.54 / 127.0).abs() < 1e-7);
        // All-zero input falls back to scale 1.
        let z: Matrix<f32> = Matrix::zeros(2, 2);
        assert_eq!(QuantParams::fit_matrix(&z).scale, 1.0);
    }

    #[test]
    fn int8_gemm_tracks_fp32_within_quantisation_noise() {
        let a = Matrix::<f32>::random(24, 16, 5);
        let b = Matrix::<f32>::random(16, 20, 6);
        let exact = gemm::reference(&a, &b).unwrap();
        let quant = gemm_int8(&a, &b).unwrap();
        // Inputs in [-1,1), k=16: quantisation RMSE stays well under 1%
        // of the typical output magnitude (~sqrt(k)/sqrt(3)).
        let err = rmse(&exact, &quant);
        assert!(err < 0.05, "rmse {err}");
    }

    #[test]
    fn int8_gemm_through_systolic_engine_is_bit_exact() {
        // The point of §IV-A's INT8 claim: the same dataflow engine runs
        // integer MACs exactly.
        use crate::Matrix;
        let a = Matrix::<f32>::random(12, 8, 7);
        let b = Matrix::<f32>::random(8, 8, 8);
        let qa = QuantisedMatrix::from_f32(&a);
        let qb = QuantisedMatrix::from_f32(&b);
        let direct = gemm::reference(&qa.data, &qb.data).unwrap();
        // (The systolic-engine equivalence itself is asserted in
        // sma-systolic's integer tests; here we check the i32 path is
        // exact under the quantised ranges: |acc| <= 127*127*8.)
        let bound = 127 * 127 * 8;
        assert!(direct.as_slice().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn rmse_basics() {
        let a = Matrix::from_fn(1, 2, |_, c| c as f32);
        let b = Matrix::from_fn(1, 2, |_, c| c as f32 + 1.0);
        assert!((rmse(&a, &b) - 1.0).abs() < 1e-12);
        assert_eq!(rmse(&a, &a), 0.0);
    }
}
