//! The element-type abstraction shared by the matrix and GEMM code.
//!
//! The simulators run the same dataflow engines at FP32, FP16 and INT8
//! precision (paper §IV-A: "our SMA unit can also be built from other data
//! types such as INT8"), so the numeric kernels are generic over a small
//! sealed-ish trait instead of hard-coding `f32`.

use crate::f16::F16;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Element types usable in [`crate::Matrix`] and the GEMM kernels.
///
/// Implemented for `f32`, `f64`, [`F16`] and `i32` (the INT8 accumulate
/// type). The trait is deliberately tiny: the systolic engines only ever
/// need multiply-accumulate, zero/one and an absolute-difference comparison
/// for verification.
///
/// # Example
///
/// ```
/// use sma_tensor::Scalar;
///
/// fn dot<T: Scalar>(a: &[T], b: &[T]) -> T {
///     a.iter().zip(b).fold(T::ZERO, |acc, (&x, &y)| acc.mac(x, y))
/// }
///
/// assert_eq!(dot(&[1.0f32, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + AddAssign
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Multiply-accumulate: `self + x * y`.
    ///
    /// The receiver is the *accumulator*, mirroring how a systolic
    /// processing element updates its partial sum. (Named `mac` rather than
    /// `mul_add` to avoid colliding with the inherent `f32::mul_add`, whose
    /// operand order differs.)
    #[must_use]
    fn mac(self, x: Self, y: Self) -> Self {
        self + x * y
    }

    /// Absolute difference as an `f64`, used by verification helpers.
    fn abs_diff(self, other: Self) -> f64;

    /// Lossy conversion from `f64`, used by workload generators.
    fn from_f64(v: f64) -> Self;

    /// Lossy conversion to `f64`, used by statistics helpers.
    fn to_f64(self) -> f64;
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    fn abs_diff(self, other: Self) -> f64 {
        f64::from((self - other).abs())
    }

    fn from_f64(v: f64) -> Self {
        v as f32
    }

    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    fn abs_diff(self, other: Self) -> f64 {
        (self - other).abs()
    }

    fn from_f64(v: f64) -> Self {
        v
    }

    fn to_f64(self) -> f64 {
        self
    }
}

impl Scalar for i32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    fn abs_diff(self, other: Self) -> f64 {
        f64::from((self - other).abs())
    }

    fn from_f64(v: f64) -> Self {
        v as i32
    }

    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Scalar for F16 {
    const ZERO: Self = F16::ZERO;
    const ONE: Self = F16::ONE;

    fn abs_diff(self, other: Self) -> f64 {
        f64::from((self.to_f32() - other.to_f32()).abs())
    }

    fn from_f64(v: f64) -> Self {
        F16::from_f32(v as f32)
    }

    fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
    )]

    use super::*;

    #[test]
    fn mac_matches_manual() {
        assert_eq!(Scalar::mac(2.0f32, 3.0, 4.0), 2.0 + 3.0 * 4.0);
        assert_eq!(2i32.mac(3, 4), 14);
    }

    #[test]
    fn f16_scalar_roundtrip() {
        let x = F16::from_f64(0.5);
        assert_eq!(x.to_f64(), 0.5);
    }

    #[test]
    fn identities() {
        assert_eq!(f32::ZERO + f32::ONE, 1.0);
        assert_eq!(i32::ZERO, 0);
        assert_eq!(i32::ONE, 1);
        assert_eq!(F16::ZERO.to_f32() + F16::ONE.to_f32(), 1.0);
    }
}
