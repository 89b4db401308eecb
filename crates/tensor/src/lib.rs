//! Dense tensor substrate for the SMA reproduction.
//!
//! This crate provides the numerical foundation every other crate builds on:
//!
//! * [`Matrix`] — a dense row-major matrix generic over a [`Scalar`] element
//!   type, with the shape algebra used throughout the simulators.
//! * [`F16`] — software IEEE 754 binary16, used to model the FP16 pairing of
//!   GPU lanes (two FP16 MACs per FP32 lane, paper §IV-A).
//! * [`gemm`] — reference GEMM implementations (`C = αAB + βC`) that the
//!   cycle-level systolic engines are verified against.
//! * [`im2col()`] and [`conv2d_gemm`] — convolution-to-GEMM lowering
//!   exactly as the paper's evaluation does ("the convolution layer in CNN
//!   models is converted to GEMM through the img2col", §V-A).
//! * [`TileConfig`] — the CUTLASS-style 128×128 thread-block tiling with
//!   8-deep k-tiles and double buffering from paper Fig. 6.
//!
//! Every item has one path, at the crate root, except in [`gemm`], which
//! stays a public module for its free functions: [`GemmShape`] and
//! [`GemmShapeBatch`] resolve both there and at the root.
//!
//! # Example
//!
//! ```
//! use sma_tensor::{Matrix, gemm};
//!
//! # fn main() -> Result<(), sma_tensor::TensorError> {
//! let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::from_fn(3, 3, |r, c| f32::from(u8::from(r == c)));
//! let c = gemm::reference(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod f16;
pub mod gemm;
mod im2col;
mod matrix;
mod scalar;
mod tile;

pub use f16::F16;
pub use gemm::{GemmShape, GemmShapeBatch};
pub use im2col::{conv2d_direct, conv2d_gemm, im2col, Conv2dParams, TensorShape};
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use tile::{TileConfig, TileWalk};

use std::error::Error;
use std::fmt;

/// Errors produced by shape-checked tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two operands disagreed on a shared dimension.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A dimension was zero or otherwise out of the supported range.
    InvalidDimension {
        /// Which parameter was invalid.
        what: &'static str,
        /// The offending value.
        value: usize,
    },
    /// Raw data length did not match `rows * cols`.
    DataLength {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimension { what, value } => {
                write!(f, "invalid dimension {what} = {value}")
            }
            TensorError::DataLength { expected, actual } => write!(
                f,
                "data length {actual} does not match shape requiring {expected} elements"
            ),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_lowercase_and_concise() {
        let e = TensorError::ShapeMismatch {
            op: "gemm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.starts_with("shape mismatch"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
