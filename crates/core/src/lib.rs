//! The Simultaneous Multi-mode Architecture (SMA) — the paper's primary
//! contribution.
//!
//! SMA temporally integrates two execution modes on one set of SM
//! resources (§III):
//!
//! * **SIMD mode** — the unmodified GPU lanes, keeping full
//!   programmability for GEMM-incompatible operations;
//! * **systolic mode** — the same lanes reconfigured into 8×8 FP32
//!   (8×16 FP16) semi-broadcast weight-stationary arrays, driven by the
//!   asynchronous [`LsmaOp`] instruction through a [`SystolicController`].
//!
//! This crate provides:
//!
//! * [`SmaConfig`] — the Table-I SMA configuration (2-SMA iso-FLOP,
//!   3-SMA iso-area);
//! * [`SmaUnit`] — a functional dual-mode unit: SIMD lanes or one
//!   systolic dataflow engine, gated by its mode (§III-A);
//! * [`SystolicController`] — per-unit `LSMA` issue queues and the
//!   Ain/Cout staging buffers of Fig. 5 (256 B total);
//! * [`GemmMapper`] — the Fig.-6 algorithm mapping: 128×128 thread-block
//!   tiles, double-buffered 8-deep k-slices, 64 warps in two
//!   cooperative-group sets, and `LSMA` issue per 8×8 `Bsubtile`;
//! * [`SimdGemmModel`] / [`SmaGemmModel`] — closed-form latency/energy
//!   models for the SIMD baseline and the SMA configurations, anchored
//!   to the paper's measured asymptotes and modulated by the mechanistic
//!   tile/wave/fill-drain factors (see `sma_sim::calib`).
//!
//! # Example
//!
//! ```
//! use sma_core::{GemmMapper, SmaConfig};
//! use sma_tensor::{gemm, Matrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mapper = GemmMapper::new(SmaConfig::iso_flop_2sma());
//! let a = Matrix::<f32>::random(64, 32, 1);
//! let b = Matrix::<f32>::random(32, 48, 2);
//! let out = mapper.execute(&a, &b)?;
//! let expected = gemm::reference(&a, &b)?;
//! assert!(out.result.approx_eq(&expected, 1e-3));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod config;
mod controller;
mod gemm_mapper;
mod lsma;
mod model;
mod unit;

pub use config::SmaConfig;
pub use controller::SystolicController;
pub use gemm_mapper::{GemmMapper, MappedGemm};
pub use lsma::LsmaOp;
pub use model::{
    GemmEstimate, SimdGemmModel, SmaGemmModel, L2_REUSE_DRAM_FACTOR, LAUNCH_OVERHEAD_CYCLES,
    TC_TB_OVERHEAD_CYCLES,
};
pub use unit::SmaUnit;

use std::error::Error;
use std::fmt;

/// Errors raised by the SMA core.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SmaError {
    /// An `LSMA` operand violated an architectural constraint.
    InvalidLsma {
        /// The violated constraint.
        reason: &'static str,
    },
    /// GEMM operand shapes disagree.
    ShapeMismatch {
        /// Shape of `A`.
        a: (usize, usize),
        /// Shape of `B`.
        b: (usize, usize),
    },
    /// A unit was asked to run systolic work while in SIMD mode.
    WrongMode {
        /// The operation that was attempted.
        op: &'static str,
    },
}

impl fmt::Display for SmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmaError::InvalidLsma { reason } => write!(f, "invalid lsma operation: {reason}"),
            SmaError::ShapeMismatch { a, b } => write!(
                f,
                "gemm shape mismatch: A is {}x{}, B is {}x{}",
                a.0, a.1, b.0, b.1
            ),
            SmaError::WrongMode { op } => {
                write!(f, "operation {op} requires systolic mode")
            }
        }
    }
}

impl Error for SmaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SmaError::WrongMode { op: "lsma" };
        assert!(e.to_string().contains("systolic"));
    }
}
