//! Cycle-level systolic-array dataflow engines.
//!
//! Paper §III-B compares systolic dataflows by how their operand feeds and
//! result drains map onto a SIMD substrate's memory system:
//!
//! * the classic TPU **weight-stationary** dataflow streams activations
//!   sideways and drains partial sums *down columns*, producing skewed,
//!   scattered result traffic and requiring partial-sum re-injection for
//!   deep reductions;
//! * the paper's **semi-broadcast weight-stationary** dataflow broadcasts
//!   each `A` element down a column and accumulates *across rows*, so a
//!   complete `C` row exits per cycle — one coalesced register-file vector
//!   access — and only the `A` feed (8 words/cycle on 8 banks) is
//!   uncoalesced;
//! * an **output-stationary** dataflow is included as the conventional
//!   third point in the design space (used by the ablation benches).
//!
//! Every engine here is *functional*: it moves real values through PE
//! pipeline registers cycle by cycle and is verified against the reference
//! GEMM, so the cycle counts and access traces are produced by construction
//! rather than assumed. Analytical cycle models ([`PassTiming`]) are
//! cross-validated against the engines by property tests.
//!
//! # Example
//!
//! ```
//! use sma_systolic::{SemiBroadcastArray, SystolicGemm};
//! use sma_tensor::{gemm, Matrix};
//!
//! # fn main() -> Result<(), sma_systolic::SystolicError> {
//! let a = Matrix::<f32>::random(12, 8, 1);
//! let b = Matrix::<f32>::random(8, 8, 2);
//! let mut array = SemiBroadcastArray::new(8);
//! let run = array.gemm(&a, &b)?;
//! let expected = gemm::reference(&a, &b).unwrap();
//! assert!(run.result.approx_eq(&expected, 1e-4));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod output_stationary;
mod semi_broadcast;
mod timing;
mod trace;
mod weight_stationary;

pub use output_stationary::OutputStationaryArray;
pub use semi_broadcast::SemiBroadcastArray;
pub use timing::PassTiming;
pub use trace::{CDrainKind, PassTrace};
pub use weight_stationary::WeightStationaryArray;

use sma_tensor::{Matrix, Scalar};
use std::error::Error;
use std::fmt;

/// Which dataflow an engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataflowKind {
    /// TPU-style weight stationary (Fig. 4 left).
    WeightStationary,
    /// The paper's SIMD-friendly semi-broadcast weight stationary
    /// (Fig. 4 right).
    SemiBroadcastWeightStationary,
    /// Output stationary (partial sums never move).
    OutputStationary,
}

impl DataflowKind {
    /// Short name used in experiment tables.
    #[must_use]
    pub const fn short_name(self) -> &'static str {
        match self {
            DataflowKind::WeightStationary => "WS",
            DataflowKind::SemiBroadcastWeightStationary => "SB-WS",
            DataflowKind::OutputStationary => "OS",
        }
    }
}

impl fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Errors raised by the systolic engines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystolicError {
    /// Operand shapes incompatible with the array geometry.
    ShapeMismatch {
        /// Explanation of the constraint violated.
        reason: &'static str,
        /// Shape of `A`.
        a: (usize, usize),
        /// Shape of `B`.
        b: (usize, usize),
    },
    /// Array dimension must be positive.
    ZeroDimension,
}

impl fmt::Display for SystolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystolicError::ShapeMismatch { reason, a, b } => write!(
                f,
                "systolic shape mismatch ({reason}): A is {}x{}, B is {}x{}",
                a.0, a.1, b.0, b.1
            ),
            SystolicError::ZeroDimension => write!(f, "systolic array dimension must be positive"),
        }
    }
}

impl Error for SystolicError {}

/// Result of running a GEMM through a systolic engine.
#[derive(Debug, Clone)]
pub struct GemmRun<T> {
    /// The computed product (same values a reference GEMM produces, up to
    /// floating-point association for multi-pass reductions).
    pub result: Matrix<T>,
    /// Cycle count and event summary of the run.
    pub trace: PassTrace,
}

/// Common interface of the dataflow engines.
///
/// The engines handle arbitrary `M×K · K×N` by tiling internally over
/// passes of the array geometry; `trace` reports the summed cost.
pub trait SystolicGemm<T: Scalar> {
    /// The dataflow this engine implements.
    fn kind(&self) -> DataflowKind;

    /// Array edge length (8 for an SMA unit, 128 for a TPU core).
    fn dim(&self) -> usize;

    /// Runs `C = A · B` through the array.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::ShapeMismatch`] if `a.cols() != b.rows()`.
    fn gemm(&mut self, a: &Matrix<T>, b: &Matrix<T>) -> Result<GemmRun<T>, SystolicError>;
}

pub(crate) fn check_gemm_shapes<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<(), SystolicError> {
    if a.cols() != b.rows() {
        return Err(SystolicError::ShapeMismatch {
            reason: "inner dimensions differ",
            a: a.shape(),
            b: b.shape(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(DataflowKind::WeightStationary.to_string(), "WS");
        assert_eq!(
            DataflowKind::SemiBroadcastWeightStationary.short_name(),
            "SB-WS"
        );
        assert_eq!(DataflowKind::OutputStationary.to_string(), "OS");
    }

    #[test]
    fn error_display() {
        let e = SystolicError::ShapeMismatch {
            reason: "inner dimensions differ",
            a: (2, 3),
            b: (4, 5),
        };
        assert!(e.to_string().contains("2x3"));
    }
}
