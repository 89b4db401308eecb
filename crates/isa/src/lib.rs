//! Kernel IR for the SMA reproduction's GPU timing simulator.
//!
//! GPGPU-Sim executes real SASS/PTX; porting that is neither feasible nor
//! necessary. What the paper's conclusions rest on is *how many* issue
//! slots, register-file accesses, shared-memory transactions and
//! global-memory transactions each kernel variant generates, and how those
//! interleave. This crate defines a compact warp-level instruction set that
//! captures exactly those quantities:
//!
//! * [`Instr`] — ALU ops, memory ops with per-lane [`AddressPattern`]s,
//!   TensorCore `HMMA` macro-ops, barriers/cooperative-group syncs, and the
//!   paper's new asynchronous [`Instr::Lsma`] instruction (§IV-B).
//! * [`WarpProgram`] — a structured program (straight-line code + counted
//!   loops) executed per warp, with a lazy program-counter walker so large
//!   GEMM kernels never materialise their full traces.
//! * [`Kernel`] — a grid of thread blocks, each running one or more warp
//!   *roles* (e.g. the loader/computer warp sets of the paper's
//!   double-buffered GEMM).
//!
//! # Example
//!
//! ```
//! use sma_isa::{AddressPattern, Instr, Reg, WarpProgram};
//!
//! let mut p = WarpProgram::builder();
//! p.loop_n(4, |b| {
//!     b.push(Instr::ldg(Reg(0), AddressPattern::strided(0x1000, 4)));
//!     b.push(Instr::ffma(Reg(1), Reg(0), Reg(2), Reg(1)));
//! });
//! let program = p.build();
//! assert_eq!(program.dynamic_instruction_count(), 8);
//! ```

#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod instr;
mod kernel;
mod program;

pub use instr::{AddressPattern, AluOp, Instr, MemSpace, Reg};
pub use kernel::{Kernel, WarpRole};
pub use program::{ProgramBuilder, WarpProgram, WarpWalker};

use std::error::Error;
use std::fmt;

/// Errors raised while validating programs and kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IsaError {
    /// A kernel was configured with no warp roles or a zero-warp role.
    EmptyLaunch {
        /// Which launch parameter was zero.
        what: &'static str,
    },
    /// An `LSMA` instruction had an invalid operand.
    InvalidLsma {
        /// Description of the violated constraint.
        reason: &'static str,
    },
    /// A warp role referenced a barrier id above the architectural limit.
    BadBarrier {
        /// The offending barrier id.
        id: u32,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::EmptyLaunch { what } => write!(f, "kernel launch has zero {what}"),
            IsaError::InvalidLsma { reason } => write!(f, "invalid lsma instruction: {reason}"),
            IsaError::BadBarrier { id } => write!(f, "barrier id {id} exceeds hardware limit"),
        }
    }
}

impl Error for IsaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(
            IsaError::EmptyLaunch { what: "blocks" }.to_string(),
            "kernel launch has zero blocks"
        );
    }
}
