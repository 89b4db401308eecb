//! # SMA — Simultaneous Multi-mode Architecture
//!
//! A from-scratch Rust reproduction of *"Balancing Efficiency and
//! Flexibility for DNN Acceleration via Temporal GPU-Systolic Array
//! Integration"* (DAC 2020): an architecture that temporally integrates a
//! systolic execution mode into a GPU's SIMD substrate, switching between
//! the two in-situ with negligible overhead.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`tensor`] | matrices, FP16, reference GEMM, im2col, tiling |
//! | [`isa`] | kernel IR incl. the asynchronous `LSMA` instruction |
//! | [`mem`] | banked shared memory, register file, caches, coalescer |
//! | [`systolic`] | cycle-level functional dataflow engines |
//! | [`sim`] | the SM timing simulator and warp schedulers |
//! | [`energy`] | GPUWattch/CACTI-style energy model |
//! | [`core`] | the SMA architecture: units, controller, GEMM mapper |
//! | [`accel`] | TPU / TensorCore / CPU baselines and TPU op lowering |
//! | [`models`] | Table-II model zoo and functional hybrid operators |
//! | [`runtime`] | platform executors, the serving layer, driving study |
//!
//! # Quickstart
//!
//! ```
//! use sma::core::{GemmMapper, SmaConfig};
//! use sma::tensor::{gemm, Matrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Functionally execute a GEMM through the 2-SMA mapping: real values
//! // move through the systolic arrays PE by PE.
//! let a = Matrix::<f32>::random(64, 32, 1);
//! let b = Matrix::<f32>::random(32, 48, 2);
//! let mapped = GemmMapper::new(SmaConfig::iso_flop_2sma()).execute(&a, &b)?;
//! assert!(mapped.result.approx_eq(&gemm::reference(&a, &b)?, 1e-3));
//!
//! // And estimate its performance on the full 80-SM GPU.
//! use sma::core::SmaGemmModel;
//! use sma::tensor::GemmShape;
//! let est = SmaGemmModel::new(SmaConfig::iso_flop_2sma())
//!     .estimate(GemmShape::new(4096, 4096, 4096));
//! assert!(est.efficiency > 0.85);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use sma_accel as accel;
pub use sma_core as core;
pub use sma_energy as energy;
pub use sma_isa as isa;
pub use sma_mem as mem;
pub use sma_models as models;
pub use sma_runtime as runtime;
pub use sma_sim as sim;
pub use sma_systolic as systolic;
pub use sma_tensor as tensor;

// Compiles and runs the README's code blocks as doc tests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
