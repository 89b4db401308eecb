//! Baseline accelerator models: TPU, TensorCore, and a host CPU.
//!
//! §II of the paper motivates SMA by measuring two commercial accelerators
//! on hybrid DNN models:
//!
//! * [`TpuSim`] — a TPU-class chip: one large weight-stationary systolic
//!   array (128×128 in TPU-v2's core) fed from a unified buffer, attached
//!   to the host over PCIe. Superb on large GEMMs (Fig. 1 ≈100% FLOPS
//!   efficiency), but GEMM-incompatible operations must either be
//!   *lowered* to GEMM/pooling form ([`lowering`], often catastrophically)
//!   or shipped to the host CPU (transfer cost, Fig. 3);
//! * [`TcGemmModel`] / [`tensor_core::wmma_gemm`] — the Volta TensorCore:
//!   4×4×4 dot-product units, spatially integrated beside the SIMD lanes.
//!   High peak, but register-file bandwidth bounds it near 60-70% on GEMM
//!   and its area is dead weight for everything else;
//! * [`CpuModel`] — a single host core, the fallback executor for
//!   operations neither accelerator supports (DeepLab's CRF runs 10×
//!   slower there than on the GPU, Fig. 3).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub(crate) mod cpu;
pub mod lowering;
pub(crate) mod tensor_core;
pub mod tpu;

pub use cpu::CpuModel;
pub use lowering::{LoweredOp, TpuLowering};
pub use tensor_core::{wmma_gemm, TcGemmModel};
pub use tpu::{TpuConfig, TpuEstimate, TpuSim};
