//! DNN model zoo and functional hybrid operators.
//!
//! Table II of the paper evaluates five CNN models — AlexNet, VGG-A,
//! GoogLeNet, Mask R-CNN and DeepLab — the last two being *hybrid* models
//! whose GEMM-incompatible operators (RoIAlign, RegionProposal/NMS,
//! ArgMax, CRF) motivate the whole architecture (Fig. 2). The end-to-end
//! evaluation (Fig. 9) adds GOTURN (tracking) and ORB-SLAM
//! (localisation).
//!
//! This crate provides:
//!
//! * [`Layer`] / [`Network`] — layer tables with exact shape algebra, so
//!   every convolution yields its im2col GEMM dimensions;
//! * [`zoo`] — builders for all seven workloads, with conv-layer counts
//!   asserted against Table II (5 / 8 / 57 / 132 / 108);
//! * [`ops`] — *functional* implementations of the hybrid operators
//!   (bilinear RoIAlign, IoU-based NMS, per-pixel ArgMax, mean-field CRF
//!   inference), each verified against a naive reference, plus cost
//!   descriptors used by the platform executors.

#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod layer;
mod network;
pub mod ops;
pub mod zoo;

pub use layer::{CustomStage, Layer, LayerWork};
pub use network::Network;
