//! TPU lowering of GEMM-incompatible operations (§II-B).
//!
//! The TPU cannot execute control-flow-heavy or gather/scatter operations
//! natively. Its compiler therefore *converts* them: the paper's
//! performance debugging of the TPU Mask R-CNN found NMS rewritten as
//! "multiple dataflow-based GEMM operations" and RoIAlign as "multiple
//! average pooling operations" — mappings that are functionally correct
//! but grossly inflate the executed work. This module reproduces those
//! conversions as *work transformations*: each lowered op becomes a list
//! of GEMM/elementwise jobs the TPU then executes at its native speed.

use crate::tpu::TpuSim;
use sma_tensor::GemmShape;

/// One unit of lowered TPU work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TpuWork {
    /// A GEMM on the systolic array.
    Gemm(GemmShapeDef),
    /// An elementwise/pooling pass on the vector unit: `elems` values
    /// streamed `passes` times.
    Elementwise {
        /// Values per pass.
        elems: u64,
        /// Number of passes.
        passes: u64,
    },
}

/// Serialisable mirror of [`GemmShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShapeDef {
    /// Rows of A/C.
    pub m: usize,
    /// Columns of B/C.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
}

impl From<GemmShape> for GemmShapeDef {
    fn from(s: GemmShape) -> Self {
        GemmShapeDef {
            m: s.m,
            n: s.n,
            k: s.k,
        }
    }
}

impl From<GemmShapeDef> for GemmShape {
    fn from(s: GemmShapeDef) -> Self {
        GemmShape::new(s.m, s.n, s.k)
    }
}

/// A lowered operation: the original op's name plus the TPU work list.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredOp {
    /// Original operation ("nms", "roialign", "argmax").
    pub name: &'static str,
    /// Work items the TPU executes instead.
    pub work: Vec<TpuWork>,
    /// Useful FLOPs of the original operation (for inflation reporting).
    pub native_flops: u64,
}

impl LoweredOp {
    /// Total FLOPs the lowered form executes.
    #[must_use]
    pub fn lowered_flops(&self) -> u64 {
        self.work
            .iter()
            .map(|w| match w {
                TpuWork::Gemm(s) => GemmShape::from(*s).flops(),
                TpuWork::Elementwise { elems, passes } => elems * passes,
            })
            .sum()
    }

    /// Work inflation factor of the conversion.
    #[must_use]
    pub fn inflation(&self) -> f64 {
        self.lowered_flops() as f64 / self.native_flops.max(1) as f64
    }

    /// Executes the work list on a TPU model, returning milliseconds.
    #[must_use]
    pub fn time_on_tpu(&self, tpu: &TpuSim) -> f64 {
        self.work
            .iter()
            .map(|w| match w {
                TpuWork::Gemm(s) => tpu.estimate_gemm(GemmShape::from(*s)).time_ms,
                TpuWork::Elementwise { elems, passes } => {
                    // Vector unit: 128 lanes/cycle; one dispatch per
                    // lowered op (the passes are a fused loop nest).
                    let cycles = elems.div_ceil(128) * passes;
                    cycles as f64 / (tpu.config().clock_ghz * 1e9) * 1e3
                        + tpu.config().dispatch_us * 1e-3
                }
            })
            .sum()
    }
}

/// The conversion rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct TpuLowering;

impl TpuLowering {
    /// Lowers non-max suppression over `boxes` proposals.
    ///
    /// The dataflow rewrite computes the full pairwise IoU matrix with
    /// GEMM-shaped ops (boxes × boxes × 8 coordinate reductions) and then
    /// runs `rounds` suppression sweeps as masked matrix products instead
    /// of data-dependent early exits — every sweep touches the full
    /// matrix. Native NMS is `O(boxes²)` comparisons *with* early exit;
    /// the conversion loses both the early exit and the sparsity.
    #[must_use]
    pub fn nms(boxes: usize, rounds: usize) -> LoweredOp {
        let mut work = Vec::new();
        // Pairwise IoU as GEMM: coordinates expanded to an 8-deep
        // reduction per pair.
        work.push(TpuWork::Gemm(GemmShape::new(boxes, boxes, 8).into()));
        // The while-loop suppression becomes one dispatched masked
        // boxes×boxes product per selected box (TensorFlow's on-device
        // NMS loops per output) — this is where the paper's "severe
        // performance degradation" comes from.
        for _ in 0..rounds {
            work.push(TpuWork::Gemm(GemmShape::new(boxes, boxes, 16).into()));
        }
        LoweredOp {
            name: "nms",
            // Native: ~16 flops per pair for IoU + compare, half the pairs.
            native_flops: (boxes * boxes * 8) as u64,
            work,
        }
    }

    /// Lowers RoIAlign for `rois` regions, `pooled`×`pooled` output bins,
    /// `channels` channels, with 4-point bilinear sampling.
    ///
    /// The conversion materialises each bilinear sample as an average
    /// pooling over the enclosing feature-map window, one pooling pass per
    /// (roi, bin) across all channels — the gather becomes dense strided
    /// reads over windows ~`window²` larger than the 4 taps actually
    /// needed.
    #[must_use]
    pub fn roialign(rois: usize, pooled: usize, channels: usize, window: usize) -> LoweredOp {
        let bins = rois * pooled * pooled;
        let elems_per_pass = (channels * window * window) as u64;
        let work = vec![TpuWork::Elementwise {
            elems: elems_per_pass,
            passes: bins as u64,
        }];
        LoweredOp {
            name: "roialign",
            // Native: 4 bilinear taps × 8 flops per bin-channel.
            native_flops: (bins * channels * 32) as u64,
            work,
        }
    }

    /// Lowers per-pixel argmax over `classes` channels for `pixels`
    /// outputs: a reduction tree of elementwise max/compare passes, each
    /// streaming the full map (`log2(classes)` full-map passes plus an
    /// index-reconstruction pass per level).
    #[must_use]
    pub fn argmax(pixels: usize, classes: usize) -> LoweredOp {
        let levels = (classes as f64).log2().ceil() as u64;
        let work = vec![TpuWork::Elementwise {
            elems: (pixels * classes) as u64,
            // Max pass + index-select pass per tree level.
            passes: 2 * levels,
        }];
        LoweredOp {
            name: "argmax",
            native_flops: (pixels * classes) as u64,
            work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nms_inflation_is_severe() {
        let op = TpuLowering::nms(1000, 10);
        assert!(op.inflation() > 20.0, "inflation {:.1}", op.inflation());
        assert_eq!(op.work.len(), 11);
    }

    #[test]
    fn roialign_inflation_grows_with_window() {
        let tight = TpuLowering::roialign(1000, 7, 256, 4);
        let loose = TpuLowering::roialign(1000, 7, 256, 16);
        assert!(loose.inflation() > tight.inflation());
        assert!(loose.inflation() > 4.0);
    }

    #[test]
    fn argmax_passes_scale_logarithmically() {
        let a = TpuLowering::argmax(512 * 512, 21); // DeepLab: 21 classes
        let flops = a.lowered_flops();
        // ceil(log2 21) = 5 levels, 2 passes each.
        assert_eq!(flops, (512 * 512 * 21) as u64 * 10);
    }

    #[test]
    fn lowered_time_exceeds_gemm_equivalent_time() {
        // The point of Fig. 3: lowering makes the TPU *slower* than a GPU
        // on these ops even though its GEMM engine is faster.
        let tpu = TpuSim::default();
        let nms = TpuLowering::nms(1000, 10);
        let t = nms.time_on_tpu(&tpu);
        // Native NMS ~8M flops would take microseconds at 22 TFLOPS; the
        // lowered form takes milliseconds.
        assert!(t > 0.15, "lowered nms {t:.3} ms");
    }

    #[test]
    fn shape_def_roundtrip() {
        let s = GemmShape::new(3, 4, 5);
        let d: GemmShapeDef = s.into();
        let back: GemmShape = d.into();
        assert_eq!(s, back);
    }
}
