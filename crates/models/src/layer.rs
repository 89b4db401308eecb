//! Layer descriptors and their work characterisation.

use sma_tensor::{Conv2dParams, GemmShape, TensorShape};

/// One network layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Layer {
    /// 2-D convolution on a given input shape (im2col → GEMM).
    Conv2d {
        /// Convolution parameters.
        conv: Conv2dParams,
        /// Input feature-map shape.
        input: TensorShape,
    },
    /// Fully connected layer at batch size `batch`.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Batch (1 for inference).
        batch: usize,
    },
    /// Max/average pooling (bandwidth-bound elementwise pass).
    Pool {
        /// Input shape.
        input: TensorShape,
        /// Pooling window.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// RoIAlign: bilinear crop-and-resize of `rois` regions (Mask R-CNN).
    RoiAlign {
        /// Number of regions.
        rois: usize,
        /// Output bins per side.
        pooled: usize,
        /// Feature channels.
        channels: usize,
    },
    /// Region-proposal NMS over `boxes` candidates (Mask R-CNN).
    Nms {
        /// Candidate boxes.
        boxes: usize,
    },
    /// Per-pixel argmax over class maps (DeepLab).
    ArgMax {
        /// Pixels.
        pixels: usize,
        /// Classes.
        classes: usize,
    },
    /// Dense-CRF mean-field refinement (DeepLab).
    Crf {
        /// Pixels.
        pixels: usize,
        /// Classes.
        classes: usize,
        /// Mean-field iterations.
        iterations: usize,
    },
    /// Generic elementwise stage (activation, normalisation, resize).
    Elementwise {
        /// Values touched.
        elems: u64,
        /// FLOPs per value.
        flops_per_elem: u32,
    },
    /// A non-CNN algorithm stage characterised directly by its execution
    /// profile (used for ORB-SLAM's pipeline, whose kernels have no
    /// layer-shaped description).
    Custom {
        /// Stage kind.
        kind: CustomStage,
        /// Useful FLOPs.
        flops: u64,
        /// Bytes moved.
        bytes: u64,
        /// Parallelisable fraction.
        parallel_fraction: f64,
        /// Achievable fraction of DRAM bandwidth.
        memory_efficiency: f64,
    },
}

/// Non-CNN algorithm stages characterised by [`Layer::Custom`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CustomStage {
    /// Image-pyramid feature extraction (FAST/ORB).
    FeatureExtraction,
    /// Descriptor matching.
    DescriptorMatching,
    /// Pose/bundle optimisation.
    PoseOptimisation,
}

/// How a layer's work presents to a platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerWork {
    /// GEMM-compatible: runs on systolic/TC hardware.
    Gemm(GemmShape),
    /// Massively parallel but GEMM-incompatible: needs SIMD
    /// programmability (or lowering, or a host CPU).
    Irregular {
        /// Useful FLOPs.
        flops: u64,
        /// Bytes moved.
        bytes: u64,
        /// Fraction of the op that parallelises across SIMD lanes
        /// (the rest serialises: control flow, dependencies).
        parallel_fraction: f64,
        /// Fraction of peak DRAM bandwidth the access pattern achieves
        /// (1.0 = streaming; gather/scatter patterns much less).
        memory_efficiency: f64,
    },
}

impl Layer {
    /// The layer's work characterisation.
    ///
    /// # Panics
    ///
    /// Panics if a convolution's declared input shape is inconsistent with
    /// its parameters — zoo construction bugs should fail loudly.
    #[must_use]
    pub fn work(&self) -> LayerWork {
        match *self {
            Layer::Conv2d { conv, input } => LayerWork::Gemm(
                conv.gemm_shape(input)
                    .expect("zoo layer shapes are consistent"),
            ),
            Layer::Linear {
                in_features,
                out_features,
                batch,
            } => LayerWork::Gemm(GemmShape::new(batch, out_features, in_features)),
            Layer::Pool {
                input,
                window,
                stride,
            } => {
                let out_h = (input.h - window) / stride + 1;
                let out_w = (input.w - window) / stride + 1;
                let elems = (input.c * out_h * out_w) as u64;
                LayerWork::Irregular {
                    flops: elems * (window * window) as u64,
                    bytes: (input.elements() + input.c * out_h * out_w) as u64 * 4,
                    parallel_fraction: 1.0,
                    memory_efficiency: 0.8,
                }
            }
            Layer::RoiAlign {
                rois,
                pooled,
                channels,
            } => {
                // 4 bilinear taps × ~8 flops per output bin-channel, plus
                // heavy gather traffic.
                let bins = (rois * pooled * pooled * channels) as u64;
                LayerWork::Irregular {
                    flops: bins * 32,
                    bytes: bins * 4 * 4,
                    parallel_fraction: 0.95,
                    memory_efficiency: 0.25, // bilinear gather
                }
            }
            Layer::Nms { boxes } => {
                // Pairwise IoU with early exit ≈ half the matrix, 16 flops
                // per pair, but intrinsically control-flow limited.
                let pairs = (boxes * boxes / 2) as u64;
                LayerWork::Irregular {
                    flops: pairs * 16,
                    bytes: (boxes * 16) as u64,
                    parallel_fraction: 0.60,
                    memory_efficiency: 0.5,
                }
            }
            Layer::ArgMax { pixels, classes } => LayerWork::Irregular {
                flops: (pixels * classes) as u64,
                bytes: (pixels * classes * 4) as u64,
                parallel_fraction: 1.0,
                memory_efficiency: 0.8,
            },
            Layer::Crf {
                pixels,
                classes,
                iterations,
            } => {
                // Dense-CRF mean-field with bilateral (permutohedral)
                // filtering: the lattice traffic, not the arithmetic,
                // dominates — ~30 gather/scatter touches per value per
                // iteration at poor locality.
                let values = (pixels * classes) as u64;
                LayerWork::Irregular {
                    flops: values * 60 * iterations as u64,
                    bytes: values * 4 * 30 * iterations as u64,
                    // The filtering is fully data-parallel; the cost is
                    // the gather-bound lattice traffic.
                    parallel_fraction: 1.0,
                    memory_efficiency: 0.15,
                }
            }
            Layer::Elementwise {
                elems,
                flops_per_elem,
            } => LayerWork::Irregular {
                flops: elems * u64::from(flops_per_elem),
                bytes: elems * 8,
                parallel_fraction: 1.0,
                memory_efficiency: 0.8,
            },
            Layer::Custom {
                flops,
                bytes,
                parallel_fraction,
                memory_efficiency,
                ..
            } => LayerWork::Irregular {
                flops,
                bytes,
                parallel_fraction,
                memory_efficiency,
            },
        }
    }

    /// True if the layer lowers to GEMM (conv/linear).
    #[must_use]
    pub fn is_gemm_compatible(&self) -> bool {
        matches!(self.work(), LayerWork::Gemm(_))
    }

    /// True if this is a convolution (the Table II census).
    #[must_use]
    pub(crate) fn is_conv(&self) -> bool {
        matches!(self, Layer::Conv2d { .. })
    }

    /// Useful FLOPs of the layer.
    #[must_use]
    pub fn flops(&self) -> u64 {
        match self.work() {
            LayerWork::Gemm(s) => s.flops(),
            LayerWork::Irregular { flops, .. } => flops,
        }
    }
}

impl LayerWork {
    /// The GEMM shape, if GEMM-compatible.
    #[must_use]
    pub(crate) fn gemm_shape(&self) -> Option<GemmShape> {
        match self {
            LayerWork::Gemm(s) => Some(*s),
            LayerWork::Irregular { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_layer_produces_im2col_gemm() {
        let l = Layer::Conv2d {
            conv: Conv2dParams::new(64, 128, 3, 1, 1),
            input: TensorShape::new(64, 56, 56),
        };
        match l.work() {
            LayerWork::Gemm(s) => {
                assert_eq!(s.m, 56 * 56);
                assert_eq!(s.n, 128);
                assert_eq!(s.k, 64 * 9);
            }
            LayerWork::Irregular { .. } => panic!("conv must be GEMM"),
        }
        assert!(l.is_gemm_compatible());
        assert!(l.is_conv());
    }

    #[test]
    fn linear_is_gemm_but_not_conv() {
        let l = Layer::Linear {
            in_features: 4096,
            out_features: 1000,
            batch: 1,
        };
        assert!(l.is_gemm_compatible());
        assert!(!l.is_conv());
        assert_eq!(l.flops(), 2 * 4096 * 1000);
    }

    #[test]
    fn hybrid_ops_are_irregular() {
        for l in [
            Layer::RoiAlign {
                rois: 1000,
                pooled: 7,
                channels: 256,
            },
            Layer::Nms { boxes: 1000 },
            Layer::ArgMax {
                pixels: 1 << 18,
                classes: 21,
            },
            Layer::Crf {
                pixels: 1 << 18,
                classes: 21,
                iterations: 10,
            },
        ] {
            assert!(!l.is_gemm_compatible(), "{l:?}");
            assert!(l.flops() > 0);
        }
    }

    #[test]
    fn nms_has_low_parallel_fraction() {
        let Layer::Nms { .. } = (Layer::Nms { boxes: 100 }) else {
            unreachable!()
        };
        match (Layer::Nms { boxes: 100 }).work() {
            LayerWork::Irregular {
                parallel_fraction, ..
            } => {
                assert!(parallel_fraction < 0.8);
            }
            LayerWork::Gemm(_) => panic!(),
        }
    }

    #[test]
    fn crf_flops_scale_with_iterations() {
        let f1 = Layer::Crf {
            pixels: 1000,
            classes: 21,
            iterations: 1,
        }
        .flops();
        let f10 = Layer::Crf {
            pixels: 1000,
            classes: 21,
            iterations: 10,
        }
        .flops();
        assert_eq!(f10, 10 * f1);
    }
}
