//! Builders for the paper's workloads.
//!
//! Conv-layer counts are asserted against Table II: AlexNet 5, VGG-A 8,
//! GoogLeNet 57, Mask R-CNN 132, DeepLab 108. The hybrid models carry
//! their GEMM-incompatible operators exactly where Fig. 2 places them.

use crate::layer::{CustomStage, Layer};
use crate::network::Network;
use sma_tensor::{Conv2dParams, TensorShape};

fn conv(
    layers: &mut Vec<Layer>,
    shape: &mut TensorShape,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) {
    conv_dilated(layers, shape, out_c, kernel, stride, pad, 1);
}

fn conv_dilated(
    layers: &mut Vec<Layer>,
    shape: &mut TensorShape,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    dilation: usize,
) {
    let params = Conv2dParams::new(shape.c, out_c, kernel, stride, pad).with_dilation(dilation);
    layers.push(Layer::Conv2d {
        conv: params,
        input: *shape,
    });
    *shape = params
        .output_shape(*shape)
        .expect("zoo conv shapes are consistent");
}

fn pool2(layers: &mut Vec<Layer>, shape: &mut TensorShape) {
    layers.push(Layer::Pool {
        input: *shape,
        window: 2,
        stride: 2,
    });
    shape.h = (shape.h - 2) / 2 + 1;
    shape.w = (shape.w - 2) / 2 + 1;
}

/// AlexNet (5 conv layers, ImageNet 227×227).
#[must_use]
pub fn alexnet() -> Network {
    let mut l = Vec::new();
    let mut s = TensorShape::new(3, 227, 227);
    conv(&mut l, &mut s, 64, 11, 4, 2);
    pool2(&mut l, &mut s);
    conv(&mut l, &mut s, 192, 5, 1, 2);
    pool2(&mut l, &mut s);
    conv(&mut l, &mut s, 384, 3, 1, 1);
    conv(&mut l, &mut s, 256, 3, 1, 1);
    conv(&mut l, &mut s, 256, 3, 1, 1);
    pool2(&mut l, &mut s);
    let feat = s.elements();
    l.push(Layer::Linear {
        in_features: feat,
        out_features: 4096,
        batch: 1,
    });
    l.push(Layer::Linear {
        in_features: 4096,
        out_features: 4096,
        batch: 1,
    });
    l.push(Layer::Linear {
        in_features: 4096,
        out_features: 1000,
        batch: 1,
    });
    Network::new("AlexNet", l)
}

/// VGG-A / VGG-11 (8 conv layers, ImageNet 224×224).
#[must_use]
pub fn vgg_a() -> Network {
    let mut l = Vec::new();
    let mut s = TensorShape::new(3, 224, 224);
    conv(&mut l, &mut s, 64, 3, 1, 1);
    pool2(&mut l, &mut s);
    conv(&mut l, &mut s, 128, 3, 1, 1);
    pool2(&mut l, &mut s);
    conv(&mut l, &mut s, 256, 3, 1, 1);
    conv(&mut l, &mut s, 256, 3, 1, 1);
    pool2(&mut l, &mut s);
    conv(&mut l, &mut s, 512, 3, 1, 1);
    conv(&mut l, &mut s, 512, 3, 1, 1);
    pool2(&mut l, &mut s);
    conv(&mut l, &mut s, 512, 3, 1, 1);
    conv(&mut l, &mut s, 512, 3, 1, 1);
    pool2(&mut l, &mut s);
    let feat = s.elements();
    l.push(Layer::Linear {
        in_features: feat,
        out_features: 4096,
        batch: 1,
    });
    l.push(Layer::Linear {
        in_features: 4096,
        out_features: 4096,
        batch: 1,
    });
    l.push(Layer::Linear {
        in_features: 4096,
        out_features: 1000,
        batch: 1,
    });
    Network::new("VGG-A", l)
}

/// One GoogLeNet inception module: 6 convolutions.
#[expect(
    clippy::too_many_arguments,
    reason = "the six branch widths are GoogLeNet's table columns, in its order"
)]
fn inception(
    l: &mut Vec<Layer>,
    s: &TensorShape,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    cp: usize,
) -> TensorShape {
    let mut b = *s;
    conv(l, &mut b, c1, 1, 1, 0); // 1x1 branch
    let mut b3 = *s;
    conv(l, &mut b3, c3r, 1, 1, 0); // 3x3 reduce
    conv(l, &mut b3, c3, 3, 1, 1);
    let mut b5 = *s;
    conv(l, &mut b5, c5r, 1, 1, 0); // 5x5 reduce
    conv(l, &mut b5, c5, 5, 1, 2);
    let mut bp = *s;
    conv(l, &mut bp, cp, 1, 1, 0); // pool projection
    TensorShape::new(c1 + c3 + c5 + cp, s.h, s.w)
}

/// GoogLeNet (57 conv layers: 3 stem + 9 inception modules × 6).
#[must_use]
pub fn googlenet() -> Network {
    let mut l = Vec::new();
    let mut s = TensorShape::new(3, 224, 224);
    conv(&mut l, &mut s, 64, 7, 2, 3);
    pool2(&mut l, &mut s);
    conv(&mut l, &mut s, 64, 1, 1, 0);
    conv(&mut l, &mut s, 192, 3, 1, 1);
    pool2(&mut l, &mut s);
    s = inception(&mut l, &s, 64, 96, 128, 16, 32, 32);
    s = inception(&mut l, &s, 128, 128, 192, 32, 96, 64);
    pool2(&mut l, &mut s);
    s = inception(&mut l, &s, 192, 96, 208, 16, 48, 64);
    s = inception(&mut l, &s, 160, 112, 224, 24, 64, 64);
    s = inception(&mut l, &s, 128, 128, 256, 24, 64, 64);
    s = inception(&mut l, &s, 112, 144, 288, 32, 64, 64);
    s = inception(&mut l, &s, 256, 160, 320, 32, 128, 128);
    pool2(&mut l, &mut s);
    s = inception(&mut l, &s, 256, 160, 320, 32, 128, 128);
    s = inception(&mut l, &s, 384, 192, 384, 48, 128, 128);
    l.push(Layer::Linear {
        in_features: s.c,
        out_features: 1000,
        batch: 1,
    });
    Network::new("GoogLeNet", l)
}

/// One ResNet bottleneck (3 convs; +1 projection when requested).
fn bottleneck(
    l: &mut Vec<Layer>,
    s: &mut TensorShape,
    mid: usize,
    out: usize,
    stride: usize,
    dilation: usize,
    project: bool,
) {
    if project {
        let mut side = *s;
        conv(l, &mut side, out, 1, stride, 0);
    }
    conv(l, s, mid, 1, 1, 0);
    conv_dilated(l, s, mid, 3, stride, dilation, dilation);
    conv(l, s, out, 1, 1, 0);
}

/// ResNet-101 trunk: 104 convolutions (1 stem + 33 bottlenecks × 3 + 4
/// projections). `dilate_tail` switches layer3/4 to stride-1 atrous
/// convolution (DeepLab's output-stride-8 variant).
fn resnet101(l: &mut Vec<Layer>, s: &mut TensorShape, dilate_tail: bool) -> [TensorShape; 4] {
    conv(l, s, 64, 7, 2, 3);
    pool2(l, s);
    let mut stages = [TensorShape::new(0, 0, 0); 4];
    // layer1: 3 blocks, 64/256.
    bottleneck(l, s, 64, 256, 1, 1, true);
    for _ in 0..2 {
        bottleneck(l, s, 64, 256, 1, 1, false);
    }
    stages[0] = *s;
    // layer2: 4 blocks, 128/512, stride 2.
    bottleneck(l, s, 128, 512, 2, 1, true);
    for _ in 0..3 {
        bottleneck(l, s, 128, 512, 1, 1, false);
    }
    stages[1] = *s;
    // layer3: 23 blocks, 256/1024.
    let (s3, d3) = if dilate_tail { (1, 2) } else { (2, 1) };
    bottleneck(l, s, 256, 1024, s3, d3, true);
    for _ in 0..22 {
        bottleneck(l, s, 256, 1024, 1, d3, false);
    }
    stages[2] = *s;
    // layer4: 3 blocks, 512/2048.
    let (s4, d4) = if dilate_tail { (1, 4) } else { (2, 1) };
    bottleneck(l, s, 512, 2048, s4, d4, true);
    for _ in 0..2 {
        bottleneck(l, s, 512, 2048, 1, d4, false);
    }
    stages[3] = *s;
    stages
}

/// Mask R-CNN (132 conv layers) with a ResNet-101-FPN backbone at
/// 1024×1024: 104 backbone + 8 FPN + 15 RPN (3 convs × 5 levels) +
/// 5 mask-head convs, plus RoIAlign, RegionProposal NMS and the box-head
/// linears (Fig. 2 top).
#[must_use]
pub fn mask_rcnn() -> Network {
    let mut l = Vec::new();
    let mut s = TensorShape::new(3, 1024, 1024);
    let stages = resnet101(&mut l, &mut s, false);

    // FPN: lateral 1×1 + output 3×3 per pyramid level.
    for st in &stages {
        let mut lat = *st;
        conv(&mut l, &mut lat, 256, 1, 1, 0);
        conv(&mut l, &mut lat, 256, 3, 1, 1);
    }

    // RPN on P2..P6 (P6 = strided copy of P5's extent).
    let p6 = TensorShape::new(256, stages[3].h / 2, stages[3].w / 2);
    let levels = [
        TensorShape::new(256, stages[0].h, stages[0].w),
        TensorShape::new(256, stages[1].h, stages[1].w),
        TensorShape::new(256, stages[2].h, stages[2].w),
        TensorShape::new(256, stages[3].h, stages[3].w),
        p6,
    ];
    for lvl in &levels {
        let mut t = *lvl;
        conv(&mut l, &mut t, 256, 3, 1, 1);
        let mut o = t;
        conv(&mut l, &mut o, 3, 1, 1, 0); // objectness
        let mut b = t;
        conv(&mut l, &mut b, 12, 1, 1, 0); // box deltas
    }

    // Region proposal: top-k + NMS over the anchor scores.
    l.push(Layer::Nms { boxes: 1000 });

    // Detection branch: RoIAlign 7×7 + 2-layer FC head + predictors.
    l.push(Layer::RoiAlign {
        rois: 1000,
        pooled: 7,
        channels: 256,
    });
    l.push(Layer::Linear {
        in_features: 256 * 7 * 7,
        out_features: 1024,
        batch: 1000,
    });
    l.push(Layer::Linear {
        in_features: 1024,
        out_features: 1024,
        batch: 1000,
    });
    l.push(Layer::Linear {
        in_features: 1024,
        out_features: 81 * 5,
        batch: 1000,
    });
    l.push(Layer::Nms { boxes: 1000 }); // per-class result NMS

    // Mask branch: RoIAlign 14×14 + 4 convs + predictor (the deconv is
    // the elementwise upsample).
    l.push(Layer::RoiAlign {
        rois: 100,
        pooled: 14,
        channels: 256,
    });
    let mut ms = TensorShape::new(256, 14, 14);
    for _ in 0..4 {
        conv(&mut l, &mut ms, 256, 3, 1, 1);
    }
    l.push(Layer::Elementwise {
        elems: (256 * 28 * 28) as u64,
        flops_per_elem: 8,
    });
    let mut mp = TensorShape::new(256, 28, 28);
    conv(&mut l, &mut mp, 81, 1, 1, 0);
    Network::new("Mask R-CNN", l)
}

/// DeepLab (108 conv layers): dilated ResNet-101 at 513×513 + 4-branch
/// ASPP head, then bilinear upsample, per-pixel ArgMax and dense-CRF
/// refinement (Fig. 2 bottom).
#[must_use]
pub fn deeplab() -> Network {
    let mut l = Vec::new();
    let mut s = TensorShape::new(3, 513, 513);
    let _ = resnet101(&mut l, &mut s, true);

    // ASPP: four parallel dilated 3×3 convs onto 21 classes.
    for d in [6, 12, 18, 24] {
        let mut b = s;
        conv_dilated(&mut l, &mut b, 21, 3, 1, d, d);
    }
    // Fuse + bilinear upsample to full resolution.
    l.push(Layer::Elementwise {
        elems: (21 * 513 * 513) as u64,
        flops_per_elem: 8,
    });
    l.push(Layer::ArgMax {
        pixels: 513 * 513,
        classes: 21,
    });
    l.push(Layer::Crf {
        pixels: 513 * 513,
        classes: 21,
        iterations: 10,
    });
    Network::new("DeepLab", l)
}

/// GOTURN tracker (Fig. 9 "TRA"): two CaffeNet conv branches on the
/// previous/current crops + 3 fused FC layers.
#[must_use]
pub fn goturn() -> Network {
    let mut l = Vec::new();
    for _ in 0..2 {
        let mut s = TensorShape::new(3, 227, 227);
        conv(&mut l, &mut s, 96, 11, 4, 0);
        pool2(&mut l, &mut s);
        conv(&mut l, &mut s, 256, 5, 1, 2);
        pool2(&mut l, &mut s);
        conv(&mut l, &mut s, 384, 3, 1, 1);
        conv(&mut l, &mut s, 384, 3, 1, 1);
        conv(&mut l, &mut s, 256, 3, 1, 1);
        pool2(&mut l, &mut s);
    }
    l.push(Layer::Linear {
        in_features: 2 * 256 * 6 * 6,
        out_features: 4096,
        batch: 1,
    });
    l.push(Layer::Linear {
        in_features: 4096,
        out_features: 4096,
        batch: 1,
    });
    l.push(Layer::Linear {
        in_features: 4096,
        out_features: 4,
        batch: 1,
    });
    Network::new("GOTURN", l)
}

/// ORB-SLAM localisation (Fig. 9 "LOC") — not CNN-based. The three stages
/// are characterised by their GPU execution profile (Lin et al. \[13\]
/// report localisation in the tens of milliseconds on server hardware):
/// pyramid/FAST/ORB extraction is compute-parallel, matching is branchy,
/// pose optimisation is a mostly serial solver.
#[must_use]
pub fn orb_slam() -> Network {
    Network::new(
        "ORB-SLAM",
        vec![
            Layer::Custom {
                kind: CustomStage::FeatureExtraction,
                flops: 90_000_000_000,
                bytes: 600_000_000,
                parallel_fraction: 1.0,
                memory_efficiency: 0.6,
            },
            Layer::Custom {
                kind: CustomStage::DescriptorMatching,
                flops: 12_000_000_000,
                bytes: 200_000_000,
                parallel_fraction: 1.0,
                memory_efficiency: 0.5,
            },
            // The solver is the serial tail: a few MFLOPs of sparse
            // linear algebra that no amount of lanes accelerates.
            Layer::Custom {
                kind: CustomStage::PoseOptimisation,
                flops: 6_000_000,
                bytes: 50_000_000,
                parallel_fraction: 0.0,
                memory_efficiency: 0.7,
            },
        ],
    )
}

/// Every network the evaluation touches: the Table II census plus the
/// autonomous-driving models — the single list the sweep grids and the
/// parity/serving fixtures all iterate.
#[must_use]
pub fn evaluation_networks() -> Vec<Network> {
    let mut nets = table2_models();
    nets.push(goturn());
    nets.push(orb_slam());
    nets
}

/// The five Table II models in paper order.
#[must_use]
pub fn table2_models() -> Vec<Network> {
    vec![alexnet(), vgg_a(), googlenet(), mask_rcnn(), deeplab()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_conv_counts_match_paper() {
        assert_eq!(alexnet().conv_layers(), 5, "AlexNet");
        assert_eq!(vgg_a().conv_layers(), 8, "VGG-A");
        assert_eq!(googlenet().conv_layers(), 57, "GoogLeNet");
        assert_eq!(mask_rcnn().conv_layers(), 132, "Mask R-CNN");
        assert_eq!(deeplab().conv_layers(), 108, "DeepLab");
    }

    #[test]
    fn hybrid_census_matches_fig2() {
        assert!(!alexnet().is_hybrid() || alexnet().irregular_work().len() <= 3);
        assert!(mask_rcnn().is_hybrid());
        assert!(deeplab().is_hybrid());
        // Mask R-CNN: 2 NMS + 2 RoIAlign among its irregular ops.
        let mr = mask_rcnn();
        let n_nms = mr
            .layers()
            .iter()
            .filter(|x| matches!(x, Layer::Nms { .. }))
            .count();
        assert_eq!(n_nms, 2);
        let n_roi = mr
            .layers()
            .iter()
            .filter(|x| matches!(x, Layer::RoiAlign { .. }))
            .count();
        assert_eq!(n_roi, 2);
        // DeepLab: ArgMax + CRF.
        let dl = deeplab();
        assert!(dl
            .layers()
            .iter()
            .any(|x| matches!(x, Layer::ArgMax { .. })));
        assert!(dl.layers().iter().any(|x| matches!(x, Layer::Crf { .. })));
    }

    #[test]
    fn flop_magnitudes_are_plausible() {
        // Inference FLOPs (batch 1): AlexNet ~1.4 G, VGG-A ~15 G,
        // GoogLeNet ~3 G, Mask R-CNN hundreds of G, DeepLab hundreds of G.
        let a = alexnet().total_flops() as f64 / 1e9;
        assert!((1.0..3.0).contains(&a), "AlexNet {a:.2} GFLOPs");
        let v = vgg_a().total_flops() as f64 / 1e9;
        assert!((12.0..20.0).contains(&v), "VGG-A {v:.2} GFLOPs");
        let g = googlenet().total_flops() as f64 / 1e9;
        assert!((2.0..5.0).contains(&g), "GoogLeNet {g:.2} GFLOPs");
        let m = mask_rcnn().total_flops() as f64 / 1e9;
        assert!((200.0..1000.0).contains(&m), "Mask R-CNN {m:.1} GFLOPs");
        let d = deeplab().total_flops() as f64 / 1e9;
        assert!((150.0..800.0).contains(&d), "DeepLab {d:.1} GFLOPs");
    }

    #[test]
    fn gemm_dominates_even_hybrid_models() {
        for net in table2_models() {
            assert!(
                net.gemm_fraction() > 0.85,
                "{}: gemm fraction {:.3}",
                net.name(),
                net.gemm_fraction()
            );
        }
    }

    #[test]
    fn goturn_and_orbslam_shapes() {
        assert_eq!(goturn().conv_layers(), 10);
        assert!(goturn().gemm_fraction() > 0.9);
        assert_eq!(orb_slam().conv_layers(), 0);
        assert!(orb_slam().is_hybrid());
    }

    #[test]
    fn all_gemm_shapes_are_valid() {
        for net in table2_models() {
            for s in net.gemm_shapes() {
                assert!(s.m > 0 && s.n > 0 && s.k > 0, "{}: {s}", net.name());
            }
        }
    }
}
