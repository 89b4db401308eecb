//! Functional implementations of the hybrid (GEMM-incompatible)
//! operators.
//!
//! These are the operations §II-B shows falling off the accelerator
//! cliff: RoIAlign's bilinear gather, RegionProposal's control-flow-heavy
//! NMS, DeepLab's ArgMax and dense-CRF mean-field refinement. Each is
//! implemented functionally (the simulators charge their *cost models*;
//! these verify the semantics and feed the examples).

use sma_tensor::Matrix;

/// An axis-aligned box `(x1, y1, x2, y2)` with a detection score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredBox {
    /// Left edge.
    pub x1: f32,
    /// Top edge.
    pub y1: f32,
    /// Right edge.
    pub x2: f32,
    /// Bottom edge.
    pub y2: f32,
    /// Detection score.
    pub score: f32,
}

impl ScoredBox {
    /// Creates a box; coordinates are normalised so `x1 ≤ x2`, `y1 ≤ y2`.
    #[must_use]
    pub fn new(x1: f32, y1: f32, x2: f32, y2: f32, score: f32) -> Self {
        ScoredBox {
            x1: x1.min(x2),
            y1: y1.min(y2),
            x2: x1.max(x2),
            y2: y1.max(y2),
            score,
        }
    }

    /// Box area (zero for degenerate boxes).
    #[must_use]
    pub(crate) fn area(&self) -> f32 {
        (self.x2 - self.x1).max(0.0) * (self.y2 - self.y1).max(0.0)
    }

    /// Intersection-over-union with another box.
    #[must_use]
    pub fn iou(&self, other: &ScoredBox) -> f32 {
        let ix = (self.x2.min(other.x2) - self.x1.max(other.x1)).max(0.0);
        let iy = (self.y2.min(other.y2) - self.y1.max(other.y1)).max(0.0);
        let inter = ix * iy;
        let union = self.area() + other.area() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// Greedy non-max suppression: keeps the highest-scoring boxes whose IoU
/// with every already-kept box is below `threshold`. Returns indices into
/// `boxes` in keep order.
///
/// This is the control-flow-intensive algorithm the TPU cannot run
/// natively (§II-B) — the early exit and data-dependent suppression are
/// exactly what the GEMM lowering loses.
#[must_use]
pub fn nms(boxes: &[ScoredBox], threshold: f32) -> Vec<usize> {
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_by(|&a, &b| boxes[b].score.total_cmp(&boxes[a].score));
    let mut keep = Vec::new();
    let mut suppressed = vec![false; boxes.len()];
    for &i in &order {
        if suppressed[i] {
            continue;
        }
        keep.push(i);
        for &j in &order {
            if !suppressed[j] && j != i && boxes[i].iou(&boxes[j]) > threshold {
                suppressed[j] = true;
            }
        }
    }
    keep
}

/// RoIAlign: bilinear crop-and-resize of one channel plane.
///
/// `feature` is an `h×w` map; `roi` is `(x1, y1, x2, y2)` in continuous
/// feature coordinates; the output is `pooled×pooled`, each bin sampled at
/// its centre with bilinear interpolation (1 sample per bin — the
/// simplified variant; the 4-sample variant averages four of these).
#[must_use]
pub fn roi_align(feature: &Matrix<f32>, roi: (f32, f32, f32, f32), pooled: usize) -> Matrix<f32> {
    let (x1, y1, x2, y2) = roi;
    let bin_h = (y2 - y1) / pooled as f32;
    let bin_w = (x2 - x1) / pooled as f32;
    Matrix::from_fn(pooled, pooled, |py, px| {
        let cy = y1 + (py as f32 + 0.5) * bin_h;
        let cx = x1 + (px as f32 + 0.5) * bin_w;
        bilinear(feature, cy, cx)
    })
}

/// Bilinear sample of a feature map at continuous coordinates, with
/// zero padding outside. A coordinate whose 2×2 neighbourhood misses
/// the map entirely — NaN and ±∞ included — reads the padding, 0.0.
#[must_use]
pub(crate) fn bilinear(feature: &Matrix<f32>, y: f32, x: f32) -> f32 {
    #[expect(
        clippy::disallowed_methods,
        reason = "checked: a floor() result indexes the map only inside -1..len (NaN and ±∞ fail that test), where its isize cast is exact and the + 1 neighbour cannot overflow"
    )]
    let (y0, x0) = (y.floor(), x.floor());
    let (rows, cols) = feature.shape();
    // The top-left neighbour's index, or `None` when the whole 2×2
    // neighbourhood lies outside `0..len`.
    let corner =
        |floor: f32, len: usize| (floor >= -1.0 && floor < len as f32).then_some(floor as isize);
    let (Some(r0), Some(c0)) = (corner(y0, rows), corner(x0, cols)) else {
        return 0.0;
    };
    let dy = y - y0;
    let dx = x - x0;
    let at = |r: isize, c: isize| -> f32 {
        if r < 0 || c < 0 {
            0.0
        } else {
            feature.get(r as usize, c as usize).copied().unwrap_or(0.0)
        }
    };
    at(r0, c0) * (1.0 - dy) * (1.0 - dx)
        + at(r0, c0 + 1) * (1.0 - dy) * dx
        + at(r0 + 1, c0) * dy * (1.0 - dx)
        + at(r0 + 1, c0 + 1) * dy * dx
}

/// Per-pixel argmax over class score maps. `scores` is `classes × pixels`;
/// returns the winning class per pixel.
#[must_use]
pub fn argmax(scores: &Matrix<f32>) -> Vec<usize> {
    let (classes, pixels) = scores.shape();
    (0..pixels)
        .map(|p| {
            let mut best = 0;
            let mut best_v = f32::NEG_INFINITY;
            for c in 0..classes {
                let v = scores[(c, p)];
                if v > best_v {
                    best_v = v;
                    best = c;
                }
            }
            best
        })
        .collect()
}

/// Per-pixel softmax over class maps (`classes × pixels`), in place.
pub fn softmax_inplace(scores: &mut Matrix<f32>) {
    let (classes, pixels) = scores.shape();
    for p in 0..pixels {
        let mut max = f32::NEG_INFINITY;
        for c in 0..classes {
            max = max.max(scores[(c, p)]);
        }
        let mut sum = 0.0;
        for c in 0..classes {
            let e = (scores[(c, p)] - max).exp();
            scores[(c, p)] = e;
            sum += e;
        }
        for c in 0..classes {
            scores[(c, p)] /= sum;
        }
    }
}

/// Dense-CRF mean-field inference on a `height×width` grid (Krähenbühl &
/// Koltun simplified to a grid-Gaussian pairwise kernel, which is the
/// dominant cost path in the DeepLab post-processing \[11\]).
///
/// `unary` is `classes × (h·w)` with *negative log* probabilities;
/// `iterations` mean-field updates with a 3×3 Gaussian spatial filter and
/// Potts compatibility of weight `w_pairwise`. Returns the refined class
/// probabilities (`classes × pixels`).
#[must_use]
pub fn crf_mean_field(
    unary: &Matrix<f32>,
    height: usize,
    width: usize,
    iterations: usize,
    w_pairwise: f32,
) -> Matrix<f32> {
    let classes = unary.rows();
    assert_eq!(
        unary.cols(),
        height * width,
        "unary must be classes x pixels"
    );

    // Q starts as softmax(-unary).
    let mut q = unary.map(|v| -v);
    softmax_inplace(&mut q);

    // 3×3 Gaussian weights.
    let kernel = [
        (-1i32, -1i32, 0.0625f32),
        (-1, 0, 0.125),
        (-1, 1, 0.0625),
        (0, -1, 0.125),
        (0, 0, 0.25),
        (0, 1, 0.125),
        (1, -1, 0.0625),
        (1, 0, 0.125),
        (1, 1, 0.0625),
    ];

    for _ in 0..iterations {
        // Message passing: filtered Q.
        let mut filtered = Matrix::<f32>::zeros(classes, height * width);
        for c in 0..classes {
            for y in 0..height {
                for x in 0..width {
                    let mut acc = 0.0;
                    for &(dy, dx, w) in &kernel {
                        let ny = y as i32 + dy;
                        let nx = x as i32 + dx;
                        if ny >= 0 && nx >= 0 && (ny as usize) < height && (nx as usize) < width {
                            acc += w * q[(c, ny as usize * width + nx as usize)];
                        }
                    }
                    filtered[(c, y * width + x)] = acc;
                }
            }
        }
        // Compatibility transform (Potts) + unary, then renormalise.
        for p in 0..height * width {
            let total: f32 = (0..classes).map(|c| filtered[(c, p)]).sum();
            for c in 0..classes {
                // Penalise mass assigned to *other* classes.
                let other = total - filtered[(c, p)];
                q[(c, p)] = -unary[(c, p)] - w_pairwise * other;
            }
        }
        softmax_inplace(&mut q);
    }
    q
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
    )]

    use super::*;

    #[test]
    fn iou_basics() {
        let a = ScoredBox::new(0.0, 0.0, 2.0, 2.0, 1.0);
        let b = ScoredBox::new(1.0, 1.0, 3.0, 3.0, 0.5);
        // Intersection 1, union 7.
        assert!((a.iou(&b) - 1.0 / 7.0).abs() < 1e-6);
        assert_eq!(a.iou(&a), 1.0);
        let far = ScoredBox::new(10.0, 10.0, 11.0, 11.0, 0.1);
        assert_eq!(a.iou(&far), 0.0);
    }

    #[test]
    fn box_normalises_corners() {
        let b = ScoredBox::new(2.0, 3.0, 0.0, 1.0, 0.9);
        assert!(b.x1 <= b.x2 && b.y1 <= b.y2);
        assert!((b.area() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn nms_keeps_best_and_suppresses_overlaps() {
        let boxes = vec![
            ScoredBox::new(0.0, 0.0, 2.0, 2.0, 0.9),
            ScoredBox::new(0.1, 0.1, 2.1, 2.1, 0.8), // heavy overlap with 0
            ScoredBox::new(5.0, 5.0, 7.0, 7.0, 0.7), // disjoint
        ];
        let keep = nms(&boxes, 0.5);
        assert_eq!(keep, vec![0, 2]);
    }

    #[test]
    fn nms_respects_threshold() {
        let boxes = vec![
            ScoredBox::new(0.0, 0.0, 2.0, 2.0, 0.9),
            ScoredBox::new(1.0, 0.0, 3.0, 2.0, 0.8), // IoU = 1/3
        ];
        assert_eq!(nms(&boxes, 0.5).len(), 2); // below threshold: keep
        assert_eq!(nms(&boxes, 0.2).len(), 1); // above: suppress
    }

    #[test]
    fn nms_empty_input() {
        assert!(nms(&[], 0.5).is_empty());
    }

    #[test]
    fn bilinear_interpolates_exactly_on_grid() {
        let f = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(bilinear(&f, 1.0, 2.0), 6.0);
        // Midpoint between (0,0)=0 and (0,1)=1.
        assert!((bilinear(&f, 0.0, 0.5) - 0.5).abs() < 1e-6);
        // Centre of the top-left 2x2: mean of 0,1,4,5.
        assert!((bilinear(&f, 0.5, 0.5) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn roi_align_reads_zero_padding_for_non_finite_and_huge_rois() {
        let f = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let out = roi_align(&f, (0.0, 1e30, 1.0, 2e30), 1);
        assert_eq!(out.as_slice(), [0.0]);
        let values = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e30,
            -1e30,
            f32::MIN_POSITIVE / 2.0,
            0.0,
            1.5,
        ];
        for &x1 in &values {
            for &y1 in &values {
                for &x2 in &values {
                    for &y2 in &values {
                        let out = roi_align(&f, (x1, y1, x2, y2), 2);
                        assert!(
                            out.as_slice().iter().all(|v| v.is_finite()),
                            "roi ({x1}, {y1}, {x2}, {y2}) sampled {:?}",
                            out.as_slice()
                        );
                    }
                }
            }
        }
        assert_eq!(bilinear(&f, f32::NAN, 1.0), 0.0);
        assert_eq!(bilinear(&f, 1.0, f32::NEG_INFINITY), 0.0);
        // The padding ring still interpolates: half of (0,1) = 1 and
        // half of the zero row above it.
        assert_eq!(bilinear(&f, -0.5, 1.0), 0.5);
    }

    #[test]
    fn roi_align_constant_map_is_constant() {
        let f = Matrix::from_fn(16, 16, |_, _| 3.25f32);
        let out = roi_align(&f, (2.0, 2.0, 10.0, 10.0), 7);
        assert!(out.as_slice().iter().all(|&v| (v - 3.25).abs() < 1e-6));
    }

    #[test]
    fn roi_align_gradient_map_is_monotone() {
        let f = Matrix::from_fn(16, 16, |_, c| c as f32);
        let out = roi_align(&f, (1.0, 1.0, 13.0, 13.0), 4);
        for r in 0..4 {
            for c in 1..4 {
                assert!(out[(r, c)] > out[(r, c - 1)]);
            }
        }
    }

    #[test]
    fn argmax_picks_winners() {
        let scores = Matrix::from_vec(
            3,
            2,
            vec![
                0.1, 0.9, // class 0
                0.8, 0.2, // class 1
                0.3, 0.3, // class 2
            ],
        )
        .unwrap();
        assert_eq!(argmax(&scores), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_fn(4, 6, |r, c| (r as f32) - (c as f32) * 0.3);
        softmax_inplace(&mut m);
        for p in 0..6 {
            let s: f32 = (0..4).map(|c| m[(c, p)]).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn crf_smooths_salt_noise() {
        // A 9×9 field strongly preferring class 0 everywhere except one
        // noisy centre pixel preferring class 1. CRF should flip it back.
        let (h, w) = (9, 9);
        let mut unary = Matrix::<f32>::zeros(2, h * w);
        for p in 0..h * w {
            unary[(0, p)] = 0.2; // -log p: low cost for class 0
            unary[(1, p)] = 2.0;
        }
        let centre = 4 * w + 4;
        unary[(0, centre)] = 2.0;
        unary[(1, centre)] = 0.2;

        let before = argmax(&{
            let mut q = unary.map(|v| -v);
            softmax_inplace(&mut q);
            q
        });
        assert_eq!(before[centre], 1);

        let q = crf_mean_field(&unary, h, w, 5, 3.0);
        let after = argmax(&q);
        assert_eq!(after[centre], 0, "CRF should smooth the outlier");
        // And the rest of the field must stay class 0.
        assert!(after.iter().all(|&c| c == 0));
    }

    #[test]
    fn crf_preserves_strong_boundaries() {
        // Left half prefers class 0, right half class 1, strongly. The
        // CRF must not erase the boundary.
        let (h, w) = (8, 8);
        let mut unary = Matrix::<f32>::zeros(2, h * w);
        for y in 0..h {
            for x in 0..w {
                let p = y * w + x;
                if x < w / 2 {
                    unary[(0, p)] = 0.05;
                    unary[(1, p)] = 3.0;
                } else {
                    unary[(0, p)] = 3.0;
                    unary[(1, p)] = 0.05;
                }
            }
        }
        let q = crf_mean_field(&unary, h, w, 5, 1.0);
        let labels = argmax(&q);
        for y in 0..h {
            assert_eq!(labels[y * w], 0);
            assert_eq!(labels[y * w + w - 1], 1);
        }
    }
}
