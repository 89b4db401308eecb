//! A miniature DeepLab-style hybrid pipeline, end to end and functional:
//! convolution (via im2col on the systolic mapper) → per-pixel softmax →
//! ArgMax → dense-CRF refinement — then the same network profiled on
//! every platform, reproducing the paper's §II argument that
//! over-specialised accelerators lose on hybrid models.
//!
//! ```sh
//! cargo run --example hybrid_segmentation
//! ```

use sma::core::{GemmMapper, SmaConfig};
use sma::models::ops;
use sma::models::zoo;
use sma::runtime::{Executor, Platform};
use sma::tensor::{im2col, Conv2dParams, Matrix, TensorShape};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Functional mini-pipeline ---------------------------------------
    // A 16x16 "image" with a bright square; a 3x3 conv producing 2 class
    // maps; CRF cleanup of the thresholded result.
    let (h, w) = (16usize, 16usize);
    let image = Matrix::from_fn(1, h * w, |_, p| {
        let (y, x) = (p / w, p % w);
        let inside = (4..12).contains(&y) && (4..12).contains(&x);
        // Salt-and-pepper sensor noise for the CRF to clean up.
        let noisy = matches!(p % 47, 0);
        match (inside, noisy) {
            (true, false) => 1.0,
            (true, true) => 0.0,
            (false, false) => 0.1,
            (false, true) => 1.2,
        }
    });
    let shape = TensorShape::new(1, h, w);
    let conv = Conv2dParams::new(1, 1, 3, 1, 1);

    // Lower the conv to GEMM and run it on the SMA mapper (real systolic
    // execution), exactly as the paper's stack does via img2col: a single
    // 3x3 mean detector.
    let patches = im2col(&image, shape, &conv)?;
    let weights = Matrix::from_fn(9, 1, |_, _| 1.0f32 / 9.0);
    let mapper = GemmMapper::new(SmaConfig::iso_area_3sma());
    let mean = mapper.execute(&patches, &weights)?.result; // (h*w) x 1

    // Head: threshold the local mean into 2-class logits (the GEMM path
    // cannot carry a bias, so the head adds it), then softmax.
    let mut scores = Matrix::from_fn(2, h * w, |c, p| {
        let logit = (mean[(p, 0)] - 0.62) * 8.0;
        if c == 1 {
            logit
        } else {
            -logit
        }
    });
    ops::softmax_inplace(&mut scores);
    let labels_raw = ops::argmax(&scores);

    // Mean-field CRF smooths stragglers at the square's border.
    let unary = scores.map(|p: f32| -(p.max(1e-6)).ln());
    let refined = ops::crf_mean_field(&unary, h, w, 5, 2.0);
    let labels = ops::argmax(&refined);

    let inside = labels[8 * w + 8];
    let outside = labels[0];
    println!("functional pipeline: centre pixel class {inside}, corner class {outside}");
    assert_ne!(inside, outside, "the square must be segmented");
    let changed = labels_raw
        .iter()
        .zip(&labels)
        .filter(|(a, b)| a != b)
        .count();
    println!("CRF refinement changed {changed} of {} pixels", h * w);

    // --- Platform comparison on the real DeepLab ------------------------
    println!("\nDeepLab (network portion) across platforms:");
    let net = zoo::deeplab();
    for p in Platform::ALL {
        let exec = Executor::builder(p).postprocessing(false).build();
        let prof = exec.try_run(&net)?;
        println!(
            "  {:<9} {:>7.1} ms (gemm {:>6.1} + irregular {:>5.1} + transfer {:>5.1})",
            p.label(),
            prof.total_ms,
            prof.gemm_ms,
            prof.irregular_ms - prof.transfer_ms,
            prof.transfer_ms
        );
    }
    Ok(())
}
