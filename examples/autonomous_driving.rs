//! The §V-C autonomous-driving study as a runnable scenario: per-platform
//! frame latency against the 100 ms target, then the detection-skipping
//! schedule that exploits SMA's dynamic mode reallocation.
//!
//! ```sh
//! cargo run --example autonomous_driving
//! ```

use sma::runtime::{DrivingPipeline, Platform};

fn main() {
    const TARGET_MS: f64 = 100.0;
    let pipeline =
        |p| DrivingPipeline::try_new(p).expect("GPU, TC and SMA all have programmable SIMD lanes");

    println!("Single-frame latency (DET + TRA + LOC), target {TARGET_MS} ms:\n");
    for p in [Platform::GpuSimd, Platform::GpuTensorCore, Platform::Sma3] {
        let pipe = pipeline(p);
        let s = pipe.schedule();
        let frame = pipe.frame_latency_ms();
        println!(
            "  {:<5} DET {:>5.1}  TRA {:>4.1}  LOC {:>4.1}  -> frame {:>6.1} ms  [{}]",
            p.label(),
            s.det_ms,
            s.tra_ms,
            s.loc_ms,
            frame,
            if frame <= TARGET_MS {
                "meets target"
            } else {
                "MISSES target"
            }
        );
    }

    println!("\nDetection every N frames (tracking covers the gaps):\n");
    println!("  N    4-TC ms   3-SMA ms   SMA advantage");
    let tc = pipeline(Platform::GpuTensorCore);
    let sma = pipeline(Platform::Sma3);
    for n in 1..=9 {
        let t = tc.frame_latency_skipping_ms(n);
        let s = sma.frame_latency_skipping_ms(n);
        println!(
            "  {n}    {t:>7.1}   {s:>8.1}   {:>5.1}%",
            (1.0 - s / t) * 100.0
        );
    }

    let s1 = sma.frame_latency_skipping_ms(1);
    let s4 = sma.frame_latency_skipping_ms(4);
    println!(
        "\nWith N = 4, SMA reduces frame latency by {:.0}% (paper: \"almost 50%\"):\n  {:.1} ms -> {:.1} ms",
        (1.0 - s4 / s1) * 100.0,
        s1,
        s4
    );
}
