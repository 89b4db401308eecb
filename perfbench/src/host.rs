//! Host-speed normalisation of iteration times.
//!
//! The benchmark runs on a small shared host whose speed drifts by a
//! fifth to a half between runs, and by as much within one. A fixed
//! kernel built only from std (allocation, a B-tree, a sort, so it
//! stresses the host the way the serving engine does) runs after every
//! timed iteration, outside the iteration's time. Each iteration is
//! rescaled to the reference host speed by the median kernel time of the
//! iterations around it, so a reported time reads as host ms on the
//! reference host. The program's code never runs inside the kernel, so
//! a change to the program moves the normalised times as it moves the
//! raw ones.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference host, ms: a 2-core shared
/// x86-64 VM in a quiet period. Normalised times are ms on that host.
pub const REFERENCE_MS: f64 = 3.0;
/// Kernel samples on each side of an iteration that set its host speed.
pub const WINDOW: usize = 8;
/// Keys the kernel inserts (and elements it sorts).
const KERNEL_KEYS: u64 = 20_000;

/// Runs the calibration kernel once and returns its host time, ms. The
/// work is the same on every call.
#[must_use]
pub fn kernel() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut tree = BTreeMap::new();
    let mut keys = Vec::with_capacity(KERNEL_KEYS as usize);
    for i in 0..KERNEL_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.insert(x % (KERNEL_KEYS * 5 / 2), i);
        keys.push(x);
    }
    keys.sort_unstable();
    black_box(tree.values().sum::<u64>() + keys[keys.len() / 2]);
    drop(black_box(tree));
    t.elapsed().as_secs_f64() * 1e3
}

/// `ms[i]` rescaled to the reference host: times `REFERENCE_MS` over
/// the median of `kernel_ms[i - WINDOW ..= i + WINDOW]` (clipped at the
/// ends). `kernel_ms[i]` is the kernel run right after sample `i`.
///
/// # Panics
///
/// Panics when the two slices differ in length.
#[must_use]
pub fn normalise(ms: &[f64], kernel_ms: &[f64]) -> Vec<f64> {
    assert_eq!(ms.len(), kernel_ms.len(), "one kernel time per sample");
    (0..ms.len())
        .map(|i| {
            let window = &kernel_ms[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(ms.len())];
            ms[i] * REFERENCE_MS / median(window)
        })
        .collect()
}

/// `value` (a host time in any unit) rescaled to the reference host by
/// the median of a window's worth of kernel runs made now.
#[must_use]
pub fn normalise_now(value: f64) -> f64 {
    let kernel_ms: Vec<f64> = (0..=2 * WINDOW).map(|_| kernel()).collect();
    value * REFERENCE_MS / median(&kernel_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_leaves_times_alone_and_slow_hosts_scale_down() {
        let ms = [10.0, 20.0, 30.0];
        assert_eq!(normalise(&ms, &[REFERENCE_MS; 3]), ms.to_vec());
        assert_eq!(
            normalise(&ms, &[2.0 * REFERENCE_MS; 3]),
            vec![5.0, 10.0, 15.0]
        );
    }

    #[test]
    fn one_slow_kernel_sample_does_not_move_its_window() {
        let ms = vec![4.0; 2 * WINDOW + 1];
        let mut kernel_ms = vec![REFERENCE_MS; ms.len()];
        kernel_ms[WINDOW] = 100.0 * REFERENCE_MS;
        assert_eq!(normalise(&ms, &kernel_ms), ms);
    }

    #[test]
    fn the_window_follows_a_drift() {
        let n = 4 * WINDOW;
        let ms = vec![6.0; n];
        let kernel_ms: Vec<f64> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    REFERENCE_MS
                } else {
                    3.0 * REFERENCE_MS
                }
            })
            .collect();
        let out = normalise(&ms, &kernel_ms);
        assert_eq!(out[0], 6.0);
        assert_eq!(out[n - 1], 2.0);
    }

    #[test]
    fn the_kernel_takes_time() {
        assert!(kernel() > 0.0);
    }
}
