//! Named calibration constants, each tied to a measured quantity from the
//! paper or the GPGPU-Sim/CUTLASS literature.
//!
//! The *shapes* of every experiment come from the mechanistic models in
//! this workspace; these constants pin the absolute scale where the paper
//! depends on properties of real silicon we cannot derive (SASS scheduling
//! slack, PCIe software overheads, …). EXPERIMENTS.md records the
//! paper-vs-measured outcome for every figure that consumes them.

/// Extra non-FMA instructions the SIMD GEMM inner loop issues per FMA
/// (pointer arithmetic, predicate handling, loop control), measured from
/// CUTLASS SASS dumps for 128×128 tiles: ≈ 1 extra instruction per 16 FMAs.
pub const SIMD_INNER_OVERHEAD_PER_FMA: f64 = 1.0 / 16.0;

/// Shared-memory loads per thread per k-step in the SIMD GEMM inner loop
/// with 8×8 register blocking: 8 A-fragment + 8 B-fragment values feed
/// 64 FMAs, i.e. 0.25 loads per FMA.
pub const SIMD_LDS_PER_FMA: f64 = 16.0 / 64.0;

/// Fraction of peak the SIMD FP32 GEMM achieves at large sizes in
/// GPGPU-Sim-class models (issue-port limited). The paper's Fig. 8 SIMD
/// baseline implies ≈ 0.63; our pipeline model reproduces this to within a
/// few percent, and this constant is only used by the *analytical* fast
/// path that must agree with the pipeline model.
pub const SIMD_GEMM_PEAK_FRACTION: f64 = 0.63;

/// Fraction of TC peak the 4-TC wmma GEMM achieves at large sizes:
/// the paper measures 68.46% (Fig. 7 caption) on its GPGPU-Sim baseline;
/// real V100 cuBLAS lands below 60% on Fig. 1. We use the paper's value
/// since Fig. 7/8 are simulator-relative.
pub const TC_GEMM_PEAK_FRACTION: f64 = 0.6846;

/// Fraction of SMA peak the 2-SMA GEMM achieves at large sizes: 90.71%
/// (Fig. 7). Mechanistically: fill/drain skew + double-buffer sync are the
/// only losses once RF pressure is gone.
pub const SMA_GEMM_PEAK_FRACTION: f64 = 0.9071;

/// Per-transfer software latency (driver + runtime) in milliseconds.
pub const TRANSFER_SOFTWARE_MS: f64 = 0.35;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::assertions_on_constants,
        reason = "the assertions document the calibrated ranges"
    )]
    fn constants_are_in_sane_ranges() {
        assert!(SIMD_INNER_OVERHEAD_PER_FMA > 0.0 && SIMD_INNER_OVERHEAD_PER_FMA < 1.0);
        assert!(SIMD_LDS_PER_FMA > 0.0 && SIMD_LDS_PER_FMA < 1.0);
        assert!(SIMD_GEMM_PEAK_FRACTION > 0.5 && SIMD_GEMM_PEAK_FRACTION < 0.8);
        assert!(TC_GEMM_PEAK_FRACTION > SIMD_GEMM_PEAK_FRACTION);
        assert!(SMA_GEMM_PEAK_FRACTION > TC_GEMM_PEAK_FRACTION);
        assert!(SMA_GEMM_PEAK_FRACTION < 1.0);
    }

    #[test]
    fn paper_ratio_2sma_over_4tc() {
        // Same peak FLOPS, efficiency ratio 0.9071/0.6846 ≈ 1.325 — the
        // "30% better performance" of §V-B at large sizes.
        let ratio = SMA_GEMM_PEAK_FRACTION / TC_GEMM_PEAK_FRACTION;
        assert!((ratio - 1.325).abs() < 0.01);
    }
}
