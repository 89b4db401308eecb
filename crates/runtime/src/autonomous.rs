//! The autonomous-driving application study (§V-C, Fig. 9).
//!
//! Three algorithms per frame: DETection (DeepLab-class CNN), TRAcking
//! (GOTURN CNN) and LOCalisation (ORB-SLAM, not CNN-based). Prior work
//! \[23\] shows detection can run every `N` frames with tracking covering
//! the gaps. The scheduling consequences differ by architecture:
//!
//! * **GPU**: everything time-shares the SIMD lanes;
//! * **TC**: DET/TRA run on the TensorCores, LOC on the SIMD lanes in
//!   parallel — but on non-DET frames the TC area idles;
//! * **SMA**: DET/TRA run in systolic mode; on non-DET frames the units
//!   reconfigure to SIMD mode and accelerate LOC's parallel portion —
//!   the dynamic reallocation only temporal integration offers.

use crate::backend::{IrregularWork, RuntimeError};
use crate::executor::Executor;
use crate::platform::Platform;
use sma_models::{zoo, Network};

/// Latency of one algorithm on one platform, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSchedule {
    /// Detection CNN latency with every unit in systolic mode.
    pub det_ms: f64,
    /// Detection latency when one unit is lent back to SIMD mode (the
    /// *simultaneous* multi-mode split: 3-SMA runs DET on two units while
    /// the third serves LOC).
    pub det_split_ms: f64,
    /// Tracking CNN latency.
    pub tra_ms: f64,
    /// Localisation latency (at baseline SIMD throughput).
    pub loc_ms: f64,
    /// Localisation latency when the SMA units join in SIMD mode.
    pub loc_boosted_ms: f64,
}

/// The driving pipeline on one platform.
#[derive(Debug, Clone)]
pub struct DrivingPipeline {
    platform: Platform,
    schedule: FrameSchedule,
}

impl DrivingPipeline {
    /// Builds the pipeline for a platform using the Table-II-derived
    /// workloads: DET = DeepLab (CNN portion), TRA = GOTURN,
    /// LOC = ORB-SLAM.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedOnBackend`] when the platform's
    /// backend reports a [`simd_mode_boost`] of zero — ORB-SLAM's
    /// localisation kernels need programmable lanes, which is precisely
    /// the §V-C argument against fixed-function offload engines. Any
    /// [`RuntimeError`] from compiling DET or TRA propagates.
    ///
    /// [`simd_mode_boost`]: crate::backend::Backend::simd_mode_boost
    pub fn try_new(platform: Platform) -> Result<Self, RuntimeError> {
        if platform.simd_mode_boost() <= 0.0 {
            return Err(RuntimeError::UnsupportedOnBackend {
                backend: platform.label(),
                operation: "the DET/TRA/LOC driving pipeline (LOC needs programmable lanes)",
            });
        }
        // The driving stack skips CRF post-processing.
        let exec = Executor::builder(platform).postprocessing(false).build();
        let det = exec.try_run(&zoo::deeplab())?.total_ms;
        let tra = exec.try_run(&zoo::goturn())?.total_ms;
        let loc = Self::loc_ms(platform, &zoo::orb_slam(), 1.0);
        let loc_boosted = Self::loc_ms(
            platform,
            &zoo::orb_slam(),
            platform.simd_mode_boost().max(1.0),
        );
        // The simultaneous split: 3-SMA can run detection on two units
        // while the third serves SIMD work — detection then runs at
        // 2-SMA speed.
        let det_split = if platform == Platform::Sma3 {
            Executor::builder(Platform::Sma2)
                .postprocessing(false)
                .build()
                .try_run(&zoo::deeplab())?
                .total_ms
        } else {
            det
        };
        Ok(DrivingPipeline {
            platform,
            schedule: FrameSchedule {
                det_ms: det,
                det_split_ms: det_split,
                tra_ms: tra,
                loc_ms: loc,
                loc_boosted_ms: loc_boosted,
            },
        })
    }

    /// The per-algorithm latencies.
    #[must_use]
    pub const fn schedule(&self) -> FrameSchedule {
        self.schedule
    }

    fn loc_ms(platform: Platform, net: &Network, boost: f64) -> f64 {
        let backend = platform.backend();
        net.layers()
            .iter()
            .map(|l| match IrregularWork::from_layer(l) {
                Some(work) => backend.irregular(work.with_boost(boost)).time_ms,
                // ORB-SLAM has no GEMM layers by construction.
                None => 0.0,
            })
            .sum()
    }

    /// Fig. 9 (left): single-frame latency running all three algorithms
    /// every frame.
    ///
    /// GPU/SMA run the three sequentially on the shared substrate; the TC
    /// platform overlaps LOC (SIMD lanes) with DET+TRA (TensorCores).
    #[must_use]
    pub fn frame_latency_ms(&self) -> f64 {
        let s = self.schedule;
        match self.platform {
            Platform::GpuTensorCore => (s.det_ms + s.tra_ms).max(s.loc_ms),
            // 3-SMA: detection on two units overlaps LOC on the third.
            Platform::Sma3 => s.det_split_ms.max(s.loc_ms) + s.tra_ms,
            _ => s.det_ms + s.tra_ms + s.loc_ms,
        }
    }

    /// Fig. 9 (right): average frame latency when detection runs every
    /// `skip` frames and tracking covers the rest \[23\].
    ///
    /// On SMA, the `skip-1` non-detection frames run LOC with the units
    /// reconfigured as extra SIMD lanes; the TC platform's tensor cores
    /// idle on those frames, so LOC stays at baseline speed.
    ///
    /// # Panics
    ///
    /// Panics if `skip` is zero.
    #[must_use]
    pub fn frame_latency_skipping_ms(&self, skip: u32) -> f64 {
        assert!(skip > 0, "skip must be at least 1");
        let s = self.schedule;
        let n = f64::from(skip);
        match self.platform {
            Platform::Sma2 | Platform::Sma3 => {
                // DET frame: detection on the split units overlaps LOC on
                // the remainder. Other frames: TRA + boosted LOC.
                let det_frame = s.det_split_ms.max(s.loc_ms) + s.tra_ms;
                let other = s.tra_ms + s.loc_boosted_ms;
                (det_frame + (n - 1.0) * other) / n
            }
            Platform::GpuTensorCore => {
                // DET frame overlaps LOC with DET+TRA; other frames the
                // TCs run only TRA while LOC holds the SIMD lanes.
                let det_frame = (s.det_ms + s.tra_ms).max(s.loc_ms);
                let other = s.tra_ms.max(s.loc_ms);
                (det_frame + (n - 1.0) * other) / n
            }
            _ => {
                let det_frame = s.det_ms + s.tra_ms + s.loc_ms;
                let other = s.tra_ms + s.loc_ms;
                (det_frame + (n - 1.0) * other) / n
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_misses_target_accelerators_meet_it() {
        // Fig. 9 (left): the GPU exceeds the 100 ms single-frame target;
        // TC and SMA meet it.
        let gpu = DrivingPipeline::try_new(Platform::GpuSimd).unwrap();
        let tc = DrivingPipeline::try_new(Platform::GpuTensorCore).unwrap();
        let sma = DrivingPipeline::try_new(Platform::Sma3).unwrap();
        assert!(
            gpu.frame_latency_ms() > 100.0,
            "GPU {:.1} ms",
            gpu.frame_latency_ms()
        );
        assert!(
            tc.frame_latency_ms() < 100.0,
            "TC {:.1}",
            tc.frame_latency_ms()
        );
        assert!(
            sma.frame_latency_ms() < 100.0,
            "SMA {:.1}",
            sma.frame_latency_ms()
        );
    }

    #[test]
    fn skipping_reduces_latency_monotonically() {
        for p in [Platform::GpuTensorCore, Platform::Sma3] {
            let pipe = DrivingPipeline::try_new(p).unwrap();
            let mut last = f64::INFINITY;
            for n in 1..=9 {
                let t = pipe.frame_latency_skipping_ms(n);
                assert!(t <= last + 1e-9, "{p}: latency must not rise with N");
                last = t;
            }
        }
    }

    #[test]
    fn sma_benefits_more_from_skipping_than_tc() {
        // Fig. 9 (right): with N=4 the SMA frame latency drops by almost
        // 50% relative to no skipping, and sits below the TC curve.
        let sma = DrivingPipeline::try_new(Platform::Sma3).unwrap();
        let reduction = 1.0 - sma.frame_latency_skipping_ms(4) / sma.frame_latency_skipping_ms(1);
        assert!(
            (0.35..0.65).contains(&reduction),
            "SMA N=4 reduction {reduction:.2}"
        );

        let tc = DrivingPipeline::try_new(Platform::GpuTensorCore).unwrap();
        for n in 2..=9 {
            assert!(
                sma.frame_latency_skipping_ms(n) < tc.frame_latency_skipping_ms(n),
                "N={n}: SMA {:.1} vs TC {:.1}",
                sma.frame_latency_skipping_ms(n),
                tc.frame_latency_skipping_ms(n)
            );
        }
    }

    #[test]
    fn loc_boost_only_on_sma() {
        let sma = DrivingPipeline::try_new(Platform::Sma3).unwrap().schedule();
        assert!(sma.loc_boosted_ms < sma.loc_ms);
        let gpu = DrivingPipeline::try_new(Platform::GpuSimd)
            .unwrap()
            .schedule();
        assert!((gpu.loc_boosted_ms - gpu.loc_ms).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "skip")]
    fn zero_skip_panics() {
        let _ = DrivingPipeline::try_new(Platform::Sma3)
            .unwrap()
            .frame_latency_skipping_ms(0);
    }

    #[test]
    fn tpu_has_no_lanes_for_localisation() {
        // ORB-SLAM needs programmable lanes; pricing it on the TPU's
        // streaming vector unit would silently ignore its serial solver
        // stages, so the pipeline refuses the backend outright.
        use crate::backend::RuntimeError;
        let err = DrivingPipeline::try_new(Platform::TpuHost).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::UnsupportedOnBackend { backend: "TPU", .. }
        ));
    }
}
