//! The TPU-plus-host backend: a TPU-v2 core over the cloud link, with
//! the host CPU absorbing whatever the XLA-style compiler cannot lower.

use super::{
    Backend, CacheStats, ExecPath, GemmCache, IrregularEstimate, IrregularOp, IrregularWork,
    RuntimeError, CRF_HANDOFF_BYTES,
};
use sma_accel::{CpuModel, TpuLowering, TpuSim};
use sma_core::GemmEstimate;
use sma_mem::MemStats;
use sma_tensor::GemmShape;

/// A TPU-v2 core plus host CPU over the cloud link.
///
/// Owns its [`TpuSim`] instance — there is no global TPU. GEMMs run on
/// the systolic core; lowerable irregular ops are rewritten onto native
/// TPU ops (with their inflation); the CRF is un-lowerable and ships to
/// the host, paying the transfer costs of Fig. 3.
#[derive(Debug)]
pub struct TpuHostBackend {
    sim: TpuSim,
    host: CpuModel,
    cache: GemmCache,
}

impl TpuHostBackend {
    /// The TPU-v2 + Xeon-host configuration of the evaluation.
    #[must_use]
    pub(crate) fn new() -> Self {
        TpuHostBackend {
            sim: TpuSim::default(),
            host: CpuModel::xeon_core(),
            cache: GemmCache::default(),
        }
    }
}

impl Default for TpuHostBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for TpuHostBackend {
    fn name(&self) -> &'static str {
        "TPU"
    }

    /// The TPU's GEMM estimate, carried over into [`GemmEstimate`] form.
    ///
    /// `cycles` count the TPU clock (not the GPU clock) and the access
    /// ledger is empty: the GPU energy model does not describe the TPU,
    /// so its GEMMs contribute nothing to the GPU-family ledger.
    fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
        Ok(self.cache.get_or_compute(shape, || {
            let est = self.sim.estimate_gemm(shape);
            GemmEstimate {
                cycles: est.cycles,
                time_ms: est.time_ms,
                efficiency: est.efficiency,
                tflops: est.efficiency * self.sim.config().peak_tflops(),
                mem: MemStats::default(),
                sm_cycles: 0,
            }
        }))
    }

    /// Lower the op if the compiler can, otherwise ship it to the host.
    fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
        let lowered = |time_ms: f64| IrregularEstimate {
            time_ms,
            transfer_ms: 0.0,
            mem: MemStats::default(),
            sm_cycles: 0,
            path: ExecPath::TpuLowered,
        };
        match work.op {
            IrregularOp::Nms { boxes } => {
                // One dispatched sweep per selected box (TF on-device NMS).
                lowered(TpuLowering::nms(boxes, boxes.min(1000)).time_on_tpu(&self.sim))
            }
            IrregularOp::RoiAlign {
                rois,
                pooled,
                channels,
            } => {
                // The avg-pool rewrite reads the whole enclosing window
                // (≈24² taps) where the native op needs 4.
                lowered(TpuLowering::roialign(rois, pooled, channels, 24).time_on_tpu(&self.sim))
            }
            IrregularOp::ArgMax { pixels, classes } => {
                lowered(TpuLowering::argmax(pixels, classes).time_on_tpu(&self.sim))
            }
            IrregularOp::Crf => {
                // Unsupported and un-lowerable: transfer to the host.
                let transfer = self.sim.transfer_ms(CRF_HANDOFF_BYTES);
                IrregularEstimate {
                    time_ms: transfer + self.host.irregular_ms(work.flops, work.bytes),
                    transfer_ms: transfer,
                    mem: MemStats::default(),
                    sm_cycles: 0,
                    path: ExecPath::HostCpu,
                }
            }
            IrregularOp::Streaming => {
                // Pool/elementwise run natively on the vector unit.
                let cycles = (work.bytes / 4).div_ceil(128);
                let config = self.sim.config();
                lowered(cycles as f64 / (config.clock_ghz * 1e9) * 1e3 + config.dispatch_us * 1e-3)
            }
        }
    }

    fn transfer_ms(&self, bytes: u64) -> f64 {
        self.sim.transfer_ms(bytes)
    }

    /// No programmable lanes at all.
    fn simd_mode_boost(&self) -> f64 {
        0.0
    }

    /// The TPU runs whole graphs per dispatch; the per-layer framework
    /// glue of the GPU stacks does not apply.
    fn applies_framework_overhead(&self) -> bool {
        false
    }

    fn gemm_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn gemm_cache_len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
    )]

    use super::*;
    use sma_models::Layer;

    #[test]
    fn crf_ships_to_host_with_transfer() {
        let backend = TpuHostBackend::new();
        let crf = Layer::Crf {
            pixels: 513 * 513,
            classes: 21,
            iterations: 10,
        };
        let est = backend.irregular(IrregularWork::from_layer(&crf).unwrap());
        assert_eq!(est.path, ExecPath::HostCpu);
        assert!(est.transfer_ms > 0.0);
        assert!(est.time_ms > est.transfer_ms);
    }

    #[test]
    fn lowerable_ops_stay_on_device() {
        let backend = TpuHostBackend::new();
        for layer in [
            Layer::Nms { boxes: 1000 },
            Layer::RoiAlign {
                rois: 100,
                pooled: 7,
                channels: 256,
            },
            Layer::ArgMax {
                pixels: 513 * 513,
                classes: 21,
            },
        ] {
            let est = backend.irregular(IrregularWork::from_layer(&layer).unwrap());
            assert_eq!(est.path, ExecPath::TpuLowered);
            assert_eq!(est.transfer_ms, 0.0);
        }
    }

    #[test]
    fn gemm_reports_tpu_units_and_empty_ledger() {
        let backend = TpuHostBackend::new();
        let est = backend.gemm(GemmShape::square(1024)).unwrap();
        assert!(est.time_ms > 0.0);
        assert_eq!(est.sm_cycles, 0);
        assert_eq!(est.mem, MemStats::default());
        // Memoized like every other backend.
        let _ = backend.gemm(GemmShape::square(1024)).unwrap();
        assert_eq!(backend.gemm_cache_stats().hits, 1);
    }
}
