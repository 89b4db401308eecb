//! Network-on-platform execution profiles.
//!
//! [`Executor::try_run`] profiles one inference and
//! [`Executor::try_plan`] compiles a reusable [`NetworkPlan`]; both
//! return the backend's [`RuntimeError`] when it rejects a layer, and
//! there is no panicking twin of either.

use crate::backend::{Backend, IrregularWork, RuntimeError, CRF_HANDOFF_BYTES};
use crate::plan::{NetworkPlan, PlanFamily, PlannedStep, TemplateStep};
use crate::platform::Platform;
use sma_energy::{EnergyBreakdown, EnergyModel};
use sma_mem::MemStats;
use sma_models::{Layer, LayerWork, Network};
use std::sync::Arc;

pub use crate::backend::ExecPath;

/// Per-layer timing record.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    /// Index in the network's layer table.
    pub index: usize,
    /// Milliseconds on the platform.
    pub ms: f64,
    /// Which execution path ran it.
    pub path: ExecPath,
}

/// Complete profile of one network inference on one platform.
#[derive(Debug, Clone)]
pub struct NetworkProfile {
    /// Platform executed on.
    pub platform: Platform,
    /// Network name (shared with the [`Network`], not copied per run).
    pub network: Arc<str>,
    /// Total milliseconds.
    pub total_ms: f64,
    /// Milliseconds in GEMM-compatible layers.
    pub gemm_ms: f64,
    /// Milliseconds in irregular layers.
    pub irregular_ms: f64,
    /// Milliseconds of host transfers (offload backends only).
    pub transfer_ms: f64,
    /// Per-layer records.
    pub layers: Vec<LayerProfile>,
    /// Aggregate access ledger (GPU-family backends).
    pub mem: MemStats,
    /// Occupied SM-cycles (for constant-power accounting).
    pub sm_cycles: u64,
}

impl NetworkProfile {
    /// An all-zero profile with the per-layer table pre-sized.
    pub(crate) fn empty(platform: Platform, network: Arc<str>, layer_capacity: usize) -> Self {
        NetworkProfile {
            platform,
            network,
            total_ms: 0.0,
            gemm_ms: 0.0,
            irregular_ms: 0.0,
            transfer_ms: 0.0,
            layers: Vec::with_capacity(layer_capacity),
            mem: MemStats::default(),
            sm_cycles: 0,
        }
    }

    /// Energy estimate of the profile under a model.
    #[must_use]
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.estimate_with_runtime(&self.mem, self.sm_cycles)
    }
}

/// Runs networks on platforms, dispatching every layer through the
/// platform's [`Backend`].
///
/// # Example
///
/// ```
/// use sma_runtime::{Executor, Platform};
/// use sma_models::zoo;
///
/// # fn main() -> Result<(), sma_runtime::RuntimeError> {
/// let exec = Executor::builder(Platform::Sma3)
///     .batch(1)
///     .postprocessing(true)
///     .build();
/// let profile = exec.try_run(&zoo::alexnet())?;
/// assert!(profile.total_ms > 0.0);
/// assert!(profile.gemm_ms > profile.irregular_ms);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Executor {
    platform: Platform,
    backend: Arc<dyn Backend>,
    framework_ms_per_layer: f64,
    include_postprocessing: bool,
    batch: usize,
}

/// Configures an [`Executor`].
///
/// Created by [`Executor::builder`]; defaults to the paper's end-to-end
/// latency setup (batch 1, 0.3 ms/layer framework glue, post-processing
/// included).
#[derive(Debug, Clone)]
pub struct ExecutorBuilder {
    platform: Platform,
    backend: Option<Arc<dyn Backend>>,
    framework_ms_per_layer: f64,
    include_postprocessing: bool,
    batch: usize,
}

impl ExecutorBuilder {
    /// Inference batch size: im2col GEMMs stack along `m`. Fig. 8's
    /// kernel-level comparison runs batch 16 so layer GEMMs reach the
    /// steady-state regions of the engines; the end-to-end latency
    /// studies (Fig. 3/9) run batch 1.
    #[must_use]
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Per-layer framework dispatch overhead in ms (kernel launch +
    /// framework glue; calibrated against the Fig. 3 end-to-end
    /// numbers). Backends whose
    /// [`Backend::applies_framework_overhead`] is false never pay it.
    #[must_use]
    pub fn framework_ms(mut self, ms: f64) -> Self {
        self.framework_ms_per_layer = ms;
        self
    }

    /// Include post-processing stages (the CRF). Fig. 3 includes them
    /// (reported separately for CRF); Fig. 8's network comparison is the
    /// CNN+head portion only.
    #[must_use]
    pub fn postprocessing(mut self, include: bool) -> Self {
        self.include_postprocessing = include;
        self
    }

    /// Overrides the backend instance — the hook for architectures
    /// beyond the five built-in [`Platform`] keys. The platform key is
    /// kept for labelling/serialisation only.
    #[must_use]
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Builds the executor (resolving the platform's shared backend
    /// unless one was injected).
    #[must_use]
    pub fn build(self) -> Executor {
        Executor {
            platform: self.platform,
            backend: self.backend.unwrap_or_else(|| self.platform.backend()),
            framework_ms_per_layer: self.framework_ms_per_layer,
            include_postprocessing: self.include_postprocessing,
            batch: self.batch,
        }
    }
}

impl Executor {
    /// Starts configuring an executor for a platform.
    #[must_use]
    pub fn builder(platform: Platform) -> ExecutorBuilder {
        ExecutorBuilder {
            platform,
            backend: None,
            framework_ms_per_layer: 0.3,
            include_postprocessing: true,
            batch: 1,
        }
    }

    /// An executor with the end-to-end defaults (batch 1, Fig. 3 setup).
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        Self::builder(platform).build()
    }

    /// Fig.-8 configuration: kernel-level comparison at batch 16, no
    /// framework glue, CNN+head portion only.
    #[must_use]
    pub fn kernel_study(platform: Platform) -> Self {
        Self::builder(platform)
            .batch(16)
            .framework_ms(0.0)
            .postprocessing(false)
            .build()
    }

    /// The platform key.
    #[must_use]
    pub const fn platform(&self) -> Platform {
        self.platform
    }

    /// The backend the executor dispatches through.
    #[must_use]
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// The configured inference batch size.
    #[must_use]
    pub const fn batch(&self) -> usize {
        self.batch
    }

    /// A copy of this executor at a different batch size, keeping the
    /// backend instance and every other setting. The serving layer uses
    /// this to compile one [`NetworkPlan`] per dynamic batch size
    /// without re-resolving the backend.
    #[must_use]
    pub fn with_batch(&self, batch: usize) -> Executor {
        let mut executor = self.clone();
        executor.batch = batch.max(1);
        executor
    }

    /// Profiles one inference: compiles the network
    /// ([`Executor::try_plan`]) and replays the plan once.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from the backend (e.g. a GEMM-only
    /// engine refusing a shape). The built-in backends accept every zoo
    /// layer.
    pub fn try_run(&self, network: &Network) -> Result<NetworkProfile, RuntimeError> {
        Ok(self.try_plan(network)?.run())
    }

    /// Compiles the network into a [`NetworkPlan`]: resolves every
    /// layer's work once, applies the batch stacking, pre-warms the
    /// backend's GEMM cache and freezes the per-layer contributions.
    /// [`NetworkPlan::run`] then replays the profile without touching
    /// the backend (no locks, no recomputation).
    ///
    /// The plan is the network's [`PlanFamily`] derived at this
    /// executor's batch size, so every plan — from-scratch or
    /// family-derived — is built by the same code.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from the backend (e.g. a GEMM-only
    /// engine refusing a shape).
    pub fn try_plan(&self, network: &Network) -> Result<NetworkPlan, RuntimeError> {
        self.plan_family(network).try_plan(self.batch)
    }

    /// Compiles the batch-*independent* template of a network once: a
    /// [`PlanFamily`] from which [`PlanFamily::try_plan`] derives the plan
    /// for any batch size by rewriting only the batch-dependent GEMM
    /// steps. The executor's own batch setting is irrelevant here — the
    /// family leaves the batch dimension symbolic.
    ///
    /// Compilation itself is infallible (backend GEMM dispatch is
    /// deferred to derivation); derivation surfaces
    /// [`RuntimeError`] through [`PlanFamily::try_plan`].
    #[must_use]
    pub fn plan_family(&self, network: &Network) -> PlanFamily {
        let mut template = Vec::with_capacity(network.layers().len());
        for (index, layer) in network.layers().iter().enumerate() {
            if let Some(step) = self.template_for(index, layer) {
                template.push(step);
            }
        }
        PlanFamily::new(
            self.platform,
            Arc::clone(&self.backend),
            network.name_shared(),
            template,
        )
    }

    /// Resolves one layer into its batch-independent template step:
    /// everything except the GEMM batch stacking and the backend's GEMM
    /// dispatch, which [`TemplateStep::instantiate`] performs per batch
    /// size. `None` for a stage the configuration skips outright (an
    /// excluded CRF on an on-die backend). This and `instantiate` are
    /// the only way a layer is resolved.
    fn template_for(&self, index: usize, layer: &Layer) -> Option<TemplateStep> {
        if !self.include_postprocessing && matches!(layer, Layer::Crf { .. }) {
            // The CRF *compute* is reported separately (paper §II-B),
            // but offload backends still pay the hand-off transfer —
            // their pipeline cannot produce the final output without
            // the host. On-die backends price the transfer at zero.
            let transfer = self.backend.transfer_ms(CRF_HANDOFF_BYTES);
            return (transfer > 0.0).then_some(TemplateStep::Fixed(PlannedStep::CrfHandoff {
                transfer_ms: transfer,
            }));
        }
        let step = match layer.work() {
            LayerWork::Gemm(shape) => {
                let glue = if self.backend.applies_framework_overhead() {
                    self.framework_ms_per_layer
                } else {
                    0.0
                };
                TemplateStep::Gemm { index, shape, glue }
            }
            LayerWork::Irregular { .. } => {
                // During irregular phases of dependent single-network
                // inference the substrate runs its baseline SIMD
                // lanes (boost 1.0); the SMA units' extra SIMD
                // capacity is exploited by the *autonomous*
                // scheduler, which raises the boost itself.
                let work = IrregularWork::from_layer(layer)
                    // sma-lint: allow(no-panic) — from_layer is Some
                    // exactly when the work is irregular, which this
                    // match arm just established.
                    .expect("irregular LayerWork implies irregular layer");
                let est = self.backend.irregular(work);
                TemplateStep::Fixed(PlannedStep::Layer {
                    index,
                    ms: est.time_ms,
                    path: est.path,
                    mem: est.mem,
                    sm_cycles: est.sm_cycles,
                    transfer_ms: est.transfer_ms,
                })
            }
        };
        Some(step)
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;
    use sma_models::zoo;

    #[test]
    fn platform_ordering_on_regular_models() {
        // Fig. 8 ordering: SIMD slowest, then 4-TC, 2-SMA, 3-SMA.
        for net in [zoo::alexnet(), zoo::vgg_a(), zoo::googlenet()] {
            let times: Vec<f64> = Platform::gpu_family()
                .iter()
                .map(|&p| Executor::new(p).try_run(&net).unwrap().total_ms)
                .collect();
            assert!(
                times[0] > times[1] && times[1] > times[2] && times[2] > times[3],
                "{}: {times:?}",
                net.name()
            );
        }
    }

    #[test]
    fn iso_area_speedups_in_paper_band() {
        // Fig. 8 (top): 4-TC ≈4.4-4.6×, 3-SMA ≈6.9-8.4× over SIMD,
        // network portion only (CRF excluded).
        for net in zoo::table2_models() {
            let base = Executor::kernel_study(Platform::GpuSimd)
                .try_run(&net)
                .unwrap()
                .total_ms;
            let tc = Executor::kernel_study(Platform::GpuTensorCore);
            let sma3 = Executor::kernel_study(Platform::Sma3);
            let s_tc = base / tc.try_run(&net).unwrap().total_ms;
            let s_sma3 = base / sma3.try_run(&net).unwrap().total_ms;
            assert!(
                (3.2..5.4).contains(&s_tc),
                "{}: 4-TC speedup {s_tc:.2}",
                net.name()
            );
            assert!(
                (5.5..9.2).contains(&s_sma3),
                "{}: 3-SMA speedup {s_sma3:.2}",
                net.name()
            );
            assert!(
                s_sma3 > s_tc * 1.35,
                "{}: 3-SMA must clearly beat 4-TC",
                net.name()
            );
        }
    }

    #[test]
    fn tpu_loses_on_hybrid_models() {
        // Fig. 3: the TPU beats the GPU on pure CNNs but loses end-to-end
        // on Mask R-CNN (1.75×) and DeepLab (1.98×).
        let gpu = Executor::new(Platform::GpuSimd);
        let tpu_exec = Executor::new(Platform::TpuHost);

        let mr = zoo::mask_rcnn();
        let ratio_mr = tpu_exec.try_run(&mr).unwrap().total_ms / gpu.try_run(&mr).unwrap().total_ms;
        assert!(
            (1.3..2.6).contains(&ratio_mr),
            "Mask R-CNN TPU/GPU {ratio_mr:.2}"
        );

        // DeepLab is compared with the CRF reported separately (as the
        // paper does: "we separate the CRF time from the overall
        // execution time").
        let dl = zoo::deeplab();
        let gpu_np = Executor::builder(Platform::GpuSimd)
            .postprocessing(false)
            .build();
        let tpu_np = Executor::builder(Platform::TpuHost)
            .postprocessing(false)
            .build();
        let ratio_dl =
            tpu_np.try_run(&dl).unwrap().total_ms / gpu_np.try_run(&dl).unwrap().total_ms;
        assert!(
            (1.3..2.6).contains(&ratio_dl),
            "DeepLab TPU/GPU {ratio_dl:.2}"
        );

        // CRF: CPU ≈10× slower than GPU (Fig. 3 bottom: 555 vs 52 ms).
        use sma_models::{Layer, LayerWork};
        let crf = Layer::Crf {
            pixels: 513 * 513,
            classes: 21,
            iterations: 10,
        };
        let LayerWork::Irregular { flops, bytes, .. } = crf.work() else {
            panic!()
        };
        let cpu_ms = sma_accel::CpuModel::xeon_core().irregular_ms(flops, bytes);
        assert!(
            (8.0..14.0).contains(&(cpu_ms / 52.0)),
            "CRF CPU {cpu_ms:.0} ms"
        );

        // …while on a pure CNN the TPU wins (>1.6× on GEMM per §II-B).
        let vgg = zoo::vgg_a();
        let ratio_vgg =
            tpu_exec.try_run(&vgg).unwrap().total_ms / gpu.try_run(&vgg).unwrap().total_ms;
        assert!(ratio_vgg < 1.0, "VGG TPU/GPU {ratio_vgg:.2}");
    }

    #[test]
    fn transfer_appears_only_on_tpu() {
        let dl = zoo::deeplab();
        let t = Executor::new(Platform::TpuHost).try_run(&dl).unwrap();
        assert!(t.transfer_ms > 0.0);
        let g = Executor::new(Platform::GpuSimd).try_run(&dl).unwrap();
        assert_eq!(g.transfer_ms, 0.0);
    }

    #[test]
    fn energy_ordering_matches_fig8() {
        // Fig. 8 (bottom): 2-SMA ≈0.88×, 3-SMA ≈0.77× of 4-TC.
        let model = EnergyModel::volta();
        let net = zoo::vgg_a();
        let run = |p: Platform| {
            let prof = Executor::kernel_study(p).try_run(&net).unwrap();
            prof.energy(&model).total()
        };
        let tc = run(Platform::GpuTensorCore);
        let sma2 = run(Platform::Sma2);
        let sma3 = run(Platform::Sma3);
        let r2 = sma2 / tc;
        let r3 = sma3 / tc;
        assert!((0.70..0.97).contains(&r2), "2-SMA energy ratio {r2:.3}");
        assert!((0.60..0.90).contains(&r3), "3-SMA energy ratio {r3:.3}");
        assert!(r3 < r2, "3-SMA must consume less than 2-SMA");
    }

    #[test]
    fn postprocessing_toggle_changes_deeplab_only() {
        let with = Executor::builder(Platform::GpuSimd)
            .postprocessing(true)
            .build();
        let without = Executor::builder(Platform::GpuSimd)
            .postprocessing(false)
            .build();
        let dl = zoo::deeplab();
        assert!(
            with.try_run(&dl).unwrap().total_ms > without.try_run(&dl).unwrap().total_ms + 30.0
        );
        let ax = zoo::alexnet();
        assert!(
            (with.try_run(&ax).unwrap().total_ms - without.try_run(&ax).unwrap().total_ms).abs()
                < 1e-9
        );
    }

    #[test]
    fn builder_defaults_match_new() {
        let a = Executor::new(Platform::Sma3);
        let b = Executor::builder(Platform::Sma3).build();
        let net = zoo::alexnet();
        assert_eq!(
            a.try_run(&net).unwrap().total_ms.to_bits(),
            b.try_run(&net).unwrap().total_ms.to_bits()
        );
    }

    #[test]
    fn executor_dispatches_through_injected_backend() {
        // A custom backend reaches try_run() without any Platform variant.
        use crate::backend::{Backend, GemmCache, IrregularEstimate, IrregularWork, RuntimeError};
        use sma_core::model::GemmEstimate;
        use sma_core::{SmaConfig, SmaGemmModel};
        use sma_sim::GpuConfig;
        use sma_tensor::GemmShape;

        #[derive(Debug)]
        struct Doubled {
            gpu: GpuConfig,
            model: SmaGemmModel,
            cache: GemmCache,
        }
        impl Backend for Doubled {
            fn name(&self) -> &'static str {
                "2x-SMA"
            }
            fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
                Ok(self.cache.get_or_compute(shape, || {
                    let mut e = self.model.estimate(shape);
                    e.time_ms *= 2.0;
                    e
                }))
            }
            fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
                crate::backend::gpu_irregular_estimate(&self.gpu, &work)
            }
            fn transfer_ms(&self, _bytes: u64) -> f64 {
                0.0
            }
            fn simd_mode_boost(&self) -> f64 {
                3.0
            }
        }

        // Compare without framework glue so the doubled estimates are
        // the only difference.
        let custom = Executor::builder(Platform::Sma3)
            .framework_ms(0.0)
            .backend(std::sync::Arc::new(Doubled {
                gpu: GpuConfig::volta(),
                model: SmaGemmModel::new(SmaConfig::iso_area_3sma()),
                cache: GemmCache::default(),
            }))
            .build();
        let stock = Executor::builder(Platform::Sma3).framework_ms(0.0).build();
        let net = zoo::alexnet();
        let (c, s) = (
            custom.try_run(&net).unwrap().gemm_ms,
            stock.try_run(&net).unwrap().gemm_ms,
        );
        assert!((c / s - 2.0).abs() < 1e-9, "custom {c} vs stock {s}");
    }
}
