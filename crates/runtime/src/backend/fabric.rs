//! The GEMM model of a reconfigurable systolic array per SM beside the
//! SIMD lanes. ArrayFlex ([`PipelineConfig`](super::PipelineConfig)) and
//! FlexSA ([`FlexSaMode`](super::FlexSaMode)) differ only in what a
//! [`FabricConfig`] supplies; [`Fabric`] does the rest once: the
//! weight-stationary tiling (the `k × n` weights tiled at the
//! configuration's edge and spread over every array in the GPU, each
//! resident tile streaming all `m` activation rows), per-shape
//! selection (the fastest configuration, the first in list order on a
//! tie), design-time pinning (the DSE fabric axis), the DRAM floor, the
//! launch overhead, the access ledger and the serve-time
//! [`Reconfigurable`] capability.

use super::{GemmModel, GpuBackend, IrregularWork, Reconfigurable};
use sma_core::model::{GemmEstimate, L2_REUSE_DRAM_FACTOR, LAUNCH_OVERHEAD_CYCLES};
use sma_mem::{ceil_u64, MemStats};
use sma_sim::GpuConfig;
use sma_tensor::GemmShape;

/// What one reconfigurable array supplies to [`Fabric`]: its
/// configurations and the mechanism terms that differ between them.
pub trait FabricConfig: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Every configuration, in selection order: ties go to the earlier.
    const CONFIGS: &'static [Self];

    /// FP16-equivalent MACs per base-clock cycle per SM in every
    /// configuration: the peak efficiency is measured against.
    const PEAK_MACS_PER_SM_CYCLE: u64;

    /// Backend name, flexible (`None`) or pinned at design time.
    fn name(pinned: Option<Self>) -> &'static str;

    /// Report label of the configuration (serve-time reconfiguration).
    fn label(self) -> String;

    /// One resident weight tile: rows along `k`, columns along `n`.
    fn tile(self) -> (usize, usize);

    /// Independent arrays per SM.
    fn arrays_per_sm(self) -> u64 {
        1
    }

    /// Base-clock cycles of `waves` passes that each stream `m`
    /// activation rows, setup included (before the DRAM floor and the
    /// launch overhead): the array's pass-timing model.
    fn compute_cycles(self, m: u64, waves: u64) -> u64;

    /// Pipeline-register latches for `issued` MACs: two per MAC unless
    /// the configuration fuses stages.
    fn pe_transfers(self, issued: u64) -> u64 {
        issued * 2
    }

    /// Result-drain conflict cycles for `streamed_rows` activation rows
    /// summed over every tile.
    fn drain_conflict_cycles(self, _streamed_rows: u64) -> u64 {
        0
    }

    /// The irregular work left for the SIMD lanes (all of it, unless
    /// the fabric can shed some).
    fn irregular_work(work: IrregularWork) -> IrregularWork {
        work
    }
}

/// A reconfigurable array per SM on a GPU substrate, flexible (the
/// best configuration per shape) or pinned to one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Fabric<C> {
    gpu: GpuConfig,
    pinned: Option<C>,
}

impl<C: FabricConfig> Fabric<C> {
    /// The fabric on the Volta substrate, pinned to a configuration or
    /// (`None`) free to pick one per shape.
    #[must_use]
    pub(crate) fn volta(pinned: Option<C>) -> Self {
        Fabric {
            gpu: GpuConfig::volta(),
            pinned,
        }
    }

    /// Weight tiles along `k` and along `n` under `config`.
    fn tiles(shape: GemmShape, config: C) -> (u64, u64) {
        let (rows, cols) = config.tile();
        (shape.k.div_ceil(rows) as u64, shape.n.div_ceil(cols) as u64)
    }

    /// Cycles of the whole GEMM under `config` (before the DRAM floor
    /// and the launch overhead).
    pub(crate) fn compute_cycles(&self, shape: GemmShape, config: C) -> u64 {
        let (tk, tn) = Self::tiles(shape, config);
        let arrays = u64::from(self.gpu.sms) * config.arrays_per_sm();
        config.compute_cycles(shape.m as u64, (tk * tn).div_ceil(arrays))
    }

    /// The fastest configuration for a shape, the first in
    /// [`FabricConfig::CONFIGS`] order on a tie.
    #[must_use]
    pub(crate) fn best(&self, shape: GemmShape) -> C {
        C::CONFIGS
            .iter()
            .copied()
            .min_by_key(|&config| self.compute_cycles(shape, config))
            // sma-lint: allow(no-panic) — every fabric lists at least
            // one configuration; unreachable by construction.
            .expect("a fabric has at least one configuration")
    }

    /// Estimates one GEMM under one configuration (the backend's
    /// estimate at the pinned or the best one).
    #[must_use]
    pub(crate) fn estimate_with(&self, shape: GemmShape, config: C) -> GemmEstimate {
        let compute = self.compute_cycles(shape, config);
        let (tk, tn) = Self::tiles(shape, config);
        let active = (tk * tn)
            .div_ceil(config.arrays_per_sm())
            .min(u64::from(self.gpu.sms));
        let dram_bytes = (shape.min_bytes(2) as f64 * L2_REUSE_DRAM_FACTOR) as u64;
        let full_bw = self.gpu.dram_bytes_per_cycle_per_sm * f64::from(self.gpu.sms);
        let dram_floor = ceil_u64(dram_bytes as f64 / full_bw);
        let cycles = compute.max(dram_floor) + LAUNCH_OVERHEAD_CYCLES;

        let time_s = cycles as f64 / (self.gpu.clock_ghz * 1e9);
        let useful = shape.macs() as f64;
        let peak_all = C::PEAK_MACS_PER_SM_CYCLE as f64 * active as f64;
        GemmEstimate {
            cycles,
            time_ms: time_s * 1e3,
            efficiency: useful / (cycles as f64 * peak_all),
            tflops: 2.0 * useful / time_s / 1e12,
            mem: Self::ledger(shape, config, tn, tk * tn, dram_bytes),
            sm_cycles: cycles * active,
        }
    }

    /// Access ledger of the whole GEMM under `config`, whose `tiles`
    /// weight tiles span `tn` tile columns.
    fn ledger(shape: GemmShape, config: C, tn: u64, tiles: u64, dram_bytes: u64) -> MemStats {
        let (rows, cols) = config.tile();
        let m = shape.m as u64;
        let tile_macs = (rows * cols) as u64;
        // Issued volume including ragged-edge padding.
        let issued = tiles * tile_macs * m;
        // Result drain: one coalesced RF read-modify-write per output
        // row per tile column.
        let drain = tn * m * cols as u64 / 32;
        let tile_bytes = shape.min_bytes(2);
        MemStats {
            systolic_macs: issued,
            pe_transfers: config.pe_transfers(issued),
            // Activation feed: every tile streams m rows of `rows`
            // elements out of shared memory.
            shared_reads: tiles * m * rows as u64,
            // Tile staging: weights written once per resident tile.
            shared_writes: tiles * tile_macs / 32,
            rf_reads: drain,
            rf_writes: drain,
            shared_conflict_cycles: config.drain_conflict_cycles(tiles * m),
            dram_bytes,
            l1_misses: tile_bytes / 128,
            l2_hits: (tile_bytes - dram_bytes.min(tile_bytes)) / 128,
            l2_misses: dram_bytes / 128,
            // Control: one configuration write plus per-tile descriptors.
            instructions: tiles * 4 + 64,
            alu_ops: tiles * 8,
            ..MemStats::default()
        }
    }
}

/// The spatially integrated array cannot fold into SIMD lanes, so the
/// SIMD-mode boost stays at its default 1.0.
impl<C: FabricConfig> GemmModel for Fabric<C> {
    fn name(&self) -> &'static str {
        C::name(self.pinned)
    }

    fn estimate(&self, shape: GemmShape) -> GemmEstimate {
        self.estimate_with(shape, self.pinned.unwrap_or_else(|| self.best(shape)))
    }

    fn irregular_work(&self, work: IrregularWork) -> IrregularWork {
        C::irregular_work(work)
    }

    /// The serve-time capability, offered only by a flexible fabric: a
    /// pinned fabric's estimates already carry its one configuration,
    /// so the engine must not price a pin on top of them (`None`).
    fn as_reconfigurable(&self) -> Option<&dyn Reconfigurable> {
        match self.pinned {
            None => Some(self),
            Some(_) => None,
        }
    }
}

/// The serve-time capability: the configuration becomes a run-time
/// knob. Configurations index into [`FabricConfig::CONFIGS`].
impl<C: FabricConfig> Reconfigurable for Fabric<C> {
    fn config_count(&self) -> usize {
        C::CONFIGS.len()
    }

    fn config_label(&self, config: usize) -> String {
        C::CONFIGS[config].label()
    }

    fn pinned_cycles(&self, shapes: &[GemmShape], config: usize) -> u64 {
        let pinned = C::CONFIGS[config];
        shapes
            .iter()
            .map(|&shape| self.compute_cycles(shape, pinned))
            .sum()
    }

    fn flexible_cycles(&self, shapes: &[GemmShape]) -> u64 {
        shapes
            .iter()
            .map(|&shape| self.compute_cycles(shape, self.best(shape)))
            .sum()
    }
}

impl<C: FabricConfig> GpuBackend<Fabric<C>> {
    /// The flexible fabric on the Volta substrate: every GEMM runs under
    /// the best configuration for its shape.
    #[must_use]
    pub fn new() -> Self {
        GpuBackend::volta(Fabric::volta(None))
    }

    /// The same array with the configuration *pinned* at design time:
    /// every GEMM runs under `config` instead of the per-shape best.
    /// This is the DSE fabric axis — the cost of giving up run-time
    /// selection.
    ///
    /// A pinned backend has no [`GemmCache`](super::GemmCache): it
    /// estimates every GEMM straight from the fabric model, and its
    /// cache counters and length read zero. Its callers (the DSE
    /// compile) build one per compile and drop it after one pass, so a
    /// memo would only be filled and thrown away. On the full DSE grid
    /// (16,650 GEMM lookups, 5,520 distinct shapes) single-thread plan
    /// derive took ~180–195 ns per GEMM through the memo against
    /// ~115–120 ns straight from the model.
    #[must_use]
    pub fn pinned(config: C) -> Self {
        GpuBackend::volta_unmemoized(Fabric::volta(Some(config)))
    }

    /// The configuration the fabric selects for a shape.
    #[must_use]
    pub fn config_for(&self, shape: GemmShape) -> C {
        self.model.best(shape)
    }
}

/// The contract every fabric keeps, checked once for any
/// [`FabricConfig`]: each clause is one method, called from one test
/// per fabric.
#[cfg(test)]
pub(super) mod contract {
    // Exact float equality asserts bit-reproducibility.
    #![allow(clippy::float_cmp)]

    use super::*;
    use crate::backend::{Backend, CacheStats};

    /// One fabric's test fixture: the `shapes` every clause runs on, a
    /// `mixed` workload no single configuration serves best, the knob's
    /// `labels` in `CONFIGS` order, and the name prefix of a
    /// design-time-pinned backend.
    pub(in crate::backend) struct Contract<'a> {
        pub shapes: &'a [GemmShape],
        pub mixed: &'a [GemmShape],
        pub labels: &'a [&'a str],
        pub pinned_prefix: &'a str,
    }

    impl Contract<'_> {
        /// Per-shape selection never loses to a fixed configuration.
        pub fn selection_never_loses<C: FabricConfig>(&self) {
            let fabric = Fabric::<C>::volta(None);
            for &shape in self.shapes {
                let best = fabric.compute_cycles(shape, fabric.best(shape));
                for &config in C::CONFIGS {
                    assert!(
                        best <= fabric.compute_cycles(shape, config),
                        "{shape:?}: best configuration beaten by {config:?}"
                    );
                }
            }
        }

        /// Estimates are memoized, bit-identical on a hit, with exact
        /// hit/miss counters and cache length.
        pub fn memoized_with_exact_counters<C: FabricConfig>(&self) {
            let flexible = GpuBackend::<Fabric<C>>::new();
            for (i, &shape) in self.shapes.iter().enumerate() {
                let first = flexible.gemm(shape).unwrap();
                let again = flexible.gemm(shape).unwrap();
                assert_eq!(first.time_ms.to_bits(), again.time_ms.to_bits());
                let stats = flexible.gemm_cache_stats();
                assert_eq!((stats.hits, stats.misses), (i as u64 + 1, i as u64 + 1));
                assert_eq!(flexible.gemm_cache_len(), i + 1);
            }
        }

        /// A design-time-pinned backend charges its configuration,
        /// never beats the flexible one, reproduces it when pinned at
        /// the flexible choice, and has no serve-time knob. It estimates
        /// straight from the fabric model: no memo entry, no counter.
        pub fn pinned_charges_its_config<C: FabricConfig>(&self) {
            let fabric = Fabric::<C>::volta(None);
            let flexible = GpuBackend::<Fabric<C>>::new();
            assert_eq!(flexible.model.pinned, None);
            for &config in C::CONFIGS {
                let pinned = GpuBackend::<Fabric<C>>::pinned(config);
                assert_eq!(pinned.model.pinned, Some(config));
                assert!(pinned.name().starts_with(self.pinned_prefix));
                assert!(pinned.as_reconfigurable().is_none());
                for &shape in self.shapes {
                    let est = pinned.gemm(shape).unwrap();
                    let direct = fabric.estimate_with(shape, config);
                    assert_eq!(est.time_ms.to_bits(), direct.time_ms.to_bits());
                    assert_eq!(est.cycles, direct.cycles);
                    assert_eq!(est.mem, direct.mem);
                    assert!(est.cycles >= flexible.gemm(shape).unwrap().cycles);
                }
                assert_eq!(pinned.gemm_cache_stats(), CacheStats::default());
                assert_eq!(pinned.gemm_cache_len(), 0);
            }
            for &shape in self.shapes {
                let chosen = GpuBackend::<Fabric<C>>::pinned(flexible.config_for(shape));
                assert_eq!(
                    chosen.gemm(shape).unwrap().time_ms.to_bits(),
                    flexible.gemm(shape).unwrap().time_ms.to_bits()
                );
            }
        }

        /// The serve-time knob carries every label, and pinning any one
        /// configuration is strictly worse than per-shape selection on
        /// the mixed workload.
        pub fn pinning_never_beats_selection<C: FabricConfig>(&self) {
            let flexible = GpuBackend::<Fabric<C>>::new();
            let rc: &dyn Reconfigurable = flexible.as_reconfigurable().unwrap();
            let got: Vec<String> = (0..rc.config_count()).map(|c| rc.config_label(c)).collect();
            assert_eq!(got, self.labels);
            let best = rc.flexible_cycles(self.mixed);
            for config in 0..rc.config_count() {
                assert!(
                    rc.pinned_cycles(self.mixed, config) > best,
                    "pinned {config} is no worse"
                );
            }
        }

        /// Time grows strictly with the streamed dimension `m`.
        pub fn time_is_monotone_in_m<C: FabricConfig>(&self) {
            let fabric = Fabric::<C>::volta(None);
            let mut last = 0.0;
            for m in [1usize, 8, 64, 512, 4096] {
                let t = fabric.estimate(GemmShape::new(m, 1024, 1024)).time_ms;
                assert!(t > last, "m={m}: {t} not above {last}");
                last = t;
            }
        }
    }
}
