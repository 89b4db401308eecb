//! FlexSA: a reconfigurable systolic-array architecture for efficient
//! pruned-model workloads (Lym & Erez, PAPERS.md).
//!
//! FlexSA's flexibility is *tile granularity*: the per-SM array can run
//! as one large full array or split into four independent sub-arrays.
//! Both modes expose the same peak (iso-FLOP with the 2-SMA
//! configuration, 256 FP16 MACs per SM-cycle), and trade off per shape:
//!
//! * **full array** — one [`FLEXSA_FULL_DIM`]² tile: a single
//!   uncontended result drain, but long fill/drain skew and coarse tile
//!   quantisation (pruned layers with ragged `k`/`n` waste whole
//!   16-wide tile edges);
//! * **sub-arrays** — four [`FLEXSA_SUB_DIM`]² tiles on independent
//!   weight tiles: half the skew and a quarter of the padding
//!   granularity, but the four concurrent drains contend on the shared
//!   register-file write ports ([`FLEXSA_DRAIN_CONTENTION`] per
//!   streamed row).
//!
//! [`FlexSaModel::estimate`] evaluates both [`FlexSaMode`]s per
//! [`GemmShape`] and keeps the faster — the per-GEMM reconfiguration
//! decision of the FlexSA paper — and [`FlexSaBackend`] memoizes the
//! winner in its own [`GemmCache`].
//!
//! The second FlexSA-only capability is the **pruning-aware irregular
//! path**: structured (channel/block) pruning masks are first-class in
//! the tile sequencer, so channel-parallel irregular operators skip
//! masked work entirely. The fixed-function SMA arrays cannot do this —
//! their irregular path is the unmodified SIMD lanes, which execute
//! every lane of a masked channel anyway. See
//! [`FlexSaBackend::pruned_work`].

use super::{
    gpu_irregular_estimate, Backend, CacheStats, GemmCache, IrregularEstimate, IrregularOp,
    IrregularWork, Reconfigurable, RuntimeError,
};
use sma_core::model::{GemmEstimate, L2_REUSE_DRAM_FACTOR, LAUNCH_OVERHEAD_CYCLES};
use sma_mem::{ceil_u64, MemStats};
use sma_sim::GpuConfig;
use sma_tensor::GemmShape;

/// Edge of the full-array configuration (one tile per SM).
pub(crate) const FLEXSA_FULL_DIM: usize = 16;

/// Edge of one sub-array (four independent tiles per SM).
pub(crate) const FLEXSA_SUB_DIM: usize = 8;

/// Extra drain cycles per streamed activation row in sub-array mode:
/// four 8-wide drains demand 32 result writes per cycle against the
/// register file's 16-write vector budget, stretching the drain phase
/// by half a cycle per row.
pub(crate) const FLEXSA_DRAIN_CONTENTION: f64 = 0.5;

/// Fraction of channel-parallel irregular work a structured pruning
/// mask removes (the FlexSA paper trains at 40–60% structured
/// sparsity; the conservative end keeps the model honest for
/// inference-time masks).
pub(crate) const FLEXSA_PRUNE_FRACTION: f64 = 0.4;

/// Fixed per-launch overhead: mode-select register write, weight
/// pre-load of the first tile set, output-buffer flush.
pub(crate) const FLEXSA_SETUP_CYCLES: u64 = 800;

/// One tile configuration of the reconfigurable array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlexSaMode {
    /// One 16×16 array per SM.
    FullArray,
    /// Four independent 8×8 sub-arrays per SM.
    SubArrays,
}

impl FlexSaMode {
    /// Both modes, full array first (ties break to it).
    pub const ALL: [FlexSaMode; 2] = [FlexSaMode::FullArray, FlexSaMode::SubArrays];

    /// Tile edge of this mode.
    #[must_use]
    pub(crate) const fn dim(self) -> usize {
        match self {
            FlexSaMode::FullArray => FLEXSA_FULL_DIM,
            FlexSaMode::SubArrays => FLEXSA_SUB_DIM,
        }
    }

    /// Independent tiles per SM in this mode.
    #[must_use]
    pub(crate) const fn tiles_per_sm(self) -> u64 {
        match self {
            FlexSaMode::FullArray => 1,
            FlexSaMode::SubArrays => 4,
        }
    }
}

/// Closed-form latency/energy model of the reconfigurable array.
///
/// Weight-stationary mapping in both modes: the `k × n` weight matrix
/// is tiled at the mode's edge, tiles are distributed across every
/// array in the GPU, and each resident tile streams all `m` activation
/// rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlexSaModel {
    gpu: GpuConfig,
}

impl FlexSaModel {
    /// The model on the Volta substrate.
    #[must_use]
    pub(crate) fn new(gpu: GpuConfig) -> Self {
        FlexSaModel { gpu }
    }

    /// FP16-equivalent MACs per cycle per SM — identical in both modes
    /// (16² = 4·8² = 256, iso-FLOP with 2-SMA and 4-TC).
    #[must_use]
    pub(crate) const fn peak_macs_per_sm_cycle() -> u64 {
        (FLEXSA_FULL_DIM * FLEXSA_FULL_DIM) as u64
    }

    /// Cycles of the whole GEMM in one mode (before the DRAM floor and
    /// launch overhead).
    fn compute_cycles(&self, shape: GemmShape, mode: FlexSaMode) -> u64 {
        let dim = mode.dim();
        let tiles = shape.k.div_ceil(dim) as u64 * shape.n.div_ceil(dim) as u64;
        let arrays = u64::from(self.gpu.sms) * mode.tiles_per_sm();
        let waves = tiles.div_ceil(arrays);
        let drain = match mode {
            FlexSaMode::FullArray => 0.0,
            FlexSaMode::SubArrays => FLEXSA_DRAIN_CONTENTION * shape.m as f64,
        };
        let pass = ceil_u64(shape.m as f64 + drain) + 2 * (dim as u64 - 1) + dim as u64;
        waves * pass + FLEXSA_SETUP_CYCLES
    }

    /// The faster tile configuration for a shape (ties to the full
    /// array).
    #[must_use]
    pub(crate) fn best_mode(&self, shape: GemmShape) -> FlexSaMode {
        let full = self.compute_cycles(shape, FlexSaMode::FullArray);
        let sub = self.compute_cycles(shape, FlexSaMode::SubArrays);
        if sub < full {
            FlexSaMode::SubArrays
        } else {
            FlexSaMode::FullArray
        }
    }

    /// Estimates one GEMM, reconfiguring to the better tile mode.
    #[must_use]
    pub(crate) fn estimate(&self, shape: GemmShape) -> GemmEstimate {
        self.estimate_pinned(shape, self.best_mode(shape))
    }

    /// Estimates one GEMM under one *pinned* tile mode — the
    /// design-space-exploration axis: what the array costs when the
    /// partitioning is a design-time (not per-shape) decision.
    /// `estimate` is exactly this at [`FlexSaModel::best_mode`], so the
    /// flexible path's numbers are unchanged by construction.
    #[must_use]
    pub(crate) fn estimate_pinned(&self, shape: GemmShape, mode: FlexSaMode) -> GemmEstimate {
        let compute = self.compute_cycles(shape, mode);

        let dim = mode.dim();
        let tiles = shape.k.div_ceil(dim) as u64 * shape.n.div_ceil(dim) as u64;
        let active = tiles
            .div_ceil(mode.tiles_per_sm())
            .min(u64::from(self.gpu.sms));
        let dram_bytes = (shape.min_bytes(2) as f64 * L2_REUSE_DRAM_FACTOR) as u64;
        let full_bw = self.gpu.dram_bytes_per_cycle_per_sm * f64::from(self.gpu.sms);
        let dram_floor = ceil_u64(dram_bytes as f64 / full_bw);
        let cycles = compute.max(dram_floor) + LAUNCH_OVERHEAD_CYCLES;

        let time_s = cycles as f64 / (self.gpu.clock_ghz * 1e9);
        let useful = shape.macs() as f64;
        let peak_all = Self::peak_macs_per_sm_cycle() as f64 * active as f64;
        GemmEstimate {
            cycles,
            time_ms: time_s * 1e3,
            efficiency: useful / (cycles as f64 * peak_all),
            tflops: 2.0 * useful / time_s / 1e12,
            mem: self.ledger(shape, mode, dram_bytes),
            sm_cycles: cycles * active,
        }
    }

    /// Access ledger of the whole GEMM in the chosen mode.
    fn ledger(&self, shape: GemmShape, mode: FlexSaMode, dram_bytes: u64) -> MemStats {
        let dim = mode.dim();
        let tk = shape.k.div_ceil(dim) as u64;
        let tn = shape.n.div_ceil(dim) as u64;
        let tiles = tk * tn;
        let m = shape.m as u64;
        let issued = tiles * (dim * dim) as u64 * m;
        let drain_writes = tn * m * dim as u64 / 32;
        let mut mem = MemStats {
            systolic_macs: issued,
            pe_transfers: issued * 2,
            shared_reads: tiles * m * dim as u64,
            shared_writes: tiles * (dim * dim) as u64 / 32,
            rf_reads: drain_writes,
            rf_writes: drain_writes,
            dram_bytes,
            ..MemStats::default()
        };
        if mode == FlexSaMode::SubArrays {
            // The contended drain serialises on the RF write ports.
            mem.shared_conflict_cycles = (FLEXSA_DRAIN_CONTENTION * (tiles * m) as f64) as u64;
        }
        let tile_bytes = shape.min_bytes(2);
        mem.l1_misses = tile_bytes / 128;
        mem.l2_hits = (tile_bytes - dram_bytes.min(tile_bytes)) / 128;
        mem.l2_misses = dram_bytes / 128;
        mem.instructions = tiles * 4 + 64;
        mem.alu_ops = tiles * 8;
        mem
    }
}

/// The FlexSA platform: one reconfigurable (16×16 ⇄ 4×8×8) systolic
/// array per SM beside the baseline SIMD lanes, with structured-pruning
/// masks wired into the tile sequencer.
///
/// GEMM estimates select the best [`FlexSaMode`] per shape and are
/// memoized in the backend's own [`GemmCache`]. Irregular work runs on
/// the SIMD lanes, but channel-parallel operators first shed the
/// `FLEXSA_PRUNE_FRACTION` of their work a structured mask removes —
/// the path the fixed SMA arrays cannot exploit.
#[derive(Debug)]
pub struct FlexSaBackend {
    gpu: GpuConfig,
    model: FlexSaModel,
    cache: GemmCache,
    pinned: Option<FlexSaMode>,
}

impl FlexSaBackend {
    /// The evaluated FlexSA configuration on the Volta substrate.
    #[must_use]
    pub fn new() -> Self {
        // One substrate config shared by the GEMM model and the
        // irregular (SIMD-lane) path — they must never diverge.
        let gpu = GpuConfig::volta();
        FlexSaBackend {
            gpu,
            model: FlexSaModel::new(gpu),
            cache: GemmCache::default(),
            pinned: None,
        }
    }

    /// The same array with the tile mode *pinned* at design time:
    /// every GEMM runs under `mode` instead of the per-shape best.
    /// This is the DSE fabric axis — the cost of giving up run-time
    /// reconfiguration — with its own [`GemmCache`] (pinned and
    /// flexible estimates must never share memo entries).
    #[must_use]
    pub fn pinned(mode: FlexSaMode) -> Self {
        let mut backend = Self::new();
        backend.pinned = Some(mode);
        backend
    }

    /// The tile mode the model selects for a shape (exposed for tests
    /// and the backend-authoring guide).
    #[must_use]
    pub fn mode_for(&self, shape: GemmShape) -> FlexSaMode {
        self.model.best_mode(shape)
    }

    /// Whether a structured pruning mask can shed part of an irregular
    /// op: channel-parallel operators (RoIAlign over feature channels,
    /// per-pixel class reductions, streaming elementwise stages) skip
    /// masked channels in the tile sequencer; control-flow-bound ops
    /// (NMS ordering, CRF message passing) cannot.
    #[must_use]
    pub(crate) const fn op_is_prunable(op: IrregularOp) -> bool {
        matches!(
            op,
            IrregularOp::RoiAlign { .. } | IrregularOp::ArgMax { .. } | IrregularOp::Streaming
        )
    }

    /// The work remaining after the structured mask: prunable ops shed
    /// [`FLEXSA_PRUNE_FRACTION`] of their FLOPs and half that fraction
    /// of their bytes (masked channels are never fetched, but index
    /// metadata still streams).
    #[must_use]
    pub(crate) fn pruned_work(work: IrregularWork) -> IrregularWork {
        if !Self::op_is_prunable(work.op) {
            return work;
        }
        let mut pruned = work;
        pruned.flops = (work.flops as f64 * (1.0 - FLEXSA_PRUNE_FRACTION)) as u64;
        pruned.bytes = (work.bytes as f64 * (1.0 - FLEXSA_PRUNE_FRACTION / 2.0)) as u64;
        pruned
    }
}

impl Default for FlexSaBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for FlexSaBackend {
    fn name(&self) -> &'static str {
        match self.pinned {
            None => "FlexSA",
            Some(FlexSaMode::FullArray) => "FlexSA-full",
            Some(FlexSaMode::SubArrays) => "FlexSA-sub",
        }
    }

    fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
        Ok(self.cache.get_or_compute(shape, || match self.pinned {
            None => self.model.estimate(shape),
            Some(mode) => self.model.estimate_pinned(shape, mode),
        }))
    }

    fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
        gpu_irregular_estimate(&self.gpu, &Self::pruned_work(work))
    }

    fn transfer_ms(&self, _bytes: u64) -> f64 {
        0.0
    }

    /// The tiles reconfigure among themselves, not into SIMD lanes:
    /// no boost.
    fn simd_mode_boost(&self) -> f64 {
        1.0
    }

    fn gemm_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn gemm_cache_len(&self) -> usize {
        self.cache.len()
    }

    fn as_reconfigurable(&self) -> Option<&dyn Reconfigurable> {
        Some(self)
    }
}

/// The serve-time capability: the tile mode becomes a run-time knob.
/// Configurations index into [`FlexSaMode::ALL`].
impl Reconfigurable for FlexSaBackend {
    fn config_count(&self) -> usize {
        FlexSaMode::ALL.len()
    }

    fn config_label(&self, config: usize) -> String {
        match FlexSaMode::ALL[config] {
            FlexSaMode::FullArray => "full-array".into(),
            FlexSaMode::SubArrays => "sub-arrays".into(),
        }
    }

    fn pinned_cycles(&self, shapes: &[GemmShape], config: usize) -> u64 {
        let pinned = FlexSaMode::ALL[config];
        shapes
            .iter()
            .map(|&shape| self.model.compute_cycles(shape, pinned))
            .sum()
    }

    fn flexible_cycles(&self, shapes: &[GemmShape]) -> u64 {
        shapes
            .iter()
            .map(|&shape| {
                self.model
                    .compute_cycles(shape, self.model.best_mode(shape))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_models::Layer;

    #[test]
    fn skinny_streams_split_into_sub_arrays_long_streams_stay_full() {
        let backend = FlexSaBackend::new();
        // Batch-1 FC: one streamed row, skew-dominated → sub-arrays.
        assert_eq!(
            backend.mode_for(GemmShape::new(1, 4096, 4096)),
            FlexSaMode::SubArrays
        );
        // Large conv GEMM: drain contention dominates → full array.
        assert_eq!(
            backend.mode_for(GemmShape::new(3025, 96, 363)),
            FlexSaMode::FullArray
        );
    }

    #[test]
    fn mode_selection_is_never_worse_than_either_fixed_mode() {
        let model = FlexSaModel::new(GpuConfig::volta());
        for shape in [
            GemmShape::square(64),
            GemmShape::square(2048),
            GemmShape::new(1, 1000, 4096),
            GemmShape::new(12, 24, 36),
            GemmShape::new(50176, 64, 147),
        ] {
            let best = model.compute_cycles(shape, model.best_mode(shape));
            for mode in FlexSaMode::ALL {
                assert!(
                    best <= model.compute_cycles(shape, mode),
                    "{shape:?}: best mode beaten by {mode:?}"
                );
            }
        }
    }

    #[test]
    fn both_modes_share_one_peak() {
        assert_eq!(
            FlexSaMode::FullArray.tiles_per_sm()
                * (FlexSaMode::FullArray.dim() * FlexSaMode::FullArray.dim()) as u64,
            FlexSaMode::SubArrays.tiles_per_sm()
                * (FlexSaMode::SubArrays.dim() * FlexSaMode::SubArrays.dim()) as u64,
        );
        // Iso-FLOP with 2-SMA (256 FP16 MACs per SM-cycle).
        assert_eq!(
            FlexSaModel::peak_macs_per_sm_cycle(),
            u64::from(sma_core::SmaConfig::iso_flop_2sma().macs_per_cycle())
        );
    }

    #[test]
    fn pruning_sheds_channel_parallel_work_only() {
        let roi = IrregularWork::from_layer(&Layer::RoiAlign {
            rois: 1000,
            pooled: 7,
            channels: 256,
        })
        .unwrap();
        let pruned = FlexSaBackend::pruned_work(roi);
        assert!(pruned.flops < roi.flops);
        assert!(pruned.bytes < roi.bytes);

        let nms = IrregularWork::from_layer(&Layer::Nms { boxes: 6000 }).unwrap();
        assert_eq!(FlexSaBackend::pruned_work(nms), nms, "NMS is control-bound");
    }

    #[test]
    fn pruned_irregular_runs_faster_than_on_fixed_sma_lanes() {
        let flexsa = FlexSaBackend::new();
        let sma2 = super::super::SmaBackend::iso_flop_2sma();
        let roi = IrregularWork::from_layer(&Layer::RoiAlign {
            rois: 1000,
            pooled: 7,
            channels: 256,
        })
        .unwrap();
        // Same baseline lanes (boost 1.0 during dependent inference),
        // but FlexSA sheds the masked channels first.
        assert!(flexsa.irregular(roi).time_ms < sma2.irregular(roi).time_ms);
    }

    #[test]
    fn estimates_are_memoized_and_counters_exact() {
        let backend = FlexSaBackend::new();
        let shape = GemmShape::new(17, 33, 65); // ragged on purpose
        let first = backend.gemm(shape).unwrap();
        let again = backend.gemm(shape).unwrap();
        assert_eq!(first.time_ms.to_bits(), again.time_ms.to_bits());
        let stats = backend.gemm_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(backend.gemm_cache_len(), 1);
    }

    #[test]
    fn reconfigurable_pinning_never_beats_per_shape_selection() {
        let backend = FlexSaBackend::new();
        let rc: &dyn Reconfigurable = backend.as_reconfigurable().unwrap();
        assert_eq!(rc.config_count(), 2);
        assert_eq!(rc.config_label(0), "full-array");
        assert_eq!(rc.config_label(1), "sub-arrays");
        let shapes = [
            GemmShape::new(1, 4096, 4096), // wants sub-arrays
            GemmShape::new(3025, 96, 363), // wants the full array
        ];
        let flexible = rc.flexible_cycles(&shapes);
        for config in 0..rc.config_count() {
            assert!(rc.pinned_cycles(&shapes, config) >= flexible);
        }
    }

    #[test]
    fn pinned_backend_charges_its_mode_and_never_beats_flexible() {
        let flexible = FlexSaBackend::new();
        assert_eq!(flexible.pinned, None);
        let model = FlexSaModel::new(GpuConfig::volta());
        let shapes = [
            GemmShape::new(1, 4096, 4096),
            GemmShape::new(3025, 96, 363),
            GemmShape::new(17, 33, 65),
        ];
        for mode in FlexSaMode::ALL {
            let backend = FlexSaBackend::pinned(mode);
            assert_eq!(backend.pinned, Some(mode));
            assert!(backend.name().starts_with("FlexSA-"));
            for shape in shapes {
                let est = backend.gemm(shape).unwrap();
                let direct = model.estimate_pinned(shape, mode);
                assert_eq!(est.time_ms.to_bits(), direct.time_ms.to_bits());
                assert!(est.cycles >= flexible.gemm(shape).unwrap().cycles);
            }
        }
        // Pinning at the flexible path's chosen mode reproduces it.
        let fc = GemmShape::new(1, 4096, 4096);
        let chosen = flexible.mode_for(fc);
        assert_eq!(
            FlexSaBackend::pinned(chosen)
                .gemm(fc)
                .unwrap()
                .time_ms
                .to_bits(),
            flexible.gemm(fc).unwrap().time_ms.to_bits()
        );
    }

    #[test]
    fn time_is_monotone_in_m() {
        let model = FlexSaModel::new(GpuConfig::volta());
        let mut last = 0.0;
        for m in [1usize, 8, 64, 512, 4096] {
            let t = model.estimate(GemmShape::new(m, 1024, 1024)).time_ms;
            assert!(t > last, "m={m}: {t} not above {last}");
            last = t;
        }
    }
}
