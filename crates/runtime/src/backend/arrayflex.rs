//! ArrayFlex: a systolic array with *configurable transparent
//! pipelining* (Peltekis et al., PAPERS.md).
//!
//! Where SMA's flexibility is *across* execution modes (systolic ↔
//! SIMD), ArrayFlex's is *within* the systolic domain: the pipeline
//! registers between PEs can be made transparent, fusing `span`
//! consecutive PEs into one clocked stage. A shallower pipeline
//!
//! * shortens the fill/drain skew of every pass (fewer register stages
//!   between array edges), and
//! * clocks fewer registers (the energy win), but
//! * lengthens the critical path, so the array must run at a reduced
//!   clock ([`PipelineConfig::clock_divisor`]).
//!
//! The crossover is governed by the streamed row count `m`: skinny
//! GEMMs (fully connected layers at small batch) are skew-dominated and
//! prefer transparent stages, while long activation streams amortise
//! the skew and want the full clock. [`ArrayFlexModel::estimate`]
//! evaluates every [`PipelineConfig`] per shape and keeps the fastest —
//! the per-layer configuration selection of the ArrayFlex paper — and
//! [`ArrayFlexBackend`] memoizes the winner in its own [`GemmCache`].
//!
//! The array is *spatially* integrated (a dedicated engine beside the
//! SIMD lanes, like the TensorCores): irregular work runs on the
//! baseline lanes with no reconfiguration boost. That is exactly the
//! efficiency/flexibility trade the source paper's §II measures — high
//! GEMM throughput, dead weight on GEMM-incompatible operators.

use super::{
    gpu_irregular_estimate, Backend, CacheStats, GemmCache, IrregularEstimate, IrregularWork,
    Reconfigurable, RuntimeError,
};
use sma_core::model::{GemmEstimate, L2_REUSE_DRAM_FACTOR, LAUNCH_OVERHEAD_CYCLES};
use sma_mem::{ceil_u64, MemStats};
use sma_sim::GpuConfig;
use sma_tensor::GemmShape;

/// Rows of the per-SM ArrayFlex array (the reduction dimension mapped
/// onto it, weight-stationary).
pub(crate) const ARRAYFLEX_ROWS: usize = 16;

/// Columns of the per-SM array at FP16 (two paired MACs per FP32-class
/// PE column, the same pairing the SMA units use). 16×24 = 384
/// FP16-equivalent MACs per SM-cycle — **iso-area with 3-SMA**, so any
/// latency difference against the temporally integrated design is
/// attributable to the dataflow and the pipeline reconfiguration, not
/// to a larger compute budget.
pub(crate) const ARRAYFLEX_COLS: usize = 24;

/// Fractional critical-path growth per extra PE fused into a clocked
/// stage: fusing `span` MACs multiplies the clock period by
/// `1 + 0.4 (span - 1)` (sub-linear: register setup/hold is amortised
/// and the carry chains of adjacent MACs overlap).
pub(crate) const CRITICAL_PATH_SLOPE: f64 = 0.4;

/// Fixed per-launch array overhead: weight pre-load of the first tile,
/// configuration-register write, and the output-buffer flush.
pub(crate) const ARRAYFLEX_SETUP_CYCLES: u64 = 800;

/// One transparent-pipelining configuration: `span` PEs share a clocked
/// stage.
///
/// `span = 1` is the conventional fully pipelined array; larger spans
/// trade clock rate for fill/drain latency and register energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    span: u32,
}

impl PipelineConfig {
    /// Every configuration the selection pass evaluates, shallowest
    /// pipeline last (ties break to the fully pipelined array).
    pub const ALL: [PipelineConfig; 3] = [
        PipelineConfig { span: 1 },
        PipelineConfig { span: 2 },
        PipelineConfig { span: 4 },
    ];

    /// PEs fused into one clocked pipeline stage.
    #[must_use]
    pub const fn span(self) -> u32 {
        self.span
    }

    /// Clock-period multiplier relative to the fully pipelined array.
    #[must_use]
    pub(crate) fn clock_divisor(self) -> f64 {
        1.0 + CRITICAL_PATH_SLOPE * f64::from(self.span - 1)
    }

    /// Fill + drain skew cycles of one pass: one cycle per clocked
    /// stage along each array edge.
    #[must_use]
    pub(crate) const fn skew_cycles(self) -> u64 {
        let stages_k = (ARRAYFLEX_ROWS as u64).div_ceil(self.span as u64);
        let stages_n = (ARRAYFLEX_COLS as u64).div_ceil(self.span as u64);
        (stages_k - 1) + (stages_n - 1)
    }
}

/// Closed-form latency/energy model of one ArrayFlex array per SM.
///
/// Weight-stationary mapping: the `k × n` weight matrix is tiled into
/// [`ARRAYFLEX_ROWS`]`×`[`ARRAYFLEX_COLS`] resident tiles; each tile
/// streams all `m` activation rows through the array (one row per array
/// clock), then swaps in the next tile. Tiles are distributed across
/// the GPU's SMs (one array each).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrayFlexModel {
    gpu: GpuConfig,
}

impl ArrayFlexModel {
    /// The model on the Volta substrate (Table I GPGPU column, SIMD
    /// lanes intact beside the arrays).
    #[must_use]
    pub(crate) fn new(gpu: GpuConfig) -> Self {
        ArrayFlexModel { gpu }
    }

    /// FP16-equivalent MACs per base-clock cycle per SM at full
    /// pipelining (the configuration-independent peak efficiency is
    /// measured against).
    #[must_use]
    pub(crate) const fn peak_macs_per_sm_cycle() -> u64 {
        (ARRAYFLEX_ROWS * ARRAYFLEX_COLS) as u64
    }

    /// Base-clock cycles of the whole GEMM under one pipeline
    /// configuration (before the DRAM floor and launch overhead).
    fn compute_cycles(&self, shape: GemmShape, config: PipelineConfig) -> u64 {
        let tiles =
            shape.k.div_ceil(ARRAYFLEX_ROWS) as u64 * shape.n.div_ceil(ARRAYFLEX_COLS) as u64;
        let arrays = u64::from(self.gpu.sms);
        let waves = tiles.div_ceil(arrays);
        // Stream m rows + fill/drain + 1 cycle of tile-swap visible
        // latency (weights are double-buffered; only the commit shows).
        let pass = shape.m as u64 + config.skew_cycles() + 1;
        // Array clocks are longer than base clocks by the divisor; the
        // setup (config-register write, first weight pre-load over the
        // memory pipeline) runs at base clock regardless.
        ceil_u64((waves * pass) as f64 * config.clock_divisor()) + ARRAYFLEX_SETUP_CYCLES
    }

    /// The fastest pipeline configuration for a shape (ties to the
    /// fully pipelined array).
    #[must_use]
    pub(crate) fn best_config(&self, shape: GemmShape) -> PipelineConfig {
        PipelineConfig::ALL
            .into_iter()
            .min_by(|&a, &b| {
                self.compute_cycles(shape, a)
                    .cmp(&self.compute_cycles(shape, b))
                    .then(a.span.cmp(&b.span))
            })
            // sma-lint: allow(no-panic) — min over a non-empty const
            // array; unreachable by construction.
            .expect("PipelineConfig::ALL is non-empty")
    }

    /// Estimates one GEMM, selecting the best pipeline configuration
    /// for the shape.
    #[must_use]
    pub(crate) fn estimate(&self, shape: GemmShape) -> GemmEstimate {
        self.estimate_pinned(shape, self.best_config(shape))
    }

    /// Estimates one GEMM under one *pinned* pipeline configuration —
    /// the design-space-exploration axis: what the array costs when the
    /// span is a design-time (not per-shape) decision. `estimate` is
    /// exactly this at [`ArrayFlexModel::best_config`], so the flexible
    /// path's numbers are unchanged by construction.
    #[must_use]
    pub(crate) fn estimate_pinned(&self, shape: GemmShape, config: PipelineConfig) -> GemmEstimate {
        let compute = self.compute_cycles(shape, config);

        let tiles =
            shape.k.div_ceil(ARRAYFLEX_ROWS) as u64 * shape.n.div_ceil(ARRAYFLEX_COLS) as u64;
        let arrays = u64::from(self.gpu.sms);
        let active = tiles.min(arrays);
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
            mem: self.ledger(shape, config, dram_bytes),
            sm_cycles: cycles * active,
        }
    }

    /// Access ledger of the whole GEMM. Register-pipeline energy is
    /// where transparent pipelining pays: `pe_transfers` shrinks with
    /// the span because fused stages latch nothing between them.
    fn ledger(&self, shape: GemmShape, config: PipelineConfig, dram_bytes: u64) -> MemStats {
        let tk = shape.k.div_ceil(ARRAYFLEX_ROWS) as u64;
        let tn = shape.n.div_ceil(ARRAYFLEX_COLS) as u64;
        let tiles = tk * tn;
        let m = shape.m as u64;
        // Issued volume including ragged-edge padding.
        let issued = tiles * (ARRAYFLEX_ROWS * ARRAYFLEX_COLS) as u64 * m;
        let mut mem = MemStats {
            systolic_macs: issued,
            // Two pipeline latches per MAC fully pipelined; transparent
            // stages fuse span MACs per latch.
            pe_transfers: issued * 2 / u64::from(config.span()),
            // Activation feed: every tile streams m rows of
            // ARRAYFLEX_ROWS elements out of shared memory.
            shared_reads: tiles * m * ARRAYFLEX_ROWS as u64,
            // Tile staging: weights written once per resident tile.
            shared_writes: tiles * (ARRAYFLEX_ROWS * ARRAYFLEX_COLS) as u64 / 32,
            // Result drain: one coalesced RF read-modify-write per
            // output row per tile column.
            rf_reads: tn * m * ARRAYFLEX_COLS as u64 / 32,
            rf_writes: tn * m * ARRAYFLEX_COLS as u64 / 32,
            dram_bytes,
            ..MemStats::default()
        };
        let tile_bytes = shape.min_bytes(2);
        mem.l1_misses = tile_bytes / 128;
        mem.l2_hits = (tile_bytes - dram_bytes.min(tile_bytes)) / 128;
        mem.l2_misses = dram_bytes / 128;
        // Control: one configuration write plus per-tile descriptors.
        mem.instructions = tiles * 4 + 64;
        mem.alu_ops = tiles * 8;
        mem
    }
}

/// The ArrayFlex platform: one configurable-transparent-pipelining
/// systolic array per SM beside the baseline SIMD lanes.
///
/// GEMM estimates select the best [`PipelineConfig`] per shape and are
/// memoized in the backend's own [`GemmCache`]; irregular work runs on
/// the unmodified SIMD lanes (spatial integration: no mode folding, so
/// [`Backend::simd_mode_boost`] is 1.0).
#[derive(Debug)]
pub struct ArrayFlexBackend {
    gpu: GpuConfig,
    model: ArrayFlexModel,
    cache: GemmCache,
    pinned: Option<PipelineConfig>,
}

impl ArrayFlexBackend {
    /// The evaluated ArrayFlex configuration on the Volta substrate.
    #[must_use]
    pub fn new() -> Self {
        // One substrate config shared by the GEMM model and the
        // irregular (SIMD-lane) path — they must never diverge.
        let gpu = GpuConfig::volta();
        ArrayFlexBackend {
            gpu,
            model: ArrayFlexModel::new(gpu),
            cache: GemmCache::default(),
            pinned: None,
        }
    }

    /// The same array with the pipeline span *pinned* at design time:
    /// every GEMM runs under `config` instead of the per-shape best.
    /// This is the DSE fabric axis — the cost of giving up run-time
    /// span selection — with its own [`GemmCache`] (pinned and flexible
    /// estimates must never share memo entries).
    #[must_use]
    pub fn pinned(config: PipelineConfig) -> Self {
        let mut backend = Self::new();
        backend.pinned = Some(config);
        backend
    }

    /// The pipeline configuration the model selects for a shape
    /// (exposed for tests and the backend-authoring guide).
    #[must_use]
    pub fn config_for(&self, shape: GemmShape) -> PipelineConfig {
        self.model.best_config(shape)
    }
}

impl Default for ArrayFlexBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for ArrayFlexBackend {
    fn name(&self) -> &'static str {
        match self.pinned.map(PipelineConfig::span) {
            None => "ArrayFlex",
            Some(1) => "ArrayFlex-span1",
            Some(2) => "ArrayFlex-span2",
            _ => "ArrayFlex-span4",
        }
    }

    fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
        Ok(self.cache.get_or_compute(shape, || match self.pinned {
            None => self.model.estimate(shape),
            Some(config) => self.model.estimate_pinned(shape, config),
        }))
    }

    fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
        gpu_irregular_estimate(&self.gpu, &work)
    }

    fn transfer_ms(&self, _bytes: u64) -> f64 {
        0.0
    }

    /// A dedicated array cannot fold into SIMD lanes: no boost.
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

/// The serve-time capability: the pipeline span becomes a run-time
/// knob. Configurations index into [`PipelineConfig::ALL`].
impl Reconfigurable for ArrayFlexBackend {
    fn config_count(&self) -> usize {
        PipelineConfig::ALL.len()
    }

    fn config_label(&self, config: usize) -> String {
        format!("span{}", PipelineConfig::ALL[config].span())
    }

    fn pinned_cycles(&self, shapes: &[GemmShape], config: usize) -> u64 {
        let pinned = PipelineConfig::ALL[config];
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
                    .compute_cycles(shape, self.model.best_config(shape))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn skinny_streams_pick_transparent_stages_long_streams_full_pipeline() {
        let backend = ArrayFlexBackend::new();
        // A batch-1 FC layer streams one activation row: pure skew.
        let fc = GemmShape::new(1, 4096, 4096);
        assert_eq!(backend.config_for(fc).span(), 4, "skew-dominated");
        // A large conv GEMM streams thousands of rows: full clock wins.
        let conv = GemmShape::new(3025, 96, 363);
        assert_eq!(backend.config_for(conv).span(), 1, "stream-dominated");
    }

    #[test]
    fn config_selection_is_never_worse_than_any_fixed_config() {
        let model = ArrayFlexModel::new(GpuConfig::volta());
        for shape in [
            GemmShape::square(64),
            GemmShape::square(1024),
            GemmShape::new(1, 1000, 4096),
            GemmShape::new(16, 4096, 9216),
            GemmShape::new(50176, 64, 147),
        ] {
            let best = model.compute_cycles(shape, model.best_config(shape));
            for config in PipelineConfig::ALL {
                assert!(
                    best <= model.compute_cycles(shape, config),
                    "{shape:?}: best config beaten by span {}",
                    config.span()
                );
            }
        }
    }

    #[test]
    fn clock_divisor_and_skew_move_oppositely() {
        let [full, half, quarter] = PipelineConfig::ALL;
        assert_eq!(full.clock_divisor(), 1.0);
        assert!(half.clock_divisor() < quarter.clock_divisor());
        assert!(full.skew_cycles() > half.skew_cycles());
        assert!(half.skew_cycles() > quarter.skew_cycles());
    }

    #[test]
    fn transparent_stages_cut_register_energy() {
        let model = ArrayFlexModel::new(GpuConfig::volta());
        let shape = GemmShape::new(1, 512, 512);
        // The selected (shallow) config latches fewer pipeline
        // registers than a forced fully pipelined ledger would.
        let est = model.estimate(shape);
        let full_transfers = est.mem.systolic_macs * 2;
        assert!(est.mem.pe_transfers < full_transfers);
    }

    #[test]
    fn estimates_are_memoized_and_counters_exact() {
        let backend = ArrayFlexBackend::new();
        let shape = GemmShape::square(256);
        let first = backend.gemm(shape).unwrap();
        let again = backend.gemm(shape).unwrap();
        assert_eq!(first.time_ms.to_bits(), again.time_ms.to_bits());
        let stats = backend.gemm_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(backend.gemm_cache_len(), 1);
    }

    #[test]
    fn reconfigurable_pinning_never_beats_per_shape_selection() {
        let backend = ArrayFlexBackend::new();
        let rc: &dyn Reconfigurable = backend.as_reconfigurable().unwrap();
        assert_eq!(rc.config_count(), PipelineConfig::ALL.len());
        assert_eq!(rc.config_label(2), "span4");
        let shapes = [
            GemmShape::new(1, 4096, 4096), // skew-dominated: wants span 4
            GemmShape::new(3025, 96, 363), // stream-dominated: wants span 1
            GemmShape::new(16, 4096, 9216),
        ];
        let flexible = rc.flexible_cycles(&shapes);
        for config in 0..rc.config_count() {
            assert!(
                rc.pinned_cycles(&shapes, config) >= flexible,
                "pinned {config} beat the per-shape best"
            );
        }
        // A mixed workload makes the dominance strict: no single span
        // is optimal for both shapes above.
        assert!((0..rc.config_count()).all(|c| rc.pinned_cycles(&shapes, c) > flexible));
    }

    #[test]
    fn pinned_backend_charges_its_span_and_never_beats_flexible() {
        let flexible = ArrayFlexBackend::new();
        assert_eq!(flexible.pinned, None);
        let model = ArrayFlexModel::new(GpuConfig::volta());
        let shapes = [
            GemmShape::new(1, 4096, 4096),
            GemmShape::new(3025, 96, 363),
            GemmShape::square(512),
        ];
        for config in PipelineConfig::ALL {
            let backend = ArrayFlexBackend::pinned(config);
            assert_eq!(backend.pinned, Some(config));
            assert!(backend.name().starts_with("ArrayFlex-span"));
            for shape in shapes {
                let est = backend.gemm(shape).unwrap();
                let direct = model.estimate_pinned(shape, config);
                assert_eq!(est.time_ms.to_bits(), direct.time_ms.to_bits());
                assert!(est.cycles >= flexible.gemm(shape).unwrap().cycles);
            }
        }
        // Pinning at the flexible path's chosen span reproduces it.
        let fc = GemmShape::new(1, 4096, 4096);
        let chosen = flexible.config_for(fc);
        assert_eq!(
            ArrayFlexBackend::pinned(chosen)
                .gemm(fc)
                .unwrap()
                .time_ms
                .to_bits(),
            flexible.gemm(fc).unwrap().time_ms.to_bits()
        );
    }

    #[test]
    fn time_is_monotone_in_m() {
        let model = ArrayFlexModel::new(GpuConfig::volta());
        let mut last = 0.0;
        for m in [1usize, 8, 64, 512, 4096] {
            let t = model.estimate(GemmShape::new(m, 1024, 1024)).time_ms;
            assert!(t > last, "m={m}: {t} not above {last}");
            last = t;
        }
    }

    #[test]
    fn beats_sma3_on_large_square_gemm_at_iso_area_peak() {
        // The trade the ROADMAP asks to test, at matched compute
        // budget: ArrayFlex is pinned iso-area with 3-SMA…
        assert_eq!(
            ArrayFlexModel::peak_macs_per_sm_cycle(),
            u64::from(sma_core::SmaConfig::iso_area_3sma().macs_per_cycle())
        );
        // …so out-running temporal integration on pure GEMM is a
        // dataflow/overhead result, not a bigger array…
        let af = ArrayFlexBackend::new();
        let sma3 = super::super::SmaBackend::iso_area_3sma();
        let big = GemmShape::square(8192);
        let t_af = af.gemm(big).unwrap().time_ms;
        let t_sma = sma3.gemm(big).unwrap().time_ms;
        assert!(t_af < t_sma, "ArrayFlex {t_af} vs 3-SMA {t_sma}");
        // …and it has no lanes to boost for irregular phases.
        assert_eq!(af.simd_mode_boost(), 1.0);
        assert_eq!(sma3.simd_mode_boost(), 3.0);
    }
}
