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
//! [`FlexSaBackend`] evaluates both [`FlexSaMode`]s per GEMM shape and
//! keeps the faster — the per-GEMM reconfiguration decision of the
//! FlexSA paper — through the shared reconfigurable-fabric core
//! (`fabric.rs`), which also holds the weight-stationary tiling, the
//! DRAM floor and the ledger.
//!
//! The second FlexSA-only capability is the **pruning-aware irregular
//! path**: structured (channel/block) pruning masks are first-class in
//! the tile sequencer, so channel-parallel irregular operators skip
//! masked work entirely. The fixed-function SMA arrays cannot do this —
//! their irregular path is the unmodified SIMD lanes, which execute
//! every lane of a masked channel anyway.

use super::fabric::{Fabric, FabricConfig};
use super::{GpuBackend, IrregularOp, IrregularWork};
use sma_mem::ceil_u64;

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
}

/// One 16×16 array or four 8×8 sub-arrays per SM.
impl FabricConfig for FlexSaMode {
    const CONFIGS: &'static [Self] = &FlexSaMode::ALL;

    /// Identical in both modes (16² = 4·8² = 256, iso-FLOP with 2-SMA
    /// and 4-TC).
    const PEAK_MACS_PER_SM_CYCLE: u64 = (FLEXSA_FULL_DIM * FLEXSA_FULL_DIM) as u64;

    fn name(pinned: Option<Self>) -> &'static str {
        match pinned {
            None => "FlexSA",
            Some(FlexSaMode::FullArray) => "FlexSA-full",
            Some(FlexSaMode::SubArrays) => "FlexSA-sub",
        }
    }

    fn label(self) -> String {
        match self {
            FlexSaMode::FullArray => "full-array",
            FlexSaMode::SubArrays => "sub-arrays",
        }
        .into()
    }

    fn tile(self) -> (usize, usize) {
        match self {
            FlexSaMode::FullArray => (FLEXSA_FULL_DIM, FLEXSA_FULL_DIM),
            FlexSaMode::SubArrays => (FLEXSA_SUB_DIM, FLEXSA_SUB_DIM),
        }
    }

    fn arrays_per_sm(self) -> u64 {
        match self {
            FlexSaMode::FullArray => 1,
            FlexSaMode::SubArrays => 4,
        }
    }

    fn compute_cycles(self, m: u64, waves: u64) -> u64 {
        let dim = self.tile().0 as u64;
        let drain = match self {
            FlexSaMode::FullArray => 0.0,
            FlexSaMode::SubArrays => FLEXSA_DRAIN_CONTENTION * m as f64,
        };
        let pass = ceil_u64(m as f64 + drain) + 2 * (dim - 1) + dim;
        waves * pass + FLEXSA_SETUP_CYCLES
    }

    /// The contended sub-array drain serialises on the RF write ports.
    fn drain_conflict_cycles(self, streamed_rows: u64) -> u64 {
        match self {
            FlexSaMode::FullArray => 0,
            FlexSaMode::SubArrays => (FLEXSA_DRAIN_CONTENTION * streamed_rows as f64) as u64,
        }
    }

    /// The work remaining after the structured mask. Channel-parallel
    /// operators (RoIAlign over feature channels, per-pixel class
    /// reductions, streaming elementwise stages) skip masked channels
    /// in the tile sequencer: they shed [`FLEXSA_PRUNE_FRACTION`] of
    /// their FLOPs and half that fraction of their bytes (masked
    /// channels are never fetched, but index metadata still streams).
    /// Control-flow-bound ops (NMS ordering, CRF message passing) shed
    /// nothing.
    fn irregular_work(work: IrregularWork) -> IrregularWork {
        let prunable = matches!(
            work.op,
            IrregularOp::RoiAlign { .. } | IrregularOp::ArgMax { .. } | IrregularOp::Streaming
        );
        if !prunable {
            return work;
        }
        let mut pruned = work;
        pruned.flops = (work.flops as f64 * (1.0 - FLEXSA_PRUNE_FRACTION)) as u64;
        pruned.bytes = (work.bytes as f64 * (1.0 - FLEXSA_PRUNE_FRACTION / 2.0)) as u64;
        pruned
    }
}

/// The FlexSA platform: one reconfigurable (16×16 ⇄ 4×8×8) systolic
/// array per SM beside the baseline SIMD lanes, with structured-pruning
/// masks wired into the tile sequencer.
///
/// Each GEMM runs under the best [`FlexSaMode`] for its shape (or the
/// one `pinned` at design time). Irregular work runs on the SIMD lanes
/// after the structured mask sheds its share — the path the fixed SMA arrays cannot exploit.
pub type FlexSaBackend = GpuBackend<Fabric<FlexSaMode>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::fabric::contract::Contract;
    use crate::backend::{Backend, SmaBackend};
    use sma_models::Layer;
    use sma_tensor::GemmShape;

    #[test]
    fn skinny_streams_split_into_sub_arrays_long_streams_stay_full() {
        let backend = FlexSaBackend::new();
        // Batch-1 FC: one streamed row, skew-dominated → sub-arrays.
        assert_eq!(
            backend.config_for(GemmShape::new(1, 4096, 4096)),
            FlexSaMode::SubArrays
        );
        // Large conv GEMM: drain contention dominates → full array.
        assert_eq!(
            backend.config_for(GemmShape::new(3025, 96, 363)),
            FlexSaMode::FullArray
        );
    }

    /// The fabric contract's fixture: the shapes the FlexSA tests run
    /// on, and a mixed workload no single mode serves best.
    fn contract() -> Contract<'static> {
        const SHAPES: &[GemmShape] = &[
            GemmShape::new(1, 4096, 4096), // wants sub-arrays
            GemmShape::new(3025, 96, 363), // wants the full array
            GemmShape::new(17, 33, 65),    // ragged on purpose
            GemmShape::new(1, 1000, 4096),
            GemmShape::new(12, 24, 36),
            GemmShape::new(50176, 64, 147),
            GemmShape::square(64),
            GemmShape::square(2048),
        ];
        Contract {
            shapes: SHAPES,
            mixed: &SHAPES[..2],
            labels: &["full-array", "sub-arrays"],
            pinned_prefix: "FlexSA-",
        }
    }

    #[test]
    fn mode_selection_is_never_worse_than_either_fixed_mode() {
        contract().selection_never_loses::<FlexSaMode>();
    }

    #[test]
    fn estimates_are_memoized_and_counters_exact() {
        contract().memoized_with_exact_counters::<FlexSaMode>();
    }

    #[test]
    fn reconfigurable_pinning_never_beats_per_shape_selection() {
        contract().pinning_never_beats_selection::<FlexSaMode>();
    }

    #[test]
    fn pinned_backend_charges_its_mode_and_never_beats_flexible() {
        contract().pinned_charges_its_config::<FlexSaMode>();
    }

    #[test]
    fn time_is_monotone_in_m() {
        contract().time_is_monotone_in_m::<FlexSaMode>();
    }

    #[test]
    fn both_modes_share_one_peak() {
        let macs = |mode: FlexSaMode| {
            let (rows, cols) = mode.tile();
            mode.arrays_per_sm() * (rows * cols) as u64
        };
        assert_eq!(macs(FlexSaMode::FullArray), macs(FlexSaMode::SubArrays));
        // Iso-FLOP with 2-SMA (256 FP16 MACs per SM-cycle).
        assert_eq!(
            FlexSaMode::PEAK_MACS_PER_SM_CYCLE,
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
        let pruned = FlexSaMode::irregular_work(roi);
        assert!(pruned.flops < roi.flops);
        assert!(pruned.bytes < roi.bytes);

        let nms = IrregularWork::from_layer(&Layer::Nms { boxes: 6000 }).unwrap();
        assert_eq!(FlexSaMode::irregular_work(nms), nms, "NMS is control-bound");
    }

    #[test]
    fn pruned_irregular_runs_faster_than_on_fixed_sma_lanes() {
        let flexsa = FlexSaBackend::new();
        let sma2 = SmaBackend::iso_flop_2sma();
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
}
