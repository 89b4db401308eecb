//! SMA configurations (paper Table I and §V-B).

use sma_sim::{GpuConfig, SchedulerKind};
use sma_systolic::DataflowKind;

/// Configuration of the SMA architecture on the Volta substrate.
///
/// The two named configurations of §V-B:
///
/// * **2-SMA** (iso-FLOP): two units = 256 FP16 MACs, exactly the four
///   TensorCores' throughput — isolates the dataflow advantage;
/// * **3-SMA** (iso-area): three units = 384 FP16 MACs, the temporal
///   integration reusing *both* the 64 FP32 SIMD lanes (128 FP16-paired
///   MACs) *and* the TC area — the configuration that beats 4-TC by 63%.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmaConfig {
    /// Number of 8×8 SMA units per SM (2 or 3).
    pub units: u32,
    /// Array edge (8).
    pub dim: u32,
    /// Run MACs at FP16 (two per FP32 lane, §IV-A).
    pub fp16: bool,
    /// Dataflow executed by the units. The architecture is built for
    /// [`DataflowKind::SemiBroadcastWeightStationary`]; the Fig. 7 (right)
    /// ablation runs [`DataflowKind::WeightStationary`] on the same
    /// substrate.
    pub dataflow: DataflowKind,
    /// Warp scheduling policy (the paper adds
    /// [`SchedulerKind::SmaRoundRobin`]).
    pub scheduler: SchedulerKind,
    /// Combine the units into one 8×24 array sharing `A` feeds (§IV-B).
    pub combine_units: bool,
}

impl SmaConfig {
    /// The iso-FLOP 2-SMA configuration.
    #[must_use]
    pub const fn iso_flop_2sma() -> Self {
        SmaConfig {
            units: 2,
            dim: 8,
            fp16: true,
            dataflow: DataflowKind::SemiBroadcastWeightStationary,
            scheduler: SchedulerKind::SmaRoundRobin,
            combine_units: true,
        }
    }

    /// The iso-area 3-SMA configuration.
    #[must_use]
    pub const fn iso_area_3sma() -> Self {
        SmaConfig {
            units: 3,
            dim: 8,
            fp16: true,
            dataflow: DataflowKind::SemiBroadcastWeightStationary,
            scheduler: SchedulerKind::SmaRoundRobin,
            combine_units: true,
        }
    }

    /// The Fig. 7 (right) ablation: same substrate, classic TPU
    /// weight-stationary dataflow.
    #[must_use]
    pub const fn tpu_dataflow_ablation() -> Self {
        let mut cfg = Self::iso_flop_2sma();
        cfg.dataflow = DataflowKind::WeightStationary;
        cfg
    }

    /// FP16-equivalent MACs per cycle per SM in systolic mode.
    #[must_use]
    pub const fn macs_per_cycle(&self) -> u32 {
        let per_unit = self.dim * self.dim * if self.fp16 { 2 } else { 1 };
        self.units * per_unit
    }

    /// The matching `GpuConfig` (Table I SMA column).
    #[must_use]
    pub fn gpu_config(&self) -> GpuConfig {
        let mut gpu = GpuConfig::volta();
        gpu.sma_units = self.units;
        gpu.sma_dim = self.dim;
        gpu
    }

    /// Storage required by the systolic controller of Fig. 5: 8×8 B `Ain`
    /// staging plus 24×8 B `Cout` staging = 256 B. The paper's area
    /// argument ("less than 0.1%" of an SM) rests on this being tiny.
    #[must_use]
    pub const fn controller_storage_bytes(&self) -> u32 {
        8 * 8 + 24 * 8
    }
}

impl Default for SmaConfig {
    fn default() -> Self {
        Self::iso_area_3sma()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_flop_matches_tc_throughput() {
        let cfg = SmaConfig::iso_flop_2sma();
        // 2 units × 8×16 FP16 = 256 = 4 TCs × 64.
        assert_eq!(cfg.macs_per_cycle(), 256);
        let tc = GpuConfig::volta().tc_fp16_tflops();
        assert!((cfg.gpu_config().sma_fp16_tflops() - tc).abs() < 1e-9);
    }

    #[test]
    fn iso_area_is_1_5x() {
        let two = SmaConfig::iso_flop_2sma();
        let three = SmaConfig::iso_area_3sma();
        assert_eq!(three.macs_per_cycle(), 384);
        let peak = |cfg: SmaConfig| cfg.gpu_config().sma_fp16_tflops();
        assert!((peak(three) / peak(two) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn controller_storage_is_256_bytes() {
        assert_eq!(SmaConfig::default().controller_storage_bytes(), 256);
        // <0.1% of the 256 KiB register file alone.
        let rf = 256 * 1024;
        assert!((256.0 / rf as f64) < 0.001);
    }

    #[test]
    fn ablation_differs_only_in_dataflow() {
        let sb = SmaConfig::iso_flop_2sma();
        let ws = SmaConfig::tpu_dataflow_ablation();
        assert_eq!(ws.dataflow, DataflowKind::WeightStationary);
        assert_eq!(ws.units, sb.units);
        assert_eq!(ws.macs_per_cycle(), sb.macs_per_cycle());
    }

    #[test]
    fn gpu_config_carries_units() {
        let gpu = SmaConfig::iso_area_3sma().gpu_config();
        assert_eq!(gpu.sma_units, 3);
        assert_eq!(gpu.sma_dim, 8);
    }
}
