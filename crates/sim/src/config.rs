//! GPU configurations (paper Table I).

/// Pipeline and memory latencies in core cycles.
///
/// Values follow the Volta microbenchmarking literature (Jia et al. 2018),
/// which is also what GPGPU-Sim 4.0's Volta config uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// FP32/INT ALU dependent-issue latency.
    pub alu: u32,
    /// Special-function unit latency.
    pub sfu: u32,
    /// Shared-memory load-to-use latency (conflict-free).
    pub shared: u32,
    /// L1 hit latency.
    pub l1: u32,
    /// L2 hit latency.
    pub l2: u32,
    /// DRAM access latency.
    pub dram: u32,
    /// TensorCore HMMA step latency.
    pub hmma: u32,
}

impl Latencies {
    /// Volta-class latencies.
    #[must_use]
    pub const fn volta() -> Self {
        Latencies {
            alu: 4,
            sfu: 16,
            shared: 24,
            l1: 28,
            l2: 193,
            dram: 400,
            hmma: 8,
        }
    }
}

/// Configuration of one simulated GPU (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub sms: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// FP32 CUDA cores per SM (64 on Volta).
    pub fp32_lanes: u32,
    /// INT32 lanes per SM (64 on Volta, co-issued with FP32).
    pub int_lanes: u32,
    /// TensorCores per SM; each performs one 4×4×4 HMMA step per cycle
    /// (64 FP16 MACs). Table I: 4 per SM = 256 FP16 units.
    pub tensor_cores: u32,
    /// SMA units per SM (0 for the baseline GPU; 2 or 3 per §V-B). Each is
    /// an 8×8 FP32 / 8×16 FP16 semi-broadcast systolic array.
    pub sma_units: u32,
    /// Systolic array edge (8 in the paper).
    pub sma_dim: u32,
    /// Warp schedulers per SM (each issues 1 instruction/cycle).
    pub schedulers: u32,
    /// Shared-memory banks.
    pub shared_banks: u32,
    /// Shared-memory banks dedicated to SMA `A`-feeds (Table I: 8 for all
    /// SMA units together).
    pub sma_feed_banks: u32,
    /// Shared memory capacity per SM in bytes (configurable up to 96 KiB).
    pub shared_bytes: u32,
    /// Register file per SM in bytes (256 KiB).
    pub rf_bytes: u32,
    /// Register-file banks (each: one warp-wide vector access per cycle).
    pub rf_banks: u32,
    /// Maximum resident warps per SM.
    pub max_warps: u32,
    /// DRAM bytes per core cycle available to one SM when the whole grid
    /// is resident (total BW / SMs).
    pub dram_bytes_per_cycle_per_sm: f64,
    /// Latency table.
    pub latencies: Latencies,
}

impl GpuConfig {
    /// The baseline Volta GPU of Table I (GPGPU column).
    #[must_use]
    pub const fn volta() -> Self {
        GpuConfig {
            sms: 80,
            clock_ghz: 1.53,
            fp32_lanes: 64,
            int_lanes: 64,
            tensor_cores: 4,
            sma_units: 0,
            sma_dim: 8,
            schedulers: 4,
            shared_banks: 32,
            sma_feed_banks: 8,
            shared_bytes: 96 * 1024,
            rf_bytes: 256 * 1024,
            rf_banks: 4,
            max_warps: 64,
            // 900 GB/s at 1.53 GHz over 80 SMs ≈ 7.35 B/cycle/SM.
            dram_bytes_per_cycle_per_sm: 7.35,
            latencies: Latencies::volta(),
        }
    }

    /// The SMA column of Table I: same SM, `units` SMA arrays carved out
    /// of the existing lanes (temporal integration — the lanes are still
    /// there for SIMD mode).
    #[must_use]
    pub const fn volta_sma(units: u32) -> Self {
        let mut cfg = Self::volta();
        cfg.sma_units = units;
        cfg
    }

    /// FP32 FMA initiations per cycle (warp-wide ops).
    #[must_use]
    pub const fn fp32_warp_slots(&self) -> u32 {
        self.fp32_lanes / 32
    }

    /// INT warp-op initiations per cycle.
    #[must_use]
    pub const fn int_warp_slots(&self) -> u32 {
        self.int_lanes / 32
    }

    /// Peak FP32 TFLOPS of the SIMD lanes.
    #[must_use]
    pub fn simd_fp32_tflops(&self) -> f64 {
        self.sms as f64 * self.fp32_lanes as f64 * 2.0 * self.clock_ghz / 1000.0
    }

    /// Peak FP16 TFLOPS of the TensorCores (64 MACs each per cycle).
    #[must_use]
    pub fn tc_fp16_tflops(&self) -> f64 {
        self.sms as f64 * self.tensor_cores as f64 * 64.0 * 2.0 * self.clock_ghz / 1000.0
    }

    /// Peak FP16 TFLOPS of the SMA units (8×16 FP16 MACs each per cycle
    /// with FP16 pairing, §IV-A).
    #[must_use]
    pub fn sma_fp16_tflops(&self) -> f64 {
        let macs = (self.sma_dim * self.sma_dim * 2) as f64;
        self.sms as f64 * self.sma_units as f64 * macs * 2.0 * self.clock_ghz / 1000.0
    }

    /// Cycles for a duration in seconds.
    #[must_use]
    pub fn cycles_for_seconds(&self, s: f64) -> u64 {
        (s * self.clock_ghz * 1e9) as u64
    }

    /// Seconds for a cycle count.
    #[must_use]
    pub fn seconds_for_cycles(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Milliseconds for a cycle count.
    #[must_use]
    pub fn ms_for_cycles(&self, cycles: u64) -> f64 {
        self.seconds_for_cycles(cycles) * 1e3
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::volta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volta_peaks_match_table_1() {
        let cfg = GpuConfig::volta();
        // 15.7 FP32 TFLOPS (paper §II-A).
        assert!((cfg.simd_fp32_tflops() - 15.67).abs() < 0.1);
        // 4 TCs × 64 FP16 MACs = 256 FP16 units per SM.
        assert!((cfg.tc_fp16_tflops() - 62.7).abs() < 0.3);
        assert_eq!(cfg.fp32_warp_slots(), 2);
    }

    #[test]
    fn sma_config_is_iso_flop_with_tc_at_two_units() {
        let cfg = GpuConfig::volta_sma(2);
        assert!((cfg.sma_fp16_tflops() - cfg.tc_fp16_tflops()).abs() < 1e-9);
        // 3 units: the iso-area configuration, 1.5× the FLOPS.
        let cfg3 = GpuConfig::volta_sma(3);
        assert!((cfg3.sma_fp16_tflops() / cfg.tc_fp16_tflops() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn time_conversions_roundtrip() {
        let cfg = GpuConfig::volta();
        let cycles = cfg.cycles_for_seconds(1e-3);
        assert!((cfg.ms_for_cycles(cycles) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn default_is_volta() {
        assert_eq!(GpuConfig::default(), GpuConfig::volta());
    }
}
