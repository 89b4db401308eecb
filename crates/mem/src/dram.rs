//! DRAM bandwidth/latency model.
//!
//! The GEMM workloads the paper studies are compute-bound at the tile sizes
//! of Fig. 6, but the end-to-end applications (RoIAlign, CRF, ArgMax) and
//! small matrices are not — their time is set by how fast HBM can stream
//! operands. A simple latency + streaming-bandwidth model captures this.

/// DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Peak bandwidth in bytes per core cycle (HBM2 on V100: 900 GB/s at
    /// 1.53 GHz ≈ 588 B/cycle).
    pub bytes_per_cycle: f64,
    /// Fraction of peak achievable by streaming access (row-buffer and
    /// refresh overheads); 0.80 is the conventional GPGPU-Sim-class figure.
    pub efficiency: f64,
    /// Round-trip latency of an isolated access, in core cycles.
    pub latency: u64,
}

impl DramConfig {
    /// V100 HBM2 at the SM clock.
    #[must_use]
    pub const fn volta_hbm2() -> Self {
        DramConfig {
            bytes_per_cycle: 588.0,
            efficiency: 0.80,
            latency: 375,
        }
    }

    /// Effective streaming bandwidth in bytes/cycle.
    #[must_use]
    pub(crate) fn effective_bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle * self.efficiency
    }
}

/// Accumulating DRAM traffic model.
///
/// # Example
///
/// ```
/// use sma_mem::{Dram, DramConfig};
///
/// let mut d = Dram::new(DramConfig::volta_hbm2());
/// let cycles = d.stream(1 << 20); // 1 MiB transfer
/// assert!(cycles > 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    bytes: u64,
}

impl Dram {
    /// Creates a DRAM model.
    #[must_use]
    pub const fn new(config: DramConfig) -> Self {
        Dram { config, bytes: 0 }
    }

    /// Streams `bytes` and returns the cycles the transfer occupies:
    /// one fixed latency plus bandwidth-limited streaming.
    pub fn stream(&mut self, bytes: u64) -> u64 {
        let cycles = self.probe(bytes);
        self.bytes += bytes;
        cycles
    }

    /// Cycle cost of a transfer without recording it.
    #[must_use]
    pub(crate) fn probe(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let stream = crate::ceil_u64(bytes as f64 / self.config.effective_bytes_per_cycle());
        self.config.latency + stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        let mut d = Dram::new(DramConfig::volta_hbm2());
        assert_eq!(d.stream(0), 0);
        assert_eq!(d.bytes, 0);
    }

    #[test]
    fn small_transfer_is_latency_bound() {
        let d = Dram::new(DramConfig::volta_hbm2());
        let c = d.probe(128);
        assert_eq!(c, DramConfig::volta_hbm2().latency + 1);
    }

    #[test]
    fn large_transfer_is_bandwidth_bound() {
        let d = Dram::new(DramConfig::volta_hbm2());
        let bytes = 100 << 20; // 100 MiB
        let c = d.probe(bytes);
        let expected_stream = (bytes as f64 / (588.0 * 0.8)).ceil() as u64;
        assert_eq!(c, 375 + expected_stream);
        // Latency is negligible at this size.
        assert!((c as f64 / expected_stream as f64) < 1.01);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Dram::new(DramConfig::volta_hbm2());
        d.stream(1000);
        d.stream(2000);
        assert_eq!(d.bytes, 3000);
    }
}
