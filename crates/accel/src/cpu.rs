//! Single-core host CPU model — the fallback executor for operations the
//! TPU cannot run (§II-B: the CRF runs on one CPU core, 10× slower than
//! the GPU).

/// A one-core host CPU with SIMD units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Clock in GHz.
    pub clock_ghz: f64,
    /// FP32 FLOPs per cycle with vector units on regular code (AVX2 FMA:
    /// 16; real kernels with loads/stores sustain less).
    pub flops_per_cycle: f64,
    /// Sustained memory bandwidth in GB/s for one core.
    pub mem_gbps: f64,
    /// Throughput derating for irregular, branchy code (message passing,
    /// gather/scatter): achieved FLOPs = peak × this.
    pub irregular_efficiency: f64,
}

impl CpuModel {
    /// A Xeon-class server core circa the paper's evaluation.
    #[must_use]
    pub const fn xeon_core() -> Self {
        CpuModel {
            clock_ghz: 3.0,
            flops_per_cycle: 16.0,
            mem_gbps: 12.0,
            irregular_efficiency: 0.12,
        }
    }

    /// Peak GFLOPS of the core.
    #[must_use]
    pub fn peak_gflops(&self) -> f64 {
        self.clock_ghz * self.flops_per_cycle
    }

    /// Time in milliseconds for a *regular* (vectorisable, streaming)
    /// kernel of `flops` floating ops touching `bytes` of memory.
    #[must_use]
    pub fn regular_ms(&self, flops: u64, bytes: u64) -> f64 {
        let compute = flops as f64 / (self.peak_gflops() * 1e9) * 1e3;
        let memory = bytes as f64 / (self.mem_gbps * 1e9) * 1e3;
        compute.max(memory)
    }

    /// Time in milliseconds for an *irregular* kernel (the CRF's
    /// message-passing loops, NMS's data-dependent control flow).
    #[must_use]
    pub fn irregular_ms(&self, flops: u64, bytes: u64) -> f64 {
        let compute = flops as f64 / (self.peak_gflops() * self.irregular_efficiency * 1e9) * 1e3;
        let memory = bytes as f64 / (self.mem_gbps * 1e9) * 1e3;
        compute.max(memory)
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        Self::xeon_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_sane() {
        assert!((CpuModel::xeon_core().peak_gflops() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn irregular_is_slower_than_regular() {
        let cpu = CpuModel::xeon_core();
        let flops = 10_000_000_000;
        assert!(cpu.irregular_ms(flops, 0) > 5.0 * cpu.regular_ms(flops, 0));
    }

    #[test]
    fn memory_bound_kernels_hit_bandwidth() {
        let cpu = CpuModel::xeon_core();
        // 1.2 GB at 12 GB/s = 100 ms regardless of FLOPs.
        let t = cpu.regular_ms(1000, 1_200_000_000);
        assert!((t - 100.0).abs() < 1.0);
    }
}
