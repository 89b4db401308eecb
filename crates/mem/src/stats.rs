//! The access ledger consumed by the energy model.

use std::ops::{Add, AddAssign};

/// Counts of every energy-relevant event in a simulated kernel.
///
/// The Fig. 8 energy comparison sums per-access energies over exactly these
/// categories (Global / Shared / Register / PE / Const); keeping one ledger
/// type shared by all simulators guarantees the accounting is consistent
/// between the SIMD, TC, SMA and TPU models.
///
/// # Example
///
/// ```
/// use sma_mem::MemStats;
///
/// let mut a = MemStats::default();
/// a.rf_reads = 10;
/// let mut b = MemStats::default();
/// b.rf_reads = 5;
/// assert_eq!((a + b).rf_reads, 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Register-file read transactions (warp-wide vectors).
    pub rf_reads: u64,
    /// Register-file write transactions.
    pub rf_writes: u64,
    /// Shared-memory read transactions (after bank serialisation).
    pub shared_reads: u64,
    /// Shared-memory write transactions.
    pub shared_writes: u64,
    /// Shared-memory cycles lost to bank conflicts.
    pub shared_conflict_cycles: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Constant-cache reads.
    pub const_reads: u64,
    /// FP32-equivalent MAC operations executed by SIMD lanes.
    pub simd_macs: u64,
    /// MACs executed inside TensorCore dot-product units.
    pub tc_macs: u64,
    /// MACs executed inside systolic PEs.
    pub systolic_macs: u64,
    /// Other ALU instructions (address math, control).
    pub alu_ops: u64,
    /// Instructions fetched/decoded (dynamic count).
    pub instructions: u64,
    /// Values forwarded over PE-to-PE wires (systolic data movement).
    pub pe_transfers: u64,
}

impl MemStats {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total MACs across all execution-unit kinds.
    #[must_use]
    pub const fn total_macs(&self) -> u64 {
        self.simd_macs + self.tc_macs + self.systolic_macs
    }

    /// Total shared-memory transactions.
    #[must_use]
    pub const fn shared_accesses(&self) -> u64 {
        self.shared_reads + self.shared_writes
    }

    /// Total register-file transactions.
    #[must_use]
    pub const fn rf_accesses(&self) -> u64 {
        self.rf_reads + self.rf_writes
    }

    /// Scales every counter by an integer factor — used to extrapolate a
    /// single simulated thread block to a full grid of identical blocks.
    #[must_use]
    pub fn scaled(&self, factor: u64) -> MemStats {
        MemStats {
            rf_reads: self.rf_reads * factor,
            rf_writes: self.rf_writes * factor,
            shared_reads: self.shared_reads * factor,
            shared_writes: self.shared_writes * factor,
            shared_conflict_cycles: self.shared_conflict_cycles * factor,
            l1_hits: self.l1_hits * factor,
            l1_misses: self.l1_misses * factor,
            l2_hits: self.l2_hits * factor,
            l2_misses: self.l2_misses * factor,
            dram_bytes: self.dram_bytes * factor,
            const_reads: self.const_reads * factor,
            simd_macs: self.simd_macs * factor,
            tc_macs: self.tc_macs * factor,
            systolic_macs: self.systolic_macs * factor,
            alu_ops: self.alu_ops * factor,
            instructions: self.instructions * factor,
            pe_transfers: self.pe_transfers * factor,
        }
    }
}

impl Add for MemStats {
    type Output = MemStats;

    fn add(self, rhs: MemStats) -> MemStats {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for MemStats {
    fn add_assign(&mut self, rhs: MemStats) {
        self.rf_reads += rhs.rf_reads;
        self.rf_writes += rhs.rf_writes;
        self.shared_reads += rhs.shared_reads;
        self.shared_writes += rhs.shared_writes;
        self.shared_conflict_cycles += rhs.shared_conflict_cycles;
        self.l1_hits += rhs.l1_hits;
        self.l1_misses += rhs.l1_misses;
        self.l2_hits += rhs.l2_hits;
        self.l2_misses += rhs.l2_misses;
        self.dram_bytes += rhs.dram_bytes;
        self.const_reads += rhs.const_reads;
        self.simd_macs += rhs.simd_macs;
        self.tc_macs += rhs.tc_macs;
        self.systolic_macs += rhs.systolic_macs;
        self.alu_ops += rhs.alu_ops;
        self.instructions += rhs.instructions;
        self.pe_transfers += rhs.pe_transfers;
    }
}

impl std::iter::Sum for MemStats {
    fn sum<I: Iterator<Item = MemStats>>(iter: I) -> MemStats {
        iter.fold(MemStats::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sum() {
        let mut a = MemStats::new();
        a.shared_reads = 3;
        a.systolic_macs = 100;
        let mut b = MemStats::new();
        b.shared_reads = 4;
        b.tc_macs = 7;
        let s: MemStats = [a, b].into_iter().sum();
        assert_eq!(s.shared_reads, 7);
        assert_eq!(s.total_macs(), 107);
        assert_eq!(s.shared_accesses(), 7);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let mut a = MemStats::new();
        a.rf_reads = 2;
        a.dram_bytes = 10;
        a.instructions = 5;
        let s = a.scaled(3);
        assert_eq!(s.rf_reads, 6);
        assert_eq!(s.dram_bytes, 30);
        assert_eq!(s.instructions, 15);
        assert_eq!(s.rf_accesses(), 6);
    }
}
