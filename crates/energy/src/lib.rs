//! GPUWattch/CACTI-style energy model.
//!
//! The paper estimates energy with GPUWattch \[12\] and CACTI \[21\] (§V-A);
//! Fig. 8 (bottom) reports energy normalised to the 4-TC baseline, broken
//! into **Global / Shared / Register / PE / Const** components. Energy
//! differences between the architectures come from *access-count*
//! differences (dataflows change how often each structure is touched), so
//! the model here is a per-access energy table applied to the
//! [`sma_mem::MemStats`] ledger that every simulator in the workspace
//! produces.
//!
//! Absolute per-access numbers follow the published
//! energy-per-operation hierarchy (Horowitz ISSCC'14 scaled to a 12 nm
//! process, HBM2 at ~15 pJ/B): what matters for the reproduction is the
//! *ratios* between structures, which are stable across processes.
//!
//! # Example
//!
//! ```
//! use sma_energy::{EnergyModel, EnergyBreakdown};
//! use sma_mem::MemStats;
//!
//! let model = EnergyModel::volta();
//! let mut stats = MemStats::default();
//! stats.systolic_macs = 1_000_000;
//! stats.rf_reads = 1_000;
//! let e = model.estimate(&stats);
//! assert!(e.pe > 0.0 && e.register > 0.0);
//! assert!(e.total() > e.pe);
//! ```

#![deny(missing_docs)]
#![deny(unreachable_pub)]

use sma_mem::MemStats;
use std::fmt;

/// Per-access/per-operation energies in picojoules.
///
/// Field names mirror the event categories of [`MemStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// One FP32 fused multiply-add.
    pub fma_fp32_pj: f64,
    /// One FP16 multiply-add (half the FP32 energy after pairing).
    pub fma_fp16_pj: f64,
    /// One warp-wide (128 B) register-file vector access.
    pub rf_access_pj: f64,
    /// One warp-wide shared-memory transaction.
    pub shared_access_pj: f64,
    /// One L1 cache access (tag + data).
    pub l1_access_pj: f64,
    /// One L2 cache access.
    pub l2_access_pj: f64,
    /// One byte moved to/from DRAM (HBM2).
    pub dram_per_byte_pj: f64,
    /// One constant-cache read.
    pub const_access_pj: f64,
    /// Fetch + decode + schedule of one dynamic instruction.
    pub instruction_pj: f64,
    /// One non-MAC ALU operation.
    pub alu_pj: f64,
    /// One value forwarded over a PE-to-PE wire (short local wire).
    pub pe_wire_pj: f64,
}

impl EnergyTable {
    /// 12 nm Volta-class numbers.
    ///
    /// FP32 FMA 1.5 pJ, FP16 0.6 pJ; RF vector access ≈26 pJ (0.2 pJ/B);
    /// shared ≈56 pJ; L1 ≈60 pJ; L2 ≈240 pJ; HBM2 ≈15 pJ/B; instruction
    /// front-end ≈8 pJ; PE wire ≈0.06 pJ.
    #[must_use]
    pub(crate) const fn volta() -> Self {
        EnergyTable {
            fma_fp32_pj: 1.5,
            fma_fp16_pj: 0.6,
            rf_access_pj: 26.0,
            shared_access_pj: 56.0,
            l1_access_pj: 60.0,
            l2_access_pj: 240.0,
            dram_per_byte_pj: 15.0,
            const_access_pj: 10.0,
            instruction_pj: 8.0,
            alu_pj: 0.8,
            pe_wire_pj: 0.06,
        }
    }
}

impl Default for EnergyTable {
    fn default() -> Self {
        Self::volta()
    }
}

/// Energy broken into the five Fig. 8 categories, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Global-memory path: L1 + L2 + DRAM.
    pub global: f64,
    /// Shared-memory accesses (including conflict replays).
    pub shared: f64,
    /// Register-file traffic.
    pub register: f64,
    /// Computation: MACs, ALU ops and PE-to-PE wires.
    pub pe: f64,
    /// Control: instruction front-end and constant cache.
    pub const_: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.global + self.shared + self.register + self.pe + self.const_
    }

    /// Total energy in joules.
    #[must_use]
    pub fn total_joules(&self) -> f64 {
        self.total() * 1e-12
    }

    /// Element-wise sum.
    #[must_use]
    pub(crate) fn plus(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            global: self.global + other.global,
            shared: self.shared + other.shared,
            register: self.register + other.register,
            pe: self.pe + other.pe,
            const_: self.const_ + other.const_,
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "global {:.3e} | shared {:.3e} | register {:.3e} | pe {:.3e} | const {:.3e} (pJ)",
            self.global, self.shared, self.register, self.pe, self.const_
        )
    }
}

impl std::iter::Sum for EnergyBreakdown {
    fn sum<I: Iterator<Item = EnergyBreakdown>>(iter: I) -> Self {
        iter.fold(EnergyBreakdown::default(), |a, b| a.plus(&b))
    }
}

/// The energy model: a table applied to an access ledger.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyModel {
    /// The per-access energy table in force.
    pub table: EnergyTable,
    /// Whether MACs run at FP16 (paired) rather than FP32 energy.
    pub fp16_macs: bool,
    /// Runtime-proportional constant power per occupied SM-cycle in pJ
    /// (clock tree, pipeline latches, idle-lane leakage — a V100 SM's
    /// non-compute floor is ≈0.5 W ≈ 330 pJ/cycle at 1.53 GHz). This is
    /// why a faster architecture doing the *same* accesses still saves
    /// energy — the 3-SMA vs 2-SMA gap of Fig. 8 (bottom).
    pub const_pj_per_sm_cycle: f64,
}

impl EnergyModel {
    /// Volta model with FP16 MACs (the iso-FLOP configuration of Fig. 7/8).
    #[must_use]
    pub const fn volta() -> Self {
        EnergyModel {
            table: EnergyTable::volta(),
            fp16_macs: true,
            const_pj_per_sm_cycle: 330.0,
        }
    }

    /// Applies the table to a ledger.
    #[must_use]
    pub fn estimate(&self, stats: &MemStats) -> EnergyBreakdown {
        let t = &self.table;
        let mac_pj = if self.fp16_macs {
            t.fma_fp16_pj
        } else {
            t.fma_fp32_pj
        };
        let l1 = (stats.l1_hits + stats.l1_misses) as f64 * t.l1_access_pj;
        let l2 = (stats.l2_hits + stats.l2_misses) as f64 * t.l2_access_pj;
        let dram = stats.dram_bytes as f64 * t.dram_per_byte_pj;
        let shared =
            (stats.shared_accesses() + stats.shared_conflict_cycles) as f64 * t.shared_access_pj;
        let register = stats.rf_accesses() as f64 * t.rf_access_pj;
        let pe = stats.total_macs() as f64 * mac_pj
            + stats.alu_ops as f64 * t.alu_pj
            + stats.pe_transfers as f64 * t.pe_wire_pj;
        let const_ = stats.instructions as f64 * t.instruction_pj
            + stats.const_reads as f64 * t.const_access_pj;
        EnergyBreakdown {
            global: l1 + l2 + dram,
            shared,
            register,
            pe,
            const_,
        }
    }

    /// Applies the table to a ledger *and* charges the runtime-constant
    /// power for `sm_cycles` occupied SM-cycles.
    #[must_use]
    pub fn estimate_with_runtime(&self, stats: &MemStats, sm_cycles: u64) -> EnergyBreakdown {
        let mut e = self.estimate(stats);
        e.const_ += sm_cycles as f64 * self.const_pj_per_sm_cycle;
        e
    }
}

#[cfg(test)]
#[expect(
    clippy::field_reassign_with_default,
    reason = "the test ledgers read best built up field by field"
)]
#[expect(
    clippy::float_cmp,
    reason = "exact float equality asserts bit-reproducibility of exactly-representable values; an epsilon would weaken it"
)]
mod tests {

    use super::*;

    fn gemm_ledger(rf: u64, shared: u64, macs: u64) -> MemStats {
        let mut s = MemStats::default();
        s.rf_reads = rf;
        s.rf_writes = rf / 2;
        s.shared_reads = shared;
        s.systolic_macs = macs;
        s.instructions = macs / 512;
        s
    }

    #[test]
    fn totals_are_sums() {
        let e = EnergyBreakdown {
            global: 1.0,
            shared: 2.0,
            register: 3.0,
            pe: 4.0,
            const_: 5.0,
        };
        assert_eq!(e.total(), 15.0);
        assert!((e.total_joules() - 15e-12).abs() < 1e-24);
    }

    #[test]
    fn fewer_rf_accesses_means_less_register_energy() {
        let model = EnergyModel::volta();
        // TC-style: one RF fragment read per 4 MACs. SMA-style: one RF
        // vector access per 64 MACs (a full C-row drain).
        let tc = model.estimate(&gemm_ledger(1000, 0, 4000));
        let sma = model.estimate(&gemm_ledger(63, 63, 4000));
        assert!(sma.register < tc.register / 10.0);
        assert!(sma.total() < tc.total());
    }

    #[test]
    fn conflicts_add_shared_energy() {
        let model = EnergyModel::volta();
        let mut with = MemStats::default();
        with.shared_reads = 100;
        with.shared_conflict_cycles = 100; // every access replayed once
        let mut without = MemStats::default();
        without.shared_reads = 100;
        let e_with = model.estimate(&with);
        let e_without = model.estimate(&without);
        assert!((e_with.shared / e_without.shared - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fp16_halves_mac_energy_at_least() {
        let mut s = MemStats::default();
        s.tc_macs = 1_000_000;
        let e16 = EnergyModel::volta().estimate(&s);
        let fp32 = EnergyModel {
            fp16_macs: false,
            ..EnergyModel::volta()
        };
        let e32 = fp32.estimate(&s);
        assert!(e16.pe < e32.pe);
        assert!((e32.pe / e16.pe - 1.5 / 0.6).abs() < 1e-9);
    }

    #[test]
    fn sum_and_display() {
        let parts = vec![
            EnergyBreakdown {
                global: 1.0,
                ..Default::default()
            },
            EnergyBreakdown {
                pe: 2.0,
                ..Default::default()
            },
        ];
        let s: EnergyBreakdown = parts.into_iter().sum();
        assert_eq!(s.total(), 3.0);
        assert!(s.to_string().contains("global"));
    }

    #[test]
    fn runtime_constant_term_rewards_speed() {
        let model = EnergyModel::volta();
        let mut s = MemStats::default();
        s.systolic_macs = 1_000_000;
        let slow = model.estimate_with_runtime(&s, 2_000_000);
        let fast = model.estimate_with_runtime(&s, 1_000_000);
        assert!(fast.total() < slow.total());
        assert!((slow.const_ - fast.const_ - 1_000_000.0 * 330.0).abs() < 1.0);
    }

    #[test]
    fn memory_hierarchy_energy_ordering() {
        // One access: RF < shared < L1 < L2; DRAM per 128B beats them all.
        let t = EnergyTable::volta();
        assert!(t.rf_access_pj < t.shared_access_pj);
        assert!(t.shared_access_pj < t.l1_access_pj + 1e-9);
        assert!(t.l1_access_pj < t.l2_access_pj);
        assert!(t.l2_access_pj < t.dram_per_byte_pj * 128.0);
    }
}
