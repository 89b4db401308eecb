//! Banked register file with the vector-access constraint, and the operand
//! collectors that SMA repurposes as weight buffers.
//!
//! The decisive difference between the TensorCore dot-product dataflow and
//! the SMA semi-broadcast dataflow is *register-file traffic* (§III-A,
//! §V-B): a TC reloads A/B fragments from the RF with ~4× reuse, while the
//! SMA unit keeps weights stationary in the repurposed operand collectors
//! and touches one RF bank with one coalesced vector access per cycle for
//! `C`. The model therefore tracks (a) bandwidth in vector-accesses/cycle
//! per bank, and (b) the scatter penalty when an access pattern spans many
//! register rows.

/// Register-file configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFileConfig {
    /// Total capacity in bytes (256 KiB per Volta SM, Tbl. I).
    pub capacity: u32,
    /// Independent banks; each serves one warp-wide vector access/cycle.
    pub banks: u32,
    /// Bytes per vector access (a warp of 32 lanes × 4 B).
    pub vector_bytes: u32,
}

impl RegFileConfig {
    /// Volta SM register file: 256 KiB, 4 dual-ported banks serving
    /// 128 B vector accesses (one warp-wide FP32 operand per cycle each).
    #[must_use]
    pub const fn volta() -> Self {
        RegFileConfig {
            capacity: 256 * 1024,
            banks: 4,
            vector_bytes: 128,
        }
    }

    /// Peak operand bandwidth in bytes per cycle.
    #[must_use]
    pub const fn peak_bytes_per_cycle(&self) -> u32 {
        self.banks * self.vector_bytes
    }
}

/// Classification of an RF access presented by an execution unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfAccessKind {
    /// One aligned warp-wide operand row: 1 bank-cycle.
    Vector,
    /// An access spanning `rows` distinct register rows (the scattered
    /// drain of a classic weight-stationary dataflow): `rows` bank-cycles.
    Scattered {
        /// Number of distinct register rows touched.
        rows: u32,
    },
}

/// The per-SM register file model.
///
/// # Example
///
/// ```
/// use sma_mem::{RegisterFile, RegFileConfig, RfAccessKind};
///
/// let mut rf = RegisterFile::new(RegFileConfig::volta());
/// assert_eq!(rf.read(0, RfAccessKind::Vector), 1);
/// assert_eq!(rf.read(0, RfAccessKind::Scattered { rows: 8 }), 8);
/// assert_eq!(rf.reads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RegisterFile {
    config: RegFileConfig,
    reads: u64,
    writes: u64,
    bytes_read: u64,
}

impl RegisterFile {
    /// Creates a register file.
    #[must_use]
    pub const fn new(config: RegFileConfig) -> Self {
        RegisterFile {
            config,
            reads: 0,
            writes: 0,
            bytes_read: 0,
        }
    }

    fn cost(&self, kind: RfAccessKind) -> u32 {
        match kind {
            RfAccessKind::Vector => 1,
            RfAccessKind::Scattered { rows } => rows.max(1),
        }
    }

    /// Presents a read on `bank`; returns the bank-cycles consumed.
    pub fn read(&mut self, _bank: u32, kind: RfAccessKind) -> u32 {
        let c = self.cost(kind);
        self.reads += 1;
        self.bytes_read += u64::from(c) * u64::from(self.config.vector_bytes);
        c
    }

    /// Presents a write on `bank`; returns the bank-cycles consumed.
    pub fn write(&mut self, _bank: u32, kind: RfAccessKind) -> u32 {
        let c = self.cost(kind);
        self.writes += 1;
        c
    }

    /// Number of read transactions.
    #[must_use]
    pub const fn reads(&self) -> u64 {
        self.reads
    }

    /// Clears statistics.
    pub fn reset_stats(&mut self) {
        *self = RegisterFile::new(self.config);
    }
}

/// Mode of an operand collector (paper §IV-A: "we repurpose the existing
/// operand collector as a local buffer for storing the stationary weights
/// of each PE").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum CollectorMode {
    /// Conventional SIMD operand staging.
    #[default]
    Simd,
    /// Weight-stationary buffer for one PE column of an SMA unit.
    WeightBuffer,
}

/// One operand collector: a small staging buffer between RF and execution
/// units, reconfigurable between its two roles.
///
/// The temporal-integration claim rests on this reuse: switching modes is a
/// register write, not a pipeline flush, so we expose the switch as a
/// constant-cost operation and count how often it happens.
#[derive(Debug, Clone, Default)]
pub struct OperandCollector {
    mode: CollectorMode,
    /// Stationary weights when in `WeightBuffer` mode (8 PEs per column).
    weights: [f32; 8],
    switches: u64,
}

impl OperandCollector {
    /// Creates a collector in SIMD mode.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches to weight-buffer mode, latching a column of weights.
    pub fn load_weights(&mut self, column: [f32; 8]) {
        if self.mode != CollectorMode::WeightBuffer {
            self.switches += 1;
        }
        self.mode = CollectorMode::WeightBuffer;
        self.weights = column;
    }

    /// Returns the stationary weight for a PE row.
    ///
    /// # Panics
    ///
    /// Panics if not in weight-buffer mode — reading weights in SIMD mode
    /// is an architectural bug the simulator wants to catch loudly.
    #[must_use]
    pub fn weight(&self, pe_row: usize) -> f32 {
        assert_eq!(
            self.mode,
            CollectorMode::WeightBuffer,
            "operand collector read as weight buffer while in SIMD mode"
        );
        self.weights[pe_row]
    }

    /// Switches back to SIMD operand staging.
    pub fn release(&mut self) {
        if self.mode != CollectorMode::Simd {
            self.switches += 1;
        }
        self.mode = CollectorMode::Simd;
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn vector_access_costs_one() {
        let mut rf = RegisterFile::new(RegFileConfig::volta());
        assert_eq!(rf.read(0, RfAccessKind::Vector), 1);
        assert_eq!(rf.write(1, RfAccessKind::Vector), 1);
        assert_eq!(rf.bytes_read, 128);
    }

    #[test]
    fn scattered_access_serialises() {
        let mut rf = RegisterFile::new(RegFileConfig::volta());
        assert_eq!(rf.read(0, RfAccessKind::Scattered { rows: 8 }), 8);
        // A degenerate scatter of 0 rows still costs a cycle.
        assert_eq!(rf.read(0, RfAccessKind::Scattered { rows: 0 }), 1);
    }

    #[test]
    fn peak_bandwidth() {
        assert_eq!(RegFileConfig::volta().peak_bytes_per_cycle(), 512);
    }

    #[test]
    fn reset_clears() {
        let mut rf = RegisterFile::new(RegFileConfig::volta());
        rf.read(0, RfAccessKind::Vector);
        rf.reset_stats();
        assert_eq!(rf.reads(), 0);
        assert_eq!(rf.bytes_read, 0);
    }

    #[test]
    fn collector_mode_switching() {
        let mut oc = OperandCollector::new();
        assert_eq!(oc.mode, CollectorMode::Simd);
        oc.load_weights([1.0; 8]);
        assert_eq!(oc.mode, CollectorMode::WeightBuffer);
        assert_eq!(oc.weight(3), 1.0);
        oc.load_weights([2.0; 8]); // refresh without leaving the mode
        assert_eq!(oc.switches, 1);
        oc.release();
        assert_eq!(oc.switches, 2);
    }

    #[test]
    #[should_panic(expected = "SIMD mode")]
    fn weight_read_in_simd_mode_panics() {
        let oc = OperandCollector::new();
        let _ = oc.weight(0);
    }
}
