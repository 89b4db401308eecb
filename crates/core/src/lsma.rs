//! The `LSMA` (Load, Store and Multiply-accumulate) instruction (§IV-B).
//!
//! ```text
//! LSMA B  ⇒  C[out] ← A[in] × B + C[in]          (paper Eq. 1)
//! ```
//!
//! Four register operands: the shared-memory address of `A[0][0]`, the
//! register-file base of `C`, one element of `B` per thread (two warps
//! carry the full 8×8 subtile), and the height `k` of `A`. The instruction
//! executes asynchronously on the unit's systolic controller; results
//! become visible after an explicit synchronisation.

use crate::SmaError;
use sma_isa::{Instr, Reg};

/// A validated `LSMA` operation descriptor.
///
/// # Example
///
/// ```
/// use sma_core::LsmaOp;
///
/// # fn main() -> Result<(), sma_core::SmaError> {
/// let op = LsmaOp::new(0, 0x100, 24, 128)?;
/// assert_eq!(op.macs(), 128 * 64);
/// let instr = op.encode();
/// assert_eq!(instr.warp_macs(), 128 * 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LsmaOp {
    unit: u8,
    a_base: u64,
    c_base: u16,
    k: u32,
}

impl LsmaOp {
    /// Architectural maximum for the flexible `k` dimension: the height
    /// field is encoded in 16 bits.
    pub const MAX_K: u32 = 65_535;

    /// Array edge driven by one op.
    pub const DIM: u32 = 8;

    /// Creates and validates an op.
    ///
    /// # Errors
    ///
    /// Returns [`SmaError::InvalidLsma`] if `k` is zero or exceeds
    /// [`LsmaOp::MAX_K`], if the unit id exceeds 2 (three units per SM),
    /// or if `a_base` is not 4-byte aligned.
    pub fn new(unit: u8, a_base: u64, c_base: u16, k: u32) -> Result<Self, SmaError> {
        if k == 0 {
            return Err(SmaError::InvalidLsma {
                reason: "k must be positive",
            });
        }
        if k > Self::MAX_K {
            return Err(SmaError::InvalidLsma {
                reason: "k exceeds the 16-bit height field",
            });
        }
        if unit > 2 {
            return Err(SmaError::InvalidLsma {
                reason: "unit id exceeds the 3 units per SM",
            });
        }
        if !a_base.is_multiple_of(4) {
            return Err(SmaError::InvalidLsma {
                reason: "A base address must be word aligned",
            });
        }
        Ok(LsmaOp {
            unit,
            a_base,
            c_base,
            k,
        })
    }

    /// Target SMA unit.
    #[must_use]
    pub const fn unit(&self) -> u8 {
        self.unit
    }

    /// Shared-memory byte address of `A[0][0]`.
    #[must_use]
    pub const fn a_base(&self) -> u64 {
        self.a_base
    }

    /// Register-file base of the `C` accumulator rows.
    #[must_use]
    pub const fn c_base(&self) -> u16 {
        self.c_base
    }

    /// Height of `A` (the flexible dimension of the `k×8×8` shape).
    #[must_use]
    pub const fn k(&self) -> u32 {
        self.k
    }

    /// MACs this op performs.
    #[must_use]
    pub const fn macs(&self) -> u64 {
        self.k as u64 * (Self::DIM as u64) * (Self::DIM as u64)
    }

    /// Cycles of the asynchronous pass: `k + dim - 1` skewed streaming
    /// plus one reconfiguration cycle (weights double-buffered in the
    /// operand collectors).
    #[must_use]
    pub const fn pass_cycles(&self) -> u64 {
        self.k as u64 + Self::DIM as u64 - 1 + 1
    }

    /// Lowers to the ISA instruction executed by `sma-sim`.
    #[must_use]
    pub const fn encode(&self) -> Instr {
        Instr::Lsma {
            unit: self.unit,
            a_base: self.a_base,
            c_base: Reg(self.c_base),
            k: self.k,
        }
    }

    /// Recovers the descriptor from an ISA instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SmaError::InvalidLsma`] if the instruction is not an
    /// `LSMA` or fails validation.
    pub fn decode(instr: &Instr) -> Result<Self, SmaError> {
        match instr {
            Instr::Lsma {
                unit,
                a_base,
                c_base,
                k,
            } => Self::new(*unit, *a_base, c_base.0, *k),
            _ => Err(SmaError::InvalidLsma {
                reason: "not an lsma instruction",
            }),
        }
    }

    /// The skewed shared-memory addresses the controller's address
    /// generators produce at pass cycle `t` (element width 4 bytes,
    /// row-major `A` tile with `pitch` elements per row): column `c` reads
    /// `A[t-c][c]`. This is the uncoalesced pattern served by the 8
    /// dedicated banks; with `pitch ≡ 0 (mod 8)` plus the ±1 skew it is
    /// conflict-free (§III-B).
    #[must_use]
    pub fn a_feed_addresses(&self, t: u64, pitch: u64) -> Vec<u64> {
        let mut addrs = Vec::new();
        for c in 0..u64::from(Self::DIM) {
            if t >= c {
                let i = t - c;
                if i < u64::from(self.k) {
                    addrs.push(self.a_base + (i * pitch + c) * 4);
                }
            }
        }
        addrs
    }
}

impl std::fmt::Display for LsmaOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LSMA u{} A@{:#x} C@r{} k={}",
            self.unit, self.a_base, self.c_base, self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_mem::{BankedConfig, BankedMemory};

    #[test]
    fn validation_rules() {
        assert!(LsmaOp::new(0, 0, 0, 0).is_err());
        assert!(LsmaOp::new(0, 0, 0, 70_000).is_err());
        assert!(LsmaOp::new(3, 0, 0, 8).is_err());
        assert!(LsmaOp::new(0, 2, 0, 8).is_err());
        assert!(LsmaOp::new(2, 4, 0, 8).is_ok());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let op = LsmaOp::new(1, 0x80, 16, 128).unwrap();
        let decoded = LsmaOp::decode(&op.encode()).unwrap();
        assert_eq!(op, decoded);
        let not = Instr::Bar { id: 0 };
        assert!(LsmaOp::decode(&not).is_err());
    }

    #[test]
    fn mac_and_cycle_counts() {
        let op = LsmaOp::new(0, 0, 0, 128).unwrap();
        assert_eq!(op.macs(), 8192);
        assert_eq!(op.pass_cycles(), 128 + 8);
    }

    #[test]
    fn feed_addresses_are_conflict_free_on_8_banks() {
        // The load-bearing claim of §III-B: with the Atile stored row-major
        // at pitch 8 (or any multiple of 8), the skewed semi-broadcast feed
        // never conflicts on the 8 dedicated banks.
        let op = LsmaOp::new(0, 0, 0, 128).unwrap();
        let mut banks = BankedMemory::new(BankedConfig::sma_a_feed_slice());
        for t in 0..(128 + 7) {
            let addrs = op.a_feed_addresses(t, 8);
            if !addrs.is_empty() {
                assert_eq!(banks.access(&addrs).cycles, 1, "conflict at t={t}");
            }
        }
        assert_eq!(banks.conflict_cycles(), 0);
    }

    #[test]
    fn feed_addresses_respect_bounds() {
        let op = LsmaOp::new(0, 0x100, 0, 4).unwrap();
        // At t=0 only column 0 is active.
        assert_eq!(op.a_feed_addresses(0, 8).len(), 1);
        // Deep into the pass all 8 columns stream… but k=4 limits rows.
        assert_eq!(op.a_feed_addresses(3, 8).len(), 4);
        // After the last skewed element, nothing.
        assert!(op.a_feed_addresses(100, 8).is_empty());
    }

    #[test]
    fn display_is_informative() {
        let op = LsmaOp::new(1, 0x80, 16, 32).unwrap();
        assert_eq!(op.to_string(), "LSMA u1 A@0x80 C@r16 k=32");
    }
}
