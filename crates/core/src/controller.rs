//! The systolic controller (Fig. 5-A).
//!
//! One controller per SM drives the SMA units: it holds an *active mask*
//! over the PEs (idling masked PEs at ragged tile edges), runs the address
//! generators for the two memory-access kinds (§IV-B: 8 shared banks for
//! uncoalesced `A`, one RF bank for coalesced `C`), and stages values in
//! tiny `Ain`/`Cout` buffers — 256 B of storage in total, the basis of the
//! paper's <0.1% area claim.

use crate::lsma::LsmaOp;
use std::collections::VecDeque;

/// Per-unit completion record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedOp {
    /// The op that finished.
    pub op: LsmaOp,
    /// Cycle at which its results became architecturally visible.
    pub finished_at: u64,
}

/// The systolic controller: asynchronous `LSMA` execution engine.
///
/// # Example
///
/// ```
/// use sma_core::{LsmaOp, SystolicController};
///
/// # fn main() -> Result<(), sma_core::SmaError> {
/// let mut ctrl = SystolicController::new(3);
/// ctrl.issue(LsmaOp::new(0, 0, 0, 128)?, 0);
/// assert!(ctrl.busy(10));
/// assert!(!ctrl.busy(200)); // pass took 136 cycles
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystolicController {
    units: usize,
    /// Per-unit 64-bit PE active masks.
    masks: Vec<u64>,
    /// Per-unit completion time of the last queued op.
    free_at: Vec<u64>,
    /// Per-unit queue of in-flight ops (op, completion cycle).
    in_flight: Vec<VecDeque<(LsmaOp, u64)>>,
    issued: u64,
    completed: Vec<CompletedOp>,
}

impl SystolicController {
    /// Fixed staging storage (Fig. 5): 8×8 B `Ain` + 24×8 B `Cout`.
    pub const STORAGE_BYTES: u32 = 256;

    /// Creates a controller for `units` SMA units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero or exceeds 3 (Table I).
    #[must_use]
    pub fn new(units: usize) -> Self {
        assert!((1..=3).contains(&units), "1 to 3 SMA units per SM");
        SystolicController {
            units,
            masks: vec![u64::MAX; units],
            free_at: vec![0; units],
            in_flight: vec![VecDeque::new(); units],
            issued: 0,
            completed: Vec::new(),
        }
    }

    /// Number of units driven.
    #[must_use]
    pub const fn units(&self) -> usize {
        self.units
    }

    /// Sets the PE active mask of a unit (bit `r*8+c` = PE `(r,c)`).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn set_mask(&mut self, unit: usize, mask: u64) {
        self.masks[unit] = mask;
    }

    /// Active-PE count of a unit.
    #[must_use]
    pub fn active_pes(&self, unit: usize) -> u32 {
        self.masks[unit].count_ones()
    }

    /// Builds the mask idling rows ≥ `rows` and columns ≥ `cols` — the
    /// ragged-edge mask for a partial subtile.
    #[must_use]
    pub fn edge_mask(rows: u32, cols: u32) -> u64 {
        let mut m = 0u64;
        for r in 0..rows.min(8) {
            for c in 0..cols.min(8) {
                m |= 1 << (r * 8 + c);
            }
        }
        m
    }

    /// Issues an op at cycle `now`; the unit executes it after any ops
    /// already queued on that unit (FIFO per unit, concurrent across
    /// units). Returns the completion cycle.
    pub fn issue(&mut self, op: LsmaOp, now: u64) -> u64 {
        let u = op.unit() as usize % self.units;
        let start = self.free_at[u].max(now);
        let done = start + op.pass_cycles();
        self.free_at[u] = done;
        self.in_flight[u].push_back((op, done));
        self.issued += 1;
        done
    }

    /// Whether any unit is still executing at `now`.
    #[must_use]
    pub fn busy(&self, now: u64) -> bool {
        self.free_at.iter().any(|&f| f > now)
    }

    /// Retires ops that completed by `now`, returning them.
    pub fn retire(&mut self, now: u64) -> Vec<CompletedOp> {
        let mut out = Vec::new();
        for q in &mut self.in_flight {
            while let Some(&(op, done)) = q.front() {
                if done <= now {
                    q.pop_front();
                    let rec = CompletedOp {
                        op,
                        finished_at: done,
                    };
                    self.completed.push(rec);
                    out.push(rec);
                } else {
                    break;
                }
            }
        }
        out
    }

    /// Ops issued so far.
    #[must_use]
    pub const fn issued(&self) -> u64 {
        self.issued
    }

    /// Total MACs of all *retired* ops, respecting the active masks is the
    /// mapper's job — the controller reports issued volume.
    #[must_use]
    pub fn retired_macs(&self) -> u64 {
        self.completed.iter().map(|c| c.op.macs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(unit: u8, k: u32) -> LsmaOp {
        LsmaOp::new(unit, 0, 0, k).unwrap()
    }

    #[test]
    fn fifo_per_unit_concurrent_across_units() {
        let mut c = SystolicController::new(2);
        let d0 = c.issue(op(0, 128), 0);
        let d1 = c.issue(op(0, 128), 0); // queues behind d0
        let d2 = c.issue(op(1, 128), 0); // concurrent on unit 1
        assert_eq!(d0, 136);
        assert_eq!(d1, 272);
        assert_eq!(d2, 136);
        assert!(c.busy(100));
    }

    #[test]
    fn retire_returns_completed_in_order() {
        let mut c = SystolicController::new(1);
        c.issue(op(0, 8), 0); // done at 16
        c.issue(op(0, 8), 0); // done at 32
        assert!(c.retire(10).is_empty());
        let first = c.retire(20);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].finished_at, 16);
        let second = c.retire(100);
        assert_eq!(second.len(), 1);
        assert_eq!(c.retired_macs(), 2 * 8 * 64);
    }

    #[test]
    fn masks_and_edges() {
        let mut c = SystolicController::new(1);
        assert_eq!(c.active_pes(0), 64);
        c.set_mask(0, SystolicController::edge_mask(5, 3));
        assert_eq!(c.active_pes(0), 15);
        assert_eq!(SystolicController::edge_mask(8, 8), u64::MAX);
        assert_eq!(SystolicController::edge_mask(0, 8), 0);
        // Clamps beyond the array.
        assert_eq!(SystolicController::edge_mask(10, 10), u64::MAX);
    }

    #[test]
    fn storage_budget_matches_fig5() {
        assert_eq!(SystolicController::STORAGE_BYTES, 256);
    }

    #[test]
    #[should_panic(expected = "1 to 3")]
    fn too_many_units_panics() {
        let _ = SystolicController::new(4);
    }

    #[test]
    fn issue_after_idle_starts_at_now() {
        let mut c = SystolicController::new(1);
        let done = c.issue(op(0, 8), 1000);
        assert_eq!(done, 1016);
    }
}
