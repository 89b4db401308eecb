//! The systolic controller (Fig. 5-A).
//!
//! One controller per SM drives the SMA units: it queues `LSMA` passes
//! per unit, runs the address generators for the two memory-access kinds
//! (§IV-B: 8 shared banks for uncoalesced `A`, one RF bank for coalesced
//! `C`), and stages values in tiny `Ain`/`Cout` buffers — 256 B of
//! storage in total, the basis of the paper's <0.1% area claim.

use crate::lsma::LsmaOp;

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
    /// Per-unit completion time of the last queued op.
    free_at: Vec<u64>,
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
            free_at: vec![0; units],
        }
    }

    /// Issues an op at cycle `now`; the unit executes it after any ops
    /// already queued on that unit (FIFO per unit, concurrent across
    /// units). Returns the completion cycle.
    pub fn issue(&mut self, op: LsmaOp, now: u64) -> u64 {
        let u = op.unit() as usize % self.units;
        let start = self.free_at[u].max(now);
        let done = start + op.pass_cycles();
        self.free_at[u] = done;
        done
    }

    /// Whether any unit is still executing at `now`.
    #[must_use]
    pub fn busy(&self, now: u64) -> bool {
        self.free_at.iter().any(|&f| f > now)
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
