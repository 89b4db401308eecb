//! GPU memory-subsystem models for the SMA reproduction.
//!
//! The paper's central dataflow argument (§III-B) is about memory
//! behaviour: systolic arrays want skewed/scattered operand feeds, SIMD
//! substrates want coalesced vector accesses, and the semi-broadcast
//! weight-stationary dataflow is the compromise that keeps `B`/`C` accesses
//! coalesced while confining the uncoalesced `A` feeds to 8 dedicated
//! shared-memory banks. Reproducing that argument honestly requires real
//! address-level models, which this crate provides:
//!
//! * [`BankedMemory`] — address-level bank-conflict engine (shared memory);
//! * [`Coalescer`] — warp global-access coalescing into 32-byte sectors;
//! * [`Cache`] — set-associative LRU cache for L1/L2;
//! * [`MemStats`] — the access ledger consumed by the energy model.
//!
//! Register-file and DRAM traffic have no model of their own here: the
//! analytic GEMM models count them into the [`MemStats`] ledger (the
//! RF reads and writes of §III-A/§IV-A in `sma_core::SmaGemmModel`'s
//! ledger, the DRAM floor from `GpuConfig::dram_bytes_per_cycle_per_sm`),
//! and `sma_sim::SmSim` charges the DRAM latency of its global loads.
//!
//! # Example
//!
//! ```
//! use sma_mem::{BankedMemory, BankedConfig};
//!
//! let mut shared = BankedMemory::new(BankedConfig::volta_shared());
//! // 32 consecutive FP32 words: one word per bank, conflict-free.
//! let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
//! assert_eq!(shared.access(&addrs).cycles, 1);
//! // 32 words with stride 128 bytes: all hit bank 0 -> 32-way serialised.
//! let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
//! assert_eq!(shared.access(&addrs).cycles, 32);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod banked;
pub mod cache;
pub mod coalesce;
pub mod stats;

pub use banked::{BankAccess, BankedConfig, BankedMemory};
pub use cache::{Cache, CacheConfig, CacheOutcome};
pub use coalesce::{CoalesceResult, Coalescer};
pub use stats::MemStats;

/// Rounds a cycle or byte count up to a whole number: the cost models'
/// one float-to-integer conversion.
///
/// `x` must be finite and non-negative, which a debug build checks.
/// Under that precondition the cast can neither meet NaN nor saturate
/// below zero.
#[inline]
#[must_use]
pub fn ceil_u64(x: f64) -> u64 {
    debug_assert!(
        x.is_finite() && x >= 0.0,
        "ceil_u64 needs a finite, non-negative count, got {x}"
    );
    // sma-lint: allow(float-cast) — finite and non-negative by the
    // precondition above, which debug builds assert.
    x.ceil() as u64
}
