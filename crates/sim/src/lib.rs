//! Cycle-level GPU streaming-multiprocessor (SM) timing simulator.
//!
//! This is the workspace's stand-in for the modified GPGPU-Sim 4.0 the
//! paper used (§V-A). It executes [`sma_isa`] kernels on a Volta-class SM
//! model:
//!
//! * four warp schedulers issuing one instruction per cycle each, with
//!   [`sched::Gto`] (greedy-then-oldest, the throughput-oriented baseline),
//!   [`sched::RoundRobin`], and the paper's [`sched::SmaRoundRobin`] policy
//!   that prevents double-buffer starvation in systolic mode (§IV-C);
//! * a per-warp scoreboard for register dependencies;
//! * execution pools for FP32 lanes, INT lanes, TensorCores and SMA units;
//! * a memory pipeline with address-level shared-memory bank conflicts,
//!   warp coalescing, functional L1/L2 caches and a DRAM bandwidth bucket;
//! * the SMA **systolic controller** (§IV-B): `LSMA` instructions execute
//!   asynchronously for `k + dim - 1` cycles (the semi-broadcast pass
//!   schedule, cross-validated against the functional engines in
//!   `sma-systolic`) while SIMD warps keep issuing.
//!
//! The simulator is deterministic; all randomness lives in workloads.
//!
//! # Example
//!
//! ```
//! use sma_isa::{Instr, Kernel, Reg, WarpProgram, WarpRole};
//! use sma_sim::{GpuConfig, SchedulerKind, SmSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = WarpProgram::builder();
//! b.loop_n(16, |l| {
//!     l.push(Instr::ffma(Reg(1), Reg(0), Reg(0), Reg(1)));
//! });
//! let kernel = Kernel::new(vec![WarpRole::new("main", 4, b.build())])?;
//! let mut sim = SmSim::new(GpuConfig::volta(), SchedulerKind::Gto);
//! let report = sim.run_block(&kernel)?;
//! assert!(report.cycles > 16);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unreachable_pub)]

pub mod calib;
mod config;
mod sched;
mod sm;

pub use config::{GpuConfig, Latencies};
pub use sched::{Gto, RoundRobin, SchedulerKind, SmaRoundRobin, WarpScheduler};
pub use sm::{SimError, SimReport, SmSim, StallBreakdown};
