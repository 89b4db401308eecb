//! Platform runtime: maps whole networks onto the competing architectures
//! and drives the end-to-end application study.
//!
//! This is where the paper's system-level comparisons are assembled:
//!
//! * [`backend`] — the open execution API: one object-safe [`Backend`]
//!   trait covering GEMM, irregular work and host transfers, with the
//!   seven evaluated architectures as cached implementations and room
//!   for more (see the module docs for a worked eighth backend, and
//!   `docs/ADDING_A_BACKEND.md` for the full recipe);
//! * [`Platform`] — the thin serialisable keys (GPU-SIMD, 4-TC, 2-SMA,
//!   3-SMA, TPU+host, plus the reconfigurable-systolic ArrayFlex and
//!   FlexSA), each resolving to its shared backend via
//!   [`Platform::backend`];
//! * [`Executor`] — runs a [`sma_models::Network`] by dispatching every
//!   layer through `dyn Backend`, configured with a builder
//!   (`Executor::builder(p).batch(16).framework_ms(0.0).build()`). Every
//!   entry point that can meet a backend rejection returns
//!   `Result<_, RuntimeError>` ([`Executor::try_run`],
//!   [`Executor::try_plan`]); callers decide at their own boundary
//!   whether a rejection is an error to report or a bug to panic on;
//! * the plan layer — compile once, replay many:
//!   [`Executor::try_plan`] resolves every layer once into a
//!   [`NetworkPlan`] whose [`NetworkPlan::run`] replays the profile with
//!   no locking and no recomputation (the serving/sweep hot path), plus
//!   the sweep-scale machinery above it — [`PlanFamily`]
//!   (batch-incremental compilation) and [`PlanArena`] (one shared step
//!   region for thousands of plans), both filled by one instantiate loop
//!   and read by one step fold;
//! * [`serve`] — the simulated multi-shard serving layer above the
//!   plans: seeded open-loop load generation, pluggable batching
//!   policies and shard placement strategies, all on a deterministic
//!   simulated clock;
//! * [`DrivingPipeline`] — the autonomous-driving pipeline of §V-C
//!   (DET/TRA/LOC with detection-frame skipping), including the dynamic
//!   resource reallocation only temporal integration allows: on non-DET
//!   frames the SMA units fold back into SIMD lanes and accelerate the
//!   localisation work, while the spatially integrated TC sits idle.
//!
//! Every item has one path. [`backend`] and [`serve`] are public
//! modules; everything else is at the crate root. Six backend names
//! ([`Backend`], [`CacheStats`], [`RuntimeError`], [`SimdBackend`],
//! [`SmaBackend`], [`TensorCoreBackend`]) are also re-exported at the
//! root, because the benchmark crate under `perfbench/` imports them
//! from there.

#![deny(missing_docs)]
#![deny(unreachable_pub)]
// Library code returns a `RuntimeError` on bad input and never panics;
// each panic that guards an invariant carries an `#[expect]` with its
// reason. Tests may panic (`allow-*-in-tests` in clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod autonomous;
pub mod backend;
mod executor;
mod plan;
mod platform;
pub mod serve;

pub use autonomous::{DrivingPipeline, FrameSchedule};
// Second paths to six `backend` items, kept while the benchmark crate
// imports them from the root.
pub use backend::{Backend, CacheStats, RuntimeError, SimdBackend, SmaBackend, TensorCoreBackend};
pub use executor::{Executor, ExecutorBuilder, LayerProfile, NetworkProfile};
pub use plan::{ArenaPlan, NetworkPlan, PlanArena, PlanFamily, PlannedStep, TemplateStep};
pub use platform::Platform;
