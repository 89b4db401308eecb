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
//! * [`plan`] — the compile-once/replay-many layer:
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
//! * [`autonomous`] — the autonomous-driving pipeline of §V-C
//!   (DET/TRA/LOC with detection-frame skipping), including the dynamic
//!   resource reallocation only temporal integration allows: on non-DET
//!   frames the SMA units fold back into SIMD lanes and accelerate the
//!   localisation work, while the spatially integrated TC sits idle.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod autonomous;
pub mod backend;
pub mod executor;
pub mod plan;
pub mod platform;
pub mod serve;

pub use autonomous::{DrivingPipeline, FrameSchedule};
pub use backend::{
    Backend, CacheStats, ExecPath, GemmCache, IrregularEstimate, IrregularOp, IrregularWork,
    RuntimeError, SimdBackend, SmaBackend, TensorCoreBackend, TpuHostBackend,
};
pub use executor::{Executor, ExecutorBuilder, LayerProfile, NetworkProfile};
pub use plan::{ArenaPlan, NetworkPlan, PlanArena, PlanFamily, PlannedStep, TemplateStep};
pub use platform::Platform;
