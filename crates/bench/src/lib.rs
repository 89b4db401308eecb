//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figN` function in [`experiments`] computes the figure's data
//! as structured rows; [`sweep`] renders them as report tasks and fans
//! the full evaluation across scoped threads; `benches/` wraps the
//! figure regenerators and the compute kernels in Criterion.
//! `all_experiments` runs the whole evaluation planned-parallel,
//! prints every report under a `===== <task> =====` header, and writes
//! the deterministic side (task digests + cache counters) to the
//! committed `BENCH_sweep.json` and the wall-clock side to the
//! gitignored `BENCH_sweep_timing.json`;
//! `dse` sweeps the [`dse`] design-space grid — pinned pipeline span ×
//! tile mode × batch × cache budget × network — through the
//! incremental-plan hot path, streaming rows via [`stream`];
//! `serve_sim` drives the [`serve`] matrix — every
//! batching policy × placement strategy over one seeded trace — and
//! writes the simulated-clock serving metrics to `BENCH_serve.json`.

#![deny(missing_docs)]
#![deny(unreachable_pub)]

pub mod dse;
pub mod experiments;
pub mod knobs;
pub mod live;
pub mod serve;
pub mod stream;
pub mod sweep;
pub mod table;
