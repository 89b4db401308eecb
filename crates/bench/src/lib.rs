//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `figN` function computes the figure's data as structured rows;
//! [`sweep`] renders them as report tasks and fans the full evaluation
//! across scoped threads; the `src/bin/figN_*` binaries print the same
//! reports standalone; `benches/` wraps the figure regenerators and the
//! compute kernels in Criterion. `all_experiments` runs the whole
//! evaluation planned-parallel, writing the deterministic side (task digests +
//! cache counters) to the committed `BENCH_sweep.json`
//! and the wall-clock side to the gitignored `BENCH_sweep_timing.json`;
//! `dse` sweeps the [`dse`] design-space grid — pinned pipeline span ×
//! tile mode × batch × cache budget × network — through the
//! incremental-plan/arena hot path, streaming rows via [`stream`];
//! `serve_sim` drives the [`serve`] matrix — every
//! batching policy × placement strategy over one seeded trace — and
//! writes the simulated-clock serving metrics to `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dse;
pub mod experiments;
pub mod knobs;
pub mod live;
pub mod serve;
pub mod stream;
pub mod sweep;
pub mod table;

pub use dse::{DseGrid, DsePoint, DseReport, DseRow};
pub use experiments::{
    fig1, fig3, fig7, fig8, fig9_left, fig9_right, table1, table2, Fig1Row, Fig3Row, Fig7Row,
    Fig8Row, Fig9LeftRow, Fig9RightRow,
};
pub use stream::{fnv1a64, StreamStats, StreamWriter};
pub use sweep::{Sweep, SweepReport, SweepRun, SweepTask, TaskReport, TaskSummary};
pub use table::render_table;
