//! Parallel experiment sweep driver.
//!
//! The full evaluation — every figure/table regenerator plus the
//! platform × network × batch grid — is embarrassingly parallel: each
//! task is a pure computation returning its rendered report. This
//! module fans tasks across scoped threads (`std::thread::scope`, no
//! extra dependencies), with the runtime's sharded GEMM cache and the
//! compile-once [`NetworkPlan`](sma_runtime::NetworkPlan) layer keeping
//! the workers off each other's locks.
//!
//! [`Sweep::run_parallel`] produces identical outputs at every thread
//! count (tasks are deterministic). `all_experiments` runs the
//! evaluation and writes a [`SweepReport`] in two files: the
//! committed `BENCH_sweep.json` holds only what is a pure function of
//! the source tree (task names, FNV-1a output digests, GEMM-cache
//! counters) so CI can byte-diff it across runs, while everything
//! wall-clock derived (`wall_ms`, thread count, per-task `ms`) lands in
//! the gitignored `BENCH_sweep_timing.json`.
//!
//! The work-stealing loop behind [`Sweep::run_parallel`] is exported as
//! [`run_work_stealing`], and [`run_ordered`] layers index-ordered
//! results on top of it, so other drivers (the `dse` grid, the serve
//! matrix) reuse the same sanctioned thread-spawn site instead of
//! growing their own.
//!
//! # Sweeping a custom backend
//!
//! The grid accepts any [`Executor`], so an architecture plugged in via
//! [`ExecutorBuilder::backend`](sma_runtime::ExecutorBuilder::backend)
//! — the eighth-backend example of
//! [`sma_runtime::backend`] — joins the parallel sweep unchanged. (The
//! ArrayFlex and FlexSA backends joined the grid exactly this way
//! before they were promoted to [`Platform`] keys; the recipe is
//! `docs/ADDING_A_BACKEND.md`.)
//!
//! ```
//! use sma_bench::sweep::Sweep;
//! use sma_models::zoo;
//! use sma_runtime::backend::{
//!     gpu_irregular_estimate, Backend, GemmCache, IrregularEstimate, IrregularWork,
//!     RuntimeError,
//! };
//! use sma_core::model::GemmEstimate;
//! use sma_core::{SmaConfig, SmaGemmModel};
//! use sma_runtime::{Executor, Platform};
//! use sma_sim::GpuConfig;
//! use sma_tensor::GemmShape;
//! use std::sync::Arc;
//!
//! #[derive(Debug)]
//! struct RedasBackend {
//!     gpu: GpuConfig,
//!     model: SmaGemmModel,
//!     cache: GemmCache,
//! }
//!
//! impl Backend for RedasBackend {
//!     fn name(&self) -> &'static str {
//!         "ReDas"
//!     }
//!     fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
//!         Ok(self.cache.get_or_compute(shape, || self.model.estimate(shape)))
//!     }
//!     fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
//!         gpu_irregular_estimate(&self.gpu, &work)
//!     }
//!     fn transfer_ms(&self, _bytes: u64) -> f64 {
//!         0.0
//!     }
//!     fn simd_mode_boost(&self) -> f64 {
//!         2.0
//!     }
//! }
//!
//! // One executor per batch point; the custom backend rides along with
//! // the built-in platforms in the same grid.
//! let custom = Executor::builder(Platform::Sma2) // key used for labelling
//!     .backend(Arc::new(RedasBackend {
//!         gpu: GpuConfig::volta(),
//!         model: SmaGemmModel::new(SmaConfig::iso_flop_2sma()),
//!         cache: GemmCache::default(),
//!     }))
//!     .build();
//! let sweep = Sweep::grid(&[custom], &[zoo::alexnet(), zoo::vgg_a()]);
//! let run = sweep.run_parallel(2);
//! assert_eq!(run.tasks.len(), 2);
//! assert!(run.tasks.iter().all(|t| t.output.contains("total")));
//! ```

use crate::{
    fig1, fig3, fig7, fig8, fig9_left, fig9_right, render_table, table1, table2, write_csv,
};
use sma_models::{zoo, Network};
use sma_runtime::{CacheStats, Executor, Platform};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
// sma-lint: allow(wallclock) — wall time IS this module's measurand;
// it lands in BENCH_sweep.json's wall_ms fields, never in model state.
use std::time::Instant;

/// One named, self-contained unit of sweep work.
pub struct SweepTask {
    name: String,
    run: Box<dyn Fn() -> String + Send + Sync>,
}

impl SweepTask {
    /// Wraps a closure as a task.
    pub fn new(name: impl Into<String>, run: impl Fn() -> String + Send + Sync + 'static) -> Self {
        SweepTask {
            name: name.into(),
            run: Box::new(run),
        }
    }

    /// The task's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for SweepTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepTask")
            .field("name", &self.name)
            .finish()
    }
}

/// A task's rendered output and wall-clock cost.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// The rendered report.
    pub output: String,
    /// Wall-clock milliseconds this task took.
    pub ms: f64,
}

/// One timed execution of a [`Sweep`].
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Per-task reports, in task order regardless of completion order.
    pub tasks: Vec<TaskReport>,
    /// Wall-clock milliseconds for the whole pass.
    pub wall_ms: f64,
    /// Worker threads the pass ran on.
    pub threads: usize,
}

/// An ordered collection of independent experiment tasks.
#[derive(Debug, Default)]
pub struct Sweep {
    tasks: Vec<SweepTask>,
}

impl Sweep {
    /// An empty sweep.
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// Appends a task.
    pub fn push(&mut self, task: SweepTask) {
        self.tasks.push(task);
    }

    /// Concatenates two sweeps.
    #[must_use]
    pub fn extend(mut self, mut other: Sweep) -> Self {
        self.tasks.append(&mut other.tasks);
        self
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the sweep holds no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The six figure/table regenerators of the paper as sweep tasks.
    #[must_use]
    pub fn figures() -> Sweep {
        let mut sweep = Sweep::new();
        sweep.push(SweepTask::new("fig1_efficiency", fig1_report));
        sweep.push(SweepTask::new("fig3_hybrid", fig3_report));
        sweep.push(SweepTask::new("fig7_isoflop", fig7_report));
        sweep.push(SweepTask::new("fig8_isoarea", fig8_report));
        sweep.push(SweepTask::new("fig9_autonomous", fig9_report));
        sweep.push(SweepTask::new("tables", tables_report));
        sweep
    }

    /// An executor × network grid: one task per cell, each compiling a
    /// [`NetworkPlan`](sma_runtime::NetworkPlan) and replaying it once.
    ///
    /// Custom backends join via
    /// [`ExecutorBuilder::backend`](sma_runtime::ExecutorBuilder::backend)
    /// — see the module docs for a worked example.
    #[must_use]
    pub fn grid(executors: &[Executor], networks: &[Network]) -> Sweep {
        Self::grid_planned(executors, networks, 1)
    }

    /// The grid with each cell compiling its
    /// [`NetworkPlan`](sma_runtime::NetworkPlan) once and replaying it
    /// `reps` times (a serving burst). A backend that rejects a cell's
    /// shapes renders a `rejected:` line instead of a profile.
    #[must_use]
    pub fn grid_planned(executors: &[Executor], networks: &[Network], reps: usize) -> Sweep {
        let mut sweep = Sweep::new();
        for exec in executors {
            for net in networks {
                let name = format!(
                    "grid/{}/b{}/{}",
                    exec.backend().name(),
                    exec.batch(),
                    net.name()
                );
                let (exec, net) = (exec.clone(), net.clone());
                sweep.push(SweepTask::new(name, move || {
                    grid_cell_planned(&exec, &net, reps)
                }));
            }
        }
        sweep
    }

    /// Fans the tasks across up to `threads` scoped worker threads
    /// (`1` runs them in order on one worker).
    ///
    /// Workers pull from a shared atomic cursor (cheap work stealing for
    /// uneven task costs); results land in task order. Outputs are the
    /// same at every thread count — tasks are deterministic.
    #[must_use]
    pub fn run_parallel(&self, threads: usize) -> SweepRun {
        // sma-lint: allow(wallclock) — timing the parallel pass is the point.
        let start = Instant::now();
        let (tasks, workers) = run_ordered(self.tasks.len(), threads, |i| run_task(&self.tasks[i]));
        SweepRun {
            tasks,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            threads: workers,
        }
    }
}

/// Runs `work(0..count)` across up to `threads` scoped worker threads
/// pulling indices from a shared atomic cursor, and returns the worker
/// count actually used (clamped to `1..=count`). Blocks until every
/// index has been processed.
///
/// This is the crate's single work-stealing thread-spawn site: the
/// sweep passes and the `dse` grid both fan out through it, so the
/// determinism audit (`lint.toml` sanctions `sweep.rs` for
/// `thread-spawn`) has exactly one loop to review. `work` receives each
/// index exactly once; completion order is unspecified, so `work` must
/// route any ordered output through an order-restoring sink such as
/// [`StreamWriter`](crate::stream::StreamWriter) — or use
/// [`run_ordered`], which collects return values in index order.
pub fn run_work_stealing(count: usize, threads: usize, work: impl Fn(usize) + Sync) -> usize {
    let workers = threads.clamp(1, count.max(1));
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                work(i);
            });
        }
    });
    workers
}

/// Runs `job(0..count)` through [`run_work_stealing`] and returns the
/// results in index order, whatever order the workers finished them in,
/// plus the worker count actually used.
///
/// # Panics
///
/// Re-raises a panic from `job` once every worker has stopped.
pub fn run_ordered<T: Send>(
    count: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, usize) {
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    let workers = run_work_stealing(count, threads, |i| {
        let result = job(i);
        slots.lock().expect("a worker panicked")[i] = Some(result);
    });
    let results = slots
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|slot| slot.expect("the cursor visits every index"))
        .collect();
    (results, workers)
}

fn run_task(task: &SweepTask) -> TaskReport {
    // sma-lint: allow(wallclock) — per-task wall_ms is reported, not modeled.
    let start = Instant::now();
    let output = (task.run)();
    TaskReport {
        name: task.name.clone(),
        output,
        ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn grid_cell_planned(exec: &Executor, net: &Network, reps: usize) -> String {
    match exec.try_plan(net) {
        Ok(plan) => {
            for _ in 1..reps {
                std::hint::black_box(plan.run());
            }
            grid_line(exec, &plan.run())
        }
        Err(e) => grid_rejection(exec, net, &e),
    }
}

fn grid_line(exec: &Executor, p: &sma_runtime::NetworkProfile) -> String {
    format!(
        "{:<9} b{:<2} {:<11} total {:>9.2} ms (gemm {:>9.2} + irregular {:>7.2} + transfer {:>6.2})",
        exec.backend().name(),
        exec.batch(),
        p.network,
        p.total_ms,
        p.gemm_ms,
        p.irregular_ms - p.transfer_ms,
        p.transfer_ms,
    )
}

fn grid_rejection(exec: &Executor, net: &Network, e: &sma_runtime::RuntimeError) -> String {
    format!(
        "{:<9} b{:<2} {:<11} rejected: {e}",
        exec.backend().name(),
        exec.batch(),
        net.name(),
    )
}

/// Executors covering a platform × batch grid (end-to-end defaults per
/// batch point).
#[must_use]
pub fn grid_executors(platforms: &[Platform], batches: &[usize]) -> Vec<Executor> {
    platforms
        .iter()
        .flat_map(|&p| {
            batches
                .iter()
                .map(move |&b| Executor::builder(p).batch(b).build())
        })
        .collect()
}

/// Every zoo network the evaluation touches
/// ([`zoo::evaluation_networks`]).
#[must_use]
pub fn zoo_networks() -> Vec<Network> {
    zoo::evaluation_networks()
}

/// All seven evaluation platforms ([`Platform::ALL`]).
#[must_use]
pub fn all_platforms() -> [Platform; 7] {
    Platform::ALL
}

/// Worker threads to use: `SMA_SWEEP_THREADS` if set, else the
/// machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    crate::knobs::sweep_threads()
}

/// Replays per grid cell: `SMA_SWEEP_REPS` if set, else 200 (a serving
/// burst large enough that the report times real work, small enough for
/// CI).
#[must_use]
pub fn default_reps() -> usize {
    crate::knobs::sweep_reps()
}

/// Per-platform GEMM-cache counters at one instant.
#[must_use]
pub fn cache_snapshot() -> Vec<(&'static str, CacheStats)> {
    all_platforms()
        .iter()
        .map(|p| {
            let backend = p.backend();
            (backend.name(), backend.gemm_cache_stats())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure/table report renderers (shared by the sweep tasks and the
// standalone `fig*` binaries).
// ---------------------------------------------------------------------

/// Fig. 1 rendered as a table (also writes `results/fig1.csv`).
#[must_use]
pub fn fig1_report() -> String {
    let rows: Vec<Vec<String>> = fig1()
        .into_iter()
        .map(|r| {
            vec![
                format!("2^{}", r.log2_size),
                format!("{:.1}%", r.tpu_efficiency * 100.0),
                format!("{:.1}%", r.tc_efficiency * 100.0),
            ]
        })
        .collect();
    let headers = ["size", "TPU efficiency", "TC efficiency"];
    let _ = write_csv("fig1", &headers, &rows);
    format!(
        "Fig. 1 — TensorCore and TPU efficiency\n\n{}",
        render_table(&headers, &rows)
    )
}

/// Fig. 3 rendered as a table (also writes `results/fig3.csv`).
#[must_use]
pub fn fig3_report() -> String {
    let rows: Vec<Vec<String>> = fig3()
        .into_iter()
        .map(|r| {
            vec![
                r.model.to_string(),
                r.platform.to_string(),
                format!("{:.1}", r.cnn_fc_ms),
                format!("{:.1}", r.irregular_ms),
                format!("{:.1}", r.transfer_ms),
                format!("{:.1}", r.total_ms),
            ]
        })
        .collect();
    let headers = [
        "model",
        "platform",
        "CNN&FC ms",
        "irregular ms",
        "transfer ms",
        "total ms",
    ];
    let _ = write_csv("fig3", &headers, &rows);
    format!(
        "Fig. 3 — TPU vs GPU for Mask R-CNN and DeepLab\n\n{}",
        render_table(&headers, &rows)
    )
}

/// Fig. 7 rendered as a table (also writes `results/fig7.csv`).
#[must_use]
pub fn fig7_report() -> String {
    let rows: Vec<Vec<String>> = fig7()
        .into_iter()
        .map(|r| {
            vec![
                format!("2^{}", r.log2_size),
                format!("{:.2}x", r.speedup_2sma_over_4tc),
                format!("{:.1}%", r.sma_efficiency * 100.0),
                format!("{:.1}%", r.tc_efficiency * 100.0),
                format!("{:.2}", r.ws_over_sb_cycles),
            ]
        })
        .collect();
    let headers = [
        "size",
        "2-SMA/4-TC",
        "2-SMA efficiency",
        "4-TC efficiency",
        "WS/SB cycles",
    ];
    let _ = write_csv("fig7", &headers, &rows);
    format!(
        "Fig. 7 — iso-FLOP: 2-SMA vs 4-TC and dataflow ablation\n\n{}",
        render_table(&headers, &rows)
    )
}

/// Fig. 8 rendered as a table with averages (also writes
/// `results/fig8.csv`).
#[must_use]
pub fn fig8_report() -> String {
    let rows_data = fig8();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.network.clone(),
                format!("{:.1}x", r.speedup_4tc),
                format!("{:.1}x", r.speedup_2sma),
                format!("{:.1}x", r.speedup_3sma),
                format!("{:.2}", r.energy_2sma),
                format!("{:.2}", r.energy_3sma),
            ]
        })
        .collect();
    let headers = [
        "network",
        "4-TC speedup",
        "2-SMA speedup",
        "3-SMA speedup",
        "2-SMA energy",
        "3-SMA energy",
    ];
    let _ = write_csv("fig8", &headers, &rows);
    let n = rows_data.len() as f64;
    format!(
        "Fig. 8 — iso-area comparison (batch-16 kernel study)\n\n{}\nAverage: 4-TC {:.1}x | 2-SMA {:.1}x | 3-SMA {:.1}x | energy 2-SMA {:.2} | 3-SMA {:.2}\n",
        render_table(&headers, &rows),
        rows_data.iter().map(|r| r.speedup_4tc).sum::<f64>() / n,
        rows_data.iter().map(|r| r.speedup_2sma).sum::<f64>() / n,
        rows_data.iter().map(|r| r.speedup_3sma).sum::<f64>() / n,
        rows_data.iter().map(|r| r.energy_2sma).sum::<f64>() / n,
        rows_data.iter().map(|r| r.energy_3sma).sum::<f64>() / n,
    )
}

/// Fig. 9 (left and right) rendered as tables (also writes
/// `results/fig9_left.csv` and `results/fig9_right.csv`).
#[must_use]
pub fn fig9_report() -> String {
    let left: Vec<Vec<String>> = fig9_left()
        .into_iter()
        .map(|r| {
            vec![
                r.platform.to_string(),
                format!("{:.1}", r.det_ms),
                format!("{:.1}", r.tra_ms),
                format!("{:.1}", r.loc_ms),
                format!("{:.1}", r.frame_ms),
            ]
        })
        .collect();
    let lh = ["platform", "DET ms", "TRA ms", "LOC ms", "frame ms"];
    let _ = write_csv("fig9_left", &lh, &left);
    let right: Vec<Vec<String>> = fig9_right()
        .into_iter()
        .map(|r| {
            vec![
                r.skip.to_string(),
                format!("{:.1}", r.tc_ms),
                format!("{:.1}", r.sma_ms),
            ]
        })
        .collect();
    let rh = ["N", "TC ms", "SMA ms"];
    let _ = write_csv("fig9_right", &rh, &right);
    format!(
        "Fig. 9 (left) — single-frame latency (100 ms target)\n\n{}\nFig. 9 (right) — frame latency vs detection interval N\n\n{}",
        render_table(&lh, &left),
        render_table(&rh, &right)
    )
}

/// Table I rendered.
#[must_use]
pub fn table1_report() -> String {
    let t1: Vec<Vec<String>> = table1().into_iter().map(|r| r.to_vec()).collect();
    format!(
        "Table I — Baseline GPU and SMA configurations\n\n{}",
        render_table(&["", "GPGPU", "SMA"], &t1)
    )
}

/// Table II rendered.
#[must_use]
pub fn table2_report() -> String {
    let t2: Vec<Vec<String>> = table2()
        .into_iter()
        .map(|(n, c)| vec![n, c.to_string()])
        .collect();
    format!(
        "Table II — CNN models\n\n{}",
        render_table(&["network", "conv layers"], &t2)
    )
}

fn tables_report() -> String {
    format!("{}\n{}", table1_report(), table2_report())
}

// ---------------------------------------------------------------------
// BENCH_sweep.json
// ---------------------------------------------------------------------

/// One task's name, wall cost, and output fingerprint inside a
/// [`SweepReport`].
#[derive(Debug, Clone)]
pub struct TaskSummary {
    /// Task name.
    pub name: String,
    /// Wall-clock milliseconds (timing file only).
    pub ms: f64,
    /// FNV-1a 64 digest of the rendered output (committed file only).
    pub digest: u64,
}

/// One sweep run as `all_experiments` renders it in two files: a
/// committed deterministic report (task names + output digests +
/// GEMM-cache counters — a pure function of the source tree) and a
/// gitignored timing side-file carrying everything wall-clock derived.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Wall-clock milliseconds of the run.
    pub wall_ms: f64,
    /// Worker threads.
    pub threads: usize,
    /// Per-task summaries in task order.
    pub tasks: Vec<TaskSummary>,
    /// Per-platform GEMM-cache counter deltas for this run.
    pub cache: Vec<(&'static str, CacheStats)>,
}

impl SweepReport {
    /// Summarises a run, attributing it the cache deltas between two
    /// [`cache_snapshot`]s taken around it.
    #[must_use]
    pub fn new(
        run: &SweepRun,
        before: &[(&'static str, CacheStats)],
        after: &[(&'static str, CacheStats)],
    ) -> Self {
        let cache = after
            .iter()
            .map(|&(name, stats)| {
                let earlier = before
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(CacheStats::default(), |&(_, s)| s);
                (name, stats.since(earlier))
            })
            .collect();
        SweepReport {
            wall_ms: run.wall_ms,
            threads: run.threads,
            tasks: run
                .tasks
                .iter()
                .map(|t| TaskSummary {
                    name: t.name.clone(),
                    ms: t.ms,
                    digest: crate::stream::fnv1a64(t.output.as_bytes()),
                })
                .collect(),
            cache,
        }
    }

    /// Renders the committed deterministic report as JSON (hand-rolled:
    /// the workspace has no serialisation dependency). Contains no
    /// wall-derived field — CI byte-diffs this file across two runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tasks\": [\n");
        for (i, task) in self.tasks.iter().enumerate() {
            let comma = if i + 1 == self.tasks.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"digest\": \"{:016x}\"}}{comma}",
                escape_json(&task.name),
                task.digest
            );
        }
        out.push_str("  ],\n  \"gemm_cache\": {\n");
        for (i, (backend, stats)) in self.cache.iter().enumerate() {
            let comma = if i + 1 == self.cache.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    \"{}\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}{comma}",
                escape_json(backend),
                stats.hits,
                stats.misses,
                stats.hit_rate()
            );
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Renders the wall-derived timing side-file as JSON: wall-clock,
    /// thread count and per-task `ms`. Never committed (machine- and
    /// load-dependent by nature).
    #[must_use]
    pub fn timing_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"wall_ms\": {:.3},\n  \"threads\": {},\n  \"tasks\": [\n",
            self.wall_ms, self.threads
        );
        for (i, task) in self.tasks.iter().enumerate() {
            let comma = if i + 1 == self.tasks.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"ms\": {:.3}}}{comma}",
                escape_json(&task.name),
                task.ms
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the committed deterministic report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes the timing side-file to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_timing_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.timing_json())
    }
}

/// A side-file path paired with a committed report path: `suffix`
/// inserted before the extension of the *file name*
/// (`BENCH_sweep.json` + `_timing` → `BENCH_sweep_timing.json`), or
/// appended when the file name has no extension. Dots in directory
/// names and a file name's leading dot never count as an extension, so
/// the side-file always lands next to the report.
#[must_use]
pub fn side_path(report_path: &str, suffix: &str) -> String {
    let name_start = report_path.rfind(['/', '\\']).map_or(0, |i| i + 1);
    match report_path[name_start..].rfind('.') {
        Some(dot) if dot > 0 => {
            let (stem, ext) = report_path.split_at(name_start + dot);
            format!("{stem}{suffix}{ext}")
        }
        _ => format!("{report_path}{suffix}"),
    }
}

/// The timing side-file path paired with a committed report path:
/// `BENCH_sweep.json` → `BENCH_sweep_timing.json` (see [`side_path`]).
#[must_use]
pub fn timing_path(report_path: &str) -> String {
    side_path(report_path, "_timing")
}

/// Minimal JSON string escaping shared by the report writers.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_outputs_in_order() {
        let execs = grid_executors(&[Platform::GpuSimd, Platform::Sma3], &[1, 16]);
        let nets = [zoo::alexnet(), zoo::vgg_a()];
        let sweep = Sweep::grid(&execs, &nets);
        assert_eq!(sweep.len(), 8);
        let serial = sweep.run_parallel(1);
        let parallel = sweep.run_parallel(4);
        assert_eq!(serial.tasks.len(), parallel.tasks.len());
        for (s, p) in serial.tasks.iter().zip(&parallel.tasks) {
            assert_eq!(s.name, p.name, "task order must be preserved");
            assert_eq!(s.output, p.output, "parallel output diverged: {}", s.name);
        }
    }

    /// The error arm of the one compile path: a backend that refuses
    /// deep GEMMs (every `k` above conv1's) fails every compile entry
    /// point with the same error, leaves an arena exactly as it was
    /// even though the failing derivation had already resolved conv1,
    /// and renders as a rejected grid cell instead of panicking.
    #[test]
    fn rejecting_backend_fails_every_compile_path_alike() {
        use sma_core::model::GemmEstimate;
        use sma_core::{SmaConfig, SmaGemmModel};
        use sma_runtime::backend::{
            gpu_irregular_estimate, Backend, IrregularEstimate, IrregularWork,
        };
        use sma_runtime::{PlanArena, RuntimeError};
        use sma_tensor::GemmShape;

        #[derive(Debug)]
        struct ShallowOnly(SmaGemmModel);
        impl Backend for ShallowOnly {
            fn name(&self) -> &'static str {
                "Shallow"
            }
            fn gemm(&self, shape: GemmShape) -> Result<GemmEstimate, RuntimeError> {
                if shape.k > 512 {
                    return Err(RuntimeError::UnsupportedOnBackend {
                        backend: "Shallow",
                        operation: "GEMM with k > 512",
                    });
                }
                Ok(self.0.estimate(shape))
            }
            fn irregular(&self, work: IrregularWork) -> IrregularEstimate {
                gpu_irregular_estimate(&sma_sim::GpuConfig::volta(), &work)
            }
            fn transfer_ms(&self, _bytes: u64) -> f64 {
                0.0
            }
            fn simd_mode_boost(&self) -> f64 {
                1.0
            }
        }

        let exec = Executor::builder(Platform::Sma3)
            .backend(std::sync::Arc::new(ShallowOnly(SmaGemmModel::new(
                SmaConfig::iso_area_3sma(),
            ))))
            .build();
        let net = zoo::alexnet();
        let expected = RuntimeError::UnsupportedOnBackend {
            backend: "Shallow",
            operation: "GEMM with k > 512",
        };
        assert_eq!(exec.try_run(&net).unwrap_err(), expected);
        assert_eq!(exec.try_plan(&net).unwrap_err(), expected);
        let family = exec.plan_family(&net);
        assert_eq!(family.try_plan(exec.batch()).unwrap_err(), expected);

        let mut arena = PlanArena::new();
        let resident = Executor::new(Platform::Sma3)
            .plan_family(&net)
            .try_plan_into(1, &mut arena)
            .expect("the built-in backend accepts AlexNet");
        let steps = arena.len();
        assert_eq!(
            family.try_plan_into(exec.batch(), &mut arena).unwrap_err(),
            expected
        );
        assert_eq!(arena.len(), steps, "a failed derivation leaves no steps");
        assert_eq!(arena.steps(&resident).len(), resident.step_count());

        let run = Sweep::grid(&[exec], &[net]).run_parallel(1);
        assert_eq!(
            run.tasks[0].output,
            format!("Shallow   b1  AlexNet     rejected: {expected}")
        );
    }

    #[test]
    fn grid_covers_every_cell_and_labels_batches() {
        let execs = grid_executors(&all_platforms(), &[1, 16]);
        let sweep = Sweep::grid(&execs, &zoo_networks());
        assert_eq!(sweep.len(), 7 * 2 * 7);
        assert!(sweep
            .tasks
            .iter()
            .any(|t| t.name() == "grid/3-SMA/b16/VGG-A"));
        assert!(sweep
            .tasks
            .iter()
            .any(|t| t.name() == "grid/ArrayFlex/b1/DeepLab"));
        assert!(sweep
            .tasks
            .iter()
            .any(|t| t.name() == "grid/FlexSA/b16/AlexNet"));
    }

    #[test]
    fn report_json_is_well_formed_enough() {
        let execs = grid_executors(&[Platform::Sma3], &[1]);
        let nets = [zoo::alexnet()];
        let sweep = Sweep::grid(&execs, &nets);
        let before = cache_snapshot();
        let run = sweep.run_parallel(2);
        let after = cache_snapshot();
        let report = SweepReport::new(&run, &before, &after);
        let json = report.to_json();
        for key in ["\"tasks\"", "\"digest\"", "\"gemm_cache\"", "\"hit_rate\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The committed report must carry nothing wall-derived.
        for banned in ["wall_ms", "\"ms\"", "threads"] {
            assert!(!json.contains(banned), "wall-derived {banned} in {json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        let timing = report.timing_json();
        for key in ["\"wall_ms\"", "\"threads\"", "\"ms\""] {
            assert!(timing.contains(key), "missing {key} in {timing}");
        }
        assert!(!timing.contains("digest"));
        assert_eq!(
            timing.matches('{').count(),
            timing.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn committed_report_is_identical_across_repeat_runs() {
        let execs = grid_executors(&[Platform::Sma2], &[4]);
        let nets = [zoo::goturn()];
        let render = |run: &SweepRun| SweepReport::new(run, &[], &[]).to_json();
        let first = render(&Sweep::grid(&execs, &nets).run_parallel(1));
        let second = render(&Sweep::grid(&execs, &nets).run_parallel(2));
        assert_eq!(first, second, "committed bytes must not depend on timing");
    }

    #[test]
    fn work_stealing_visits_every_index_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        let workers = run_work_stealing(hits.len(), 8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!((1..=8).contains(&workers));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(run_work_stealing(0, 4, |_| unreachable!()), 1);
    }

    #[test]
    fn ordered_fan_out_returns_results_in_index_order() {
        let job = |i: usize| format!("job-{i}");
        let expected: Vec<String> = (0..40).map(|i| format!("job-{i}")).collect();
        for threads in [1, 3, 8] {
            let (results, workers) = run_ordered(40, threads, job);
            assert_eq!(results, expected, "{threads} threads");
            assert_eq!(workers, threads);
        }
        let (empty, workers) = run_ordered(0, 4, |_| -> Box<u8> { unreachable!() });
        assert!(empty.is_empty());
        assert_eq!(workers, 1);
    }

    #[test]
    fn timing_path_suffixes_before_the_extension() {
        assert_eq!(timing_path("BENCH_sweep.json"), "BENCH_sweep_timing.json");
        assert_eq!(timing_path("out/d.se.json"), "out/d.se_timing.json");
        assert_eq!(timing_path("report"), "report_timing");
        // Only the file name's extension counts: dots in directories
        // and a leading dot stay put, so the side-file lands next to
        // the report.
        assert_eq!(timing_path("../report"), "../report_timing");
        assert_eq!(timing_path("out.d/report"), "out.d/report_timing");
        assert_eq!(timing_path("./report"), "./report_timing");
        assert_eq!(timing_path("out.d/.report"), "out.d/.report_timing");
        assert_eq!(
            side_path("out.d/BENCH_dse.json", "_rows"),
            "out.d/BENCH_dse_rows.json"
        );
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("x\ny"), "x\\u000ay");
    }

    #[test]
    fn thread_count_is_clamped_to_tasks() {
        let execs = grid_executors(&[Platform::GpuSimd], &[1]);
        let nets = [zoo::alexnet()];
        let run = Sweep::grid(&execs, &nets).run_parallel(64);
        assert_eq!(run.threads, 1);
    }
}
