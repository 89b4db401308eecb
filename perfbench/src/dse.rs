//! `dse-grid`: the `dse` binary's work as a closed loop. One iteration
//! compiles the full 5,040-point grid over fresh pinned backends,
//! evaluates every point on two work-stealing threads, renders each row
//! and pushes it through an order-preserving `StreamWriter` into memory,
//! then digests the rows into a `DseReport`.

use crate::stats::Metric;
use crate::{time_estimates, Iteration, Workload};
use sma_bench::dse::{DseGrid, DseReport, DseRow};
use sma_bench::stream::StreamWriter;
use sma_bench::sweep::run_work_stealing;
use sma_runtime::backend::{ArrayFlexBackend, FlexSaBackend, FlexSaMode, PipelineConfig};
use sma_runtime::{ArenaPlan, Executor, PlanArena, Platform};
use sma_tensor::GemmShapeBatch;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Worker threads: two, so rows complete out of order and the writer
/// parks some of them.
pub const THREADS: usize = 2;
/// The committed `BENCH_dse.json` rows digest of the full grid.
pub const ROWS_DIGEST: u64 = 0x12e3_3dff_dc32_fe37;

/// What one iteration produced, for the output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridOutput {
    /// Rows the writer emitted.
    pub rows: usize,
    /// Points in the grid.
    pub points: usize,
    /// The writer's chained digest over the pushed rows.
    pub stream_digest: u64,
    /// `DseReport::from_rows(..).rows_digest`.
    pub rows_digest: u64,
}

/// The output check: every point written once, in order, and the rows
/// digest equal to the committed one.
///
/// # Errors
///
/// A message naming the first check that failed.
pub fn check_grid(out: &GridOutput) -> Result<(), String> {
    if out.rows != out.points {
        return Err(format!("{} rows for {} points", out.rows, out.points));
    }
    if out.rows_digest != ROWS_DIGEST {
        return Err(format!(
            "rows digest {:016x}, BENCH_dse.json has {ROWS_DIGEST:016x}",
            out.rows_digest
        ));
    }
    if out.stream_digest != out.rows_digest {
        return Err(format!(
            "streamed digest {:016x} != rows digest {:016x}",
            out.stream_digest, out.rows_digest
        ));
    }
    Ok(())
}

/// Span totals of traced iterations, in ns (rows summed over threads).
#[derive(Debug, Default)]
pub struct DseTrace {
    iterations: u64,
    /// Thread capacity: iteration wall time plus the extra workers'
    /// share of the parallel phase.
    busy_ns: f64,
    compile_ns: f64,
    row_ns: f64,
    render_ns: f64,
    push_ns: f64,
    report_ns: f64,
    rows: f64,
    peak_pending: usize,
    arena_steps: usize,
}

/// Per-row span sums shared by the workers.
#[derive(Default)]
struct RowSpans {
    row: AtomicU64,
    render: AtomicU64,
    push: AtomicU64,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

/// The `dse-grid` workload (stateless: every iteration starts cold).
#[derive(Debug, Default)]
pub struct DseWorkload;

impl DseWorkload {
    fn run(trace: Option<&mut DseTrace>) -> Result<(f64, GridOutput), String> {
        let traced = trace.is_some();
        let spans = RowSpans::default();
        let t0 = Instant::now();
        let compiled = DseGrid::full().compile();
        let t1 = Instant::now();
        let count = compiled.grid().len();
        let writer = StreamWriter::new(Vec::new());
        let rows: Mutex<Vec<Option<DseRow>>> = Mutex::new(vec![None; count]);
        let push_failures = AtomicU64::new(0);
        run_work_stealing(count, THREADS, |i| {
            let a = traced.then(Instant::now);
            let row = compiled.row(i);
            let b = traced.then(Instant::now);
            let json = row.to_json();
            let c = traced.then(Instant::now);
            if writer.push(i, json).is_err() {
                push_failures.fetch_add(1, Ordering::Relaxed);
            }
            if let (Some(a), Some(b), Some(c)) = (a, b, c) {
                let d = Instant::now();
                spans.row.fetch_add(nanos(a, b), Ordering::Relaxed);
                spans.render.fetch_add(nanos(b, c), Ordering::Relaxed);
                spans.push.fetch_add(nanos(c, d), Ordering::Relaxed);
            }
            rows.lock().expect("a row worker panicked")[i] = Some(row);
        });
        let t2 = Instant::now();
        let (stats, bytes) = writer.finish().map_err(|e| e.to_string())?;
        let rows: Vec<DseRow> = rows
            .into_inner()
            .expect("a row worker panicked")
            .into_iter()
            .flatten()
            .collect();
        let t3 = Instant::now();
        let report = DseReport::from_rows(&rows);
        black_box(report.to_json(compiled.grid()));
        let t4 = Instant::now();
        let (row_count, arena_steps) = (rows.len(), compiled.arena_steps());
        // Freeing the grid and its rows is part of what a caller pays.
        drop((compiled, rows, bytes));
        let t5 = Instant::now();
        if push_failures.into_inner() > 0 {
            return Err("a row push failed".to_string());
        }
        if let Some(t) = trace {
            t.iterations += 1;
            t.busy_ns += ((t5 - t0) + (t2 - t1) * (THREADS as u32 - 1)).as_nanos() as f64;
            t.compile_ns += (t1 - t0).as_nanos() as f64;
            t.row_ns += spans.row.into_inner() as f64;
            t.render_ns += spans.render.into_inner() as f64;
            t.push_ns += spans.push.into_inner() as f64;
            t.report_ns += (t4 - t3).as_nanos() as f64;
            t.rows += row_count as f64;
            t.peak_pending = t.peak_pending.max(stats.peak_pending);
            t.arena_steps = arena_steps;
        }
        let out = GridOutput {
            rows: stats.rows.min(row_count),
            points: count,
            stream_digest: stats.digest,
            rows_digest: report.rows_digest,
        };
        Ok(((t5 - t0).as_secs_f64() * 1e3, out))
    }
}

/// The grid's axes, read back from its points.
fn axes(grid: &DseGrid) -> (Vec<PipelineConfig>, Vec<FlexSaMode>, Vec<usize>) {
    let (mut spans, mut modes, mut batches) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..grid.len() {
        let p = grid.point(i);
        if !spans.contains(&p.span) {
            spans.push(p.span);
        }
        if !modes.contains(&p.mode) {
            modes.push(p.mode);
        }
        if !batches.contains(&p.batch) {
            batches.push(p.batch);
        }
    }
    (spans, modes, batches)
}

/// Fresh pinned backends in `DseGrid::compile` order: spans, then modes.
fn pinned_backends(spans: &[PipelineConfig], modes: &[FlexSaMode]) -> Vec<Executor> {
    let arrayflex = spans.iter().map(|&span| {
        Executor::builder(Platform::ArrayFlex)
            .backend(Arc::new(ArrayFlexBackend::pinned(span)))
            .build()
    });
    let flexsa = modes.iter().map(|&mode| {
        Executor::builder(Platform::FlexSa)
            .backend(Arc::new(FlexSaBackend::pinned(mode)))
            .build()
    });
    arrayflex.chain(flexsa).collect()
}

/// A call-by-call replica of one grid compile and of the rows' plan
/// replays, over fresh pinned backends: the same public calls
/// `DseGrid::compile` and `DseCompiled::row` make, each timed.
#[derive(Debug, Default)]
struct Shadow {
    family_ns: f64,
    family_layers: f64,
    stats_ns: f64,
    stats_shapes: f64,
    derives: f64,
    derive_ns: f64,
    derive_steps: f64,
    compile_ns: f64,
    compile_layers: f64,
    replay_ns: f64,
    replay_steps: f64,
    gemm_hits: f64,
    gemm_misses: f64,
    cold_ns_per_shape: f64,
    hit_ns: f64,
}

impl Shadow {
    fn measure() -> Shadow {
        let grid = DseGrid::full();
        let (spans, modes, batches) = axes(&grid);
        let executors = pinned_backends(&spans, &modes);
        let mut s = Shadow::default();
        let mut arena = PlanArena::new();
        // plans[backend][network][batch], as the compiled grid holds them.
        let mut plans: Vec<Vec<Vec<Option<ArenaPlan>>>> = Vec::new();
        for exec in &executors {
            let mut per_network = Vec::new();
            for net in grid.networks() {
                let t = Instant::now();
                let family = exec.plan_family(net);
                s.family_ns += t.elapsed().as_nanos() as f64;
                s.family_layers += net.layers().len() as f64;
                let mut per_batch = Vec::new();
                for &batch in &batches {
                    let t = Instant::now();
                    let shapes = family.gemm_shapes(batch);
                    let stats = GemmShapeBatch::from_shapes(&shapes);
                    black_box(stats.arithmetic_intensity(2));
                    s.stats_ns += t.elapsed().as_nanos() as f64;
                    s.stats_shapes += shapes.len() as f64;
                    let before = arena.len();
                    let t = Instant::now();
                    let plan = family.try_plan_into(batch, &mut arena).ok();
                    s.derive_ns += t.elapsed().as_nanos() as f64;
                    s.derive_steps += (arena.len() - before) as f64;
                    s.derives += 1.0;
                    per_batch.push(plan);
                }
                per_network.push(per_batch);
            }
            plans.push(per_network);
        }
        for exec in &executors {
            let stats = exec.backend().gemm_cache_stats();
            s.gemm_hits += stats.hits as f64;
            s.gemm_misses += stats.misses as f64;
        }
        // From-scratch compiles of the same plans, on the warm backends.
        for exec in &executors {
            for net in grid.networks() {
                for &batch in &batches {
                    let t = Instant::now();
                    let _ = black_box(exec.with_batch(batch).try_plan(net));
                    s.compile_ns += t.elapsed().as_nanos() as f64;
                    s.compile_layers += net.layers().len() as f64;
                }
            }
        }
        // The rows' replays: two candidate plans per point.
        let slot = |batch: usize| batches.iter().position(|&b| b == batch);
        let t = Instant::now();
        for i in 0..grid.len() {
            let p = grid.point(i);
            let span = spans.iter().position(|&x| x == p.span);
            let mode = modes
                .iter()
                .position(|&x| x == p.mode)
                .map(|m| spans.len() + m);
            for backend in [span, mode].into_iter().flatten() {
                let candidate = slot(p.batch).and_then(|b| plans[backend][p.network][b].as_ref());
                if let Some(plan) = candidate {
                    black_box(arena.replay(plan));
                    s.replay_steps += arena.steps(plan).len() as f64;
                }
            }
        }
        s.replay_ns = t.elapsed().as_nanos() as f64;
        // Cold then warm estimates of every shape, on fresh backends.
        let (mut cold_ns, mut hit_ns, mut shapes_n) = (0.0, 0.0, 0);
        for exec in pinned_backends(&spans, &modes) {
            let shapes = grid.networks().iter().flat_map(|net| {
                let family = exec.plan_family(net);
                batches
                    .iter()
                    .flat_map(move |&batch| family.gemm_shapes(batch))
            });
            let (cold, warm, n) = time_estimates(exec.backend().as_ref(), shapes);
            cold_ns += cold;
            hit_ns += warm;
            shapes_n += n;
        }
        s.cold_ns_per_shape = cold_ns / shapes_n.max(1) as f64;
        s.hit_ns = hit_ns / shapes_n.max(1) as f64;
        s
    }
}

impl Workload for DseWorkload {
    type Trace = DseTrace;

    fn cycle_len(&self) -> usize {
        1
    }

    fn iterate(&mut self, _k: usize, trace: Option<&mut DseTrace>) -> Iteration {
        match Self::run(trace) {
            Ok((ms, out)) => Iteration {
                ms,
                items: out.points as u64,
                check: check_grid(&out),
            },
            Err(e) => Iteration {
                ms: 0.0,
                items: 0,
                check: Err(e),
            },
        }
    }

    fn reference_check(&mut self) -> Vec<Result<(), String>> {
        Vec::new()
    }

    fn layer_metrics(&mut self, trace: &DseTrace) -> Vec<Metric> {
        let s = Shadow::measure();
        let n = trace.iterations.max(1) as f64;
        let rows = trace.rows.max(1.0);
        let estimate_ns = s.cold_ns_per_shape * s.gemm_misses + s.stats_ns;
        let gemm_ns = s.hit_ns * s.gemm_hits;
        let plan_ns = (s.family_ns + s.derive_ns - s.cold_ns_per_shape * s.gemm_misses - gemm_ns)
            .max(0.0)
            + s.replay_ns;
        // Per iteration, the shadow's layer time sits inside the compile
        // and row spans.
        let dse_ns =
            ((trace.compile_ns + trace.row_ns) / n - estimate_ns - gemm_ns - plan_ns).max(0.0);
        let harness_ns = (trace.render_ns + trace.push_ns + trace.report_ns) / n;
        let busy = (trace.busy_ns / n).max(1.0);
        let lookups = s.gemm_hits + s.gemm_misses;
        vec![
            Metric::new("estimate.cold_ns_per_shape", s.cold_ns_per_shape, "ns"),
            Metric::new("estimate.cold_shapes", s.gemm_misses, "count"),
            Metric::new(
                "estimate.shape_stats_ns_per_shape",
                s.stats_ns / s.stats_shapes.max(1.0),
                "ns",
            ),
            Metric::new("estimate.time_share", estimate_ns / busy, "ratio"),
            Metric::new("gemm_cache.hit_ns", s.hit_ns, "ns"),
            Metric::new("gemm_cache.lookups", lookups, "count"),
            Metric::new(
                "gemm_cache.hit_rate",
                s.gemm_hits / lookups.max(1.0),
                "ratio",
            ),
            Metric::new("gemm_cache.time_share", gemm_ns / busy, "ratio"),
            Metric::new(
                "plan.family_ns_per_layer",
                s.family_ns / s.family_layers.max(1.0),
                "ns",
            ),
            Metric::new(
                "plan.derive_ns_per_layer",
                s.derive_ns / s.derive_steps.max(1.0),
                "ns",
            ),
            Metric::new(
                "plan.compile_ns_per_layer",
                s.compile_ns / s.compile_layers.max(1.0),
                "ns",
            ),
            Metric::new(
                "plan.replay_ns_per_layer",
                s.replay_ns / s.replay_steps.max(1.0),
                "ns",
            ),
            Metric::new("plan.arena_steps", trace.arena_steps as f64, "count"),
            Metric::new("plan.compiles", s.derives, "count"),
            Metric::new("plan.time_share", plan_ns / busy, "ratio"),
            Metric::new("dse.compile_ms", trace.compile_ns / n / 1e6, "ms"),
            Metric::new("dse.row_ns", trace.row_ns / rows, "ns"),
            Metric::new("dse.time_share", dse_ns / busy, "ratio"),
            Metric::new("harness.row_render_ns", trace.render_ns / rows, "ns"),
            Metric::new("harness.stream_push_ns", trace.push_ns / rows, "ns"),
            Metric::new(
                "harness.peak_pending_rows",
                trace.peak_pending as f64,
                "count",
            ),
            Metric::new("harness.report_json_ns", trace.report_ns / n, "ns"),
            Metric::new("harness.time_share", harness_ns / busy, "ratio"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> GridOutput {
        GridOutput {
            rows: 5040,
            points: 5040,
            stream_digest: ROWS_DIGEST,
            rows_digest: ROWS_DIGEST,
        }
    }

    #[test]
    fn committed_digest_passes_and_perturbations_fail() {
        assert_eq!(check_grid(&output()), Ok(()));
        let mut lost = output();
        lost.rows -= 1;
        assert!(check_grid(&lost).is_err());
        let mut drifted = output();
        drifted.rows_digest ^= 1;
        drifted.stream_digest ^= 1;
        assert!(check_grid(&drifted).is_err());
        let mut reordered = output();
        reordered.stream_digest ^= 1;
        assert!(check_grid(&reordered).is_err());
    }

    #[test]
    fn one_iteration_reproduces_the_committed_grid() {
        let it = DseWorkload.iterate(0, None);
        assert_eq!(it.check, Ok(()));
        assert_eq!(it.items, 5040);
    }
}
