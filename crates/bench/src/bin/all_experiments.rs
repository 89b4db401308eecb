//! Runs the full evaluation through the sweep driver: the figure/table
//! regenerators plus the platform × network × batch grid, each grid
//! cell compiled once into a `NetworkPlan` and replayed, fanned across
//! scoped worker threads over the sharded GEMM caches.
//!
//! The run lands in two files: the committed `BENCH_sweep.json` holds
//! only the deterministic side (task names, FNV-1a output digests,
//! GEMM-cache counters — CI byte-diffs it across two runs), while
//! everything wall-clock derived (`wall_ms`, thread count, per-task
//! `ms`) goes to the gitignored `BENCH_sweep_timing.json` next to it,
//! so the perf trajectory is tracked without committing noise.
//!
//! Environment:
//! * `SMA_SWEEP_THREADS` — worker threads (default: available
//!   parallelism).
//! * `SMA_SWEEP_JSON` — committed report path (default:
//!   `BENCH_sweep.json`); the timing side-file derives its name from it
//!   (`_timing` before the extension).

use sma_bench::sweep::{self, Sweep, SweepReport};
use sma_models::zoo;
use sma_runtime::Platform;

/// Replays per grid cell: a serving burst large enough that the report
/// times real work, small enough for CI.
const REPS: usize = 200;

fn main() {
    let execs = sweep::grid_executors(&Platform::ALL, &[1, 16]);
    let nets = zoo::evaluation_networks();
    let threads = sweep::default_threads();

    let tasks = Sweep::figures().extend(Sweep::grid_planned(&execs, &nets, REPS));
    let before = sweep::cache_snapshot();
    let run = tasks.run_parallel(threads);
    let after = sweep::cache_snapshot();

    for task in &run.tasks {
        println!("===== {} =====", task.name);
        println!("{}", task.output);
    }

    let report = SweepReport::new(&run, &before, &after);
    let path = sma_bench::knobs::sweep_json_path();
    let timing = sweep::timing_path(&path);
    for (file, result) in [
        (&path, report.write_json(&path)),
        (&timing, report.write_timing_json(&timing)),
    ] {
        match result {
            Ok(()) => println!("wrote {file}"),
            Err(e) => {
                // The reports are the point of this binary (CI uploads
                // them as artifacts); a missing file must fail the
                // build, not warn into a green log.
                eprintln!("could not write {file}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "\nsweep: {} tasks | planned-parallel {:.1} ms on {} threads",
        report.tasks.len(),
        report.wall_ms,
        report.threads,
    );
    for (backend, stats) in &report.cache {
        println!(
            "  {backend}: GEMM cache {} hits / {} misses ({:.1}% hit rate)",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0
        );
    }
}
