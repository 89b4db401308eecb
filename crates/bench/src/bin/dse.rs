//! Sweeps the 5 040-point design-space grid — ArrayFlex pipeline span ×
//! FlexSA tile mode × batch × weight-cache budget × network — as lookups
//! in the cell table `DseGrid::compile` builds (see `sma_bench::dse`),
//! fanning point evaluation across the sweep module's ordered fan-out
//! and streaming rows to disk through the order-preserving writer as
//! points complete.
//!
//! Three files come out:
//!
//! * the **committed** deterministic summary (`BENCH_dse.json`): grid
//!   axes, winner tallies, residency counts, and the chained FNV-1a
//!   digest of the rows — CI byte-diffs it across two runs;
//! * the gitignored full row stream (`BENCH_dse_rows.json`);
//! * the gitignored timing side-file (`BENCH_dse_timing.json`) with the
//!   wall-clock and the headline **points/sec**.
//!
//! Environment:
//! * `SMA_DSE_POINTS` — evaluate only the first N points (default: the
//!   full grid; `--smoke` below caps harder).
//! * `SMA_SWEEP_THREADS` — worker threads (default: available
//!   parallelism).
//! * `SMA_DSE_JSON` — committed summary path (default:
//!   `BENCH_dse.json`); the rows/timing files derive their names from
//!   it (`_rows`/`_timing` before the extension).
//!
//! Pass `--smoke` to swap in the 48-point CI grid.

use sma_bench::dse::{DseGrid, DseReport, DseRow};
use sma_bench::knobs;
use sma_bench::stream::StreamWriter;
use sma_bench::sweep::{self, side_path, timing_path};
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
// sma-lint: allow(wallclock) — wall time IS this binary's measurand:
// points/sec lands in the gitignored timing file, never in model state
// or the committed summary.
use std::time::Instant;

fn fail(file: &str, e: &std::io::Error) -> ! {
    // The artifacts are the point of this binary; a missing file must
    // fail the build, not warn into a green log.
    eprintln!("could not write {file}: {e}");
    std::process::exit(1);
}

/// Renders row `index` of `count` as its slice of the rows JSON array,
/// into one exactly sized buffer.
fn render_row(row: &DseRow, index: usize, count: usize) -> String {
    let head = if index == 0 { "[\n  " } else { "  " };
    let tail = if index + 1 == count { "\n]\n" } else { ",\n" };
    let mut out = String::with_capacity(head.len() + row.json_len() + tail.len());
    out.push_str(head);
    row.write_json(&mut out);
    out.push_str(tail);
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let grid = if smoke {
        DseGrid::smoke()
    } else {
        DseGrid::full()
    };
    let total = grid.len();
    let count = knobs::dse_points().map_or(total, |cap| cap.min(total));
    let threads = sweep::default_threads();
    let path = knobs::dse_json_path();
    let rows_file = side_path(&path, "_rows");
    let timing_file = timing_path(&path);

    // sma-lint: allow(wallclock) — compile time is reported, not modeled.
    let compile_start = Instant::now();
    let compiled = grid.compile();
    let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "dse: compiled {} arena steps for {} points ({} evaluated) in {compile_ms:.1} ms",
        compiled.arena_steps(),
        total,
        count,
    );

    let writer = match File::create(&rows_file) {
        Ok(f) => StreamWriter::new(BufWriter::new(f)),
        Err(e) => fail(&rows_file, &e),
    };

    // sma-lint: allow(wallclock) — points/sec is the headline metric.
    let start = Instant::now();
    let (rows, workers) = sweep::run_ordered(count, threads, |i| {
        let row = compiled.row(i);
        if let Err(e) = writer.push(i, render_row(&row, i, count)) {
            fail(&rows_file, &e);
        }
        row
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = match writer.finish() {
        Ok((stats, _)) => stats,
        Err(e) => fail(&rows_file, &e),
    };

    let report = DseReport::from_rows(&rows);
    if let Err(e) = std::fs::write(&path, report.to_json(compiled.grid())) {
        fail(&path, &e);
    }

    let points_per_sec = if wall_ms > 0.0 {
        count as f64 * 1e3 / wall_ms
    } else {
        f64::INFINITY
    };
    let mut timing = String::from("{\n");
    let _ = write!(
        timing,
        "  \"points\": {count},\n  \"threads\": {workers},\n  \"compile_ms\": {compile_ms:.3},\n  \"wall_ms\": {wall_ms:.3},\n  \"points_per_sec\": {points_per_sec:.1},\n  \"peak_pending_rows\": {}\n}}\n",
        stats.peak_pending
    );
    if let Err(e) = std::fs::write(&timing_file, timing) {
        fail(&timing_file, &e);
    }

    for file in [&path, &rows_file, &timing_file] {
        println!("wrote {file}");
    }
    println!(
        "dse: {count} points | {wall_ms:.1} ms on {workers} threads | {points_per_sec:.0} points/sec | peak {} parked rows | rows digest {:016x}",
        stats.peak_pending, report.rows_digest,
    );
    for (name, wins) in &report.winners {
        println!("  {name}: {wins} wins");
    }
}
