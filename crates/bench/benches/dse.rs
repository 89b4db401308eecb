//! Criterion benches of the DSE hot path: grid compilation (plan
//! families into an arena, one replay per plan, the cell table) and
//! point evaluation (cell lookup + residency count), reported so the
//! headline points/sec is tracked across PRs. CI runs this with
//! `CRITERION_SAMPLE_SIZE=1` and uploads the timing JSON as an artifact
//! — wall-derived numbers never land in the committed tree.

use criterion::{criterion_group, criterion_main, Criterion};
use sma_bench::dse::DseGrid;
use sma_bench::sweep::run_work_stealing;

fn bench_dse(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(4));

    g.bench_function("compile_smoke_grid", |b| {
        b.iter(|| std::hint::black_box(DseGrid::smoke().compile()))
    });

    let compiled = DseGrid::smoke().compile();
    g.bench_function("row_eval", |b| {
        let mut i = 0;
        b.iter(|| {
            let row = std::hint::black_box(compiled.row(i));
            i = (i + 1) % compiled.grid().len();
            row
        })
    });

    // The headline: points/sec through the full hot path (compile once,
    // then every smoke point on the work-stealing driver). Criterion's
    // per-iteration time is the whole 48-point pass; divide out offline.
    g.bench_function("points_smoke_parallel", |b| {
        let threads = sma_bench::sweep::default_threads();
        b.iter(|| {
            run_work_stealing(compiled.grid().len(), threads, |i| {
                std::hint::black_box(compiled.row(i));
            })
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dse);
criterion_main!(benches);
