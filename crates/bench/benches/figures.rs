//! Criterion benches wrapping each figure regenerator: one bench per
//! table/figure so the full evaluation is tracked for regressions and can
//! be timed under `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use sma_bench::experiments::{fig1, fig3, fig7, fig8, fig9_left, fig9_right, table1, table2};

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.bench_function("fig1_tpu_vs_tc_efficiency", |b| {
        b.iter(|| std::hint::black_box(fig1()))
    });
    g.bench_function("fig3_hybrid_breakdown", |b| {
        b.iter(|| std::hint::black_box(fig3()))
    });
    g.bench_function("fig7_isoflop_sweep", |b| {
        b.iter(|| std::hint::black_box(fig7()))
    });
    g.bench_function("fig8_isoarea_networks", |b| {
        b.iter(|| std::hint::black_box(fig8()))
    });
    g.bench_function("fig9_autonomous_driving", |b| {
        b.iter(|| std::hint::black_box((fig9_left(), fig9_right())))
    });
    g.bench_function("table1_table2", |b| {
        b.iter(|| std::hint::black_box((table1(), table2())))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
