//! Criterion benches of the serving hot path introduced by the plan
//! layer: compiled-plan replay, plan compilation itself, and the
//! parallel sweep driver end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use sma_bench::sweep::{grid_executors, Sweep};
use sma_models::zoo;
use sma_runtime::{Executor, Platform};

fn bench_plan_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));

    let exec = Executor::kernel_study(Platform::Sma3);
    let net = zoo::mask_rcnn();
    let plan = exec
        .try_plan(&net) // warms the shared cache
        .expect("3-SMA accepts every Mask R-CNN layer");
    g.bench_function("plan_replay/mask_rcnn_3sma", |b| {
        b.iter(|| std::hint::black_box(plan.run()))
    });
    g.bench_function("plan_compile/mask_rcnn_3sma", |b| {
        b.iter(|| std::hint::black_box(exec.try_plan(&net)))
    });
    g.finish();
}

fn bench_sweep_driver(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(4));

    let execs = grid_executors(&Platform::gpu_family(), &[1, 16]);
    let nets = zoo::table2_models();
    g.bench_function("grid_planned_parallel", |b| {
        let threads = sma_bench::sweep::default_threads();
        b.iter(|| std::hint::black_box(Sweep::grid_planned(&execs, &nets, 8).run_parallel(threads)))
    });
    g.finish();
}

criterion_group!(benches, bench_plan_replay, bench_sweep_driver);
criterion_main!(benches);
