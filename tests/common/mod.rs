//! Shared fixtures for the integration suites: the evaluation's
//! platform, network, batch and executor-config grids, defined once so
//! every parity and serving suite covers a new platform, zoo model or
//! batch point the moment it lands.

#![expect(
    dead_code,
    reason = "each integration-test binary links this module and uses its own subset of the fixtures"
)]

use sma::models::{zoo, Network};
use sma::runtime::serve::{LoadGenerator, Request, ServeRun};
use sma::runtime::{Executor, NetworkProfile, Platform};

/// The seven evaluated platforms, in golden-file order
/// ([`Platform::ALL`] is the single source of truth, shared with the
/// sweep driver's grid).
#[must_use]
pub(crate) fn platforms() -> [Platform; 7] {
    Platform::ALL
}

/// Every zoo network the evaluation touches
/// ([`zoo::evaluation_networks`], shared with the sweep driver's
/// grid).
#[must_use]
pub(crate) fn networks() -> Vec<Network> {
    zoo::evaluation_networks()
}

/// The executor configurations of the golden-parity grid, in
/// golden-file order.
#[must_use]
pub(crate) fn configs() -> [&'static str; 3] {
    ["default", "kernel", "nopost"]
}

/// Builds the executor for one golden-parity configuration label.
#[must_use]
pub(crate) fn executor(platform: Platform, config: &str) -> Executor {
    match config {
        "default" => Executor::new(platform),
        "kernel" => Executor::kernel_study(platform),
        "nopost" => Executor::builder(platform).postprocessing(false).build(),
        other => panic!("unknown config {other}"),
    }
}

/// Asserts two profiles are identical bit for bit: every `f64` through
/// `to_bits`, every counter and per-layer record exactly.
pub(crate) fn assert_bit_identical(context: &str, a: &NetworkProfile, b: &NetworkProfile) {
    assert_eq!(a.platform, b.platform, "{context}: platform");
    assert_eq!(a.network, b.network, "{context}: network name");
    for (field, x, y) in [
        ("total_ms", a.total_ms, b.total_ms),
        ("gemm_ms", a.gemm_ms, b.gemm_ms),
        ("irregular_ms", a.irregular_ms, b.irregular_ms),
        ("transfer_ms", a.transfer_ms, b.transfer_ms),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: {field} {x} vs {y}");
    }
    assert_eq!(a.sm_cycles, b.sm_cycles, "{context}: sm_cycles");
    assert_eq!(a.mem, b.mem, "{context}: access ledger");
    assert_eq!(a.layers.len(), b.layers.len(), "{context}: layer count");
    for (x, y) in a.layers.iter().zip(&b.layers) {
        assert_eq!(x.index, y.index, "{context}: layer index");
        assert_eq!(x.path, y.path, "{context}: layer {} path", x.index);
        assert_eq!(
            x.ms.to_bits(),
            y.ms.to_bits(),
            "{context}: layer {} ms",
            x.index
        );
    }
}

/// A compact serving cluster over the full platform grid: one shard
/// per evaluated platform (the serving suites iterate the same
/// platform list as the parity suites).
#[must_use]
pub(crate) fn serve_shards() -> Vec<Executor> {
    platforms().into_iter().map(Executor::new).collect()
}

/// A small, fast network subset for serving traces (the heavy hybrid
/// models make sense per-inference but would dominate a 10k-request
/// queueing test without changing what it pins).
#[must_use]
pub(crate) fn serve_networks() -> Vec<Network> {
    vec![zoo::alexnet(), zoo::vgg_a(), zoo::googlenet()]
}

/// A seeded open-loop trace over [`serve_networks`].
#[must_use]
pub(crate) fn serve_trace(seed: u64, count: usize, mean_interarrival_ms: f64) -> Vec<Request> {
    LoadGenerator::new(seed, mean_interarrival_ms).trace(count, serve_networks().len())
}

/// Every simulated quantity of two serve runs, compared bit for bit —
/// including the control-plane annotations and counters.
pub(crate) fn assert_runs_bit_identical(a: &ServeRun, b: &ServeRun, label: &str) {
    assert_eq!(a.rejected.len(), b.rejected.len(), "{label} rejected");
    assert_eq!(a.shed.len(), b.shed.len(), "{label} shed");
    assert_eq!(a.failed.len(), b.failed.len(), "{label} failed");
    assert_eq!(a.preempted, b.preempted, "{label} preempted ids");
    assert_eq!(a.scale, b.scale, "{label} scale stats");
    assert_eq!(a.reconfig, b.reconfig, "{label} reconfig stats");
    assert_eq!(a.class_stats, b.class_stats, "{label} class stats");
    assert_eq!(a.reports.len(), b.reports.len(), "{label} shard count");
    for (x, y) in a.reports.iter().zip(&b.reports) {
        let shard = x.shard;
        assert_eq!(
            x.busy_ms.to_bits(),
            y.busy_ms.to_bits(),
            "{label} s{shard} busy"
        );
        assert_eq!(
            x.makespan_ms.to_bits(),
            y.makespan_ms.to_bits(),
            "{label} s{shard} makespan"
        );
        assert_eq!(x.cache, y.cache, "{label} s{shard} cache");
        assert_eq!(x.fault, y.fault, "{label} s{shard} fault stats");
        assert_eq!(x.tally, y.tally, "{label} s{shard} tally");
        assert_eq!(
            x.plans_compiled, y.plans_compiled,
            "{label} s{shard} compiles"
        );
        assert_eq!(x.batches.len(), y.batches.len(), "{label} s{shard} batches");
        for (p, q) in x.batches.iter().zip(&y.batches) {
            assert_eq!(p.network, q.network, "{label} s{shard} batch net");
            assert_eq!(p.size, q.size, "{label} s{shard} batch size");
            assert_eq!(
                p.start_ms.to_bits(),
                q.start_ms.to_bits(),
                "{label} s{shard} start"
            );
            assert_eq!(
                p.service_ms.to_bits(),
                q.service_ms.to_bits(),
                "{label} s{shard} service"
            );
            assert_eq!(
                p.compile_ms.to_bits(),
                q.compile_ms.to_bits(),
                "{label} s{shard} compile"
            );
        }
        assert_eq!(
            x.requests.len(),
            y.requests.len(),
            "{label} s{shard} served"
        );
        for (p, q) in x.requests.iter().zip(&y.requests) {
            assert_eq!(p.id, q.id, "{label} s{shard} id order");
            assert_eq!(p.class, q.class, "{label} s{shard} class");
            assert_eq!(
                p.start_ms.to_bits(),
                q.start_ms.to_bits(),
                "{label} s{shard} req start"
            );
            assert_eq!(
                p.completion_ms.to_bits(),
                q.completion_ms.to_bits(),
                "{label} s{shard} completion"
            );
        }
    }
}
