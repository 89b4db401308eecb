//! The live-serving benchmark: threaded twin vs discrete-event oracle.
//!
//! Builds the same six-shard cluster as the serving benchmark, drives
//! a (shorter, knob-sized) seeded trace through the threaded
//! [`LiveServer`], replays every run's realized arrival trace through
//! the discrete-event engine, and reports both worlds side by side.
//! The combos are restricted to the timing-robust envelope
//! (`docs/LIVE_SERVING.md`) where the oracle contract is **exact**
//! discrete agreement; any divergence is a bug, and
//! [`LiveBenchReport::all_agree`] gates the `live_serve` binary's exit
//! code (and the CI live-smoke step) on it.
//!
//! Unlike `BENCH_sweep.json` / `BENCH_serve.json`, the live report
//! contains wall-clock-derived latencies and is **not** a committed
//! artifact — it lands in `.gitignore`d `BENCH_live.json` and is
//! uploaded from CI for inspection only.
//!
//! This module itself never reads a clock: every wall-time figure is
//! lifted from the [`LiveReport`](sma_runtime::serve::LiveReport)
//! the runtime's (sanctioned) live layer produced.

use crate::serve::BenchCluster;
use crate::sweep::escape_json;
use sma_runtime::serve::{
    diff_outcomes, discrete_outcomes, percentile_ms, replay, BatchPolicy, EngineConfig, Immediate,
    LiveConfig, LiveMode, LiveServer, LoadShape, Placement, PlatformAffinity, Request, RoundRobin,
    ServeRun, SizeK, TransportModel,
};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Knob-shaped inputs of one live benchmark run.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Trace length.
    pub requests: usize,
    /// Trace seed.
    pub seed: u64,
    /// Wall-ms per simulated ms.
    pub time_scale: f64,
    /// `open` or `closed` (validated by the knob accessor).
    pub mode: String,
    /// `steady`, `bursty` or `diurnal` (validated by the knob
    /// accessor).
    pub shape: String,
}

/// One policy × placement cell: the live run and its oracle replay.
#[derive(Debug)]
pub struct LiveCombo {
    /// Batching policy label.
    pub policy: String,
    /// Placement label.
    pub placement: String,
    /// Served requests (identical in both worlds when `agreement`).
    pub served: usize,
    /// Admission-rejected requests.
    pub rejected: usize,
    /// Whether the discrete outcomes matched exactly.
    pub agreement: bool,
    /// Human-readable divergences (empty when `agreement`).
    pub diffs: Vec<String>,
    /// Live latency stats over served requests, simulated ms
    /// (wall-derived instants — machine-dependent).
    pub live_p50_ms: f64,
    /// Live p99, simulated ms.
    pub live_p99_ms: f64,
    /// Replay latency stats over the same realized trace, simulated ms
    /// (fully deterministic).
    pub replay_p50_ms: f64,
    /// Replay p99, simulated ms.
    pub replay_p99_ms: f64,
    /// Wall-clock duration of the live run, ms.
    pub wall_elapsed_ms: f64,
}

/// The full live benchmark result.
#[derive(Debug)]
pub struct LiveBenchReport {
    /// The inputs the run used.
    pub options: LiveOptions,
    /// Modeled per-hop transport applied to every combo.
    pub transport: TransportModel,
    /// One cell per policy × placement combo.
    pub combos: Vec<LiveCombo>,
}

/// End-to-end latencies of every served request in a run, simulated ms
/// — read off the shard tallies, the definition `aggregate` uses.
fn latencies_ms(run: &ServeRun) -> Vec<f64> {
    run.reports
        .iter()
        .flat_map(|r| r.tally.latencies_ms().iter().copied())
        .collect()
}

/// The live benchmark's load shape for one knob value. Parameters are
/// fixed multiples of the trace's mean gap so every shape stresses the
/// same cluster at the same average rate.
fn shape_for(label: &str, mean_gap_ms: f64) -> LoadShape {
    match label {
        "bursty" => LoadShape::Bursty {
            period_ms: 40.0 * mean_gap_ms,
            duty: 0.3,
            amplitude: 0.8,
        },
        "diurnal" => LoadShape::Diurnal {
            period_ms: 120.0 * mean_gap_ms,
            amplitude: 0.6,
        },
        _ => LoadShape::Steady,
    }
}

/// Runs the live benchmark: every timing-robust policy × placement
/// combo once through the threaded twin, each followed by its oracle
/// replay.
///
/// # Errors
///
/// Returns a message when the cluster fails to compile, a live run
/// dies (worker failure, closed-loop stall) or a replay rejects a
/// batched plan. Oracle *disagreement* is not an error — it is
/// recorded per combo and surfaced via [`LiveBenchReport::all_agree`],
/// so the report (the evidence) still gets written.
pub fn run_live(options: &LiveOptions) -> Result<LiveBenchReport, String> {
    let bench = BenchCluster::build().map_err(|e| e.to_string())?;
    let trace: Vec<Request> = bench
        .load(options.seed)
        .with_shape(shape_for(&options.shape, bench.mean_interarrival_ms))
        .trace(options.requests, bench.cluster.networks().len());
    let cluster = bench.cluster;

    // A modest modeled link so the transport envelope path is always
    // exercised: 50µs per hop, 1 MiB/ms.
    let transport = TransportModel::symmetric(0.05, 1024.0 * 1024.0);
    let mode = if options.mode == "closed" {
        // The window must keep the size-8 policy fed: batches form
        // per (shard, network) queue, so a window of 8 per queue always
        // lets one fill.
        LiveMode::ClosedLoop {
            window: 8 * cluster.shard_count() * cluster.networks().len(),
        }
    } else {
        LiveMode::OpenLoop
    };
    let live_config = LiveConfig::new(options.time_scale)
        .with_transport(transport)
        .with_mode(mode);
    // Unbounded cache + online admission: the configuration whose
    // discrete outcomes are provably timing-independent.
    let engine = EngineConfig::default().with_compile_cost(0.05);

    // The timing-robust combos: trace-deterministic placements ×
    // timing-independent batch partitions.
    type Cell = (fn() -> Arc<dyn BatchPolicy>, fn() -> Box<dyn Placement>);
    let cells: [Cell; 3] = [
        (|| Arc::new(Immediate), || Box::new(RoundRobin::default())),
        (
            || Arc::new(SizeK::new(8)),
            || Box::new(RoundRobin::default()),
        ),
        (
            || Arc::new(SizeK::new(8)),
            || Box::new(PlatformAffinity::default()),
        ),
    ];

    let mut combos = Vec::with_capacity(cells.len());
    for (make_policy, make_placement) in cells {
        let policy = make_policy();
        let server = LiveServer::new(
            cluster.clone(),
            policy.clone(),
            &trace,
            engine.clone(),
            live_config,
        );
        let mut live_placement = make_placement();
        let report = server.run(live_placement.as_mut()).map_err(|e| {
            format!(
                "live run ({}/{}) failed: {e}",
                policy.label(),
                live_placement.label()
            )
        })?;
        let mut replay_placement = make_placement();
        let replayed = replay(
            &cluster,
            &policy,
            &report.realized_trace,
            &engine,
            replay_placement.as_mut(),
        )
        .map_err(|e| format!("oracle replay failed: {e}"))?;
        let diffs = diff_outcomes(
            &discrete_outcomes(&report.run),
            &discrete_outcomes(&replayed),
        );
        let live_lat = latencies_ms(&report.run);
        let replay_lat = latencies_ms(&replayed);
        combos.push(LiveCombo {
            policy: policy.label(),
            placement: replay_placement.label(),
            served: live_lat.len(),
            rejected: report.run.rejected.len(),
            agreement: diffs.is_empty(),
            diffs,
            live_p50_ms: percentile_ms(&live_lat, 50.0),
            live_p99_ms: percentile_ms(&live_lat, 99.0),
            replay_p50_ms: percentile_ms(&replay_lat, 50.0),
            replay_p99_ms: percentile_ms(&replay_lat, 99.0),
            wall_elapsed_ms: report.wall_elapsed_ms,
        });
    }
    Ok(LiveBenchReport {
        options: options.clone(),
        transport,
        combos,
    })
}

impl LiveBenchReport {
    /// Whether every combo's live run agreed exactly with its oracle
    /// replay — the CI gate.
    #[must_use]
    pub fn all_agree(&self) -> bool {
        self.combos.iter().all(|c| c.agreement)
    }

    /// One human-readable line per combo.
    #[must_use]
    pub fn summary_lines(&self) -> Vec<String> {
        self.combos
            .iter()
            .map(|c| {
                format!(
                    "{:<10} x {:<18} served {:>5} rejected {:>3} | live p50/p99 {:>8.3}/{:>8.3} ms | replay p50/p99 {:>8.3}/{:>8.3} ms | wall {:>8.1} ms | oracle {}",
                    c.policy,
                    c.placement,
                    c.served,
                    c.rejected,
                    c.live_p50_ms,
                    c.live_p99_ms,
                    c.replay_p50_ms,
                    c.replay_p99_ms,
                    c.wall_elapsed_ms,
                    if c.agreement { "agree" } else { "DIVERGED" },
                )
            })
            .collect()
    }

    /// The report as a JSON document. Live latencies are wall-derived
    /// and machine-dependent by design; only `agreement` and the
    /// replay columns are stable across machines.
    #[must_use]
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"live-serve/v1\",");
        let _ = writeln!(out, "  \"requests\": {},", self.options.requests);
        let _ = writeln!(out, "  \"seed\": {},", self.options.seed);
        let _ = writeln!(out, "  \"time_scale\": {},", self.options.time_scale);
        let _ = writeln!(out, "  \"mode\": \"{}\",", escape_json(&self.options.mode));
        let _ = writeln!(
            out,
            "  \"shape\": \"{}\",",
            escape_json(&self.options.shape)
        );
        let _ = writeln!(
            out,
            "  \"transport_round_trip_ms\": {},",
            self.transport.round_trip_ms()
        );
        let _ = writeln!(out, "  \"combos\": [");
        for (i, combo) in self.combos.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"policy\": \"{}\",", escape_json(&combo.policy));
            let _ = writeln!(
                out,
                "      \"placement\": \"{}\",",
                escape_json(&combo.placement)
            );
            let _ = writeln!(out, "      \"served\": {},", combo.served);
            let _ = writeln!(out, "      \"rejected\": {},", combo.rejected);
            let _ = writeln!(out, "      \"oracle_agreement\": {},", combo.agreement);
            let diffs = combo
                .diffs
                .iter()
                .map(|d| format!("\"{}\"", escape_json(d)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "      \"discrete_diffs\": [{diffs}],");
            let _ = writeln!(out, "      \"live_p50_ms\": {},", combo.live_p50_ms);
            let _ = writeln!(out, "      \"live_p99_ms\": {},", combo.live_p99_ms);
            let _ = writeln!(out, "      \"replay_p50_ms\": {},", combo.replay_p50_ms);
            let _ = writeln!(out, "      \"replay_p99_ms\": {},", combo.replay_p99_ms);
            let _ = writeln!(out, "      \"wall_elapsed_ms\": {}", combo.wall_elapsed_ms);
            let comma = if i + 1 < self.combos.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options(mode: &str, shape: &str) -> LiveOptions {
        LiveOptions {
            requests: 36,
            seed: 0xBEE5,
            time_scale: 0.01,
            mode: mode.into(),
            shape: shape.into(),
        }
    }

    #[test]
    fn live_bench_agrees_with_its_oracle() {
        let report = run_live(&tiny_options("open", "steady")).unwrap();
        assert_eq!(report.combos.len(), 3);
        assert!(report.all_agree(), "{:#?}", report.combos);
        for combo in &report.combos {
            assert_eq!(combo.served + combo.rejected, 36);
        }
    }

    #[test]
    fn shaped_and_closed_runs_also_agree() {
        for (mode, shape) in [
            ("closed", "steady"),
            ("open", "bursty"),
            ("open", "diurnal"),
        ] {
            let report = run_live(&tiny_options(mode, shape)).unwrap();
            assert!(report.all_agree(), "{mode}/{shape}: {:#?}", report.combos);
        }
    }

    #[test]
    fn json_report_carries_the_gate_and_both_worlds() {
        let report = run_live(&tiny_options("open", "steady")).unwrap();
        let json = report.to_json();
        for key in [
            "\"schema\": \"live-serve/v1\"",
            "\"oracle_agreement\": true",
            "\"discrete_diffs\": []",
            "\"live_p50_ms\"",
            "\"replay_p99_ms\"",
            "\"wall_elapsed_ms\"",
            "\"transport_round_trip_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
