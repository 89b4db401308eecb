//! Event-driven multi-shard serving benchmark.
//!
//! Generates one seeded open-loop trace (SLO deadlines stamped) over
//! the default cluster (six shards on five platforms, three Table-II
//! networks), then serves it through the discrete-event engine under
//! every matrix cell, starting with the online block (live-view
//! placement, EDF, unbounded and bounded plan caches with LRU eviction
//! and compile-on-miss latency). Combos fan across the sweep driver's
//! worker threads; per-combo latency percentiles (p50/p99/p99.9),
//! goodput, deadline-miss, queue-depth and plan-cache stats land in
//! `BENCH_serve.json`.
//!
//! Every reported number is simulated-clock and each combo's engine
//! run is single-threaded, so the JSON is byte-identical for a given
//! seed regardless of thread count or machine speed (the determinism
//! suite and the CI double-run diff pin this).
//!
//! A fault block rides behind the online block: the same
//! engine under seeded crash/degrade/stall/compile-fail schedules with
//! retry, hedging, failover and class-striped shedding — equally
//! deterministic (the chaos CI step double-runs with a nonzero fault
//! rate and diffs). A control block follows: SLO-class preemption,
//! cost-aware autoscaling against the energy frontier, and
//! traffic-mix backend reconfiguration, in every combination over the
//! same EDF × health-weighted cell.
//!
//! Beside the report it writes a gitignored timing side-file
//! (`BENCH_serve_timing.json`, named by `sweep::timing_path`): the trace
//! length, the combo threads, the wall time of building the scenario
//! and running the matrix, and the process's peak resident set
//! (`peak_rss_mb`, from `VmHWM`; `null` without procfs).
//!
//! Environment:
//! * `SMA_SERVE_REQUESTS` — trace length (default 10000).
//! * `SMA_SERVE_SEED` — trace seed (default 0xDAC2_0020).
//! * `SMA_SERVE_SLO_MS` — per-request latency SLO (default: 2.5 mean
//!   batch-1 service times).
//! * `SMA_SERVE_CACHE_KB` — bounded-row plan-cache budget per shard in
//!   KiB (default: 1.25x the largest compiled plan).
//! * `SMA_SERVE_FAULT_SEED` — fault-schedule seed (default: derived
//!   from the trace seed).
//! * `SMA_SERVE_FAULT_RATE` — expected faults per shard in the fault
//!   block (default 2.0; 0 empties the schedules).
//! * `SMA_SERVE_HEDGE_MS` — hedge delay of the `retry+hedge` rows
//!   (default: p99 of the batch-1 service cells).
//! * `SMA_SERVE_SCALE_PERIOD_MS` — autoscaler evaluation period of the
//!   control block (default: 8 mean interarrival gaps).
//! * `SMA_SERVE_SCALE_HEADROOM` — energy headroom of the autoscaled
//!   control rows (default 0.25; 0 disables the autoscaler — those
//!   rows then match the static fleet bit for bit).
//! * `SMA_SERVE_PREEMPT` — SLO-class gap of the preemption control
//!   rows (default 1; 0 clamps to 1).
//! * `SMA_SERVE_JSON` — report path (default: `BENCH_serve.json`); the
//!   timing side-file takes its name from it.
//! * `SMA_SWEEP_THREADS` — worker threads across combos (default:
//!   available parallelism).

mod common;

use sma_bench::serve::{run_matrix, scenario, ScenarioOptions};
use sma_bench::sweep;

fn fail(file: &str, e: &std::io::Error) -> ! {
    // The report is the point of this binary (CI uploads it as an
    // artifact); a missing file must fail the build.
    eprintln!("could not write {file}: {e}");
    std::process::exit(1);
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let value = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set so far in MiB, as a JSON number,
/// or `null` where `/proc/self/status` is unreadable or has no `VmHWM`
/// line.
fn peak_rss_mb_json() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kib(&status))
        .map_or_else(
            || "null".into(),
            |kib| format!("{:.3}", kib as f64 / 1024.0),
        )
}

fn main() {
    let requests = sma_bench::knobs::serve_requests();
    let seed = sma_bench::knobs::serve_seed();
    let options = ScenarioOptions {
        slo_ms: sma_bench::knobs::serve_slo_ms(),
        cache_budget_bytes: sma_bench::knobs::serve_cache_bytes(),
        fault_seed: sma_bench::knobs::serve_fault_seed(),
        fault_rate: sma_bench::knobs::serve_fault_rate(),
        hedge_ms: sma_bench::knobs::serve_hedge_ms(),
        scale_period_ms: sma_bench::knobs::serve_scale_period_ms(),
        scale_headroom: sma_bench::knobs::serve_scale_headroom(),
        preempt_gap: sma_bench::knobs::serve_preempt_gap(),
    };
    let threads = sweep::default_threads();

    let (scenario, build_ms) = common::timed(|| scenario(requests, seed, options));
    let scenario = match scenario {
        Ok(s) => s,
        Err(e) => {
            eprintln!("could not build the serving scenario: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serving {requests} requests (seed {seed:#x}) over {} shards x {} networks, mean gap {:.3} ms, slo {:.2} ms, bounded cache {} B, {threads} threads across combos",
        scenario.cluster.shard_count(),
        scenario.cluster.networks().len(),
        scenario.mean_interarrival_ms,
        scenario.slo_ms,
        scenario.bounded_cache_bytes,
    );

    // A backend rejecting a batched plan mid-run is a report-killing
    // error, not a panic: exit nonzero with the cause on stderr.
    let (report, run_ms) = common::timed(|| run_matrix(&scenario, threads));
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serving matrix failed: {e}");
            std::process::exit(1);
        }
    };
    let wall_ms = build_ms + run_ms;
    for line in report.summary_lines() {
        println!("{line}");
    }

    let path = sma_bench::knobs::serve_json_path();
    if let Err(e) = report.write_json(&path) {
        fail(&path, &e);
    }
    let peak_rss_mb = peak_rss_mb_json();
    let timing_file = sweep::timing_path(&path);
    let timing = format!(
        "{{\n  \"requests\": {requests},\n  \"threads\": {threads},\n  \"wall_ms\": {wall_ms:.3},\n  \"peak_rss_mb\": {peak_rss_mb}\n}}\n",
    );
    if let Err(e) = std::fs::write(&timing_file, timing) {
        fail(&timing_file, &e);
    }
    for file in [&path, &timing_file] {
        println!("wrote {file}");
    }
    println!(
        "serve_sim: {requests} requests | {wall_ms:.1} ms on {threads} threads | peak rss {peak_rss_mb} MB"
    );
}

#[cfg(test)]
mod tests {
    use super::parse_vm_hwm_kib;

    #[test]
    fn vm_hwm_parses_kib_and_refuses_other_units() {
        let status = "Name:\tserve_sim\nVmPeak:\t  20000 kB\nVmHWM:\t   26624 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(26_624));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
    }
}
