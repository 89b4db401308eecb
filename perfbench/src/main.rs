//! Host-time benchmark of the SMA workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-online --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload (`dse-grid`, `serve-online`, `serve-chaos`) as a
//! closed loop, checks every iteration's output, prints the metrics by
//! name with their units, and ends with one JSON result line. With
//! `--trace 0` the line carries the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a traced run. `--print-reference` prints the
//! serving reference digests (see `reference.rs`). `perfbench/README.md`
//! has the metric catalogue.

mod dse;
mod host;
mod reference;
mod serve;
mod stats;

use sma_runtime::Backend;
use sma_tensor::GemmShape;
use stats::{beyond, median, min_samples, peak_rss_mb, percentile, result_line, Metric};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Complete set-up passes per run: at least this many, and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` is the median of their
/// times, each normalised to the reference host.
const SETUP_PASSES: usize = 5;
/// Set-up time after which no further pass starts.
const SETUP_SECONDS: f64 = 1.5;
/// The reported tail percentile.
const TAIL_P: usize = 90;

/// Every per-layer metric, with its unit. A layer that does not run on
/// a workload reports 0 for its metrics there.
const PER_LAYER: [(&str, &str); 39] = [
    ("estimate.cold_ns_per_shape", "ns"),
    ("estimate.cold_shapes", "count"),
    ("estimate.shape_stats_ns_per_shape", "ns"),
    ("estimate.time_share", "ratio"),
    ("gemm_cache.hit_ns", "ns"),
    ("gemm_cache.lookups", "count"),
    ("gemm_cache.hit_rate", "ratio"),
    ("gemm_cache.time_share", "ratio"),
    ("plan.family_ns_per_layer", "ns"),
    ("plan.derive_ns_per_layer", "ns"),
    ("plan.compile_ns_per_layer", "ns"),
    ("plan.replay_ns_per_layer", "ns"),
    ("plan.arena_steps", "count"),
    ("plan.compiles", "count"),
    ("plan.time_share", "ratio"),
    ("dse.compile_ms", "ms"),
    ("dse.row_ns", "ns"),
    ("dse.time_share", "ratio"),
    ("harness.row_render_ns", "ns"),
    ("harness.stream_push_ns", "ns"),
    ("harness.peak_pending_rows", "count"),
    ("harness.report_json_ns", "ns"),
    ("harness.time_share", "ratio"),
    ("serve.admit_ns_per_request", "ns"),
    ("serve.engine_ns_per_request", "ns"),
    ("serve.aggregate_ns_per_request", "ns"),
    ("serve.batches", "count"),
    ("serve.served_share", "ratio"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.plan_cache_evictions", "count"),
    ("serve.retries", "count"),
    ("serve.hedges", "count"),
    ("serve.preemptions", "count"),
    ("serve.scale_evaluations", "count"),
    ("serve.reconfig_evaluations", "count"),
    ("serve.time_share", "ratio"),
    ("trace.untraced_throughput_per_s", "items/s"),
    ("trace.traced_throughput_per_s", "items/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// One checked iteration of a workload.
#[derive(Debug)]
pub struct Iteration {
    /// Host time of the iteration's work, ms (the check is excluded).
    pub ms: f64,
    /// Work items the iteration completed.
    pub items: u64,
    /// The output check.
    pub check: Result<(), String>,
}

/// A benchmark workload after one set-up pass.
pub trait Workload {
    /// Span and counter totals of traced iterations.
    type Trace: Default;
    /// Iterations in one cycle over the workload's rows.
    fn cycle_len(&self) -> usize;
    /// Runs iteration `k` of the cycle, recording spans when traced.
    fn iterate(&mut self, k: usize, trace: Option<&mut Self::Trace>) -> Iteration;
    /// Checks against stored references, one result per reference.
    fn reference_check(&mut self) -> Vec<Result<(), String>>;
    /// The per-layer metrics of the traced iterations.
    fn layer_metrics(&mut self, trace: &Self::Trace) -> Vec<Metric>;
}

/// Times `Backend::gemm` over the distinct `shapes` twice on a backend
/// that has not seen them: the first pass computes every estimate, the
/// second hits the cache. Returns `(cold ns, warm ns, distinct shapes)`.
pub fn time_estimates(
    backend: &dyn Backend,
    shapes: impl IntoIterator<Item = GemmShape>,
) -> (f64, f64, usize) {
    let mut distinct: Vec<GemmShape> = Vec::new();
    for shape in shapes {
        if !distinct.contains(&shape) {
            distinct.push(shape);
        }
    }
    let pass = || {
        let t = Instant::now();
        for &shape in &distinct {
            let _ = black_box(backend.gemm(shape));
        }
        t.elapsed().as_nanos() as f64
    };
    let cold = pass();
    let warm = pass();
    (cold, warm, distinct.len())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DseGrid,
    ServeOnline,
    ServeChaos,
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <dse-grid|serve-online|serve-chaos> --seed <n> --seconds <n> --trace <0|1>\n       perfbench --print-reference";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(match value.as_str() {
                    "dse-grid" => Kind::DseGrid,
                    "serve-online" => Kind::ServeOnline,
                    "serve-chaos" => Kind::ServeChaos,
                    other => return Err(format!("unknown workload {other}")),
                });
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed checks, with the first few failure messages.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn record(&mut self, check: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {e}");
            }
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("--print-reference") {
        return match reference::print() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.kind {
        Kind::DseGrid => bench(&args, started, |_| Ok(dse::DseWorkload)),
        Kind::ServeOnline => bench(&args, started, |seed| {
            serve::ServeWorkload::new(serve::Mix::Online, serve::REQUESTS, seed)
        }),
        Kind::ServeChaos => bench(&args, started, |seed| {
            serve::ServeWorkload::new(serve::Mix::Chaos, serve::REQUESTS, seed)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its report. `Ok(false)` when a check
/// failed (the result line is still printed).
fn bench<W: Workload>(
    args: &Args,
    started: Instant,
    setup: impl Fn(u64) -> Result<W, String>,
) -> Result<bool, String> {
    let name = match args.kind {
        Kind::DseGrid => "dse-grid",
        Kind::ServeOnline => "serve-online",
        Kind::ServeChaos => "serve-chaos",
    };
    println!(
        "perfbench {name}: seed {} | {} s | trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut ledger = Ledger::default();
    // Set-up: build the workload and run one untimed warm-up cycle,
    // several times over; the first pass counts from process start.
    let mut setup_s = Vec::with_capacity(SETUP_PASSES);
    let mut workload: Option<W> = None;
    while setup_s.len() < SETUP_PASSES || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(workload.take());
        let t = if setup_s.is_empty() {
            started
        } else {
            Instant::now()
        };
        let mut w = setup(args.seed)?;
        for k in 0..w.cycle_len() {
            ledger.record(&w.iterate(k, None).check);
        }
        let pass_s = t.elapsed().as_secs_f64();
        setup_s.push(host::normalise_now(pass_s));
        workload = Some(w);
    }
    let mut w = workload.ok_or("no set-up pass ran")?;
    println!("  {} set-up passes", setup_s.len());
    let setup_s = median(&setup_s);
    let budget = Duration::from_secs(args.seconds);

    let metrics = if args.trace {
        traced_phase(&mut w, &mut ledger, budget)
    } else {
        timed_phase(&mut w, &mut ledger, budget, setup_s)?
    };
    for check in w.reference_check() {
        ledger.record(&check);
    }
    let error_rate = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    for m in &metrics {
        println!(
            "  {:<36} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    println!(
        "  {:<36} {:>18} ratio ({} of {} checked iterations failed)",
        "error_rate",
        format!("{error_rate:.6}"),
        ledger.failed,
        ledger.attempted
    );
    println!("{}", result_line(ledger.attempted, ledger.failed, &metrics));
    Ok(ledger.failed == 0)
}

/// The untraced closed loop: whole cycles until the budget is spent and
/// the tail percentile has enough samples. The host kernel runs after
/// each iteration, outside its time, and every time reported is
/// normalised to the reference host (see `host.rs`).
fn timed_phase<W: Workload>(
    w: &mut W,
    ledger: &mut Ledger,
    budget: Duration,
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    let (mut raw, mut kernel_ms) = (Vec::new(), Vec::new());
    let mut items = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget || raw.len() < min_samples(TAIL_P) {
        for k in 0..w.cycle_len() {
            let it = w.iterate(k, None);
            ledger.record(&it.check);
            raw.push(it.ms);
            items += it.items;
            kernel_ms.push(host::kernel());
        }
    }
    let mut samples = host::normalise(&raw, &kernel_ms);
    let host_ms = median(&kernel_ms);
    let busy_ms: f64 = samples.iter().sum();
    samples.sort_by(f64::total_cmp);
    raw.sort_by(f64::total_cmp);
    println!(
        "  {} timed iterations, {} beyond p{TAIL_P}; host kernel median {host_ms:.4} ms (reference {} ms)",
        samples.len(),
        beyond(samples.len(), TAIL_P),
        host::REFERENCE_MS
    );
    println!(
        "  raw host time: {:.2} items/s, p50 {:.4} ms, p{TAIL_P} {:.4} ms",
        items as f64 / (raw.iter().sum::<f64>() / 1e3),
        percentile(&raw, 50),
        percentile(&raw, TAIL_P)
    );
    Ok(vec![
        Metric::new(
            "throughput_per_s",
            items as f64 / (busy_ms / 1e3),
            "items/s",
        ),
        Metric::new("iter_ms_p50", percentile(&samples, 50), "ms"),
        Metric::new("iter_ms_p90", percentile(&samples, TAIL_P), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ])
}

/// The traced run: untraced and traced cycles alternate, so the two
/// throughputs see the same machine state; then the layer probes.
fn traced_phase<W: Workload>(w: &mut W, ledger: &mut Ledger, budget: Duration) -> Vec<Metric> {
    let mut trace = W::Trace::default();
    let (mut plain, mut traced) = ([0.0f64; 2], [0.0f64; 2]);
    let start = Instant::now();
    while start.elapsed() < budget {
        for (totals, tracing) in [(&mut plain, false), (&mut traced, true)] {
            for k in 0..w.cycle_len() {
                let it = w.iterate(k, tracing.then_some(&mut trace));
                ledger.record(&it.check);
                totals[0] += it.ms;
                totals[1] += it.items as f64;
            }
        }
    }
    let rate = |[ms, items]: [f64; 2]| items / (ms / 1e3).max(f64::MIN_POSITIVE);
    let mut metrics = w.layer_metrics(&trace);
    metrics.push(Metric::new(
        "trace.untraced_throughput_per_s",
        rate(plain),
        "items/s",
    ));
    metrics.push(Metric::new(
        "trace.traced_throughput_per_s",
        rate(traced),
        "items/s",
    ));
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        rate(plain) / rate(traced) - 1.0,
        "ratio",
    ));
    // Every layer metric, in catalogue order; absent layers read 0.
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let found = metrics.iter().find(|m| m.name == name);
            debug_assert!(found.is_none_or(|m| m.unit == unit), "{name} unit");
            Metric::new(name, found.map_or(0.0, |m| m.value), unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve-chaos --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::ServeChaos, 7, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload dse-grid --seconds 1").is_err());
        assert!(args("--workload dse-grid --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn every_layer_metric_a_workload_reports_is_catalogued() {
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        let mut dse = dse::DseWorkload;
        let mut serve = serve::ServeWorkload::new(serve::Mix::Online, 200, 3).expect("compiles");
        let mut dse_trace = dse::DseTrace::default();
        assert!(dse.iterate(0, Some(&mut dse_trace)).check.is_ok());
        let mut serve_trace = serve::ServeTrace::default();
        assert!(serve.iterate(0, Some(&mut serve_trace)).check.is_ok());
        let reported = dse
            .layer_metrics(&dse_trace)
            .into_iter()
            .chain(serve.layer_metrics(&serve_trace));
        for m in reported {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, u)| *u);
            assert_eq!(
                unit,
                Some(m.unit),
                "{} is not catalogued as {}",
                m.name,
                m.unit
            );
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
