//! The single sanctioned home for `SMA_*` environment knobs.
//!
//! Every `std::env::var` read in this crate lives here — the
//! `env-read` lint (see `docs/DETERMINISM.md`) denies reads anywhere
//! else, so adding a knob means adding a named accessor to this module
//! and a row to the README knob table. Keeping the key strings, parse
//! rules, and defaults in one place is what makes "which env vars can
//! change a run's output?" answerable by reading one file.
//!
//! Unset and malformed are different conditions: an unset knob means
//! "use the documented default", while a malformed value (say
//! `SMA_SERVE_REQUESTS=10k`) aborts the process with the key and the
//! offending value. Silently substituting the default for a typo used
//! to run a 10 000-request benchmark the caller never asked for.

use std::str::FromStr;

/// Pure core of every accessor: resolves one raw environment read
/// into `Ok(None)` (unset — the caller substitutes its default),
/// `Ok(Some(v))` (well-formed), or `Err(message)` (malformed — the
/// caller aborts). Split from [`opt`] so the malformed arm is unit
/// testable without killing the test process.
fn read<T: FromStr>(
    key: &str,
    raw: Result<String, std::env::VarError>,
) -> Result<Option<T>, String> {
    match raw {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(format!("{key} is set but is not valid UTF-8"))
        }
        Ok(raw) => raw.parse::<T>().map(Some).map_err(|_| {
            format!(
                "{key}={raw} is malformed (expected a value parseable as {})",
                short_type_name::<T>()
            )
        }),
    }
}

/// Last path segment of `T`'s type name (`usize`, `f64`, `String`).
fn short_type_name<T>() -> &'static str {
    let full = std::any::type_name::<T>();
    full.rsplit("::").next().unwrap_or(full)
}

/// `key` parsed as `T`; `None` when unset, abort when malformed.
fn opt<T: FromStr>(key: &str) -> Option<T> {
    match read(key, std::env::var(key)) {
        Ok(value) => value,
        Err(message) => abort(&message),
    }
}

/// `key` parsed as `T`; `default` when unset, abort when malformed.
fn parse<T: FromStr>(key: &str, default: T) -> T {
    opt(key).unwrap_or(default)
}

/// `key` parsed as a finite `f64`, and above zero when `positive`;
/// `None` when unset, abort when malformed. NaN and ±∞ parse as `f64`,
/// but no knob can honour them.
fn finite(key: &str, positive: bool) -> Option<f64> {
    let value = opt::<f64>(key)?;
    let (ok, expected) = if positive {
        (value > 0.0 && value.is_finite(), "a positive finite number")
    } else {
        (value.is_finite(), "a finite number")
    };
    if !ok {
        abort(&format!("{key}={value} is malformed (must be {expected})"));
    }
    Some(value)
}

/// Hard exit for a malformed knob. Exit code 2 distinguishes operator
/// error from benchmark failures (which exit 1).
fn abort(message: &str) -> ! {
    eprintln!("sma-bench: {message}; unset it to use the default");
    std::process::exit(2);
}

/// Worker threads: `SMA_SWEEP_THREADS` if set to a positive count,
/// else the machine's available parallelism. Zero is rejected rather
/// than defaulted: a thread count of 0 is a request we cannot honor.
#[must_use]
pub fn sweep_threads() -> usize {
    match opt::<usize>("SMA_SWEEP_THREADS") {
        Some(0) => abort("SMA_SWEEP_THREADS=0 is malformed (thread count must be positive)"),
        Some(n) => n,
        None => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Replays per grid cell: `SMA_SWEEP_REPS` if set to a positive count,
/// else 200 (a serving burst large enough that the report times real
/// work, small enough for CI).
#[must_use]
pub fn sweep_reps() -> usize {
    match opt::<usize>("SMA_SWEEP_REPS") {
        Some(0) => abort("SMA_SWEEP_REPS=0 is malformed (rep count must be positive)"),
        Some(n) => n,
        None => 200,
    }
}

/// Sweep report path: `SMA_SWEEP_JSON`, default `BENCH_sweep.json`.
#[must_use]
pub fn sweep_json_path() -> String {
    parse("SMA_SWEEP_JSON", String::from("BENCH_sweep.json"))
}

/// Point cap for the `dse` bin: `SMA_DSE_POINTS` truncates the
/// enumerated grid to its first N points (enumeration order is the
/// documented axis nesting, so a prefix is itself deterministic).
/// Unset means the full grid; zero is rejected rather than defaulted —
/// a 0-point sweep is a request we cannot honor.
#[must_use]
pub fn dse_points() -> Option<usize> {
    match opt::<usize>("SMA_DSE_POINTS") {
        Some(0) => abort("SMA_DSE_POINTS=0 is malformed (point cap must be positive)"),
        other => other,
    }
}

/// DSE report path: `SMA_DSE_JSON`, default `BENCH_dse.json` (the
/// committed deterministic summary). The gitignored row stream and
/// timing side-files derive their names from this path
/// (`<stem>_rows.json`, `<stem>_timing.json`).
#[must_use]
pub fn dse_json_path() -> String {
    parse("SMA_DSE_JSON", String::from("BENCH_dse.json"))
}

/// Serve report path: `SMA_SERVE_JSON`, default `BENCH_serve.json`.
#[must_use]
pub fn serve_json_path() -> String {
    parse("SMA_SERVE_JSON", String::from("BENCH_serve.json"))
}

/// Trace length for `serve_sim`: `SMA_SERVE_REQUESTS`, default 10 000,
/// floored at 1.
#[must_use]
pub fn serve_requests() -> usize {
    parse("SMA_SERVE_REQUESTS", 10_000usize).max(1)
}

/// Trace seed for `serve_sim` and `live_serve`: `SMA_SERVE_SEED`,
/// default `0xDAC2_0020`.
#[must_use]
pub fn serve_seed() -> u64 {
    parse("SMA_SERVE_SEED", 0xDAC2_0020u64)
}

/// SLO override in milliseconds: `SMA_SERVE_SLO_MS`, default derived
/// from the scenario when unset. Must be positive and finite when set.
#[must_use]
pub fn serve_slo_ms() -> Option<f64> {
    finite("SMA_SERVE_SLO_MS", true)
}

/// Bounded plan-cache budget per shard in bytes: `SMA_SERVE_CACHE_KB`
/// (the knob is in KiB), default derived from the largest plan. A
/// budget whose byte count overflows `u64` is rejected as malformed.
#[must_use]
pub fn serve_cache_bytes() -> Option<u64> {
    opt::<u64>("SMA_SERVE_CACHE_KB").map(|kb| {
        kb.checked_mul(1024).unwrap_or_else(|| {
            abort(&format!(
                "SMA_SERVE_CACHE_KB={kb} is malformed (the byte count overflows u64)"
            ))
        })
    })
}

/// Fault-schedule seed for the fault block: `SMA_SERVE_FAULT_SEED`,
/// default derived from the trace seed when unset. The fault stream is
/// independent of the arrival stream, so changing this never perturbs
/// the online block.
#[must_use]
pub fn serve_fault_seed() -> Option<u64> {
    opt("SMA_SERVE_FAULT_SEED")
}

/// Expected faults per shard in the fault block's schedules:
/// `SMA_SERVE_FAULT_RATE`, default 2.0, floored at 0 (0 = empty
/// schedules — the fault rows then match a fault-free engine bit for
/// bit). NaN and infinite rates are rejected as malformed.
#[must_use]
pub fn serve_fault_rate() -> Option<f64> {
    finite("SMA_SERVE_FAULT_RATE", false).map(|rate| rate.max(0.0))
}

/// Hedge delay of the `retry+hedge` rows in milliseconds:
/// `SMA_SERVE_HEDGE_MS`, default derived (p99 of the cluster's batch-1
/// service-time cells). Must be positive and finite when set.
#[must_use]
pub fn serve_hedge_ms() -> Option<f64> {
    finite("SMA_SERVE_HEDGE_MS", true)
}

/// Autoscaler evaluation period of the control block in simulated
/// milliseconds: `SMA_SERVE_SCALE_PERIOD_MS`, default derived (8 mean
/// interarrival gaps). Must be positive and finite when set.
#[must_use]
pub fn serve_scale_period_ms() -> Option<f64> {
    finite("SMA_SERVE_SCALE_PERIOD_MS", true)
}

/// Energy headroom of the control block's autoscaled rows:
/// `SMA_SERVE_SCALE_HEADROOM`, default 0.25. Zero (or negative)
/// disables the autoscaler — those rows then match the static fleet
/// bit for bit. NaN and infinite headrooms are rejected as malformed.
#[must_use]
pub fn serve_scale_headroom() -> Option<f64> {
    finite("SMA_SERVE_SCALE_HEADROOM", false)
}

/// SLO-class gap of the control block's preemption rows:
/// `SMA_SERVE_PREEMPT`, default 1 (an arriving request preempts a
/// running batch whose most urgent member is at least this many
/// classes less urgent). Zero is clamped to 1 by the policy — equal
/// classes never preempt each other.
#[must_use]
pub fn serve_preempt_gap() -> Option<u8> {
    opt("SMA_SERVE_PREEMPT")
}

/// Trace length for `live_serve`: `SMA_LIVE_REQUESTS`, default 400,
/// floored at 1. Deliberately smaller than the `serve_sim` default —
/// live runs occupy wall-clock time.
#[must_use]
pub fn live_requests() -> usize {
    parse("SMA_LIVE_REQUESTS", 400usize).max(1)
}

/// Wall-milliseconds per simulated millisecond for `live_serve`:
/// `SMA_LIVE_TIME_SCALE`, default 0.02 (a 50× fast-forward). Must be
/// positive and finite; other values are rejected as malformed.
#[must_use]
pub fn live_time_scale() -> f64 {
    finite("SMA_LIVE_TIME_SCALE", true).unwrap_or(0.02)
}

/// Live drive mode: `SMA_LIVE_MODE`, `open` (default — pace the seeded
/// trace's arrival instants) or `closed` (issue-on-completion under a
/// concurrency window).
#[must_use]
pub fn live_mode() -> String {
    let mode = parse("SMA_LIVE_MODE", String::from("open"));
    match mode.as_str() {
        "open" | "closed" => mode,
        other => abort(&format!(
            "SMA_LIVE_MODE={other} is malformed (expected `open` or `closed`)"
        )),
    }
}

/// Live load shape: `SMA_LIVE_SHAPE`, one of `steady` (default),
/// `bursty`, `diurnal`.
#[must_use]
pub fn live_shape() -> String {
    let shape = parse("SMA_LIVE_SHAPE", String::from("steady"));
    match shape.as_str() {
        "steady" | "bursty" | "diurnal" => shape,
        other => abort(&format!(
            "SMA_LIVE_SHAPE={other} is malformed (expected `steady`, `bursty` or `diurnal`)"
        )),
    }
}

/// Live report path: `SMA_LIVE_JSON`, default `BENCH_live.json`.
/// Unlike the sweep/serve reports this one is *not* a committed
/// artifact — it contains wall-clock-derived latencies.
#[must_use]
pub fn live_json_path() -> String {
    parse("SMA_LIVE_JSON", String::from("BENCH_live.json"))
}

#[cfg(test)]
mod tests {
    use std::str::FromStr;
    use std::sync::Mutex;

    /// All knob tests mutate the process environment, so they take one
    /// lock; accessors are only otherwise called from binaries, never
    /// from this test process.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_env<R>(key: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match value {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
        let out = f();
        std::env::remove_var(key);
        out
    }

    /// The malformed arm, pinned through the pure core (the public
    /// accessors abort the process on this arm, by design).
    fn assert_malformed<T: FromStr + std::fmt::Debug>(key: &str, bad: &str) {
        let err = super::read::<T>(key, Ok(bad.to_string())).unwrap_err();
        assert!(err.contains(key), "message {err:?} must name the key");
        assert!(
            err.contains(bad),
            "message {err:?} must quote the offending value"
        );
    }

    #[test]
    fn sweep_threads_knob() {
        with_env("SMA_SWEEP_THREADS", None, || {
            assert!(super::sweep_threads() >= 1)
        });
        with_env("SMA_SWEEP_THREADS", Some("3"), || {
            assert_eq!(super::sweep_threads(), 3)
        });
        assert_malformed::<usize>("SMA_SWEEP_THREADS", "many");
    }

    #[test]
    fn sweep_reps_knob() {
        with_env("SMA_SWEEP_REPS", None, || {
            assert_eq!(super::sweep_reps(), 200)
        });
        with_env("SMA_SWEEP_REPS", Some("7"), || {
            assert_eq!(super::sweep_reps(), 7)
        });
        assert_malformed::<usize>("SMA_SWEEP_REPS", "2e2");
    }

    #[test]
    fn sweep_json_path_knob() {
        with_env("SMA_SWEEP_JSON", None, || {
            assert_eq!(super::sweep_json_path(), "BENCH_sweep.json");
        });
        with_env("SMA_SWEEP_JSON", Some("x.json"), || {
            assert_eq!(super::sweep_json_path(), "x.json");
        });
    }

    #[test]
    fn dse_points_knob() {
        with_env("SMA_DSE_POINTS", None, || {
            assert_eq!(super::dse_points(), None)
        });
        with_env("SMA_DSE_POINTS", Some("128"), || {
            assert_eq!(super::dse_points(), Some(128))
        });
        // Zero aborts in the accessor (a 0-point sweep is not a default);
        // the parse layer itself accepts it, so pin the malformed text arm.
        assert_malformed::<usize>("SMA_DSE_POINTS", "all");
    }

    #[test]
    fn dse_json_path_knob() {
        with_env("SMA_DSE_JSON", None, || {
            assert_eq!(super::dse_json_path(), "BENCH_dse.json");
        });
        with_env("SMA_DSE_JSON", Some("d.json"), || {
            assert_eq!(super::dse_json_path(), "d.json");
        });
    }

    #[test]
    fn serve_json_path_knob() {
        with_env("SMA_SERVE_JSON", None, || {
            assert_eq!(super::serve_json_path(), "BENCH_serve.json");
        });
        with_env("SMA_SERVE_JSON", Some("s.json"), || {
            assert_eq!(super::serve_json_path(), "s.json");
        });
    }

    #[test]
    fn serve_requests_knob() {
        with_env("SMA_SERVE_REQUESTS", None, || {
            assert_eq!(super::serve_requests(), 10_000)
        });
        with_env("SMA_SERVE_REQUESTS", Some("250"), || {
            assert_eq!(super::serve_requests(), 250)
        });
        // Zero parses, and is floored to the documented minimum of 1.
        with_env("SMA_SERVE_REQUESTS", Some("0"), || {
            assert_eq!(super::serve_requests(), 1)
        });
        // The motivating bug: `10k` used to silently run 10 000.
        assert_malformed::<usize>("SMA_SERVE_REQUESTS", "10k");
    }

    #[test]
    fn serve_seed_knob() {
        with_env("SMA_SERVE_SEED", None, || {
            assert_eq!(super::serve_seed(), 0xDAC2_0020)
        });
        with_env("SMA_SERVE_SEED", Some("99"), || {
            assert_eq!(super::serve_seed(), 99)
        });
        assert_malformed::<u64>("SMA_SERVE_SEED", "0xBEEF");
    }

    #[test]
    fn serve_slo_ms_knob() {
        with_env("SMA_SERVE_SLO_MS", None, || {
            assert_eq!(super::serve_slo_ms(), None)
        });
        with_env("SMA_SERVE_SLO_MS", Some("12.5"), || {
            assert_eq!(super::serve_slo_ms(), Some(12.5));
        });
        assert_malformed::<f64>("SMA_SERVE_SLO_MS", "12ms");
    }

    #[test]
    fn serve_cache_bytes_knob() {
        with_env("SMA_SERVE_CACHE_KB", None, || {
            assert_eq!(super::serve_cache_bytes(), None)
        });
        with_env("SMA_SERVE_CACHE_KB", Some("4"), || {
            assert_eq!(super::serve_cache_bytes(), Some(4096));
        });
        assert_malformed::<u64>("SMA_SERVE_CACHE_KB", "4KiB");
    }

    #[test]
    fn serve_fault_seed_knob() {
        with_env("SMA_SERVE_FAULT_SEED", None, || {
            assert_eq!(super::serve_fault_seed(), None)
        });
        with_env("SMA_SERVE_FAULT_SEED", Some("5"), || {
            assert_eq!(super::serve_fault_seed(), Some(5));
        });
        assert_malformed::<u64>("SMA_SERVE_FAULT_SEED", "-1");
    }

    #[test]
    fn serve_fault_rate_knob() {
        with_env("SMA_SERVE_FAULT_RATE", None, || {
            assert_eq!(super::serve_fault_rate(), None)
        });
        with_env("SMA_SERVE_FAULT_RATE", Some("1.5"), || {
            assert_eq!(super::serve_fault_rate(), Some(1.5));
        });
        // Negative rates parse, and are floored to 0 (empty schedules).
        with_env("SMA_SERVE_FAULT_RATE", Some("-3"), || {
            assert_eq!(super::serve_fault_rate(), Some(0.0));
        });
        assert_malformed::<f64>("SMA_SERVE_FAULT_RATE", "two");
    }

    #[test]
    fn serve_hedge_ms_knob() {
        with_env("SMA_SERVE_HEDGE_MS", None, || {
            assert_eq!(super::serve_hedge_ms(), None)
        });
        with_env("SMA_SERVE_HEDGE_MS", Some("3.5"), || {
            assert_eq!(super::serve_hedge_ms(), Some(3.5));
        });
        assert_malformed::<f64>("SMA_SERVE_HEDGE_MS", "p99");
    }

    #[test]
    fn serve_scale_period_knob() {
        with_env("SMA_SERVE_SCALE_PERIOD_MS", None, || {
            assert_eq!(super::serve_scale_period_ms(), None)
        });
        with_env("SMA_SERVE_SCALE_PERIOD_MS", Some("25.0"), || {
            assert_eq!(super::serve_scale_period_ms(), Some(25.0));
        });
        assert_malformed::<f64>("SMA_SERVE_SCALE_PERIOD_MS", "fast");
    }

    #[test]
    fn serve_scale_headroom_knob() {
        with_env("SMA_SERVE_SCALE_HEADROOM", None, || {
            assert_eq!(super::serve_scale_headroom(), None)
        });
        with_env("SMA_SERVE_SCALE_HEADROOM", Some("0.5"), || {
            assert_eq!(super::serve_scale_headroom(), Some(0.5));
        });
        // Zero and below are well-formed: they disable the autoscaler
        // (the rows then match the static fleet bit for bit).
        with_env("SMA_SERVE_SCALE_HEADROOM", Some("0"), || {
            assert_eq!(super::serve_scale_headroom(), Some(0.0));
        });
        with_env("SMA_SERVE_SCALE_HEADROOM", Some("-1"), || {
            assert_eq!(super::serve_scale_headroom(), Some(-1.0));
        });
        assert_malformed::<f64>("SMA_SERVE_SCALE_HEADROOM", "25%");
    }

    #[test]
    fn serve_preempt_gap_knob() {
        with_env("SMA_SERVE_PREEMPT", None, || {
            assert_eq!(super::serve_preempt_gap(), None)
        });
        with_env("SMA_SERVE_PREEMPT", Some("2"), || {
            assert_eq!(super::serve_preempt_gap(), Some(2));
        });
        assert_malformed::<u8>("SMA_SERVE_PREEMPT", "on");
    }

    #[test]
    fn live_requests_knob() {
        with_env("SMA_LIVE_REQUESTS", None, || {
            assert_eq!(super::live_requests(), 400)
        });
        with_env("SMA_LIVE_REQUESTS", Some("16"), || {
            assert_eq!(super::live_requests(), 16)
        });
        with_env("SMA_LIVE_REQUESTS", Some("0"), || {
            assert_eq!(super::live_requests(), 1)
        });
        assert_malformed::<usize>("SMA_LIVE_REQUESTS", "1_000");
    }

    #[test]
    fn live_time_scale_knob() {
        with_env("SMA_LIVE_TIME_SCALE", None, || {
            assert!((super::live_time_scale() - 0.02).abs() < 1e-12);
        });
        with_env("SMA_LIVE_TIME_SCALE", Some("0.5"), || {
            assert!((super::live_time_scale() - 0.5).abs() < 1e-12);
        });
        assert_malformed::<f64>("SMA_LIVE_TIME_SCALE", "fast");
    }

    #[test]
    fn live_mode_knob() {
        with_env("SMA_LIVE_MODE", None, || {
            assert_eq!(super::live_mode(), "open")
        });
        with_env("SMA_LIVE_MODE", Some("closed"), || {
            assert_eq!(super::live_mode(), "closed")
        });
    }

    #[test]
    fn live_shape_knob() {
        with_env("SMA_LIVE_SHAPE", None, || {
            assert_eq!(super::live_shape(), "steady")
        });
        with_env("SMA_LIVE_SHAPE", Some("bursty"), || {
            assert_eq!(super::live_shape(), "bursty")
        });
        with_env("SMA_LIVE_SHAPE", Some("diurnal"), || {
            assert_eq!(super::live_shape(), "diurnal");
        });
    }

    #[test]
    fn live_json_path_knob() {
        with_env("SMA_LIVE_JSON", None, || {
            assert_eq!(super::live_json_path(), "BENCH_live.json")
        });
        with_env("SMA_LIVE_JSON", Some("l.json"), || {
            assert_eq!(super::live_json_path(), "l.json");
        });
    }

    #[test]
    fn read_distinguishes_unset_from_malformed() {
        // Unset → Ok(None): the caller substitutes its default.
        let unset = super::read::<usize>("SMA_X", Err(std::env::VarError::NotPresent));
        assert_eq!(unset, Ok(None));
        // Set and well-formed → Ok(Some).
        let ok = super::read::<usize>("SMA_X", Ok(String::from("42")));
        assert_eq!(ok, Ok(Some(42)));
        // Set and malformed → Err naming key and value, never a default.
        let err = super::read::<usize>("SMA_X", Ok(String::from("10k"))).unwrap_err();
        assert!(err.contains("SMA_X") && err.contains("10k"), "{err}");
    }
}
