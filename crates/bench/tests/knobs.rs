//! Knob values that parse but cannot be honoured abort the binary that
//! reads them with exit code 2, naming the key and the value — the
//! same contract as a value that does not parse at all.

use std::process::Command;

/// Runs `serve_sim` on a tiny trace with one knob overridden and
/// returns its exit code and stderr.
fn serve_sim_with(key: &str, value: &str) -> (Option<i32>, String) {
    let report = format!("{}/knobs-{key}.json", env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .env("SMA_SERVE_REQUESTS", "20")
        .env("SMA_SWEEP_THREADS", "1")
        .env("SMA_SERVE_JSON", report)
        .env(key, value)
        .output()
        .expect("serve_sim starts");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_aborts(key: &str, value: &str) {
    let (code, stderr) = serve_sim_with(key, value);
    assert_eq!(code, Some(2), "{key}={value} must abort; stderr: {stderr}");
    assert!(stderr.contains(key), "stderr must name {key}: {stderr}");
    assert!(
        stderr.to_lowercase().contains(&value.to_lowercase()),
        "stderr must quote {value}: {stderr}"
    );
}

/// 2^54 KiB is 2^64 bytes: the byte count does not fit a `u64`.
#[test]
fn cache_budget_overflowing_u64_bytes_aborts() {
    assert_aborts("SMA_SERVE_CACHE_KB", "18014398509481984");
}

#[test]
fn non_finite_fault_rate_aborts() {
    assert_aborts("SMA_SERVE_FAULT_RATE", "nan");
    assert_aborts("SMA_SERVE_FAULT_RATE", "inf");
}

/// A NaN SLO used to exit 0 and write `"slo_ms": NaN`, which is not JSON.
#[test]
fn non_positive_or_non_finite_slo_aborts() {
    assert_aborts("SMA_SERVE_SLO_MS", "nan");
    assert_aborts("SMA_SERVE_SLO_MS", "inf");
    assert_aborts("SMA_SERVE_SLO_MS", "0");
}

#[test]
fn non_positive_or_non_finite_hedge_delay_aborts() {
    assert_aborts("SMA_SERVE_HEDGE_MS", "nan");
    assert_aborts("SMA_SERVE_HEDGE_MS", "inf");
    assert_aborts("SMA_SERVE_HEDGE_MS", "-1");
}

/// A non-finite headroom used to panic inside the autoscaler's
/// validation (exit 101).
#[test]
fn non_finite_scale_headroom_aborts() {
    assert_aborts("SMA_SERVE_SCALE_HEADROOM", "nan");
    assert_aborts("SMA_SERVE_SCALE_HEADROOM", "inf");
    assert_aborts("SMA_SERVE_SCALE_HEADROOM", "-inf");
}
