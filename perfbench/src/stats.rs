//! Small measurement helpers: nearest-rank percentiles with their
//! sample-count rule, the `VmHWM` reader, and the JSON result line.

use std::fmt::Write as _;

/// Samples a reported percentile must leave beyond itself.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in percent, `1..=100`) of an ascending
/// slice: the smallest sample with at least `p`% of the samples at or
/// below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `1..=100`.
#[must_use]
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let rank = (p * sorted.len()).div_ceil(100);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
#[must_use]
pub fn beyond(n: usize, p: usize) -> usize {
    n - (p * n).div_ceil(100)
}

/// Fewest samples for which percentile `p` (`1..=99`) leaves
/// [`TAIL_SAMPLES`] beyond it: 100 for p90, 20 for the median.
#[must_use]
pub fn min_samples(p: usize) -> usize {
    (100 * TAIL_SAMPLES).div_ceil(100 - p)
}

/// Median of an unsorted sample set (nearest rank).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50)
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let value = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set so far, in MiB.
///
/// # Errors
///
/// Returns a message when the status file is unreadable or has no
/// `VmHWM` line (a kernel without procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `iter_ms_p50` or `plan.compiles`.
    pub name: &'static str,
    /// The measured value, every digit kept.
    pub value: f64,
    /// Unit label, e.g. `ms` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values are clamped to 0 so the result line
    /// stays valid JSON.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }
}

/// The machine-readable result line: `correct`, `attempted`, `failed`
/// and every metric with its unit.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), 50.0);
        assert_eq!(percentile(&samples, 90), 90.0);
        assert_eq!(percentile(&samples, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sample_rule_leaves_ten_beyond_the_percentile() {
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(50), 20);
        for p in [50, 90, 95, 99] {
            let n = min_samples(p);
            assert!(beyond(n, p) >= TAIL_SAMPLES, "p{p} at n={n}");
            assert!(
                beyond(n - 1, p) < TAIL_SAMPLES,
                "p{p}: {n} is not the fewest"
            );
        }
    }

    #[test]
    fn vm_hwm_parses_from_a_status_text() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   26624 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(26_624));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("procfs is present") > 0.0);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(
            4,
            1,
            &[
                Metric::new("setup_s", 0.812_734_5, "s"),
                Metric::new("bad", f64::NAN, "ms"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}, \"bad\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
