//! The wall clock of the benchmark binaries' gitignored timing
//! side-files. Nothing timed here reaches model state or a committed
//! report.

/// Runs `work` and returns its result with its wall time in ms.
pub(crate) fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_types,
        reason = "wall time is the timing side-files' measurand, never modeled"
    )]
    let start = std::time::Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64() * 1e3)
}
