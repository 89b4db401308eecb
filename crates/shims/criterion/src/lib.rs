//! Offline stand-in for `criterion`.
//!
//! Implements exactly the subset of the Criterion API the `sma-bench`
//! benches use — groups, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `iter` — as a plain wall-clock runner that prints
//! median per-iteration times. No statistics, no HTML reports; the point
//! is that `cargo bench` builds, runs and produces comparable numbers in
//! a container with no registry access. Swapping in the real crate is a
//! manifest-only change.
//!
//! Setting `CRITERION_SAMPLE_SIZE` caps the samples of every benchmark
//! regardless of what the bench source configures — CI uses `=1` as a
//! smoke gate that executes each benchmark body without paying for
//! statistics.

#![deny(missing_docs)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the shim is the timing harness: wall-clock reads are its measurand and CRITERION_SAMPLE_SIZE is its documented knob"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level bench context handed to the `criterion_group!` targets.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _criterion: self,
            sample_size: 10,
            measurement: Duration::from_secs(2),
        }
    }
}

/// A named benchmark identifier (`name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            name: format!("{function_name}/{parameter}"),
        }
    }
}

/// A group of benchmarks sharing sampling settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    sample_size: usize,
    measurement: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Accepted for API parity; the stub runner does not warm up.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Caps the total time spent measuring one benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Runs a benchmark closure under this group's settings.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id, |b| f(b));
        self
    }

    /// Runs a parameterised benchmark closure.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.name, |b| f(b, input));
        self
    }

    /// Closes the group (printing is incremental, so this is a no-op).
    pub fn finish(&mut self) {}

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let sample_size = std::env::var("CRITERION_SAMPLE_SIZE")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(self.sample_size, |n| n.clamp(1, self.sample_size));
        let mut samples = Vec::with_capacity(sample_size);
        let budget = Instant::now();
        for _ in 0..sample_size {
            let mut b = Bencher {
                per_iter: Duration::ZERO,
            };
            f(&mut b);
            samples.push(b.per_iter);
            if budget.elapsed() > self.measurement {
                break;
            }
        }
        samples.sort();
        let median = samples[samples.len() / 2];
        println!("  {id}: median {median:?} over {} samples", samples.len());
    }
}

/// Times the closure handed to [`Bencher::iter`].
#[derive(Debug)]
pub struct Bencher {
    per_iter: Duration,
}

impl Bencher {
    /// Runs `f` repeatedly and records the mean per-iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed shake-down iteration, then a short timed batch.
        std::hint::black_box(f());
        const ITERS: u32 = 3;
        let start = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(f());
        }
        self.per_iter = start.elapsed() / ITERS;
    }
}

/// Declares the benchmark targets of one bench binary.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
