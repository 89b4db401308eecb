//! Open-loop request generation on a simulated clock.
//!
//! Serving experiments must be reproducible byte-for-byte, so the
//! generator never reads the wall clock: arrivals are drawn from a
//! seeded [`SeededRng`] stream and expressed in *simulated*
//! milliseconds. The same seed always yields the same trace, on any
//! thread count, on any machine.

/// Deterministic splitmix64 generator.
///
/// A Weyl counter plus a finaliser mix, so every one of the 2^64 seeds
/// (including 0) yields a distinct stream — no zero-state remapping
/// that would silently alias two seeds.
#[derive(Debug, Clone)]
pub struct SeededRng(u64);

impl SeededRng {
    /// Seeds the generator.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        SeededRng(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` using the top 53 bits.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draw in `0..n` by reducing a 64-bit draw modulo `n`.
    ///
    /// Not *exactly* uniform: the `% n` reduction over-weights the
    /// first `2^64 mod n` residues by `2^-64` each, a relative bias
    /// below `n / 2^64`. Everything this indexes is a table of at most
    /// a few dozen entries (network lists, platform lists), so the
    /// bias is under `2^-58` — unobservable in any trace this
    /// workspace draws, and not worth a rejection loop that would
    /// consume a data-dependent number of draws and perturb every
    /// downstream stream.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`, in every build profile. An empty range
    /// has no valid draw; the previous `debug_assert!` plus `n.max(1)`
    /// fallback silently returned 0 in release builds, hiding caller
    /// bugs exactly where the reproducibility contract needs them
    /// loud. Trace generation is outside the runtime's no-panic
    /// boundary (see `docs/DETERMINISM.md`), so a precondition panic
    /// is the documented contract here.
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "SeededRng::next_index: empty range (n = 0)");
        (self.next_u64() % n as u64) as usize
    }
}

/// One inference request in a serving trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Stable identity: the request's position in its trace. The
    /// engine indexes per-request state by id, so a run refuses a trace
    /// whose ids are not `0, 1, 2, …` in order
    /// ([`RuntimeError::TraceIdMismatch`](crate::RuntimeError::TraceIdMismatch)).
    pub id: u64,
    /// Index into the simulation's network table.
    pub network: usize,
    /// Simulated arrival time in milliseconds.
    pub arrival_ms: f64,
    /// Absolute SLO deadline in simulated milliseconds
    /// (`f64::INFINITY` when the trace carries no SLO). Completion
    /// after this instant counts as a deadline miss in
    /// [`ServeOutcome`](super::ServeOutcome); the EDF policy orders
    /// queues by it.
    pub deadline_ms: f64,
    /// SLO class, 0 = highest priority. The shed policy drops the
    /// highest class numbers first under backlog pressure, and retry
    /// timeouts scale per class. Traces without classes are all
    /// class 0.
    pub class: u8,
}

impl Request {
    /// Whether a completion instant meets this request's SLO.
    #[must_use]
    pub fn meets_deadline(&self, completion_ms: f64) -> bool {
        completion_ms <= self.deadline_ms
    }
}

/// Deterministic rate modulation layered over the open-loop generator.
///
/// A shape rescales the *mean gap* as a pure function of the simulated
/// clock — no extra RNG draws, no libm trig (piecewise-linear waves
/// only), so shaped traces are bit-stable across platforms and the
/// id/network/class streams are bit-identical to the steady trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadShape {
    /// Constant mean rate: the original generator, bit for bit.
    Steady,
    /// Square-wave bursts: during the first `duty` fraction of each
    /// period the mean gap shrinks by `1 / (1 + amplitude)` (a burst);
    /// for the rest it stretches by `1 + amplitude` (a lull).
    Bursty {
        /// Wave period in simulated milliseconds (must be positive).
        period_ms: f64,
        /// Burst fraction of each period, in `(0, 1)`.
        duty: f64,
        /// Burst intensity, `>= 0`.
        amplitude: f64,
    },
    /// Triangle-wave day cycle: the mean gap sweeps linearly from
    /// `1 - amplitude` (peak load, at the period edges) up to
    /// `1 + amplitude` (trough, mid-period) and back. A bit-stable
    /// stand-in for a sinusoidal diurnal curve.
    Diurnal {
        /// Cycle period in simulated milliseconds (must be positive).
        period_ms: f64,
        /// Swing around the configured mean, in `[0, 1)`.
        amplitude: f64,
    },
}

impl LoadShape {
    /// Multiplier applied to the mean interarrival gap at simulated
    /// time `t_ms`. Always finite and positive for valid shapes.
    #[must_use]
    pub fn gap_factor(&self, t_ms: f64) -> f64 {
        match *self {
            LoadShape::Steady => 1.0,
            LoadShape::Bursty {
                period_ms,
                duty,
                amplitude,
            } => {
                let phase = (t_ms / period_ms).fract();
                if phase < duty {
                    1.0 / (1.0 + amplitude)
                } else {
                    1.0 + amplitude
                }
            }
            LoadShape::Diurnal {
                period_ms,
                amplitude,
            } => {
                let phase = (t_ms / period_ms).fract();
                // Triangle wave: 0 at the period edges, 1 mid-period.
                let tri = 1.0 - (2.0 * phase - 1.0).abs();
                1.0 + amplitude * (2.0 * tri - 1.0)
            }
        }
    }

    /// Whether the shape's parameters keep every gap finite, positive
    /// and order-preserving.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        match *self {
            LoadShape::Steady => true,
            LoadShape::Bursty {
                period_ms,
                duty,
                amplitude,
            } => {
                period_ms > 0.0
                    && period_ms.is_finite()
                    && duty > 0.0
                    && duty < 1.0
                    && amplitude >= 0.0
                    && amplitude.is_finite()
            }
            LoadShape::Diurnal {
                period_ms,
                amplitude,
            } => period_ms > 0.0 && period_ms.is_finite() && (0.0..1.0).contains(&amplitude),
        }
    }
}

/// Seeded open-loop trace generator.
///
/// Interarrival gaps are uniform in `[0, 2·mean)` (mean rate
/// `1/mean_interarrival_ms`, no `ln` so traces are bit-stable across
/// libm implementations); the target network of each request is drawn
/// uniformly. Open-loop means arrivals never react to completions —
/// the pressure a production front door actually applies. A
/// [`LoadShape`] may modulate the mean over simulated time.
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    rng: SeededRng,
    mean_interarrival_ms: f64,
    slo_ms: f64,
    classes: u8,
    shape: LoadShape,
}

impl LoadGenerator {
    /// A generator with the given seed and mean interarrival gap. The
    /// trace carries no SLO (every deadline is `f64::INFINITY`); see
    /// [`LoadGenerator::with_slo`].
    #[must_use]
    pub fn new(seed: u64, mean_interarrival_ms: f64) -> Self {
        LoadGenerator {
            rng: SeededRng::new(seed),
            mean_interarrival_ms: mean_interarrival_ms.max(0.0),
            slo_ms: f64::INFINITY,
            classes: 1,
            shape: LoadShape::Steady,
        }
    }

    /// Attaches a per-request latency SLO: every drawn request gets
    /// `deadline_ms = arrival_ms + slo_ms`. The deadline is a pure
    /// function of the arrival (no extra random draws), so traces with
    /// and without an SLO have bit-identical arrivals and networks.
    #[must_use]
    pub fn with_slo(mut self, slo_ms: f64) -> Self {
        self.slo_ms = if slo_ms > 0.0 { slo_ms } else { f64::INFINITY };
        self
    }

    /// Stripes the trace over `classes` SLO classes: request `id` gets
    /// `class = id % classes` — a pure function of the id, **zero**
    /// extra RNG draws, so arrivals, networks and deadlines are
    /// bit-identical with and without classes. `classes` is clamped
    /// to 1+.
    #[must_use]
    pub fn with_classes(mut self, classes: u8) -> Self {
        self.classes = classes.max(1);
        self
    }

    /// Modulates the mean rate with a [`LoadShape`]. The shape draws
    /// nothing from the RNG, so the id/network/class streams stay
    /// bit-identical to the steady trace; only arrival instants (and
    /// the deadlines offset from them) move. [`LoadShape::Steady`]
    /// leaves the arithmetic untouched, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when the shape's parameters are invalid
    /// ([`LoadShape::is_valid`]), since they would produce
    /// non-monotone or non-finite arrivals.
    #[must_use]
    pub fn with_shape(mut self, shape: LoadShape) -> Self {
        assert!(shape.is_valid(), "invalid load shape: {shape:?}");
        self.shape = shape;
        self
    }

    /// Draws `count` requests over `networks` models, in arrival order.
    pub fn trace(&mut self, count: usize, networks: usize) -> Vec<Request> {
        assert!(networks > 0, "a trace needs at least one network");
        let mut t = 0.0_f64;
        (0..count as u64)
            .map(|id| {
                let gap = 2.0 * self.mean_interarrival_ms * self.rng.next_unit();
                // Steady skips the multiply so legacy traces stay
                // bit-identical by construction, not by IEEE identity.
                t += match self.shape {
                    LoadShape::Steady => gap,
                    shape => gap * shape.gap_factor(t),
                };
                Request {
                    id,
                    network: self.rng.next_index(networks),
                    arrival_ms: t,
                    deadline_ms: t + self.slo_ms,
                    // Pure function of the id: no RNG draw, so classed
                    // and class-free traces are otherwise bit-identical.
                    class: (id % u64::from(self.classes)) as u8,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let a = LoadGenerator::new(42, 3.0).trace(500, 4);
        let b = LoadGenerator::new(42, 3.0).trace(500, 4);
        assert_eq!(a, b);
        let c = LoadGenerator::new(43, 3.0).trace(500, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_ordered_and_cover_networks() {
        let trace = LoadGenerator::new(7, 1.0).trace(2000, 3);
        assert!(trace.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert!(trace.iter().all(|r| r.network < 3));
        for net in 0..3 {
            assert!(trace.iter().any(|r| r.network == net));
        }
        // Mean gap lands near the configured mean.
        let span = trace.last().unwrap().arrival_ms;
        let mean = span / trace.len() as f64;
        assert!((0.8..1.2).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn slo_offsets_deadlines_without_perturbing_the_trace() {
        let plain = LoadGenerator::new(21, 2.0).trace(300, 3);
        let slo = LoadGenerator::new(21, 2.0).with_slo(12.5).trace(300, 3);
        for (a, b) in plain.iter().zip(&slo) {
            assert_eq!(a.arrival_ms.to_bits(), b.arrival_ms.to_bits());
            assert_eq!(a.network, b.network);
            assert_eq!(a.deadline_ms, f64::INFINITY);
            assert_eq!(b.deadline_ms.to_bits(), (b.arrival_ms + 12.5).to_bits());
            assert!(!b.meets_deadline(b.deadline_ms + 1.0));
            assert!(b.meets_deadline(b.deadline_ms));
        }
        // A non-positive SLO means "no SLO", not "always missed".
        let none = LoadGenerator::new(21, 2.0).with_slo(0.0).trace(10, 3);
        assert!(none.iter().all(|r| r.deadline_ms == f64::INFINITY));
    }

    #[test]
    fn classes_stripe_without_perturbing_the_trace() {
        let plain = LoadGenerator::new(5, 2.0).trace(100, 3);
        let classed = LoadGenerator::new(5, 2.0).with_classes(3).trace(100, 3);
        for (a, b) in plain.iter().zip(&classed) {
            assert_eq!(a.arrival_ms.to_bits(), b.arrival_ms.to_bits());
            assert_eq!(a.network, b.network);
            assert_eq!(a.deadline_ms.to_bits(), b.deadline_ms.to_bits());
            assert_eq!(a.class, 0, "class-free traces are all class 0");
            assert_eq!(b.class, (b.id % 3) as u8);
        }
        for class in 0..3u8 {
            assert!(classed.iter().any(|r| r.class == class));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn next_index_panics_on_empty_range_in_every_profile() {
        // The old code only guarded this with a debug_assert! and
        // silently returned 0 in release builds.
        let _ = SeededRng::new(1).next_index(0);
    }

    #[test]
    fn steady_shape_is_the_identity() {
        let plain = LoadGenerator::new(11, 2.0).trace(400, 3);
        let shaped = LoadGenerator::new(11, 2.0)
            .with_shape(LoadShape::Steady)
            .trace(400, 3);
        for (a, b) in plain.iter().zip(&shaped) {
            assert_eq!(a.arrival_ms.to_bits(), b.arrival_ms.to_bits());
        }
    }

    #[test]
    fn shapes_perturb_only_arrival_instants() {
        let shapes = [
            LoadShape::Bursty {
                period_ms: 40.0,
                duty: 0.25,
                amplitude: 3.0,
            },
            LoadShape::Diurnal {
                period_ms: 200.0,
                amplitude: 0.6,
            },
        ];
        let plain = LoadGenerator::new(9, 2.0).with_classes(3).trace(500, 4);
        for shape in shapes {
            let shaped = LoadGenerator::new(9, 2.0)
                .with_classes(3)
                .with_shape(shape)
                .trace(500, 4);
            // Same draws in the same order: ids, networks and classes
            // are bit-identical; arrivals stay sorted and finite.
            assert!(shaped
                .windows(2)
                .all(|w| w[0].arrival_ms <= w[1].arrival_ms));
            let mut moved = false;
            for (a, b) in plain.iter().zip(&shaped) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.network, b.network);
                assert_eq!(a.class, b.class);
                assert!(b.arrival_ms.is_finite());
                moved |= a.arrival_ms.to_bits() != b.arrival_ms.to_bits();
            }
            assert!(moved, "{shape:?} left every arrival untouched");
            // And the whole thing is reproducible from the seed.
            let again = LoadGenerator::new(9, 2.0)
                .with_classes(3)
                .with_shape(shape)
                .trace(500, 4);
            assert_eq!(shaped, again);
        }
    }

    #[test]
    fn shape_validity_bounds() {
        assert!(LoadShape::Steady.is_valid());
        assert!(LoadShape::Bursty {
            period_ms: 10.0,
            duty: 0.5,
            amplitude: 2.0
        }
        .is_valid());
        assert!(!LoadShape::Bursty {
            period_ms: 0.0,
            duty: 0.5,
            amplitude: 2.0
        }
        .is_valid());
        assert!(!LoadShape::Bursty {
            period_ms: 10.0,
            duty: 1.0,
            amplitude: 2.0
        }
        .is_valid());
        assert!(!LoadShape::Diurnal {
            period_ms: 10.0,
            amplitude: 1.0
        }
        .is_valid());
        // Factors stay positive and finite across a full period.
        let shape = LoadShape::Diurnal {
            period_ms: 50.0,
            amplitude: 0.9,
        };
        let mut t = 0.0;
        while t < 120.0 {
            let f = shape.gap_factor(t);
            assert!(f.is_finite() && f > 0.0, "factor {f} at t={t}");
            t += 0.7;
        }
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut rng = SeededRng::new(0);
        for _ in 0..10_000 {
            let u = rng.next_unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
