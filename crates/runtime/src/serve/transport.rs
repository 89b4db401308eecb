//! Modeled inter-node transport for the live serving twin.
//!
//! The live layer runs the front door and the shard workers as real
//! threads, but the *network between them* stays a model: each hop
//! charges a fixed per-hop latency plus a serialization term
//! (`bytes / bandwidth`) to the envelope crossing it. Keeping the
//! transport modeled — pure arithmetic on simulated milliseconds, no
//! sockets, no wall clock — is what lets the discrete-event oracle
//! bound the live/replay latency gap: the engine sees no transport at
//! all, so every live latency exceeds its replay twin by at most the
//! request hop plus the response hop (plus scheduler jitter).
//!
//! This module is inside the determinism boundary and must stay
//! lint-clean: no `std::time`, no wall-clock reads.

/// Per-hop transport model applied to request and response envelopes.
///
/// `delay = latency_ms + bytes / bytes_per_ms`, with a bandwidth of
/// zero meaning "infinitely fast link" (no serialization term) so the
/// zero-value model is exactly "no transport".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportModel {
    /// Fixed one-way latency per hop, in simulated milliseconds.
    pub latency_ms: f64,
    /// Link bandwidth in bytes per simulated millisecond; `0.0`
    /// disables the serialization term.
    pub bytes_per_ms: f64,
    /// Size of a request envelope (front door → shard), in bytes.
    pub request_bytes: u64,
    /// Size of a response envelope (shard → front door), in bytes.
    pub response_bytes: u64,
}

impl TransportModel {
    /// The identity transport: both hops cost exactly zero.
    #[must_use]
    pub(crate) const fn none() -> Self {
        TransportModel {
            latency_ms: 0.0,
            bytes_per_ms: 0.0,
            request_bytes: 0,
            response_bytes: 0,
        }
    }

    /// A symmetric model from one latency and one bandwidth, with
    /// envelope sizes typical of an inference RPC (a small request, a
    /// larger response carrying activations).
    #[must_use]
    pub const fn symmetric(latency_ms: f64, bytes_per_ms: f64) -> Self {
        TransportModel {
            latency_ms,
            bytes_per_ms,
            request_bytes: 4 * 1024,
            response_bytes: 64 * 1024,
        }
    }

    /// One-way delay for an envelope of `bytes`, in simulated
    /// milliseconds.
    #[must_use]
    pub(crate) fn delay_ms(&self, bytes: u64) -> f64 {
        let serialize = if self.bytes_per_ms > 0.0 {
            bytes as f64 / self.bytes_per_ms
        } else {
            0.0
        };
        self.latency_ms + serialize
    }

    /// Front door → shard hop for one request envelope.
    #[must_use]
    pub(crate) fn request_delay_ms(&self) -> f64 {
        self.delay_ms(self.request_bytes)
    }

    /// Shard → front door hop for one response envelope.
    #[must_use]
    pub(crate) fn response_delay_ms(&self) -> f64 {
        self.delay_ms(self.response_bytes)
    }

    /// Both hops together: the worst-case latency a live request pays
    /// over its engine-replay twin, before scheduler jitter.
    #[must_use]
    pub fn round_trip_ms(&self) -> f64 {
        self.request_delay_ms() + self.response_delay_ms()
    }

    /// Whether every delay this model can produce is finite and
    /// non-negative.
    #[must_use]
    pub(crate) fn is_valid(&self) -> bool {
        self.latency_ms >= 0.0
            && self.latency_ms.is_finite()
            && self.bytes_per_ms >= 0.0
            && self.bytes_per_ms.is_finite()
            && self.request_delay_ms().is_finite()
            && self.response_delay_ms().is_finite()
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "exact float equality asserts pure arithmetic on exactly-representable values"
    )]

    use super::*;

    #[test]
    fn zero_model_is_free() {
        let t = TransportModel::none();
        assert_eq!(t.request_delay_ms(), 0.0);
        assert_eq!(t.response_delay_ms(), 0.0);
        assert_eq!(t.round_trip_ms(), 0.0);
        assert!(t.is_valid());
    }

    #[test]
    fn delay_combines_latency_and_serialization() {
        let t = TransportModel {
            latency_ms: 0.5,
            bytes_per_ms: 1024.0,
            request_bytes: 2048,
            response_bytes: 4096,
        };
        assert_eq!(t.request_delay_ms(), 0.5 + 2.0);
        assert_eq!(t.response_delay_ms(), 0.5 + 4.0);
        assert_eq!(t.round_trip_ms(), 7.0);
    }

    #[test]
    fn zero_bandwidth_means_no_serialization_term() {
        let t = TransportModel {
            latency_ms: 1.5,
            bytes_per_ms: 0.0,
            request_bytes: u64::MAX,
            response_bytes: u64::MAX,
        };
        assert_eq!(t.request_delay_ms(), 1.5);
        assert!(t.is_valid());
    }

    #[test]
    fn invalid_parameters_are_detected() {
        let mut t = TransportModel::symmetric(1.0, 100.0);
        assert!(t.is_valid());
        t.latency_ms = f64::NAN;
        assert!(!t.is_valid());
        t.latency_ms = -1.0;
        assert!(!t.is_valid());
    }
}
