//! Event summaries produced by the dataflow engines.
//!
//! The engines report *what happened* (cycles, feed events, drain shapes);
//! the SM/TPU timing models translate those events into bank conflicts,
//! register-file pressure and energy. Keeping the two layers separate means
//! a dataflow's memory behaviour is derived once, mechanically, from its
//! actual schedule.

/// How result values leave the array per drain event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CDrainKind {
    /// A complete output row exits at once (the semi-broadcast dataflow):
    /// one coalesced vector access per event.
    CoalescedRow,
    /// One element per column exits, each belonging to a *different*
    /// output row (classic weight stationary): a scattered access touching
    /// `rows` register rows per event.
    ScatteredColumns {
        /// Number of distinct output rows per drain event.
        rows: u32,
    },
    /// Results stay in the PEs until an explicit drain phase
    /// (output stationary).
    EndOfPass,
}

/// Cost-relevant summary of one engine run (possibly many array passes).
#[derive(Debug, Clone, PartialEq)]
pub struct PassTrace {
    /// Total cycles the array was busy, including fill/drain skew.
    pub cycles: u64,
    /// Cycles that performed at least one useful MAC.
    pub active_cycles: u64,
    /// Total MAC operations executed.
    pub macs: u64,
    /// Array passes (weight reloads) performed.
    pub passes: u64,
    /// Cycles spent loading stationary weights (not overlapped).
    pub weight_load_cycles: u64,
    /// `A`-feed events: each reads up to `dim` words from the feed memory
    /// in one cycle (uncoalesced in both WS dataflows).
    pub a_feed_events: u64,
    /// Individual `A` words fetched across all feed events.
    pub a_words: u64,
    /// Result drain events and their shape.
    pub c_drain_events: u64,
    /// Shape of each drain event.
    pub c_drain_kind: CDrainKind,
    /// Partial-sum re-injection events (classic WS with K deeper than the
    /// array: previous partials must be fed back through the top).
    pub psum_reinjections: u64,
    /// Values moved PE-to-PE over local wires (energy accounting).
    pub pe_transfers: u64,
}

impl PassTrace {
    /// An empty trace for accumulation.
    #[must_use]
    pub(crate) const fn empty(kind: CDrainKind) -> Self {
        PassTrace {
            cycles: 0,
            active_cycles: 0,
            macs: 0,
            passes: 0,
            weight_load_cycles: 0,
            a_feed_events: 0,
            a_words: 0,
            c_drain_events: 0,
            c_drain_kind: kind,
            psum_reinjections: 0,
            pe_transfers: 0,
        }
    }

    /// MACs per cycle actually achieved.
    #[must_use]
    pub(crate) fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / self.cycles as f64
        }
    }

    /// Utilisation relative to a `dim × dim` array's peak.
    #[must_use]
    pub fn utilisation(&self, dim: usize) -> f64 {
        self.throughput() / (dim * dim) as f64
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn throughput_and_utilisation() {
        let mut t = PassTrace::empty(CDrainKind::CoalescedRow);
        t.cycles = 100;
        t.macs = 3200; // 32 MACs/cycle on an 8x8 array = 50%
        assert!((t.throughput() - 32.0).abs() < 1e-12);
        assert!((t.utilisation(8) - 0.5).abs() < 1e-12);
        let empty = PassTrace::empty(CDrainKind::EndOfPass);
        assert_eq!(empty.throughput(), 0.0);
    }
}
