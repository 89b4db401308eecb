//! Analytical cycle models, cross-validated against the functional engines.
//!
//! The functional engines are exact but O(M·N²) per pass; the experiment
//! sweeps run GEMMs up to 8192³, where an analytical model is required.
//! These formulas are *derived from the engines' schedules* and asserted
//! equal to them in tests (and property tests in `tests/`), so using them
//! at scale is sound.

use crate::DataflowKind;
use sma_tensor::GemmShape;

/// Per-pass cycle model of one dataflow on a `dim × dim` array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTiming {
    /// Dataflow modelled.
    pub kind: DataflowKind,
    /// Array edge.
    pub dim: usize,
    /// Whether weight loads overlap compute (double-buffered weights).
    pub overlap_weight_load: bool,
}

impl PassTiming {
    /// Creates a pass model.
    #[must_use]
    pub const fn new(kind: DataflowKind, dim: usize, overlap_weight_load: bool) -> Self {
        PassTiming {
            kind,
            dim,
            overlap_weight_load,
        }
    }

    /// Cycles of one pass streaming `stream_len` elements
    /// (`M` for the WS dataflows, `K` for output stationary), including
    /// the weight-load/reconfiguration cost.
    #[must_use]
    pub(crate) const fn pass_cycles(&self, stream_len: usize) -> u64 {
        let n = self.dim as u64;
        let s = stream_len as u64;
        let load = if self.overlap_weight_load { 1 } else { n };
        match self.kind {
            // Fill skew n-1, one drain per cycle thereafter.
            DataflowKind::SemiBroadcastWeightStationary => s + n - 1 + load,
            // Extra n-1 of drain skew down the columns.
            DataflowKind::WeightStationary => s + 2 * n - 2 + load,
            // Double fill skew plus an explicit n-cycle drain phase;
            // no stationary weights to load.
            DataflowKind::OutputStationary => s + 2 * (n - 1) + n,
        }
    }

    /// Number of array passes a full GEMM requires.
    #[must_use]
    pub(crate) const fn passes(&self, shape: GemmShape) -> u64 {
        let d = self.dim;
        match self.kind {
            DataflowKind::SemiBroadcastWeightStationary | DataflowKind::WeightStationary => {
                (shape.k.div_ceil(d) * shape.n.div_ceil(d)) as u64
            }
            DataflowKind::OutputStationary => (shape.m.div_ceil(d) * shape.n.div_ceil(d)) as u64,
        }
    }

    /// Total cycles of the GEMM on one array.
    #[must_use]
    pub const fn gemm_cycles(&self, shape: GemmShape) -> u64 {
        let stream = match self.kind {
            DataflowKind::SemiBroadcastWeightStationary | DataflowKind::WeightStationary => shape.m,
            DataflowKind::OutputStationary => shape.k,
        };
        self.passes(shape) * self.pass_cycles(stream)
    }

    /// Useful-MAC utilisation of the array over the whole GEMM, in
    /// `(0, 1]`: useful MACs divided by `dim² ·` total cycles.
    #[must_use]
    pub fn utilisation(&self, shape: GemmShape) -> f64 {
        let peak = (self.dim * self.dim) as f64 * self.gemm_cycles(shape) as f64;
        shape.macs() as f64 / peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OutputStationaryArray, SemiBroadcastArray, SystolicGemm, WeightStationaryArray};
    use sma_tensor::Matrix;

    /// The analytical model must match the functional engines cycle-exactly.
    #[test]
    fn analytical_matches_engines() {
        for (m, k, n, dim) in [
            (8usize, 8usize, 8usize, 8usize),
            (128, 8, 8, 8),
            (16, 24, 8, 8),
            (13, 11, 9, 4),
            (32, 32, 32, 8),
            (5, 3, 2, 2),
        ] {
            let shape = sma_tensor::GemmShape::new(m, n, k);
            let a = Matrix::<f32>::random(m, k, 1);
            let b = Matrix::<f32>::random(k, n, 2);

            let sb = SemiBroadcastArray::new(dim).gemm(&a, &b).unwrap().trace;
            let model = PassTiming::new(DataflowKind::SemiBroadcastWeightStationary, dim, false);
            assert_eq!(
                sb.cycles,
                model.gemm_cycles(shape),
                "SB {m}x{k}x{n} dim{dim}"
            );
            assert_eq!(sb.passes, model.passes(shape));

            let ws = WeightStationaryArray::new(dim).gemm(&a, &b).unwrap().trace;
            let model = PassTiming::new(DataflowKind::WeightStationary, dim, false);
            assert_eq!(
                ws.cycles,
                model.gemm_cycles(shape),
                "WS {m}x{k}x{n} dim{dim}"
            );

            let os = OutputStationaryArray::new(dim).gemm(&a, &b).unwrap().trace;
            let model = PassTiming::new(DataflowKind::OutputStationary, dim, false);
            assert_eq!(
                os.cycles,
                model.gemm_cycles(shape),
                "OS {m}x{k}x{n} dim{dim}"
            );
        }
    }

    #[test]
    fn overlapped_model_matches_engine() {
        let a = Matrix::<f32>::random(64, 16, 3);
        let b = Matrix::<f32>::random(16, 16, 4);
        let mut arr = SemiBroadcastArray::new(8);
        arr.overlap_weight_load = true;
        let t = arr.gemm(&a, &b).unwrap().trace;
        let model = PassTiming::new(DataflowKind::SemiBroadcastWeightStationary, 8, true);
        assert_eq!(
            t.cycles,
            model.gemm_cycles(sma_tensor::GemmShape::new(64, 16, 16))
        );
    }

    #[test]
    fn utilisation_approaches_one_for_tall_streams() {
        let model = PassTiming::new(DataflowKind::SemiBroadcastWeightStationary, 8, true);
        let small = model.utilisation(sma_tensor::GemmShape::new(8, 8, 8));
        let tall = model.utilisation(sma_tensor::GemmShape::new(4096, 8, 8));
        assert!(tall > 0.99, "tall stream utilisation {tall}");
        assert!(small < 0.55, "small shape utilisation {small}");
        assert!(tall > small);
    }

    #[test]
    fn ws_is_consistently_slower_than_sb() {
        let ws_over_sb = |n: usize| {
            let shape = sma_tensor::GemmShape::square(n);
            let cycles = |kind| PassTiming::new(kind, 8, false).gemm_cycles(shape) as f64;
            cycles(DataflowKind::WeightStationary)
                / cycles(DataflowKind::SemiBroadcastWeightStationary)
        };
        for size in [64usize, 256, 1024] {
            let ratio = ws_over_sb(size);
            assert!(ratio > 1.0, "size {size}: ratio {ratio}");
        }
        // The schedule-only gap shrinks with M; the *memory-system* gap
        // (bank conflicts) is what keeps the paper's 20-40% at scale.
        let big = ws_over_sb(4096);
        assert!(big < 1.1);
    }
}
