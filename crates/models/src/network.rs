//! Network descriptions: ordered layer tables with aggregate queries.

use crate::layer::{Layer, LayerWork};
use sma_tensor::GemmShape;
use std::sync::Arc;

/// An inference network: an ordered list of layers.
///
/// The name is reference-counted so profiles and execution plans can
/// carry it without copying the string on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: Arc<str>,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network.
    #[must_use]
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Network {
            name: name.into().into(),
            layers,
        }
    }

    /// Network name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A shared handle on the name (a refcount bump, not a string copy).
    #[must_use]
    pub fn name_shared(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The layer table.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Convolution layers (the Table II census).
    #[must_use]
    pub fn conv_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.is_conv()).count()
    }

    /// All GEMM shapes in execution order (convs via im2col + linears).
    #[must_use]
    pub fn gemm_shapes(&self) -> Vec<GemmShape> {
        self.layers
            .iter()
            .filter_map(|l| l.work().gemm_shape())
            .collect()
    }

    /// The irregular (GEMM-incompatible) work items in order.
    #[must_use]
    pub fn irregular_work(&self) -> Vec<LayerWork> {
        self.layers
            .iter()
            .map(Layer::work)
            .filter(|w| matches!(w, LayerWork::Irregular { .. }))
            .collect()
    }

    /// Total useful FLOPs of one inference.
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(Layer::flops).sum()
    }

    /// FLOPs in GEMM-compatible layers.
    #[must_use]
    pub fn gemm_flops(&self) -> u64 {
        self.gemm_shapes().iter().map(GemmShape::flops).sum()
    }

    /// Fraction of FLOPs that are GEMM-compatible.
    #[must_use]
    pub fn gemm_fraction(&self) -> f64 {
        self.gemm_flops() as f64 / self.total_flops().max(1) as f64
    }

    /// True if the model contains GEMM-incompatible layers (a "hybrid"
    /// model in the paper's terminology).
    #[must_use]
    pub fn is_hybrid(&self) -> bool {
        self.layers.iter().any(|l| !l.is_gemm_compatible())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_tensor::{Conv2dParams, TensorShape};

    fn tiny() -> Network {
        Network::new(
            "tiny",
            vec![
                Layer::Conv2d {
                    conv: Conv2dParams::new(3, 8, 3, 1, 1),
                    input: TensorShape::new(3, 8, 8),
                },
                Layer::Nms { boxes: 16 },
                Layer::Linear {
                    in_features: 512,
                    out_features: 10,
                    batch: 1,
                },
            ],
        )
    }

    #[test]
    fn census_and_shapes() {
        let n = tiny();
        assert_eq!(n.conv_layers(), 1);
        assert_eq!(n.gemm_shapes().len(), 2);
        assert_eq!(n.irregular_work().len(), 1);
        assert!(n.is_hybrid());
        assert_eq!(n.name(), "tiny");
    }

    #[test]
    fn flops_aggregate() {
        let n = tiny();
        assert_eq!(
            n.total_flops(),
            n.gemm_flops()
                + n.irregular_work()
                    .iter()
                    .map(|w| match w {
                        LayerWork::Irregular { flops, .. } => *flops,
                        LayerWork::Gemm(_) => 0,
                    })
                    .sum::<u64>()
        );
        assert!(n.gemm_fraction() > 0.5);
    }

    #[test]
    fn pure_cnn_is_not_hybrid() {
        let n = Network::new(
            "pure",
            vec![Layer::Conv2d {
                conv: Conv2dParams::new(3, 8, 3, 1, 1),
                input: TensorShape::new(3, 8, 8),
            }],
        );
        assert!(!n.is_hybrid());
        assert!((n.gemm_fraction() - 1.0).abs() < 1e-12);
    }
}
