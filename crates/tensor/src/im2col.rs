//! Convolution-to-GEMM lowering (img2col).
//!
//! The paper's evaluation converts every convolution layer to GEMM through
//! img2col (§V-A). This module provides the shape algebra used by the model
//! zoo to derive per-layer GEMM dimensions, plus a functional im2col +
//! GEMM convolution verified against a direct sliding-window reference.

use crate::gemm::{self, GemmShape};
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::TensorError;

/// Shape of a CHW feature-map tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl TensorShape {
    /// Creates a CHW shape.
    #[must_use]
    pub const fn new(c: usize, h: usize, w: usize) -> Self {
        TensorShape { c, h, w }
    }

    /// Total element count.
    #[must_use]
    pub const fn elements(&self) -> usize {
        self.c * self.h * self.w
    }
}

impl std::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Parameters of a 2-D convolution layer.
///
/// # Example
///
/// ```
/// use sma_tensor::{Conv2dParams, TensorShape};
///
/// // AlexNet conv1: 3->64 channels, 11x11 kernel, stride 4, pad 2.
/// let conv = Conv2dParams::new(3, 64, 11, 4, 2);
/// let out = conv.output_shape(TensorShape::new(3, 227, 227)).unwrap();
/// assert_eq!((out.h, out.w), (56, 56));
/// let g = conv.gemm_shape(TensorShape::new(3, 227, 227)).unwrap();
/// assert_eq!(g.m, 56 * 56);      // output pixels
/// assert_eq!(g.n, 64);           // output channels
/// assert_eq!(g.k, 3 * 11 * 11);  // receptive field
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
    /// Dilation (1 = dense kernel; >1 models DeepLab's atrous convolution).
    pub dilation: usize,
}

impl Conv2dParams {
    /// Creates a square-kernel convolution with dilation 1.
    #[must_use]
    pub const fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dParams {
            in_channels,
            out_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding,
            dilation: 1,
        }
    }

    /// Builder-style setter for dilation (atrous convolution, used by
    /// DeepLab).
    #[must_use]
    pub const fn with_dilation(mut self, dilation: usize) -> Self {
        self.dilation = dilation;
        self
    }

    /// Effective kernel extent after dilation.
    #[must_use]
    pub(crate) const fn effective_kernel_h(&self) -> usize {
        (self.kernel_h - 1) * self.dilation + 1
    }

    /// Effective kernel extent after dilation.
    #[must_use]
    pub(crate) const fn effective_kernel_w(&self) -> usize {
        (self.kernel_w - 1) * self.dilation + 1
    }

    /// Output feature-map shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the input channel count
    /// does not match, the stride is zero, or the padded input is smaller
    /// than the kernel.
    pub fn output_shape(&self, input: TensorShape) -> Result<TensorShape, TensorError> {
        if input.c != self.in_channels {
            return Err(TensorError::InvalidDimension {
                what: "input channels",
                value: input.c,
            });
        }
        if self.stride == 0 {
            return Err(TensorError::InvalidDimension {
                what: "stride",
                value: 0,
            });
        }
        let eh = self.effective_kernel_h();
        let ew = self.effective_kernel_w();
        let padded_h = input.h + 2 * self.padding;
        let padded_w = input.w + 2 * self.padding;
        if padded_h < eh || padded_w < ew {
            return Err(TensorError::InvalidDimension {
                what: "input smaller than kernel",
                value: input.h,
            });
        }
        Ok(TensorShape {
            c: self.out_channels,
            h: (padded_h - eh) / self.stride + 1,
            w: (padded_w - ew) / self.stride + 1,
        })
    }

    /// GEMM dimensions after im2col lowering:
    /// `M = out_h*out_w`, `N = out_channels`, `K = in_channels*kh*kw`.
    ///
    /// # Errors
    ///
    /// Propagates the shape errors of [`Conv2dParams::output_shape`].
    pub fn gemm_shape(&self, input: TensorShape) -> Result<GemmShape, TensorError> {
        let out = self.output_shape(input)?;
        Ok(GemmShape::new(
            out.h * out.w,
            self.out_channels,
            self.in_channels * self.kernel_h * self.kernel_w,
        ))
    }
}

/// Expands a CHW input (given as a `c × (h*w)` matrix) into the im2col
/// patch matrix of shape `(out_h*out_w) × (c*kh*kw)`.
///
/// Row `p` of the result holds the receptive field of output pixel `p`,
/// flattened channel-major; multiplying by a `(c*kh*kw) × out_channels`
/// weight matrix yields the convolution as a single GEMM.
///
/// # Errors
///
/// Propagates the shape errors of [`Conv2dParams::output_shape`], plus
/// [`TensorError::DataLength`] if `input`'s shape disagrees with `shape`.
pub fn im2col<T: Scalar>(
    input: &Matrix<T>,
    shape: TensorShape,
    conv: &Conv2dParams,
) -> Result<Matrix<T>, TensorError> {
    if input.shape() != (shape.c, shape.h * shape.w) {
        return Err(TensorError::DataLength {
            expected: shape.c * shape.h * shape.w,
            actual: input.rows() * input.cols(),
        });
    }
    let out = conv.output_shape(shape)?;
    let k = conv.in_channels * conv.kernel_h * conv.kernel_w;
    let mut patches = Matrix::zeros(out.h * out.w, k);
    for oy in 0..out.h {
        for ox in 0..out.w {
            let row = oy * out.w + ox;
            let mut col = 0;
            for c in 0..conv.in_channels {
                for ky in 0..conv.kernel_h {
                    for kx in 0..conv.kernel_w {
                        let iy = (oy * conv.stride + ky * conv.dilation) as isize
                            - conv.padding as isize;
                        let ix = (ox * conv.stride + kx * conv.dilation) as isize
                            - conv.padding as isize;
                        if iy >= 0 && ix >= 0 && (iy as usize) < shape.h && (ix as usize) < shape.w
                        {
                            patches[(row, col)] = input[(c, iy as usize * shape.w + ix as usize)];
                        }
                        col += 1;
                    }
                }
            }
        }
    }
    Ok(patches)
}

/// Functional convolution via im2col + GEMM.
///
/// `input` is `c × (h*w)`; `weights` is `(c*kh*kw) × out_channels`. Returns
/// the output as `(out_h*out_w) × out_channels`.
///
/// # Errors
///
/// Propagates shape errors from [`im2col`] and the GEMM.
pub fn conv2d_gemm<T: Scalar>(
    input: &Matrix<T>,
    shape: TensorShape,
    conv: &Conv2dParams,
    weights: &Matrix<T>,
) -> Result<Matrix<T>, TensorError> {
    let patches = im2col(input, shape, conv)?;
    gemm::reference(&patches, weights)
}

/// Direct sliding-window convolution used only to verify [`conv2d_gemm`].
///
/// # Errors
///
/// Propagates the shape errors of [`Conv2dParams::output_shape`].
pub fn conv2d_direct<T: Scalar>(
    input: &Matrix<T>,
    shape: TensorShape,
    conv: &Conv2dParams,
    weights: &Matrix<T>,
) -> Result<Matrix<T>, TensorError> {
    let out = conv.output_shape(shape)?;
    let mut result = Matrix::zeros(out.h * out.w, conv.out_channels);
    for oc in 0..conv.out_channels {
        for oy in 0..out.h {
            for ox in 0..out.w {
                let mut acc = T::ZERO;
                for c in 0..conv.in_channels {
                    for ky in 0..conv.kernel_h {
                        for kx in 0..conv.kernel_w {
                            let iy = (oy * conv.stride + ky * conv.dilation) as isize
                                - conv.padding as isize;
                            let ix = (ox * conv.stride + kx * conv.dilation) as isize
                                - conv.padding as isize;
                            if iy >= 0
                                && ix >= 0
                                && (iy as usize) < shape.h
                                && (ix as usize) < shape.w
                            {
                                let w_idx =
                                    c * conv.kernel_h * conv.kernel_w + ky * conv.kernel_w + kx;
                                acc = acc.mac(
                                    input[(c, iy as usize * shape.w + ix as usize)],
                                    weights[(w_idx, oc)],
                                );
                            }
                        }
                    }
                }
                result[(oy * out.w + ox, oc)] = acc;
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn output_shape_classic_cases() {
        // Same-padding 3x3 stride 1.
        let conv = Conv2dParams::new(8, 16, 3, 1, 1);
        let out = conv.output_shape(TensorShape::new(8, 32, 32)).unwrap();
        assert_eq!((out.c, out.h, out.w), (16, 32, 32));

        // VGG-style 2x down-sampling happens in pooling, not conv;
        // stride-2 7x7 pad 3 halves the map (ResNet stem).
        let conv = Conv2dParams::new(3, 64, 7, 2, 3);
        let out = conv.output_shape(TensorShape::new(3, 224, 224)).unwrap();
        assert_eq!((out.h, out.w), (112, 112));
    }

    #[test]
    fn dilation_expands_receptive_field() {
        let conv = Conv2dParams::new(1, 1, 3, 1, 0).with_dilation(2);
        assert_eq!(conv.effective_kernel_h(), 5);
        let out = conv.output_shape(TensorShape::new(1, 9, 9)).unwrap();
        assert_eq!((out.h, out.w), (5, 5));
    }

    #[test]
    fn wrong_channel_count_is_error() {
        let conv = Conv2dParams::new(3, 8, 3, 1, 1);
        assert!(conv.output_shape(TensorShape::new(4, 8, 8)).is_err());
    }

    #[test]
    fn kernel_larger_than_input_is_error() {
        let conv = Conv2dParams::new(1, 1, 5, 1, 0);
        assert!(conv.output_shape(TensorShape::new(1, 3, 3)).is_err());
    }

    #[test]
    fn im2col_1x1_conv_is_transpose_like() {
        // A 1x1 conv's patch matrix is just the input pixels by channel.
        let shape = TensorShape::new(2, 2, 2);
        let input = Matrix::from_fn(2, 4, |c, p| (c * 10 + p) as f32);
        let conv = Conv2dParams::new(2, 3, 1, 1, 0);
        let patches = im2col(&input, shape, &conv).unwrap();
        assert_eq!(patches.shape(), (4, 2));
        assert_eq!(patches[(3, 1)], input[(1, 3)]);
    }

    #[test]
    fn gemm_conv_matches_direct_conv() {
        let shape = TensorShape::new(3, 7, 6);
        let input: Matrix<f32> = Matrix::random(3, 42, 7);
        for (kernel, stride, pad, dil) in [(3, 1, 1, 1), (3, 2, 0, 1), (1, 1, 0, 1), (3, 1, 2, 2)] {
            let conv = Conv2dParams::new(3, 4, kernel, stride, pad).with_dilation(dil);
            let k = 3 * kernel * kernel;
            let weights = Matrix::random(k, 4, 11);
            let via_gemm = conv2d_gemm(&input, shape, &conv, &weights).unwrap();
            let direct = conv2d_direct(&input, shape, &conv, &weights).unwrap();
            assert!(
                via_gemm.approx_eq(&direct, 1e-4),
                "kernel={kernel} stride={stride} pad={pad} dil={dil}"
            );
        }
    }

    #[test]
    fn gemm_shape_matches_im2col_dims() {
        let shape = TensorShape::new(3, 16, 16);
        let conv = Conv2dParams::new(3, 8, 3, 1, 1);
        let g = conv.gemm_shape(shape).unwrap();
        let input: Matrix<f32> = Matrix::zeros(3, 256);
        let patches = im2col(&input, shape, &conv).unwrap();
        assert_eq!(patches.shape(), (g.m, g.k));
        assert_eq!(g.n, 8);
    }
}
