//! Reference GEMM implementations.
//!
//! These are the ground truth against which the cycle-level systolic
//! engines, the SMA GEMM mapper and the TensorCore model are all verified.
//! `C = α·A·B + β·C` is the exact operation the paper implements on SMA
//! ("We implement the GEMM of C = αA × B + βC", §IV-C).

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::TensorError;

/// Dimensions of a GEMM: `C[m×n] = A[m×k] · B[k×n]`.
///
/// # Example
///
/// ```
/// use sma_tensor::GemmShape;
///
/// let s = GemmShape::new(128, 128, 64);
/// assert_eq!(s.flops(), 2 * 128 * 128 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Columns of `A` / rows of `B` (the reduction dimension).
    pub k: usize,
}

impl GemmShape {
    /// Creates a shape from `(m, n, k)`.
    #[must_use]
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        GemmShape { m, n, k }
    }

    /// A square `n×n×n` GEMM, as used in the paper's Fig. 1 and Fig. 7
    /// sweeps.
    #[must_use]
    pub const fn square(n: usize) -> Self {
        GemmShape { m: n, n, k: n }
    }

    /// Floating-point operations required (each MAC counts as 2 FLOPs).
    #[must_use]
    pub const fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Total MAC operations.
    #[must_use]
    pub const fn macs(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Bytes touched assuming each operand is read once and `C` is
    /// read+written once, with `elem_bytes` per element.
    #[must_use]
    pub const fn min_bytes(&self, elem_bytes: usize) -> u64 {
        let a = self.m as u64 * self.k as u64;
        let b = self.k as u64 * self.n as u64;
        let c = self.m as u64 * self.n as u64;
        (a + b + 2 * c) * elem_bytes as u64
    }

    /// Arithmetic intensity in FLOPs per byte at `elem_bytes` per element.
    #[must_use]
    pub fn arithmetic_intensity(&self, elem_bytes: usize) -> f64 {
        self.flops() as f64 / self.min_bytes(elem_bytes) as f64
    }
}

impl std::fmt::Display for GemmShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.n, self.k)
    }
}

/// Runs a chunked reduction in fixed 8-element lanes: eight independent
/// accumulators over the exact chunks, folded, then the remainder.
/// `u64` addition is associative, so the result equals the naive
/// left-to-right sum exactly — the lanes only restructure the loop for
/// the batched estimate kernels.
#[inline]
fn fold8(len: usize, term: impl Fn(usize) -> u64) -> u64 {
    let mut acc = [0u64; 8];
    let mut i = 0;
    while i + 8 <= len {
        acc[0] += term(i);
        acc[1] += term(i + 1);
        acc[2] += term(i + 2);
        acc[3] += term(i + 3);
        acc[4] += term(i + 4);
        acc[5] += term(i + 5);
        acc[6] += term(i + 6);
        acc[7] += term(i + 7);
        i += 8;
    }
    let mut total: u64 = acc.iter().sum();
    while i < len {
        total += term(i);
        i += 1;
    }
    total
}

/// Structure-of-arrays batch of GEMM shapes.
///
/// A design-space sweep evaluates *thousands* of `(network, batch)`
/// points, each a handful of GEMM shapes; calling the scalar
/// [`GemmShape`] accessors per shape per point puts a virtual-call-free
/// but cache-hostile AoS walk on the hot path. `GemmShapeBatch` stores
/// the `m`/`n`/`k` columns separately and runs the estimate reductions
/// in fixed 8-element lanes (`fold8`), so a whole workload's FLOPs,
/// MACs and traffic resolve in a few dense passes.
///
/// Every kernel is pinned to the scalar accessors: integer lane
/// accumulation is associative, so `total_flops` equals summing
/// [`GemmShape::flops`] shape-by-shape exactly (the unit tests assert
/// equality, not tolerance).
///
/// # Example
///
/// ```
/// use sma_tensor::{GemmShape, GemmShapeBatch};
///
/// let batch = GemmShapeBatch::from_shapes(&[
///     GemmShape::new(64, 128, 32),
///     GemmShape::new(16, 16, 16),
/// ]);
/// let scalar: u64 = [GemmShape::new(64, 128, 32), GemmShape::new(16, 16, 16)]
///     .iter()
///     .map(GemmShape::flops)
///     .sum();
/// assert_eq!(batch.total_flops(), scalar);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GemmShapeBatch {
    ms: Vec<u64>,
    ns: Vec<u64>,
    ks: Vec<u64>,
}

impl GemmShapeBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        GemmShapeBatch::default()
    }

    /// An empty batch with room for `shapes` entries per column.
    #[must_use]
    pub fn with_capacity(shapes: usize) -> Self {
        GemmShapeBatch {
            ms: Vec::with_capacity(shapes),
            ns: Vec::with_capacity(shapes),
            ks: Vec::with_capacity(shapes),
        }
    }

    /// Builds a batch from a shape slice.
    #[must_use]
    pub fn from_shapes(shapes: &[GemmShape]) -> Self {
        let mut batch = GemmShapeBatch::with_capacity(shapes.len());
        for &s in shapes {
            batch.push(s);
        }
        batch
    }

    /// Appends one shape.
    pub fn push(&mut self, shape: GemmShape) {
        self.ms.push(shape.m as u64);
        self.ns.push(shape.n as u64);
        self.ks.push(shape.k as u64);
    }

    /// Number of shapes in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Whether the batch holds no shapes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// The batch with every `m` stacked by `batch` (clamped to >= 1) —
    /// the im2col batch-stacking rule, applied as one dense column
    /// pass instead of per shape.
    #[must_use]
    pub fn stacked(&self, batch: usize) -> GemmShapeBatch {
        let factor = batch.max(1) as u64;
        GemmShapeBatch {
            ms: self.ms.iter().map(|&m| m * factor).collect(),
            ns: self.ns.clone(),
            ks: self.ks.clone(),
        }
    }

    /// Total FLOPs across the batch (each MAC counts as 2 FLOPs);
    /// exactly `Σ` [`GemmShape::flops`].
    #[must_use]
    pub fn total_flops(&self) -> u64 {
        fold8(self.len(), |i| 2 * self.ms[i] * self.ns[i] * self.ks[i])
    }

    /// Total MAC operations across the batch; exactly `Σ`
    /// [`GemmShape::macs`].
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        fold8(self.len(), |i| self.ms[i] * self.ns[i] * self.ks[i])
    }

    /// Total minimum bytes touched across the batch at `elem_bytes`
    /// per element; exactly `Σ` [`GemmShape::min_bytes`].
    #[must_use]
    pub fn total_min_bytes(&self, elem_bytes: usize) -> u64 {
        let eb = elem_bytes as u64;
        fold8(self.len(), |i| {
            let (m, n, k) = (self.ms[i], self.ns[i], self.ks[i]);
            (m * k + k * n + 2 * m * n) * eb
        })
    }

    /// Aggregate arithmetic intensity of the whole batch in FLOPs per
    /// byte: total FLOPs over total minimum traffic (*not* the mean of
    /// per-shape intensities — the aggregate weights big GEMMs the way
    /// the memory system does).
    #[must_use]
    pub fn arithmetic_intensity(&self, elem_bytes: usize) -> f64 {
        let bytes = self.total_min_bytes(elem_bytes);
        if bytes == 0 {
            return 0.0;
        }
        self.total_flops() as f64 / bytes as f64
    }

    /// Per-shape FLOPs, appended to `out` in batch order (the chunked
    /// write-out form of the reduction kernels, for callers that need
    /// the distribution rather than the total).
    pub fn flops_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.len());
        let mut i = 0;
        while i + 8 <= self.len() {
            let lane: [u64; 8] =
                std::array::from_fn(|l| 2 * self.ms[i + l] * self.ns[i + l] * self.ks[i + l]);
            out.extend_from_slice(&lane);
            i += 8;
        }
        while i < self.len() {
            out.push(2 * self.ms[i] * self.ns[i] * self.ks[i]);
            i += 1;
        }
    }
}

fn check_shapes<T: Scalar>(
    op: &'static str,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<GemmShape, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(GemmShape::new(a.rows(), b.cols(), a.cols()))
}

/// Plain `C = A·B` via the naive triple loop.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use sma_tensor::{gemm, Matrix};
/// # fn main() -> Result<(), sma_tensor::TensorError> {
/// let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32);
/// let c = gemm::reference(&a, &Matrix::identity(2))?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
pub fn reference<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>, TensorError> {
    let shape = check_shapes("gemm::reference", a, b)?;
    let mut c = Matrix::zeros(shape.m, shape.n);
    gemm_into(T::ONE, a, b, T::ZERO, &mut c)?;
    Ok(c)
}

/// Full `C = α·A·B + β·C`, accumulating into an existing `C`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree
/// or `C` has the wrong shape.
pub fn gemm_into<T: Scalar>(
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) -> Result<(), TensorError> {
    let shape = check_shapes("gemm::gemm_into", a, b)?;
    if c.shape() != (shape.m, shape.n) {
        return Err(TensorError::ShapeMismatch {
            op: "gemm::gemm_into (C)",
            lhs: c.shape(),
            rhs: (shape.m, shape.n),
        });
    }
    // i-k-j loop order: streams B rows, which is the cache-friendly order
    // for row-major storage.
    for i in 0..shape.m {
        for j in 0..shape.n {
            c[(i, j)] = beta * c[(i, j)];
        }
        for kk in 0..shape.k {
            let aik = alpha * a[(i, kk)];
            let brow = b.row(kk);
            for j in 0..shape.n {
                c[(i, j)] += aik * brow[j];
            }
        }
    }
    Ok(())
}

/// Cache-blocked `C = A·B` used by the larger verification runs.
///
/// Identical results to [`fn@reference`] for exact scalar types; for floats the
/// summation order differs, so compare with a tolerance.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
pub fn blocked<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    block: usize,
) -> Result<Matrix<T>, TensorError> {
    let shape = check_shapes("gemm::blocked", a, b)?;
    if block == 0 {
        return Err(TensorError::InvalidDimension {
            what: "block",
            value: 0,
        });
    }
    let mut c: Matrix<T> = Matrix::zeros(shape.m, shape.n);
    for i0 in (0..shape.m).step_by(block) {
        for k0 in (0..shape.k).step_by(block) {
            for j0 in (0..shape.n).step_by(block) {
                let imax = (i0 + block).min(shape.m);
                let kmax = (k0 + block).min(shape.k);
                let jmax = (j0 + block).min(shape.n);
                for i in i0..imax {
                    for kk in k0..kmax {
                        let aik = a[(i, kk)];
                        for j in j0..jmax {
                            c[(i, j)] += aik * b[(kk, j)];
                        }
                    }
                }
            }
        }
    }
    Ok(c)
}

/// GEMM computed entirely in FP16 storage with FP32 accumulation —
/// the TensorCore / SMA-FP16 numeric contract (paper §IV-A).
///
/// `A` and `B` are quantised to binary16 before the multiply; products
/// accumulate in `f32`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
pub fn mixed_precision_f16(a: &Matrix<f32>, b: &Matrix<f32>) -> Result<Matrix<f32>, TensorError> {
    use crate::f16::F16;
    let shape = check_shapes("gemm::mixed_precision_f16", a, b)?;
    // Quantise whole operand panels through the 8-wide slice kernel
    // (bit-identical to an elementwise map; see `F16::quantize_slice`).
    let mut ah_data = Vec::new();
    F16::quantize_slice(a.as_slice(), &mut ah_data);
    let ah = Matrix::from_vec(shape.m, shape.k, ah_data)?;
    let mut bh_data = Vec::new();
    F16::quantize_slice(b.as_slice(), &mut bh_data);
    let bh = Matrix::from_vec(shape.k, shape.n, bh_data)?;
    let mut c = Matrix::zeros(shape.m, shape.n);
    for i in 0..shape.m {
        for j in 0..shape.n {
            let mut acc = 0.0f32;
            for kk in 0..shape.k {
                acc += ah[(i, kk)].to_f32() * bh[(kk, j)].to_f32();
            }
            c[(i, j)] = acc;
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    fn small_pair() -> (Matrix<f32>, Matrix<f32>) {
        let a = Matrix::from_fn(4, 6, |r, c| (r as f32) - 0.5 * (c as f32));
        let b = Matrix::from_fn(6, 5, |r, c| 0.25 * (r as f32) + (c as f32));
        (a, b)
    }

    #[test]
    fn identity_is_noop() {
        let (a, _) = small_pair();
        let c = reference(&a, &Matrix::identity(6)).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(4, 2);
        assert!(matches!(
            reference(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn blocked_matches_reference() {
        let (a, b) = small_pair();
        let c1 = reference(&a, &b).unwrap();
        for block in [1, 2, 3, 7, 64] {
            let c2 = blocked(&a, &b, block).unwrap();
            assert!(c1.approx_eq(&c2, 1e-4), "block={block}");
        }
    }

    #[test]
    fn blocked_rejects_zero_block() {
        let (a, b) = small_pair();
        assert!(matches!(
            blocked(&a, &b, 0),
            Err(TensorError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn gemm_into_alpha_beta() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f32 + 1.0);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_fn(2, 2, |_, _| 10.0f32);
        gemm_into(2.0, &a, &b, 0.5, &mut c).unwrap();
        // C = 2*A + 0.5*10
        assert_eq!(c[(0, 0)], 2.0 * 1.0 + 5.0);
        assert_eq!(c[(1, 1)], 2.0 * 4.0 + 5.0);
    }

    #[test]
    fn integer_gemm_is_exact() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as i32);
        let b = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as i32);
        let c = reference(&a, &b).unwrap();
        // Manually verified entry: c[0][0] = 0*0 + 1*3 + 2*6 = 15.
        assert_eq!(c[(0, 0)], 15);
    }

    #[test]
    fn mixed_precision_close_to_f32() {
        let a = Matrix::random(16, 16, 1);
        let b = Matrix::random(16, 16, 2);
        let exact = reference(&a, &b).unwrap();
        let mixed = mixed_precision_f16(&a, &b).unwrap();
        // Inputs are in [-1,1); k=16 keeps the FP16 quantisation error tiny.
        assert!(exact.approx_eq(&mixed, 2e-2));
    }

    fn odd_shapes(count: usize) -> Vec<GemmShape> {
        // Deliberately not a multiple of 8 unless asked; irregular
        // dimensions exercise both the lanes and the remainder.
        (0..count)
            .map(|i| GemmShape::new(3 * i + 1, 2 * i + 5, i % 7 + 1))
            .collect()
    }

    #[test]
    fn shape_batch_matches_scalar_accessors_exactly() {
        for count in [0usize, 1, 7, 8, 9, 23, 64] {
            let shapes = odd_shapes(count);
            let batch = GemmShapeBatch::from_shapes(&shapes);
            assert_eq!(batch.len(), count);
            assert_eq!(batch.is_empty(), count == 0);
            assert_eq!(
                batch.total_flops(),
                shapes.iter().map(GemmShape::flops).sum::<u64>(),
                "count {count}"
            );
            assert_eq!(
                batch.total_macs(),
                shapes.iter().map(GemmShape::macs).sum::<u64>()
            );
            for eb in [2usize, 4] {
                assert_eq!(
                    batch.total_min_bytes(eb),
                    shapes.iter().map(|s| s.min_bytes(eb)).sum::<u64>()
                );
            }
            let mut per_shape = Vec::new();
            batch.flops_into(&mut per_shape);
            assert_eq!(
                per_shape,
                shapes.iter().map(GemmShape::flops).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn shape_batch_stacking_matches_im2col_rule() {
        let shapes = odd_shapes(11);
        let batch = GemmShapeBatch::from_shapes(&shapes);
        let stacked = batch.stacked(16);
        let scalar: Vec<GemmShape> = shapes
            .iter()
            .map(|s| GemmShape::new(s.m * 16, s.n, s.k))
            .collect();
        assert_eq!(stacked, GemmShapeBatch::from_shapes(&scalar));
        // Batch 0 clamps to 1, like the executor builder.
        assert_eq!(batch.stacked(0), batch.stacked(1));
    }

    #[test]
    fn shape_batch_intensity_is_aggregate() {
        let shapes = odd_shapes(9);
        let batch = GemmShapeBatch::from_shapes(&shapes);
        let flops: u64 = shapes.iter().map(GemmShape::flops).sum();
        let bytes: u64 = shapes.iter().map(|s| s.min_bytes(2)).sum();
        assert_eq!(batch.arithmetic_intensity(2), flops as f64 / bytes as f64);
        assert_eq!(GemmShapeBatch::new().arithmetic_intensity(2), 0.0);
        let mut grown = GemmShapeBatch::with_capacity(4);
        grown.push(GemmShape::square(8));
        assert_eq!(grown.total_flops(), GemmShape::square(8).flops());
    }

    #[test]
    fn shape_helpers() {
        let s = GemmShape::square(256);
        assert_eq!(s.m, 256);
        assert_eq!(s.flops(), 2 * 256u64.pow(3));
        assert_eq!(s.macs(), 256u64.pow(3));
        assert!(s.arithmetic_intensity(4) > 1.0);
        assert_eq!(s.to_string(), "256x256x256");
    }
}
