//! Dense row-major matrix used by every simulator in the workspace.

use crate::scalar::Scalar;
use crate::TensorError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix.
///
/// All simulator data (GEMM operands, feature maps lowered through im2col,
/// CRF potentials, …) flows through this type. It is deliberately simple:
/// owned storage, row-major, no strides — the memory-system models reason
/// about addresses themselves and only need a canonical layout to agree on.
///
/// # Example
///
/// ```
/// use sma_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| (2 * r + c) as f32);
/// assert_eq!(m[(1, 0)], 2.0);
/// assert_eq!(m.shape(), (2, 2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T = f32> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a matrix of zeros.
    ///
    /// # Example
    ///
    /// ```
    /// # use sma_tensor::Matrix;
    /// let z: Matrix<f32> = Matrix::zeros(2, 3);
    /// assert_eq!(z.rows(), 2);
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::DataLength {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrows the underlying row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Returns the element at `(row, col)`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<&T> {
        if row < self.rows && col < self.cols {
            Some(&self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Borrows one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[must_use]
    pub(crate) fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies the `rows`×`cols` block whose top-left corner is
    /// `(row0, col0)`, zero-padding any part that falls outside `self`.
    ///
    /// Tile extraction with implicit zero padding is exactly what the GEMM
    /// mappers do at matrix edges, so the behaviour lives here once.
    #[must_use]
    pub fn block_padded(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Self {
        Matrix::from_fn(rows, cols, |r, c| {
            self.get(row0 + r, col0 + c).copied().unwrap_or(T::ZERO)
        })
    }

    /// Adds `block` into `self` at offset `(row0, col0)`, ignoring any part
    /// of the block that falls outside `self` (the inverse of the zero
    /// padding in [`Matrix::block_padded`]).
    pub fn accumulate_block(&mut self, row0: usize, col0: usize, block: &Matrix<T>) {
        for r in 0..block.rows {
            if row0 + r >= self.rows {
                break;
            }
            for c in 0..block.cols {
                if col0 + c >= self.cols {
                    break;
                }
                self[(row0 + r, col0 + c)] += block[(r, c)];
            }
        }
    }

    /// Element-wise maximum absolute difference against another matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a.abs_diff(b))
            .fold(0.0, f64::max)
    }

    /// Returns `true` if every element differs from `other` by at most
    /// `tol` (in absolute `f64` terms).
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix<T>, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// Maps every element through `f`, producing a matrix of a possibly
    /// different scalar type (e.g. FP32 → FP16 quantisation).
    #[must_use]
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Fills the matrix with values from a deterministic pseudo-random
    /// sequence in `[-1, 1)`, seeded by `seed`.
    ///
    /// This is a tiny xorshift generator rather than `rand` so that the
    /// library crate itself stays dependency-free; workloads that need
    /// statistically better data use `rand` in their own crates.
    #[must_use]
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Map the top 24 bits to [-1, 1).
            let v = ((state >> 40) as f64 / (1u64 << 23) as f64) - 1.0;
            T::from_f64(v)
        })
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (row, col): (usize, usize)) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }
}

impl<T: Scalar> fmt::Display for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                write!(f, "{:?} ", self[(r, c)])?;
            }
            if self.cols > show_cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ⋮")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    // Exact float equality in these tests asserts bit-reproducibility
    // of exactly-representable values; an epsilon would weaken them.
    #![allow(clippy::float_cmp)]

    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z: Matrix<f32> = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i: Matrix<f32> = Matrix::from_fn(3, 3, |r, c| f32::from(u8::from(r == c)));
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_checks_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0f32; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::DataLength {
                expected: 4,
                actual: 3
            }
        );
        assert!(Matrix::from_vec(2, 2, vec![1.0f32; 4]).is_ok());
    }

    #[test]
    fn block_padded_zero_pads_outside() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c + 1) as f32);
        let b = m.block_padded(2, 2, 2, 2);
        assert_eq!(b[(0, 0)], 9.0);
        assert_eq!(b[(0, 1)], 0.0);
        assert_eq!(b[(1, 0)], 0.0);
        assert_eq!(b[(1, 1)], 0.0);
    }

    #[test]
    fn accumulate_block_clips() {
        let mut m: Matrix<f32> = Matrix::zeros(2, 2);
        let block = Matrix::from_fn(3, 3, |_, _| 1.0);
        m.accumulate_block(1, 1, &block);
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a: Matrix<f32> = Matrix::random(4, 4, 42);
        let b: Matrix<f32> = Matrix::random(4, 4, 42);
        let c: Matrix<f32> = Matrix::random(4, 4, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0f32);
        let mut b = a.clone();
        b[(1, 1)] = 1.25;
        assert_eq!(a.max_abs_diff(&b), 0.25);
        assert!(a.approx_eq(&b, 0.25));
        assert!(!a.approx_eq(&b, 0.1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m: Matrix<f32> = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn map_changes_type() {
        use crate::F16;
        let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let h: Matrix<F16> = m.map(F16::from_f32);
        assert_eq!(h[(1, 1)].to_f32(), 2.0);
    }
}
