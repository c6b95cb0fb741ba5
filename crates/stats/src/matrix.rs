//! A small dense matrix with a Gaussian-elimination solver.
//!
//! This is the only piece of linear algebra the reproduction needs: the
//! normal equations of polynomial least squares (Fig. 5's quadratic trend
//! curves) reduce to solving a tiny symmetric positive-definite system, and
//! partial-pivoted Gaussian elimination is more than adequate at degree ≤ 4.

use crate::{Result, StatsError};

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Solves the square system `self * x = rhs` by Gaussian elimination with
    /// partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Singular`] when a pivot collapses below
    /// `1e-12` (rank-deficient system) and [`StatsError::LengthMismatch`]
    /// when `rhs` does not match the row count. The matrix must be square;
    /// a non-square matrix yields [`StatsError::Singular`] as well since no
    /// unique solution exists.
    pub fn solve(&self, rhs: &[f64]) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(StatsError::Singular);
        }
        if rhs.len() != self.rows {
            return Err(StatsError::LengthMismatch {
                xs: self.rows,
                ys: rhs.len(),
            });
        }
        let n = self.rows;
        // Augmented working copy.
        let mut a = self.data.clone();
        let mut b = rhs.to_vec();

        for col in 0..n {
            // Partial pivot: find the largest |a[r][col]| for r >= col.
            #[expect(
                clippy::expect_used,
                reason = "col < n, so the range col..n is never empty"
            )]
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| a[r1 * n + col].abs().total_cmp(&a[r2 * n + col].abs()))
                .expect("non-empty pivot range");
            if a[pivot_row * n + col].abs() < 1e-12 {
                return Err(StatsError::Singular);
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                b.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                // lint:allow(float-hygiene): exact-zero skip is purely an optimization; any nonzero factor must eliminate
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                // lint:allow(determinism): Gaussian elimination is inherently sequential; row order is fixed by the algorithm, never by thread count
                b[row] -= factor * b[col];
            }
        }

        // Back substitution.
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for k in (row + 1)..n {
                // lint:allow(determinism): back substitution walks columns in a fixed order; the accumulation is never chunked
                acc -= a[row * n + k] * x[k];
            }
            x[row] = acc / a[row * n + row];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let m = Matrix::from_rows(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let x = m.solve(&[3.0, -4.0]).unwrap();
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2_system() {
        // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
        let m = Matrix::from_rows(2, 2, &[2.0, 1.0, 1.0, -1.0]);
        let x = m.solve(&[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solves_3x3_requiring_pivot() {
        // First pivot is zero, forcing a row swap.
        let m = Matrix::from_rows(3, 3, &[0.0, 1.0, 1.0, 2.0, 0.0, 1.0, 1.0, 1.0, 0.0]);
        // Solution x = (1, 2, 3): rhs = (5, 5, 3).
        let x = m.solve(&[5.0, 5.0, 3.0]).unwrap();
        for (got, want) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-10, "got {got}, want {want}");
        }
    }

    #[test]
    fn reports_singular() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert_eq!(m.solve(&[1.0, 2.0]), Err(StatsError::Singular));
    }

    #[test]
    fn rejects_rhs_mismatch() {
        let m = Matrix::zeros(2, 2);
        assert!(matches!(
            m.solve(&[1.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "dimensions must be non-zero")]
    fn zero_dimension_panics() {
        let _ = Matrix::zeros(0, 3);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 9.5);
        assert_eq!(m.get(1, 2), 9.5);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }
}
