//! Explicit distance-matrix metric — the fully general "any metric space"
//! oracle, for metrics with no coordinate structure at all.

use crate::point::PointId;
use crate::space::MetricSpace;

/// A metric given by an explicit `n × n` distance matrix.
///
/// Stores the full matrix (not just the upper triangle) so lookups are a
/// single multiply-add; construction validates symmetry and zero diagonal
/// and optionally the triangle inequality.
#[derive(Debug, Clone)]
pub struct MatrixSpace {
    d: Vec<f64>,
    n: usize,
}

/// Construction-time validation failures for [`MatrixSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSpaceError {
    /// The flat buffer is not `n * n` long.
    BadShape { expected: usize, got: usize },
    /// `d[i][i] != 0` for some `i`.
    NonZeroDiagonal(usize),
    /// `d[i][j] != d[j][i]` for some pair.
    Asymmetric(usize, usize),
    /// Some entry is negative or non-finite.
    InvalidEntry(usize, usize),
    /// `d[i][k] > d[i][j] + d[j][k]` for some triple (only checked by
    /// [`MatrixSpace::new_checked`]).
    TriangleViolation(usize, usize, usize),
}

impl std::fmt::Display for MatrixSpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadShape { expected, got } => {
                write!(f, "matrix buffer has {got} entries, expected {expected}")
            }
            Self::NonZeroDiagonal(i) => write!(f, "d[{i}][{i}] is not zero"),
            Self::Asymmetric(i, j) => write!(f, "d[{i}][{j}] != d[{j}][{i}]"),
            Self::InvalidEntry(i, j) => write!(f, "d[{i}][{j}] is negative or non-finite"),
            Self::TriangleViolation(i, j, k) => {
                write!(f, "triangle inequality violated on ({i}, {j}, {k})")
            }
        }
    }
}

impl std::error::Error for MatrixSpaceError {}

impl MatrixSpace {
    /// Builds from a flat row-major `n × n` matrix, validating shape,
    /// symmetry, zero diagonal, and entry sanity (O(n²)).
    pub fn new(n: usize, d: Vec<f64>) -> Result<Self, MatrixSpaceError> {
        if d.len() != n * n {
            return Err(MatrixSpaceError::BadShape {
                expected: n * n,
                got: d.len(),
            });
        }
        for i in 0..n {
            if d[i * n + i] != 0.0 {
                return Err(MatrixSpaceError::NonZeroDiagonal(i));
            }
            for j in 0..n {
                let v = d[i * n + j];
                if !v.is_finite() || v < 0.0 {
                    return Err(MatrixSpaceError::InvalidEntry(i, j));
                }
                if v != d[j * n + i] {
                    return Err(MatrixSpaceError::Asymmetric(i, j));
                }
            }
        }
        Ok(Self { d, n })
    }

    /// Like [`MatrixSpace::new`] but additionally verifies the triangle
    /// inequality over all triples (O(n³); intended for tests and small
    /// hand-built metrics).
    pub fn new_checked(n: usize, d: Vec<f64>) -> Result<Self, MatrixSpaceError> {
        let m = Self::new(n, d)?;
        const EPS: f64 = 1e-9;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if m.d[i * n + k] > m.d[i * n + j] + m.d[j * n + k] + EPS {
                        return Err(MatrixSpaceError::TriangleViolation(i, j, k));
                    }
                }
            }
        }
        Ok(m)
    }

    /// Builds the matrix by evaluating `f` on every ordered pair with
    /// `f(i,i) = 0` enforced; `f` must be symmetric.
    pub fn from_fn(
        n: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Result<Self, MatrixSpaceError> {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = f(i, j);
                d[i * n + j] = v;
                d[j * n + i] = v;
            }
        }
        Self::new(n, d)
    }
}

impl MetricSpace for MatrixSpace {
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn dist(&self, i: PointId, j: PointId) -> f64 {
        self.d[i.idx() * self.n + j.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_matrix_accepted() {
        // Path metric on a 3-path with unit edges: 0 -1- 1 -1- 2.
        let m =
            MatrixSpace::new_checked(3, vec![0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0, 0.0]).unwrap();
        assert_eq!(m.dist(PointId(0), PointId(2)), 2.0);
    }

    #[test]
    fn rejects_asymmetry() {
        let err = MatrixSpace::new(2, vec![0.0, 1.0, 2.0, 0.0]).unwrap_err();
        assert_eq!(err, MatrixSpaceError::Asymmetric(0, 1));
    }

    #[test]
    fn rejects_nonzero_diagonal() {
        let err = MatrixSpace::new(2, vec![1.0, 1.0, 1.0, 0.0]).unwrap_err();
        assert_eq!(err, MatrixSpaceError::NonZeroDiagonal(0));
    }

    #[test]
    fn rejects_triangle_violation() {
        // d(0,2) = 10 > d(0,1) + d(1,2) = 2.
        let err = MatrixSpace::new_checked(3, vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0])
            .unwrap_err();
        assert!(matches!(err, MatrixSpaceError::TriangleViolation(..)));
    }

    #[test]
    fn rejects_bad_shape_and_nan() {
        assert!(matches!(
            MatrixSpace::new(2, vec![0.0; 3]).unwrap_err(),
            MatrixSpaceError::BadShape { .. }
        ));
        assert!(matches!(
            MatrixSpace::new(2, vec![0.0, f64::NAN, f64::NAN, 0.0]).unwrap_err(),
            MatrixSpaceError::InvalidEntry(..)
        ));
    }

    #[test]
    fn from_fn_symmetrizes() {
        let m = MatrixSpace::from_fn(4, |i, j| (i as f64 - j as f64).abs()).unwrap();
        assert_eq!(m.dist(PointId(3), PointId(1)), 2.0);
        assert_eq!(m.dist(PointId(1), PointId(3)), 2.0);
    }
}
