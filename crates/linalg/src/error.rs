//! Error type shared by the linear-algebra routines.

use std::fmt;

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// The matrix must be square for this operation.
    NotSquare {
        /// Actual shape encountered.
        shape: (usize, usize),
    },
    /// A factorization encountered an (numerically) singular matrix.
    Singular {
        /// Pivot column/row where the breakdown occurred.
        pivot: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{} vs rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at {pivot})")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
