//! Dense linear algebra for the MFCP workspace.
//!
//! The MFCP pipeline needs a small dense-matrix toolkit:
//!
//! * [`Matrix`] — a row-major `f64` matrix with the usual constructors,
//!   arithmetic, and a cache-blocked, thread-parallel matrix multiply
//!   (used by the autodiff engine and the neural nets).
//! * [`qr::Qr`] — Householder QR and least-squares solves (the `fig2`
//!   bench's closed-form fit).
//! * [`vector`] — free functions on `&[f64]` slices (dot, norms, softmax,
//!   log-sum-exp) shared by the optimizer and the neural nets.
//!
//! Everything is `f64`. The matching layer's only linear systems are its
//! `r×r` price systems (`r` is a few per cluster), which `mfcp-optim`
//! eliminates in place; no factorization of a larger system lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Triangular-solve and factorization kernels read clearest in index form.
#![allow(clippy::needless_range_loop)]

mod error;
mod matrix;
mod ops;

pub mod qr;
pub mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use ops::MatmulOptions;

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
