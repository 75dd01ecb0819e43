//! # cc-linalg
//!
//! Dense linear-algebra substrate for the conformance-constraint stack.
//!
//! The paper's synthesis procedure (Fariha et al., SIGMOD 2021, Algorithm 1)
//! needs exactly four numeric capabilities, all provided here **without any
//! external linear-algebra dependency**:
//!
//! 1. [`Matrix`] — a dense, row-major `f64` matrix with the usual products.
//! 2. [`Gram`] — the Gram matrix `XᵀX` accumulated **one tuple at a time**
//!    (O(m²) memory, §4.3.2 of the paper) or in parallel over row partitions
//!    ([`gram::gram_parallel`]).
//! 3. [`eigen::symmetric_eigen`] — a cyclic Jacobi eigensolver for symmetric
//!    matrices, returning all eigenpairs (the paper's complexity argument
//!    assumes an O(m³) eigensolver; Jacobi is O(m³) per sweep with a small
//!    number of sweeps in practice).
//! 4. [`solve`] — Cholesky and partial-pivoting LU solvers used by the ML
//!    substrate (ordinary least squares) and the SPLL baseline
//!    (Mahalanobis distances).
//!
//! [`pca`](mod@pca) composes 2 and 3 into principal component analysis, including the
//! *augmented* variant `[1⃗ ; D]` that Algorithm 1 uses to absorb additive
//! constants into the eigenvectors.

pub mod eigen;
pub mod gram;
pub mod matrix;
pub mod pca;
pub mod solve;
pub mod stats;
pub mod vector;

pub use eigen::{symmetric_eigen, EigenDecomposition};
pub use gram::Gram;
pub use matrix::Matrix;
pub use pca::{augmented_pca, pca, PrincipalComponents};
pub use stats::{SufficientStats, BLOCK_ROWS};

/// Tolerance used across the crate when deciding that a floating-point value
/// is "numerically zero" (e.g. a zero eigenvalue, a zero pivot).
pub const EPS: f64 = 1e-12;

/// Returns `true` when `a` and `b` are equal up to `tol`, treating the pair
/// as relative for large magnitudes and absolute near zero.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}
