// Dense factorizations and solvers used by calibration and by the process
// variation sampler.
#pragma once

#include "calib/matrix.hpp"

namespace tsvpt::calib {

/// Lower-triangular Cholesky factor L of a symmetric positive-definite
/// matrix (A = L Lᵀ).  If A is only positive *semi*-definite (as nearly
/// coincident correlation points make it), a diagonal jitter up to
/// `max_jitter` * trace/n is added automatically.  Throws if that fails.
[[nodiscard]] Matrix cholesky(const Matrix& a, double max_jitter = 1e-6);

/// Solve a general square system by LU with partial pivoting.
[[nodiscard]] Vector lu_solve(Matrix a, Vector b);

/// Least-squares solution of an overdetermined system (rows >= cols) via
/// Householder QR.  Minimizes ||A x - b||_2.
[[nodiscard]] Vector qr_least_squares(Matrix a, Vector b);

/// Inverse of a small square matrix (via LU column solves).
[[nodiscard]] Matrix inverse(const Matrix& a);

/// 2-norm condition-number estimate via a few power iterations on AᵀA and
/// its inverse; used to report the conditioning of decoupling matrices.
[[nodiscard]] double condition_estimate(const Matrix& a, int iterations = 50);

}  // namespace tsvpt::calib
