#include "calib/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace tsvpt::calib {

Matrix cholesky(const Matrix& a, double max_jitter) {
  if (a.rows() != a.cols()) throw std::invalid_argument{"cholesky: not square"};
  const std::size_t n = a.rows();
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
  const double scale = n == 0 ? 1.0 : trace / static_cast<double>(n);

  double jitter = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    Matrix l{n, n};
    bool ok = true;
    for (std::size_t i = 0; i < n && ok; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = a(i, j) + (i == j ? jitter : 0.0);
        for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
        if (i == j) {
          if (sum <= 0.0) {
            ok = false;
            break;
          }
          l(i, i) = std::sqrt(sum);
        } else {
          l(i, j) = sum / l(j, j);
        }
      }
    }
    if (ok) return l;
    jitter = jitter == 0.0 ? scale * 1e-12 : jitter * 10.0;
    if (jitter > scale * max_jitter) break;
  }
  throw std::runtime_error{"cholesky: matrix not positive definite"};
}

Vector lu_solve(Matrix a, Vector b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw std::invalid_argument{"lu_solve shape"};
  }
  // Doolittle LU with partial pivoting, in place.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > best) {
        best = std::abs(a(r, col));
        pivot = r;
      }
    }
    if (best == 0.0) throw std::runtime_error{"lu_solve: singular matrix"};
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      a(r, col) = factor;
      for (std::size_t c = col + 1; c < n; ++c) {
        a(r, c) -= factor * a(col, c);
      }
      b[r] -= factor * b[col];
    }
  }
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) sum -= a(ii, c) * x[c];
    x[ii] = sum / a(ii, ii);
  }
  return x;
}

Vector qr_least_squares(Matrix a, Vector b) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) throw std::invalid_argument{"qr_least_squares: underdetermined"};
  if (b.size() != m) throw std::invalid_argument{"qr_least_squares shape"};

  // Householder QR applied simultaneously to A and b.
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += a(i, k) * a(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) throw std::runtime_error{"qr: rank-deficient column"};
    const double alpha = a(k, k) >= 0.0 ? -norm : norm;
    // v = x - alpha e1 (stored in column k, rows k..m-1)
    std::vector<double> v(m - k);
    v[0] = a(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = a(i, k);
    double vtv = 0.0;
    for (double val : v) vtv += val * val;
    if (vtv == 0.0) continue;
    // Apply H = I - 2 v vᵀ / vᵀv to remaining columns and b.
    for (std::size_t c = k; c < n; ++c) {
      double proj = 0.0;
      for (std::size_t i = k; i < m; ++i) proj += v[i - k] * a(i, c);
      proj = 2.0 * proj / vtv;
      for (std::size_t i = k; i < m; ++i) a(i, c) -= proj * v[i - k];
    }
    double proj = 0.0;
    for (std::size_t i = k; i < m; ++i) proj += v[i - k] * b[i];
    proj = 2.0 * proj / vtv;
    for (std::size_t i = k; i < m; ++i) b[i] -= proj * v[i - k];
    a(k, k) = alpha;  // clean up numerical residue on the diagonal
  }

  Vector x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) sum -= a(ii, c) * x[c];
    if (a(ii, ii) == 0.0) throw std::runtime_error{"qr: singular R"};
    x[ii] = sum / a(ii, ii);
  }
  return x;
}

Matrix inverse(const Matrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument{"inverse: not square"};
  Matrix inv{n, n};
  for (std::size_t c = 0; c < n; ++c) {
    Vector e(n, 0.0);
    e[c] = 1.0;
    const Vector col = lu_solve(a, e);
    for (std::size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

double condition_estimate(const Matrix& a, int iterations) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument{"condition_estimate: not square"};
  }
  const std::size_t n = a.rows();
  if (n == 0) return 1.0;
  const Matrix ata = a.transposed() * a;
  // Power iteration for the largest eigenvalue of AᵀA.
  Vector v(n, 1.0);
  double lambda_max = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Vector w = ata * v;
    const double nw = norm2(w);
    if (nw == 0.0) return std::numeric_limits<double>::infinity();
    v = (1.0 / nw) * w;
    lambda_max = nw;
  }
  // Inverse power iteration for the smallest eigenvalue.
  Vector u(n, 1.0);
  double inv_growth = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Vector w = lu_solve(ata, u);
    const double nw = norm2(w);
    if (nw == 0.0) return std::numeric_limits<double>::infinity();
    u = (1.0 / nw) * w;
    inv_growth = nw;
  }
  const double lambda_min = 1.0 / inv_growth;
  return std::sqrt(lambda_max / lambda_min);
}

}  // namespace tsvpt::calib
