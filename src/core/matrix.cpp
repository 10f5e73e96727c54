#include "core/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace naas::core {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            fill) {
  assert(rows >= 0 && cols >= 0);
}

Matrix Matrix::identity(int n) {
  Matrix m(n, n, 0.0);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double& Matrix::operator()(int r, int c) {
  assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

double Matrix::operator()(int r, int c) const {
  assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
               static_cast<std::size_t>(c)];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    for (int k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (int c = 0; c < other.cols_; ++c) out(r, c) += a * other(k, c);
    }
  }
  return out;
}

namespace {

/// One factorization pass with `jitter` added to the diagonal; false at
/// the first non-positive pivot. Column by column: entry (i, j) starts from
/// a(i, j) plus the jitter on the diagonal and plus 0.0 below it (which
/// turns a -0.0 input into +0.0), subtracts l(i, k) * l(j, k) for
/// k = 0, 1, ..., j - 1 in that order and, below the diagonal, divides by
/// l(j, j). That is the textbook row-by-row algorithm's exact operation
/// sequence for every entry, so the factor is bit-identical to it. The
/// gain is latency: the entries of one column read only earlier columns,
/// so four rows' dependency chains of j subtractions run side by side
/// instead of one after another.
bool factor_columns(const Matrix& a, Matrix& l, double jitter) {
  const int n = a.rows();
  for (int j = 0; j < n; ++j) {
    const double* lj = l.row(j);
    double pivot = a(j, j) + jitter;
    for (int k = 0; k < j; ++k) pivot -= lj[k] * lj[k];
    if (pivot <= 0.0) return false;
    const double ljj = std::sqrt(pivot);
    l(j, j) = ljj;
    int i = j + 1;
    for (; i + 4 <= n; i += 4) {
      const double* l0 = l.row(i);
      const double* l1 = l.row(i + 1);
      const double* l2 = l.row(i + 2);
      const double* l3 = l.row(i + 3);
      double s0 = a(i, j) + 0.0;
      double s1 = a(i + 1, j) + 0.0;
      double s2 = a(i + 2, j) + 0.0;
      double s3 = a(i + 3, j) + 0.0;
      for (int k = 0; k < j; ++k) {
        const double v = lj[k];
        s0 -= l0[k] * v;
        s1 -= l1[k] * v;
        s2 -= l2[k] * v;
        s3 -= l3[k] * v;
      }
      l(i, j) = s0 / ljj;
      l(i + 1, j) = s1 / ljj;
      l(i + 2, j) = s2 / ljj;
      l(i + 3, j) = s3 / ljj;
    }
    for (; i < n; ++i) {
      const double* li = l.row(i);
      double s = a(i, j) + 0.0;
      for (int k = 0; k < j; ++k) s -= li[k] * lj[k];
      l(i, j) = s / ljj;
    }
  }
  return true;
}

}  // namespace

void Matrix::cholesky_into(Matrix& l) const {
  assert(rows_ == cols_ && &l != this);
  const int n = rows_;
  if (l.rows_ != n || l.cols_ != n) l = Matrix(n, n, 0.0);
  // Only the strict upper triangle needs clearing: every lower-triangle
  // entry, stale ones from an earlier factor or a failed pass included, is
  // written before it is read.
  for (int r = 0; r < n; ++r) std::fill(l.row(r) + r + 1, l.row(r) + n, 0.0);
  // Scale-aware jitter base: proportional to the largest diagonal entry.
  double diag_max = 1e-12;
  for (int i = 0; i < n; ++i) diag_max = std::max(diag_max, std::abs((*this)(i, i)));
  double jitter = 0.0;
  for (int attempt = 0; attempt < 16; ++attempt) {
    if (factor_columns(*this, l, jitter)) return;
    jitter = (jitter == 0.0) ? diag_max * 1e-10 : jitter * 10.0;
  }
  throw std::runtime_error("Matrix::cholesky_into: matrix is too far from PD");
}

void Matrix::symmetrize() {
  assert(rows_ == cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (const auto& x : data_) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace naas::core
