#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace naas::core {

/// Small dense row-major matrix of doubles.
///
/// Sized for optimizer internals (CMA-ES covariance matrices of a few dozen
/// dimensions), not for large numerical workloads: all operations are simple
/// O(n^2)/O(n^3) loops with no blocking. Indices are checked in debug builds
/// via assert.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, double fill = 0.0);

  /// Identity matrix of size n x n.
  static Matrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c);
  double operator()(int r, int c) const;

  /// Row `r` as cols() contiguous entries, for inner loops that walk a row
  /// without per-entry index arithmetic.
  double* row(int r) { return data_.data() + offset(r); }
  const double* row(int r) const { return data_.data() + offset(r); }

  /// Returns the transpose.
  Matrix transposed() const;

  /// Matrix product this * other.
  Matrix multiply(const Matrix& other) const;

  /// Cholesky factorization of a symmetric positive-definite matrix into
  /// `l` (reshaped to n x n only when its shape differs, so a caller that
  /// refactors every step reuses one allocation): lower-triangular with
  /// L * L^T == *this and an all-zero strict upper triangle. Reads only the
  /// lower triangle of *this. If the matrix is not positive definite, a
  /// small diagonal jitter is added (repeatedly, up to a cap) until the
  /// factorization succeeds; this keeps optimizers running in the face of
  /// numerically degenerate covariance estimates. Throws
  /// std::runtime_error, leaving `l` unspecified, when no jitter helps.
  /// `l` must not be *this.
  void cholesky_into(Matrix& l) const;

  /// Enforces exact symmetry by averaging with the transpose.
  void symmetrize();

  /// Maximum absolute entry (0 for an empty matrix).
  double max_abs() const;

 private:
  std::size_t offset(int r) const {
    assert(r >= 0 && r < rows_);
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

}  // namespace naas::core
