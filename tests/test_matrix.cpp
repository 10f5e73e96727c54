#include "core/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"

namespace naas::core {
namespace {

/// The row-order factorization Matrix::cholesky used before it was
/// rewritten column by column, kept here as the bit-for-bit reference:
/// each entry starts from a(r, c) plus the jitter (+ 0.0 off the
/// diagonal) and subtracts l(r, k) * l(c, k) for k = 0, 1, ... in order.
/// `attempts` receives the number of passes (1 means no jitter retry).
Matrix row_order_cholesky(const Matrix& a, int* attempts) {
  const int n = a.rows();
  double jitter = 0.0;
  double diag_max = 1e-12;
  for (int i = 0; i < n; ++i) diag_max = std::max(diag_max, std::abs(a(i, i)));
  for (int attempt = 0; attempt < 16; ++attempt) {
    *attempts = attempt + 1;
    Matrix l(n, n, 0.0);
    bool ok = true;
    for (int r = 0; r < n && ok; ++r) {
      for (int c = 0; c <= r; ++c) {
        double sum = a(r, c) + (r == c ? jitter : 0.0);
        for (int k = 0; k < c; ++k) sum -= l(r, k) * l(c, k);
        if (r == c) {
          if (sum <= 0.0) {
            ok = false;
            break;
          }
          l(r, r) = std::sqrt(sum);
        } else {
          l(r, c) = sum / l(c, c);
        }
      }
    }
    if (ok) return l;
    jitter = (jitter == 0.0) ? diag_max * 1e-10 : jitter * 10.0;
  }
  throw std::runtime_error("row_order_cholesky: matrix is too far from PD");
}

/// The library factorization under test, into a fresh matrix.
Matrix factor(const Matrix& a) {
  Matrix l;
  a.cholesky_into(l);
  return l;
}

/// True when every entry of `a` and `b` has the same bit pattern.
bool same_bits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int r = 0; r < a.rows(); ++r)
    for (int c = 0; c < a.cols(); ++c) {
      const double x = a(r, c), y = b(r, c);
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  return true;
}

/// B * B^T - shift * I for an n x k matrix B of standard normals: SPD when
/// k >= n and shift <= 0; rank-deficient (k < n) or indefinite (shift > 0)
/// otherwise, which is what forces jitter retries.
Matrix gram(Rng& rng, int n, int k, double shift) {
  Matrix b(n, k);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < k; ++c) b(r, c) = rng.normal();
  Matrix a(n, n, 0.0);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c) {
      double acc = 0.0;
      for (int j = 0; j < k; ++j) acc += b(r, j) * b(c, j);
      a(r, c) = acc - (r == c ? shift : 0.0);
    }
  return a;
}

TEST(Matrix, IdentityShapeAndValues) {
  const Matrix id = Matrix::identity(3);
  EXPECT_EQ(id.rows(), 3);
  EXPECT_EQ(id.cols(), 3);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, FillConstructor) {
  const Matrix m(2, 4, 3.5);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m(r, c), 3.5);
}

TEST(Matrix, TransposedSwapsIndices) {
  Matrix m(2, 3, 0.0);
  m(0, 2) = 7.0;
  m(1, 0) = -1.0;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
  EXPECT_DOUBLE_EQ(t(0, 1), -1.0);
}

TEST(Matrix, MultiplyAgainstHandResult) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, CholeskyOfIdentityIsIdentity) {
  const Matrix l = factor(Matrix::identity(4));
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) EXPECT_NEAR(l(r, c), r == c ? 1.0 : 0.0, 1e-12);
}

TEST(Matrix, CholeskyReconstructsSpdMatrix) {
  Matrix m(3, 3, 0.0);
  // SPD matrix built as A^T A + I.
  m(0, 0) = 4; m(0, 1) = 2; m(0, 2) = 0.5;
  m(1, 0) = 2; m(1, 1) = 5; m(1, 2) = 1;
  m(2, 0) = 0.5; m(2, 1) = 1; m(2, 2) = 3;
  const Matrix l = factor(m);
  const Matrix back = l.multiply(l.transposed());
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_NEAR(back(r, c), m(r, c), 1e-9);
}

TEST(Matrix, CholeskyLowerTriangular) {
  Matrix m = Matrix::identity(3);
  m(0, 1) = m(1, 0) = 0.5;
  const Matrix l = factor(m);
  EXPECT_NEAR(l(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(l(0, 2), 0.0, 1e-12);
  EXPECT_NEAR(l(1, 2), 0.0, 1e-12);
}

TEST(Matrix, CholeskyJittersNearSingular) {
  // Rank-deficient covariance: jitter must make it factorizable.
  const Matrix m(2, 2, 1.0);  // rank one
  const Matrix l = factor(m);
  EXPECT_GT(l(0, 0), 0.0);
  EXPECT_GT(l(1, 1), 0.0);
}

TEST(Matrix, CholeskyMatchesRowOrderReference) {
  // The factorization is rewritten for speed, never for different bits:
  // on well-conditioned, rank-deficient and slightly indefinite matrices
  // it must reproduce the row-order reference entry for entry, including
  // the jitter retries that rescue the degenerate ones.
  Rng rng(77);
  int max_attempts = 1;
  int retried = 0;
  for (int n = 1; n <= 32; ++n) {
    // Refactoring into one matrix, as CmaEs does every generation: stale
    // entries (from the previous case, or from a failed jitter pass) must
    // never leak into the result.
    Matrix reused(n, n, 7.0);
    for (int trial = 0; trial < 4; ++trial) {
      // Sparse SPD with signed zeros: the reference turns a -0.0 input
      // into +0.0 (a(r, c) + 0.0), and the factor must keep that sign.
      Matrix sparse = Matrix::identity(n);
      for (int r = 0; r < n; ++r)
        for (int c = 0; c < r; ++c)
          sparse(r, c) = sparse(c, r) =
              (r * 13 + c * 7 + trial) % 5 == 0
                  ? 0.3 / n
                  : ((r * 31 + c * 17 + trial) % 7 < 3 ? -0.0 : 0.0);
      std::vector<Matrix> cases = {gram(rng, n, n + 2, -0.01 * trial),
                                   sparse};
      if (n >= 2) {
        cases.push_back(gram(rng, n, n - 1, 0.0));
        cases.push_back(
            gram(rng, n, n / 2 + 1, 1e-12 * std::pow(10.0, trial)));
      }
      for (const Matrix& a : cases) {
        int attempts = 0;
        const Matrix ref = row_order_cholesky(a, &attempts);
        EXPECT_TRUE(same_bits(factor(a), ref))
            << "n=" << n << " trial=" << trial << " attempts=" << attempts;
        a.cholesky_into(reused);
        EXPECT_TRUE(same_bits(reused, ref))
            << "reused n=" << n << " trial=" << trial;
        max_attempts = std::max(max_attempts, attempts);
        retried += attempts > 1;
      }
    }
  }
  // The sample must exercise the retry sequence, not only first passes.
  EXPECT_GE(max_attempts, 3);
  EXPECT_GE(retried, 20);
}

TEST(Matrix, CholeskyThrowsWhenFarFromPositiveDefinite) {
  // Jitter tops out at 1e4 x the largest diagonal entry, far short of
  // what this off-diagonal coupling needs.
  Matrix m = Matrix::identity(2);
  m(0, 1) = m(1, 0) = 1e6;
  EXPECT_THROW(factor(m), std::runtime_error);
}

TEST(Matrix, SymmetrizeAveragesOffDiagonal) {
  Matrix m(2, 2, 0.0);
  m(0, 1) = 1.0;
  m(1, 0) = 3.0;
  m.symmetrize();
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 2.0);
}

TEST(Matrix, MaxAbs) {
  Matrix m(2, 2, 0.0);
  m(1, 0) = -5.0;
  m(0, 1) = 3.0;
  EXPECT_DOUBLE_EQ(m.max_abs(), 5.0);
  EXPECT_DOUBLE_EQ(Matrix().max_abs(), 0.0);
}

}  // namespace
}  // namespace naas::core
