#include "grid/matrix.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace psse::grid {

namespace {
void check(bool cond, const char* msg) {
  if (!cond) throw LinAlgError(msg);
}
}  // namespace

Vector& Vector::operator+=(const Vector& rhs) {
  check(size() == rhs.size(), "Vector+: size mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  check(size() == rhs.size(), "Vector-: size mismatch");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double k) {
  for (double& v : data_) v *= k;
  return *this;
}

double Vector::norm2() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Vector::dot(const Vector& rhs) const {
  check(size() == rhs.size(), "Vector::dot: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < size(); ++i) sum += data_[i] * rhs.data_[i];
  return sum;
}

double Vector::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  check(cols_ == rhs.rows_, "Matrix*: dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += a * rhs(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::operator*(const Vector& rhs) const {
  check(cols_ == rhs.size(), "Matrix*Vector: dimension mismatch");
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += (*this)(i, j) * rhs[j];
    out[i] = sum;
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  check(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix+: size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  check(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix-: size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

bool Matrix::lu_factor(std::vector<double>& lu,
                       std::vector<std::size_t>& perm) const {
  check(rows_ == cols_, "lu_factor: matrix not square");
  const std::size_t n = rows_;
  lu = data_;
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting.
    std::size_t best = k;
    double bestAbs = std::fabs(lu[perm[k] * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      double a = std::fabs(lu[perm[i] * n + k]);
      if (a > bestAbs) {
        bestAbs = a;
        best = i;
      }
    }
    if (bestAbs < 1e-12) return false;
    std::swap(perm[k], perm[best]);
    const double pivot = lu[perm[k] * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      double factor = lu[perm[i] * n + k] / pivot;
      lu[perm[i] * n + k] = factor;
      for (std::size_t j = k + 1; j < n; ++j) {
        lu[perm[i] * n + j] -= factor * lu[perm[k] * n + j];
      }
    }
  }
  return true;
}

Vector Matrix::lu_solve(const Vector& b) const {
  check(rows_ == b.size(), "lu_solve: rhs size mismatch");
  std::vector<double> lu;
  std::vector<std::size_t> perm;
  if (!lu_factor(lu, perm)) throw LinAlgError("lu_solve: singular matrix");
  const std::size_t n = rows_;
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) sum -= lu[perm[i] * n + j] * y[j];
    y[i] = sum;
  }
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= lu[perm[i] * n + j] * x[j];
    x[i] = sum / lu[perm[i] * n + i];
  }
  return x;
}

Matrix Matrix::lu_solve(const Matrix& b) const {
  check(rows_ == b.rows_, "lu_solve: rhs rows mismatch");
  Matrix out(rows_, b.cols_);
  for (std::size_t c = 0; c < b.cols_; ++c) {
    Vector col(rows_);
    for (std::size_t r = 0; r < rows_; ++r) col[r] = b(r, c);
    Vector x = lu_solve(col);
    for (std::size_t r = 0; r < rows_; ++r) out(r, c) = x[r];
  }
  return out;
}

Matrix Matrix::inverse() const { return lu_solve(identity(rows_)); }

Vector Matrix::cholesky_solve(const Vector& b) const {
  check(rows_ == cols_, "cholesky_solve: matrix not square");
  check(rows_ == b.size(), "cholesky_solve: rhs size mismatch");
  const std::size_t n = rows_;
  // Lower-triangular factor, packed row-major.
  std::vector<double> L(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = (*this)(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= L[i * n + k] * L[j * n + k];
      if (i == j) {
        if (sum <= 0.0) {
          throw LinAlgError("cholesky_solve: matrix not positive definite");
        }
        L[i * n + i] = std::sqrt(sum);
      } else {
        L[i * n + j] = sum / L[j * n + j];
      }
    }
  }
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= L[i * n + k] * y[k];
    y[i] = sum / L[i * n + i];
  }
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= L[k * n + i] * x[k];
    x[i] = sum / L[i * n + i];
  }
  return x;
}

// Observability checks spend most of their time here, and the elimination
// loops run up to a quarter slower when the linker happens to place them
// off a cache-line boundary; pinning the alignment keeps their speed from
// depending on the size of unrelated code.
__attribute__((aligned(64))) std::size_t Matrix::rank(double tol) const {
  std::vector<double> a = data_;
  const std::size_t m = rows_, n = cols_;
  double scale = max_abs();
  if (scale == 0.0) return 0;
  double threshold = tol * scale;
  std::size_t rank = 0;
  std::size_t row = 0;
  for (std::size_t col = 0; col < n && row < m; ++col) {
    // Pivot search in this column.
    std::size_t best = row;
    double bestAbs = std::fabs(a[row * n + col]);
    for (std::size_t i = row + 1; i < m; ++i) {
      double v = std::fabs(a[i * n + col]);
      if (v > bestAbs) {
        bestAbs = v;
        best = i;
      }
    }
    if (bestAbs <= threshold) continue;
    if (best != row) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[row * n + j], a[best * n + j]);
      }
    }
    const double pivot = a[row * n + col];
    for (std::size_t i = row + 1; i < m; ++i) {
      double factor = a[i * n + col] / pivot;
      if (factor == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) {
        a[i * n + j] -= factor * a[row * n + j];
      }
    }
    ++row;
    ++rank;
  }
  return rank;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << (c ? " " : "") << m(r, c);
    }
    os << "\n";
  }
  return os;
}

}  // namespace psse::grid
