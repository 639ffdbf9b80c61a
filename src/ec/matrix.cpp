#include "ec/matrix.hpp"

#include <stdexcept>

#include "gf/gf256.hpp"

namespace agar::ec {

Matrix::Matrix(std::initializer_list<std::initializer_list<std::uint8_t>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::multiply(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      const std::uint8_t a = at(i, j);
      if (a == 0) continue;
      for (std::size_t k = 0; k < other.cols_; ++k) {
        out.at(i, k) = gf::add(out.at(i, k), gf::mul(a, other.at(j, k)));
      }
    }
  }
  return out;
}

Matrix Matrix::inverted() const {
  if (rows_ != cols_) {
    throw std::invalid_argument("Matrix::inverted: not square");
  }
  const std::size_t n = rows_;
  Matrix work = *this;
  Matrix out = identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot at or below the diagonal.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    if (pivot == n) throw std::domain_error("Matrix::inverted: singular");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(work.at(pivot, j), work.at(col, j));
        std::swap(out.at(pivot, j), out.at(col, j));
      }
    }
    // Scale pivot row to make the diagonal 1.
    const std::uint8_t scale = gf::inv(work.at(col, col));
    if (scale != 1) {
      for (std::size_t j = 0; j < n; ++j) {
        work.at(col, j) = gf::mul(work.at(col, j), scale);
        out.at(col, j) = gf::mul(out.at(col, j), scale);
      }
    }
    // Eliminate the column everywhere else.
    for (std::size_t row = 0; row < n; ++row) {
      if (row == col) continue;
      const std::uint8_t factor = work.at(row, col);
      if (factor == 0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        work.at(row, j) =
            gf::add(work.at(row, j), gf::mul(factor, work.at(col, j)));
        out.at(row, j) =
            gf::add(out.at(row, j), gf::mul(factor, out.at(col, j)));
      }
    }
  }
  return out;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::sub_rows(std::size_t first, std::size_t count) const {
  if (first + count > rows_) {
    throw std::out_of_range("Matrix::sub_rows: range out of bounds");
  }
  Matrix out(count, cols_);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out.at(i, j) = at(first + i, j);
    }
  }
  return out;
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& idx) const {
  Matrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] >= rows_) {
      throw std::out_of_range("Matrix::select_rows: row out of bounds");
    }
    for (std::size_t j = 0; j < cols_; ++j) {
      out.at(i, j) = at(idx[i], j);
    }
  }
  return out;
}

bool Matrix::is_identity() const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      if (at(i, j) != (i == j ? 1 : 0)) return false;
    }
  }
  return true;
}

Matrix cauchy(std::size_t rows, std::size_t cols) {
  if (rows + cols > gf::kFieldSize) {
    throw std::invalid_argument("cauchy: rows + cols must be <= 256");
  }
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto x = static_cast<std::uint8_t>(cols + r);
      const auto y = static_cast<std::uint8_t>(c);
      m.at(r, c) = gf::inv(gf::add(x, y));
    }
  }
  return m;
}

Matrix systematic_cauchy(std::size_t k, std::size_t m) {
  Matrix out(k + m, k);
  for (std::size_t i = 0; i < k; ++i) out.at(i, i) = 1;
  const Matrix c = cauchy(m, k);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t j = 0; j < k; ++j) {
      out.at(k + r, j) = c.at(r, j);
    }
  }
  return out;
}

}  // namespace agar::ec
