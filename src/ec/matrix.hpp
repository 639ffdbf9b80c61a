// Dense matrices over GF(2^8) with just enough linear algebra for
// Reed-Solomon coding: multiplication, Gauss-Jordan inversion, submatrix
// extraction, and the Cauchy construction used to build encoding matrices.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

namespace agar::ec {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  /// Build from a row-major initializer list of rows.
  Matrix(std::initializer_list<std::initializer_list<std::uint8_t>> rows);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::uint8_t at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  std::uint8_t& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r (row-major contiguous storage).
  [[nodiscard]] const std::uint8_t* row(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  bool operator==(const Matrix&) const = default;

  /// this * other. Throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] Matrix multiply(const Matrix& other) const;

  /// Gauss-Jordan inverse. Throws std::domain_error if singular, or
  /// std::invalid_argument if not square.
  [[nodiscard]] Matrix inverted() const;

  /// Identity of the given order.
  [[nodiscard]] static Matrix identity(std::size_t n);

  /// Rows [first, first+count) as a new matrix.
  [[nodiscard]] Matrix sub_rows(std::size_t first, std::size_t count) const;

  /// A new matrix consisting of the given rows (in the given order).
  [[nodiscard]] Matrix select_rows(const std::vector<std::size_t>& idx) const;

  /// True if every square submatrix formed by any `rows()`-choose-k rows is
  /// invertible is NOT checked here; this checks this single matrix.
  [[nodiscard]] bool is_identity() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> data_;
};

/// Cauchy matrix C[i][j] = 1 / (x_i + y_j) with x_i = i + k, y_j = j.
/// Every square submatrix of a Cauchy matrix is invertible, which makes the
/// systematic [I; C] construction MDS by construction.
[[nodiscard]] Matrix cauchy(std::size_t rows, std::size_t cols);

/// Systematic encoding matrix [I; Cauchy] for RS(k, m).
[[nodiscard]] Matrix systematic_cauchy(std::size_t k, std::size_t m);

}  // namespace agar::ec
