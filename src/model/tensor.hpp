#ifndef DISTMCU_MODEL_TENSOR_HPP
#define DISTMCU_MODEL_TENSOR_HPP

#include <span>
#include <vector>

#include "kernels/view.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace distmcu::model {

/// Owning row-major 2-D float tensor. Deliberately minimal: the library
/// only needs matrices (and vectors as 1-row matrices); head dimensions
/// are expressed as column slices, matching how the partitioner splits
/// weights. Element type is float on the host — quantized execution is a
/// separate code path in distmcu::quant.
class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] Bytes bytes(Bytes elem_bytes = 4) const { return size() * elem_bytes; }

  [[nodiscard]] float& at(int r, int c);
  [[nodiscard]] float at(int r, int c) const;

  [[nodiscard]] std::span<float> span() { return data_; }
  [[nodiscard]] std::span<const float> span() const { return data_; }
  [[nodiscard]] std::span<float> row(int r);
  [[nodiscard]] std::span<const float> row(int r) const;

  /// Strided views of the whole tensor (ld = cols).
  [[nodiscard]] kernels::View view() { return {data_.data(), rows_, cols_, cols_}; }
  [[nodiscard]] kernels::ConstView view() const {
    return {data_.data(), rows_, cols_, cols_};
  }

  void fill(float value);

  /// Deterministic init: uniform in [-scale, scale).
  void random_init(util::Rng& rng, float scale);

  /// Copy of columns [c0, c1) — how weight shards are materialized.
  [[nodiscard]] Tensor slice_cols(int c0, int c1) const;

  /// Copy of rows [r0, r1).
  [[nodiscard]] Tensor slice_rows(int r0, int r1) const;

  /// max_i |a_i - b_i| over two same-shaped tensors; +inf when an
  /// element is non-finite in either tensor and the two elements are not
  /// bit-identical (a NaN never passes a tolerance check).
  [[nodiscard]] static float max_abs_diff(const Tensor& a, const Tensor& b);

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

}  // namespace distmcu::model

#endif  // DISTMCU_MODEL_TENSOR_HPP
