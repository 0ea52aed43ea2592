#include "model/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace distmcu::model {

Tensor::Tensor(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0f) {
  DISTMCU_CHECK(rows > 0 && cols > 0, "Tensor dimensions must be positive");
}

float& Tensor::at(int r, int c) {
  return data_[static_cast<std::size_t>(r) * cols_ + static_cast<std::size_t>(c)];
}

float Tensor::at(int r, int c) const {
  return data_[static_cast<std::size_t>(r) * cols_ + static_cast<std::size_t>(c)];
}

std::span<float> Tensor::row(int r) {
  return std::span<float>(data_).subspan(static_cast<std::size_t>(r) * cols_,
                                         static_cast<std::size_t>(cols_));
}

std::span<const float> Tensor::row(int r) const {
  return std::span<const float>(data_).subspan(static_cast<std::size_t>(r) * cols_,
                                               static_cast<std::size_t>(cols_));
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::random_init(util::Rng& rng, float scale) {
  for (float& v : data_) v = rng.uniform(-scale, scale);
}

Tensor Tensor::slice_cols(int c0, int c1) const {
  DISTMCU_CHECK(0 <= c0 && c0 < c1 && c1 <= cols_, "Tensor::slice_cols: bad range");
  Tensor out(rows_, c1 - c0);
  for (int r = 0; r < rows_; ++r) {
    for (int c = c0; c < c1; ++c) out.at(r, c - c0) = at(r, c);
  }
  return out;
}

Tensor Tensor::slice_rows(int r0, int r1) const {
  DISTMCU_CHECK(0 <= r0 && r0 < r1 && r1 <= rows_, "Tensor::slice_rows: bad range");
  Tensor out(r1 - r0, cols_);
  for (int r = r0; r < r1; ++r) {
    for (int c = 0; c < cols_; ++c) out.at(r - r0, c) = at(r, c);
  }
  return out;
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  DISTMCU_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "max_abs_diff: shape mismatch");
  float mx = 0.0f;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    const float x = a.data_[i];
    const float y = b.data_[i];
    if (!std::isfinite(x) || !std::isfinite(y)) {
      if (std::memcmp(&x, &y, sizeof x) != 0) return std::numeric_limits<float>::infinity();
      continue;
    }
    mx = std::max(mx, std::fabs(x - y));
  }
  return mx;
}

}  // namespace distmcu::model
