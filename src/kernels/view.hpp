#ifndef DISTMCU_KERNELS_VIEW_HPP
#define DISTMCU_KERNELS_VIEW_HPP

#include <cstddef>
#include <span>
#include <type_traits>

#include "util/check.hpp"

namespace distmcu::kernels {

/// Non-owning strided row-major matrix view: element (r, c) lives at
/// data[r * ld + c]. One head's columns of a [rows, heads * p] buffer
/// (a chip's Q slice, or a KV cache) are a view with ld = the full
/// width, so the functional forward slices heads without copying.
template <typename T>
struct StridedView {
  T* data = nullptr;
  int rows = 0;
  int cols = 0;
  int ld = 0;

  StridedView() = default;
  StridedView(T* d, int r, int c, int l) : data(d), rows(r), cols(c), ld(l) {}
  /// Dense view over a span of exactly rows * cols elements.
  StridedView(std::span<T> s, int r, int c) : StridedView(s.data(), r, c, c) {
    DISTMCU_CHECK(r > 0 && c > 0, "StridedView: dimensions must be positive");
    DISTMCU_CHECK(s.size() == static_cast<std::size_t>(r) * static_cast<std::size_t>(c),
                  "StridedView: span size != rows * cols");
  }
  /// A mutable view reads as a const one.
  template <typename U>
    requires(std::is_same_v<const U, T> && !std::is_same_v<U, T>)
  StridedView(const StridedView<U>& o)  // NOLINT(google-explicit-constructor)
      : data(o.data), rows(o.rows), cols(o.cols), ld(o.ld) {}

  [[nodiscard]] T* row(int r) const {
    return data + static_cast<std::ptrdiff_t>(r) * static_cast<std::ptrdiff_t>(ld);
  }
  /// Columns [c0, c1) of every row.
  [[nodiscard]] StridedView col_range(int c0, int c1) const {
    return {data + c0, rows, c1 - c0, ld};
  }
  /// Rows [r0, r1).
  [[nodiscard]] StridedView row_range(int r0, int r1) const {
    return {row(r0), r1 - r0, cols, ld};
  }
};

using ConstView = StridedView<const float>;
using View = StridedView<float>;

}  // namespace distmcu::kernels

#endif  // DISTMCU_KERNELS_VIEW_HPP
