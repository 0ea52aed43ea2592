#include "model/kv_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace distmcu::model {

namespace {
/// The one-entry page table of a dense cache.
constexpr int kFirstPage[] = {0};
}  // namespace

float* KvPageView::k_row(int pos) const {
  DISTMCU_CHECK(pos >= 0 && static_cast<std::size_t>(pos / page_tokens) < table.size(),
                "KV append beyond the request's page table");
  return page(pos / page_tokens) +
         static_cast<std::size_t>(pos % page_tokens) * static_cast<std::size_t>(width);
}

KvPageView KvPageTable::slice(std::size_t i) const {
  const std::size_t first = row_offsets[i];
  return {store + first * static_cast<std::size_t>(page_tokens), page_stride, page_tokens,
          static_cast<int>((row_offsets[i + 1] - first) / 2), table};
}

KvPageTable KvPageTable::compact(std::vector<float>& buf, int rows) const {
  buf.resize(kv_page_floats(row_offsets, rows));
  return {buf.data(), 0, rows, kFirstPage, row_offsets};
}

void copy_kv_rows(const KvPageTable& src, int src_pos, const KvPageTable& dst, int dst_pos,
                  int n) {
  DISTMCU_CHECK(src.row_offsets.size() == dst.row_offsets.size(),
                "copy_kv_rows: row layouts differ");
  for (std::size_t i = 0; i < src.slices(); ++i) {
    const KvPageView from = src.slice(i);
    const KvPageView to = dst.slice(i);
    const auto width = static_cast<std::ptrdiff_t>(from.width);
    for (int r = 0; r < n; ++r) {
      const float* k = from.k_row(src_pos + r);
      std::copy(k, k + width, to.k_row(dst_pos + r));
      const float* v = from.v_row(src_pos + r);
      std::copy(v, v + width, to.v_row(dst_pos + r));
    }
  }
}

KvCache::KvCache(int max_positions, int dim)
    : max_positions_(max_positions), dim_(dim), kv_(2 * max_positions, dim) {
  DISTMCU_CHECK(max_positions > 0 && dim > 0, "KvCache: dimensions must be positive");
}

void KvCache::append(std::span<const float> k, std::span<const float> v) {
  DISTMCU_CHECK(length_ < max_positions_, "KvCache: capacity exceeded");
  DISTMCU_CHECK(k.size() == static_cast<std::size_t>(dim_) &&
                  v.size() == static_cast<std::size_t>(dim_),
              "KvCache: row size mismatch");
  std::copy(k.begin(), k.end(), kv_.row(length_).begin());
  std::copy(v.begin(), v.end(), kv_.row(max_positions_ + length_).begin());
  ++length_;
}

std::span<const float> KvCache::k() const {
  return kv_.span().subspan(0, static_cast<std::size_t>(length_) *
                                   static_cast<std::size_t>(dim_));
}

std::span<const float> KvCache::v() const {
  return kv_.span().subspan(
      static_cast<std::size_t>(max_positions_) * static_cast<std::size_t>(dim_),
      static_cast<std::size_t>(length_) * static_cast<std::size_t>(dim_));
}

kernels::ConstView KvCache::k_view(int c0, int c1) const {
  DISTMCU_CHECK(length_ > 0, "KvCache::k_view: cache is empty");
  DISTMCU_CHECK(0 <= c0 && c0 < c1 && c1 <= dim_, "KvCache::k_view: bad range");
  return kv_.view().row_range(0, length_).col_range(c0, c1);
}

kernels::ConstView KvCache::v_view(int c0, int c1) const {
  DISTMCU_CHECK(length_ > 0, "KvCache::v_view: cache is empty");
  DISTMCU_CHECK(0 <= c0 && c0 < c1 && c1 <= dim_, "KvCache::v_view: bad range");
  return kv_.view().row_range(max_positions_, max_positions_ + length_).col_range(c0, c1);
}

KvPageView KvCache::extend(int length) {
  DISTMCU_CHECK(length >= length_ && length <= max_positions_,
                "KvCache::extend: length outside [length, capacity]");
  length_ = length;
  return {kv_.span().data(), 0, max_positions_, dim_, kFirstPage};
}

}  // namespace distmcu::model
