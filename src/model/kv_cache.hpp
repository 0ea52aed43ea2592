#ifndef DISTMCU_MODEL_KV_CACHE_HPP
#define DISTMCU_MODEL_KV_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/tensor.hpp"

namespace distmcu::model {

/// Bytes `elems` KV entries occupy packed at `elem_bits` bits each,
/// rounded up to whole bytes (int4 packs two entries per byte).
/// `elem_bits == 8 * elem_bytes` reproduces the byte-width accounting
/// exactly, which is what keeps native-layout deployments bit-identical.
[[nodiscard]] constexpr Bytes packed_kv_bytes(std::uint64_t elems,
                                              int elem_bits) {
  constexpr std::uint64_t kBitsPerByte = 8;  // lint-domain: allow
  return static_cast<Bytes>(
      (elems * static_cast<std::uint64_t>(elem_bits) + kBitsPerByte - 1) /
      kBitsPerByte);
}

/// One chip's and one layer's KV rows behind a page table (the
/// PagedAttention layout): logical page i holds token positions
/// [i * page_tokens, (i + 1) * page_tokens) in physical page table[i],
/// whose rows start at base + table[i] * page_stride — K rows
/// [page_tokens, width] first, then V rows of the same shape.
struct KvPageView {
  float* base = nullptr;
  std::size_t page_stride = 0;
  int page_tokens = 0;
  int width = 0;
  std::span<const int> table;

  /// K rows of logical page i; its V rows follow at v_offset().
  [[nodiscard]] float* page(int i) const {
    return base + static_cast<std::size_t>(table[static_cast<std::size_t>(i)]) * page_stride;
  }
  [[nodiscard]] std::size_t v_offset() const {
    return static_cast<std::size_t>(page_tokens) * static_cast<std::size_t>(width);
  }
  /// The K row of position `pos`; throws when the table does not reach
  /// it (an append beyond the request's pages).
  [[nodiscard]] float* k_row(int pos) const;
  [[nodiscard]] float* v_row(int pos) const { return k_row(pos) + v_offset(); }
};

/// One request's KV rows of every chip and layer behind its page table,
/// in a store of pages `page_stride` floats apart, each laid out
/// [chip][layer][K|V][page_tokens][width(chip)]. `row_offsets` holds each
/// (chip, layer)'s offset in a one-position page, then its size.
struct KvPageTable {
  float* store = nullptr;
  std::size_t page_stride = 0;
  int page_tokens = 0;
  std::span<const int> table;
  std::span<const std::size_t> row_offsets;

  /// Number of (chip, layer) slices.
  [[nodiscard]] std::size_t slices() const { return row_offsets.size() - 1; }
  /// Slice `i` (chip * layers + layer) as a page view.
  [[nodiscard]] KvPageView slice(std::size_t i) const;
  /// A compact copy's table of `rows` positions in this row layout: one
  /// `rows`-position page in `buf`, resized to fit.
  [[nodiscard]] KvPageTable compact(std::vector<float>& buf, int rows) const;
};

/// Floats one page of `page_tokens` positions holds under `row_offsets`.
[[nodiscard]] inline std::size_t kv_page_floats(std::span<const std::size_t> row_offsets,
                                                int page_tokens) {
  return row_offsets.back() * static_cast<std::size_t>(page_tokens);
}

/// Copy every slice's K and V rows of positions [src_pos, src_pos + n) of
/// `src` to [dst_pos, dst_pos + n) of `dst` (one row layout).
void copy_kv_rows(const KvPageTable& src, int src_pos, const KvPageTable& dst, int dst_pos,
                  int n);

/// Key/Value cache for one layer (paper Sec. II-A): stores the projected
/// K and V rows of all past positions so autoregressive decoding avoids
/// recomputation. `dim` is P*H for the reference model or the per-chip
/// slice P*H/N under the head partitioning — the cache itself is
/// partition-agnostic. Its storage is one KV page of `max_positions`
/// positions, so a dense cache is the one-page case of a paged one.
class KvCache {
 public:
  KvCache(int max_positions, int dim);

  /// Append one position's k and v rows (each of length dim).
  void append(std::span<const float> k, std::span<const float> v);

  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] int capacity() const { return max_positions_; }

  /// Contiguous [length, dim] views of the filled prefix.
  [[nodiscard]] std::span<const float> k() const;
  [[nodiscard]] std::span<const float> v() const;

  /// Strided [length, c1-c0] views of columns [c0, c1) of the filled
  /// prefix — one head (or head range) without copying.
  [[nodiscard]] kernels::ConstView k_view(int c0, int c1) const;
  [[nodiscard]] kernels::ConstView v_view(int c0, int c1) const;

  /// Mark positions [0, length) filled and return the storage as a
  /// one-page table, through which the caller writes the new rows.
  [[nodiscard]] KvPageView extend(int length);

  void reset() { length_ = 0; }

  /// Bytes this cache occupies at `elem_bytes` per element, for the full
  /// capacity (what the memory planner must reserve).
  [[nodiscard]] Bytes capacity_bytes(Bytes elem_bytes) const {
    return 2ull * static_cast<Bytes>(max_positions_) * static_cast<Bytes>(dim_) *
           elem_bytes;
  }

 private:
  int max_positions_;
  int dim_;
  int length_ = 0;
  Tensor kv_;  // [2 * max_positions, dim]: K rows, then V rows
};

}  // namespace distmcu::model

#endif  // DISTMCU_MODEL_KV_CACHE_HPP
