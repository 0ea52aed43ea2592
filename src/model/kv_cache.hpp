#ifndef DISTMCU_MODEL_KV_CACHE_HPP
#define DISTMCU_MODEL_KV_CACHE_HPP

#include <cstdint>
#include <functional>
#include <optional>
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

/// Key/Value cache for one layer (paper Sec. II-A): stores the projected
/// K and V rows of all past positions so autoregressive decoding avoids
/// recomputation. `dim` is P*H for the reference model or the per-chip
/// slice P*H/N under the head partitioning — the cache itself is
/// partition-agnostic.
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

  void reset() { length_ = 0; }

  /// Overwrite this cache's state (filled rows + length) from a
  /// same-shape snapshot — the restore half of preemptive serving's
  /// checkpoint/resume. Rows past the snapshot's length are outside the
  /// filled prefix and never read, so they are left untouched.
  void copy_state_from(const KvCache& src);

  /// Overwrite only the first `positions` rows from a same-shape source
  /// and set length to `positions` — adopting a shared prompt prefix
  /// without disturbing (or paying for) the rest of the cache. Requires
  /// `positions <= src.length()`.
  void copy_prefix_from(const KvCache& src, int positions);

  /// Bytes this cache occupies at `elem_bytes` per element, for the full
  /// capacity (what the memory planner must reserve).
  [[nodiscard]] Bytes capacity_bytes(Bytes elem_bytes) const {
    return 2ull * static_cast<Bytes>(max_positions_) * static_cast<Bytes>(dim_) *
           elem_bytes;
  }

  /// Bytes of the filled prefix at `elem_bytes` per element — the KV
  /// traffic an eviction checkpoint (or its resume) must move off/on
  /// chip.
  [[nodiscard]] Bytes filled_bytes(Bytes elem_bytes) const {
    return 2ull * static_cast<Bytes>(length_) * static_cast<Bytes>(dim_) *
           elem_bytes;
  }

  /// Packed-layout variants: bytes at `elem_bits` bits per entry. These
  /// are what quantized-KV deployments charge the shared arena (and the
  /// checkpoint DMA) instead of the byte-width forms above.
  [[nodiscard]] Bytes capacity_packed_bytes(int elem_bits) const {
    return packed_kv_bytes(2ull * static_cast<std::uint64_t>(max_positions_) *
                               static_cast<std::uint64_t>(dim_),
                           elem_bits);
  }
  [[nodiscard]] Bytes filled_packed_bytes(int elem_bits) const {
    return packed_kv_bytes(2ull * static_cast<std::uint64_t>(length_) *
                               static_cast<std::uint64_t>(dim_),
                           elem_bits);
  }

 private:
  int max_positions_;
  int dim_;
  int length_ = 0;
  Tensor k_store_;
  Tensor v_store_;
};

/// Pre-built pool of per-request cache sets for multi-request serving.
/// One "set" is everything a single generation stream needs across the
/// whole deployment — indexed [chip][layer], the shape
/// partition::DistributedBlock::make_chip_caches produces. The pool
/// builds every set once at construction (no allocation during serving)
/// and recycles sets between requests via reset. In multi-model serving
/// each deployed model keys its own pool (cache shapes differ per
/// model); the pool tracks its free sets itself via acquire_set /
/// release_set (lowest-free-index, deterministic), while the shared
/// *byte budget* across all models' pools lives with the engine's
/// tenant-tagged mem::PagedKvArena so the accounting and the tensors
/// cannot drift apart.
class KvCachePool {
 public:
  using CacheSet = std::vector<std::vector<KvCache>>;

  KvCachePool(int n_slots, const std::function<CacheSet()>& build_set);

  [[nodiscard]] int capacity() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] CacheSet& slot(int i);

  /// Empty every cache in a set before handing it to a new request.
  void reset_slot(int i);

  /// Overwrite set `i` from a snapshot taken off a same-shape set
  /// (shape-checked cache by cache) — resuming a preempted request
  /// restores its KV contents bit-exactly before its next decode step.
  void restore_slot(int i, const CacheSet& snapshot);

  /// Overwrite only the first `positions` rows of every cache in set `i`
  /// from the snapshot and set each length to `positions` — the
  /// copy-on-write fork of paged prefix sharing: the adopted prefix is
  /// bit-identical to the donor's, everything past it belongs to the new
  /// request.
  void restore_prefix(int i, const CacheSet& snapshot, int positions);

  /// Bytes of set `i`'s filled prefixes (all chips, all layers) at
  /// `elem_bytes` per element — the eviction-checkpoint traffic of the
  /// request currently holding the set.
  [[nodiscard]] Bytes set_filled_bytes(int i, Bytes elem_bytes);

  /// Packed-layout variant of set_filled_bytes: the checkpoint traffic
  /// when the tenant stores KV entries at `elem_bits` bits each.
  [[nodiscard]] Bytes set_filled_packed_bytes(int i, int elem_bits);

  /// Lowest free set index, or nullopt when every set is handed out.
  [[nodiscard]] std::optional<int> acquire_set();

  /// Return a set obtained from acquire_set (throws on double release).
  void release_set(int i);

  [[nodiscard]] int sets_in_use() const { return sets_in_use_; }

  /// Bytes one set reserves at full capacity (all chips, all layers) —
  /// what the serving engine's arena charges per slot.
  [[nodiscard]] Bytes set_capacity_bytes(Bytes elem_bytes) const;

  /// Packed-layout variant of set_capacity_bytes: what one set costs the
  /// arena when KV entries are stored at `elem_bits` bits each.
  [[nodiscard]] Bytes set_capacity_packed_bytes(int elem_bits) const;

 private:
  std::vector<CacheSet> slots_;
  std::vector<bool> set_in_use_;
  int sets_in_use_ = 0;
};

}  // namespace distmcu::model

#endif  // DISTMCU_MODEL_KV_CACHE_HPP
