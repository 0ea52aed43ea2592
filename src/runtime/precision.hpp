#ifndef DISTMCU_RUNTIME_PRECISION_HPP
#define DISTMCU_RUNTIME_PRECISION_HPP

// Per-deployment precision as a first-class property. This header is
// the ONE home of numeric precision widths in the serving stack: every
// other file derives its bit- and byte-counts from these enums (the
// raw-precision-int domain-lint rule enforces it), so a deployment's
// declared precision cannot silently disagree with how its bytes are
// accounted.

#include <cstdint>

#include "chip/chip_config.hpp"
#include "partition/memory_planner.hpp"

namespace distmcu::runtime {

/// Arithmetic precision a deployment's block program runs at.
///  * fp16: the seed float path — DistributedBlock numerics, the
///    platform's default PrecisionConfig (2-byte weights, int16 MACs).
///  * int8: the paper's shipped A8W8 path — the same DistributedBlock
///    forward given a partition::Int8Weights set: FFN and
///    attention-output GEMMs through quant::int_kernels with int32
///    all-reduce partials (reduction-order-invariant, so token streams
///    are bit-exact under any tree shape or chip count), 1-byte
///    weights, int8-rate MACs.
enum class Precision { fp16, int8 };

inline constexpr int kBitsPerByte = 8;  // lint-domain: allow

/// Storage layout of a deployment's KV-cache entries, orthogonal to the
/// arithmetic precision (an int8 deployment may keep fp16 KV and vice
/// versa is rejected — packed layouts require an int8 deployment, whose
/// block actually quantizes the rows it appends).
///  * native: whatever the platform PrecisionConfig::kv_bytes says —
///    byte-identical accounting to the pre-precision engine.
///  * fp16 / int8 / int4: explicit per-entry widths; pages and slots
///    cost proportionally fewer (or more) bytes in the shared arena,
///    which is what multiplies concurrent-request capacity at equal L2.
enum class KvLayout { native, fp16, int8, int4 };

[[nodiscard]] constexpr const char* precision_name(Precision p) {
  switch (p) {
    case Precision::fp16: return "fp16";
    case Precision::int8: return "int8";
  }
  return "?";
}

[[nodiscard]] constexpr const char* kv_layout_name(KvLayout l) {
  switch (l) {
    case KvLayout::native: return "native";
    case KvLayout::fp16: return "fp16";
    case KvLayout::int8: return "int8";
    case KvLayout::int4: return "int4";
  }
  return "?";
}

/// Bits one stored KV entry occupies under `layout`, given the
/// platform-native width (`native_bits`, from PrecisionConfig::kv_bytes).
/// KvLayout::native returns native_bits exactly, which is what keeps
/// every pre-precision deployment's byte accounting bit-identical.
[[nodiscard]] constexpr int kv_layout_bits(KvLayout layout, int native_bits) {
  constexpr int kFp16Bits = 16;   // lint-domain: allow
  constexpr int kInt8Bits = 8;    // lint-domain: allow
  constexpr int kInt4Bits = 4;    // lint-domain: allow
  switch (layout) {
    case KvLayout::native: return native_bits;
    case KvLayout::fp16: return kFp16Bits;
    case KvLayout::int8: return kInt8Bits;
    case KvLayout::int4: return kInt4Bits;
  }
  return native_bits;
}

/// Bytes `n` packed KV entries of `elem_bits` each occupy (round up to
/// whole bytes — int4 packs two entries per byte).
[[nodiscard]] constexpr Bytes packed_bytes(std::uint64_t elems, int elem_bits) {
  const auto bpb = static_cast<std::uint64_t>(kBitsPerByte);
  return static_cast<Bytes>(
      (elems * static_cast<std::uint64_t>(elem_bits) + bpb - 1) / bpb);
}

/// Rescale a native-width KV byte count to a packed layout: `bytes` was
/// accounted at `native_bits` per entry; the packed layout stores the
/// same entries at `elem_bits` each (round up to whole bytes).
/// Identity when elem_bits == native_bits, which keeps every
/// KvLayout::native deployment bit-identical to the pre-precision
/// engine.
[[nodiscard]] constexpr Bytes scale_kv_bytes(Bytes bytes, int elem_bits,
                                             int native_bits) {
  if (elem_bits == native_bits) return bytes;
  const auto b = static_cast<std::uint64_t>(bytes);
  const auto nb = static_cast<std::uint64_t>(native_bits);
  return static_cast<Bytes>(
      (b * static_cast<std::uint64_t>(elem_bits) + nb - 1) / nb);
}

/// The platform PrecisionConfig a declared precision runs the cost
/// model at. fp16 keeps `native` (the system's own config) untouched;
/// int8 is the paper's A8W8 deployment — 1-byte weights and
/// activations, 1-byte KV entries, MACs at the cluster's int8 rate.
[[nodiscard]] inline partition::PrecisionConfig precision_numerics(
    Precision p, const partition::PrecisionConfig& native) {
  if (p == Precision::fp16) return native;
  partition::PrecisionConfig q;
  q.weight_bytes = chip::precision_bytes(chip::Precision::int8);
  q.act_bytes = chip::precision_bytes(chip::Precision::int8);
  q.kv_bytes = chip::precision_bytes(chip::Precision::int8);
  q.mac_precision = chip::Precision::int8;
  return q;
}

}  // namespace distmcu::runtime

#endif  // DISTMCU_RUNTIME_PRECISION_HPP
