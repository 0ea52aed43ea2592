#ifndef DISTMCU_KERNELS_ATTENTION_HPP
#define DISTMCU_KERNELS_ATTENTION_HPP

#include <span>

#include "kernels/view.hpp"

namespace distmcu::kernels {

/// Single-head scaled dot-product attention for prompt mode (paper
/// Eq. 2) on strided views: Q [s_q, p], output [s_q, p], and K/V [s_kv, p]
/// as ordered row segments (a paged KV cache's pages: k[i] and v[i] hold
/// the positions after segments 0..i-1). P*V continues each output
/// element's ascending sum across segments, so any split gives the
/// one-segment bits. `scores` is caller scratch of at least s_q * s_kv
/// floats, so a forward that owns a workspace attends without allocating.
///
/// When `causal` is true, query row i may attend to key positions
/// 0 .. (pos_offset + i); `pos_offset` is the absolute position of the
/// first query row (non-zero when a prompt is processed with an existing
/// KV cache prefix).
void attention_head(ConstView q, std::span<const ConstView> k,
                    std::span<const ConstView> v, View out, bool causal, int pos_offset,
                    std::span<float> scores);

/// Dense form of the above with its own score buffer.
void attention_head(std::span<const float> q, std::span<const float> k,
                    std::span<const float> v, std::span<float> out, int s_q,
                    int s_kv, int p, bool causal, int pos_offset);

/// Single-head single-query attention for autoregressive mode: q [p],
/// K/V hold `s_kv` cached positions, output [p]. This is the GEMV-shaped
/// kernel that dominates the paper's autoregressive workload.
void attention_head_ar(std::span<const float> q, std::span<const float> k,
                       std::span<const float> v, std::span<float> out, int s_kv,
                       int p);

}  // namespace distmcu::kernels

#endif  // DISTMCU_KERNELS_ATTENTION_HPP
