#ifndef DISTMCU_KERNELS_ROPE_HPP
#define DISTMCU_KERNELS_ROPE_HPP

#include <span>

#include "kernels/view.hpp"

namespace distmcu::kernels {

/// Rotary position embedding (Llama family) applied in place to one
/// head's rows: `x` is [n_pos, head_dim], where row i holds the features
/// of absolute position `pos_offset + i`. Pairs (2j, 2j+1) are rotated
/// by angle pos / base^(2j/head_dim).
///
/// RoPE is applied per head and depends only on that head's features, so
/// it is fully chip-local under the head-dimension partitioning — no
/// extra communication, a property the partition tests assert.
void rope_apply(View x, int pos_offset, float base);

/// The rotation angles of `n_pos` consecutive positions from `pos0`:
/// row i of `table` ([n_pos, head_dim]) holds cos and sin, interleaved,
/// of every pair's angle at position pos0 + i — the exact values
/// rope_apply computes, so a forward can build them once per position.
void rope_table(std::span<float> table, int pos0, int n_pos, int head_dim, float base);

/// RoPE with the angles read from `table`, one table row per row of `x`.
void rope_apply(View x, std::span<const float> table);

/// Dense form: `x` is [n_pos, head_dim] row-major.
void rope_apply(std::span<float> x, int n_pos, int head_dim, int pos_offset,
                float base);

}  // namespace distmcu::kernels

#endif  // DISTMCU_KERNELS_ROPE_HPP
