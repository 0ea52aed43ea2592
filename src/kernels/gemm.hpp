#ifndef DISTMCU_KERNELS_GEMM_HPP
#define DISTMCU_KERNELS_GEMM_HPP

#include <span>

#include "kernels/view.hpp"

namespace distmcu::kernels {

/// C[M,N] = A[M,K] * B[K,N] (+ bias broadcast over rows when given), on
/// strided views; M, N and K come from the views. This is the functional
/// reference used for numeric validation; performance on the simulated
/// platform comes from chip::KernelTiming, not from this host
/// implementation.
///
/// Every output element is its bias (or 0) plus a[i][p] * b[p][j] added
/// in ascending p, skipping every p with a[i][p] == 0. That sum does not
/// depend on M or on how rows are blocked, so stacking the rows of
/// several requests into one call leaves every element bit-identical.
void gemm(ConstView a, ConstView b, View c, std::span<const float> bias = {});

/// C[M,N] += A[M,K] * B[K,N]: each element continues gemm's ascending-p
/// sum (and zero skip) from C's value, so gemm over a first K range then
/// gemm_acc over the rest in order gives gemm's bits over the whole K.
void gemm_acc(ConstView a, ConstView b, View c);

/// C[M,N] = A[M,K] * B^T where B is [N,K] (the Q*K^T pattern); each
/// element is the ascending-p sum of a[i][p] * b[j][p].
void gemm_nt(ConstView a, ConstView b, View c);

/// Dense row-major forms of the two GEMMs above.
void gemm(std::span<const float> a, std::span<const float> b, std::span<float> c,
          int m, int n, int k, std::span<const float> bias = {});
void gemm_nt(std::span<const float> a, std::span<const float> b, std::span<float> c,
             int m, int n, int k);

/// out[N] = x[K] * B[K,N] — the GEMV that dominates autoregressive mode.
void gemv(std::span<const float> x, std::span<const float> b, std::span<float> out,
          int n, int k, std::span<const float> bias = {});

}  // namespace distmcu::kernels

#endif  // DISTMCU_KERNELS_GEMM_HPP
