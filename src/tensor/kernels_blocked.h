// Cache-blocked GEMM/conv kernels (internal to src/tensor).
//
// These are the fast counterparts of the naive reference loops in ops.cpp,
// dispatched behind the public op entry points unless RANNC_NAIVE_KERNELS
// selects the reference path. They operate on raw pointers; all shape
// checking and output allocation stays in ops.cpp so both paths share it.
//
// Determinism contract (same as the naive kernels): the parallel unit is a
// fixed function of the problem shape only, every output element is
// produced by exactly one unit, and the floating-point reduction order per
// element never depends on how units are assigned to threads — results are
// bit-identical at any thread-pool size. conv2d and conv2d_grad_x
// accumulate in double over the naive loops' per-element term order, so they
// are additionally bit-identical to their naive references (float products
// are exact in double). matmul_grad_a accumulates in double with one 8-lane
// tree on every build: lane t sums the terms j = t (mod 8) below
// 8*floor(n/8) in ascending order, the lanes combine as
// ((L0+L4) + (L2+L6)) + ((L1+L5) + (L3+L7)), and the tail is added in order.
// That differs from the naive sequential sum by ~1e-16 relative, so the two
// almost always round to the same float, but not always. matmul_grad_b
// (float, pairwise-of-4 association) and conv2d_grad_w (lane-split double
// dot) differ from theirs in the last bits.
//
// This translation unit is compiled -O3 and, where the toolchain allows,
// -mavx2 -mfma (see src/tensor/CMakeLists.txt and the
// RANNC_PORTABLE_KERNELS option); plain-C fallbacks cover other targets.
// AVX-512 variants of matmul_grad_a and of matmul_grad_b's exact route are
// compiled per function and chosen by a run-time CPU check; they give the
// AVX2 bits.
#pragma once

#include <cstdint>

namespace rannc {

class ThreadPool;

namespace detail {

/// True when this build's blocked kernels use the AVX2+FMA paths.
bool blocked_kernels_simd();

/// True when this build and host have the AVX-512 variants of
/// matmul_grad_a and of matmul_grad_b's exact route: an AVX2 build on a CPU
/// with AVX-512F, checked once at run time. They run unless the test hook
/// below holds them off.
bool blocked_kernels_avx512();

/// Test hook: while `force` is set, the AVX-512 variants are bypassed and
/// the AVX2 ones run, so tests can compare the two bit for bit.
void force_avx2_kernels(bool force);

/// C[ba,m,n] = A[ba,m,k] x B[k,n or ba,k,n]; C need not be initialized.
void blocked_matmul(const float* A, const float* B, float* C, std::int64_t ba,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    bool shared_b, ThreadPool& pool);

/// DA[bg,m,k] = G[bg,m,n] x B^T (B is [k,n] or [bg,k,n]): register-tiled
/// across outputs over lane-packed operands.
void blocked_matmul_grad_a(const float* G, const float* B, float* DA,
                           std::int64_t bg, std::int64_t m, std::int64_t n,
                           std::int64_t k, bool shared_b, ThreadPool& pool);

/// blocked_matmul_grad_a one dot at a time (a horizontal sum per output):
/// the same lane structure and the same bits. It is the tests' oracle and
/// the fallback for G rows too long for the panel kernel's scratch.
void blocked_matmul_grad_a_rows(const float* G, const float* B, float* DA,
                                std::int64_t bg, std::int64_t m,
                                std::int64_t n, std::int64_t k, bool shared_b,
                                ThreadPool& pool);

/// DB = A^T x G. Shared rhs ([k,n], batches reduced) when shared_b, else
/// per-batch [ba,k,n]. DB need not be initialized. Returns the number of
/// row groups (4-row groups and leftover rows) that took the exact,
/// subnormal-immune route; the float route gives the same bits.
std::int64_t blocked_matmul_grad_b(const float* A, const float* G, float* DB,
                                   std::int64_t ba, std::int64_t m,
                                   std::int64_t k, std::int64_t n,
                                   bool shared_b, ThreadPool& pool);

/// Test hook: blocked_matmul_grad_b with every row group forced onto the
/// exact route (exact) or the float route (!exact), so tests can compare
/// the two bit for bit. Builds without AVX2 have only the float route and
/// ignore `exact`.
void blocked_matmul_grad_b_forced(const float* A, const float* G, float* DB,
                                  std::int64_t ba, std::int64_t m,
                                  std::int64_t k, std::int64_t n,
                                  bool shared_b, bool exact,
                                  ThreadPool& pool);

/// Y[N,K,Ho,Wo] = conv(X[N,C,H,W], W[K,C,kh,kw]); Y need not be initialized.
void blocked_conv2d(const float* X, const float* Wt, float* Y, std::int64_t N,
                    std::int64_t C, std::int64_t H, std::int64_t W,
                    std::int64_t K, std::int64_t kh, std::int64_t kw,
                    std::int64_t stride, std::int64_t pad, std::int64_t Ho,
                    std::int64_t Wo, ThreadPool& pool);

/// DX[N,C,H,W] from G[N,K,Ho,Wo] and W[K,C,kh,kw]; DX need not be
/// initialized.
void blocked_conv2d_grad_x(const float* G, const float* Wt, float* DX,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool);

/// Fused Adam update, the kernel behind Optimizer::step. Element-for-element
/// it evaluates exactly the reference expression tree of the scalar loop in
/// optimizer.cpp (same float ops, no fused multiply-add, IEEE sqrt/div), so
/// its results are bit-identical to that loop — and elementwise independent,
/// so bit-identical at any thread count. Inputs may alias outputs.
///   MO[i] = b1*M[i] + (1-b1)*G[i]
///   VO[i] = b2*V[i] + (1-b2)*G[i]*G[i]
///   PO[i] = P[i] - lr*(MO[i]/bc1) / (sqrt(VO[i]/bc2) + eps)
void blocked_adam_step(const float* P, const float* G, const float* M,
                       const float* V, float* PO, float* MO, float* VO,
                       std::int64_t n, float lr, float b1, float b2, float eps,
                       float bc1, float bc2, ThreadPool& pool);

/// Y[o,c,r] = X[o,r,c] for `outer` independent r x c matrices: the
/// trailing-axes swap that weight transposes and attention head reshuffles
/// reduce to. Tiled so both sides stream through cache; a pure permutation,
/// so results are always bit-identical to any other evaluation order.
void blocked_transpose_last2(const float* X, float* Y, std::int64_t outer,
                             std::int64_t r, std::int64_t c, ThreadPool& pool);

/// DW[K,C,kh,kw] from G[N,K,Ho,Wo] and X[N,C,H,W]; DW need not be
/// initialized.
void blocked_conv2d_grad_w(const float* G, const float* X, float* DW,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool);

}  // namespace detail
}  // namespace rannc
