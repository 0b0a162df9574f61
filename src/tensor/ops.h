// Forward and backward kernels for every OpKind the runtime executes.
//
// Kernels are deterministic: parallel chunks write disjoint outputs and
// every reduction is sequential within one output element, so results are
// bit-identical regardless of thread count — a property the pipeline
// equivalence tests rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace rannc {

class ThreadPool;

// ---- kernel dispatch --------------------------------------------------------
//
// The matmul and conv families have two implementations: the naive reference
// loops (the shapes the comments in ops.cpp describe) and cache-blocked
// kernels compiled -O3/-mavx2 (src/tensor/kernels_blocked.*). The blocked
// kernels are the default; set_naive_kernels(true) pins the reference path
// for parity testing and benchmarking.

/// True when ops run the naive reference kernels instead of the blocked ones.
bool naive_kernels();
/// Selects the naive reference kernels (true) or the blocked ones (false).
void set_naive_kernels(bool naive);

/// Overrides the pool used by all tensor kernels (nullptr restores the
/// default: a pool sized by RANNC_THREADS if set, else ThreadPool::global).
/// The caller keeps ownership and must outlive kernel use. Blocked-kernel
/// results are bit-identical across pool sizes.
void set_kernel_pool(ThreadPool* pool);
/// The pool tensor kernels parallelize over (see set_kernel_pool).
ThreadPool& kernel_pool();

// ---- linear algebra --------------------------------------------------------

/// a [m,k] x b [k,n]; batched forms [B,m,k]x[B,k,n] and [B,m,k]x[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// Gradients of matmul: da = g x b^T, db = a^T x g (batch dims reduced for
/// a broadcast rhs).
Tensor matmul_grad_a(const Tensor& g, const Tensor& b);
Tensor matmul_grad_b(const Tensor& a, const Tensor& g, const Shape& b_shape);

/// Permutes dimensions; perm has one entry per dim.
Tensor transpose(const Tensor& a, const std::vector<int>& perm);

// ---- elementwise -----------------------------------------------------------

/// b broadcast against a: shapes equal, b matching a's trailing dims, or b
/// with leading dims of size 1.
Tensor add(const Tensor& a, const Tensor& b);
/// Reduces gradient g (shaped like a) to b's shape for the broadcast add.
Tensor add_reduce_grad(const Tensor& g, const Shape& b_shape);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor relu(const Tensor& a);
Tensor relu_grad(const Tensor& g, const Tensor& x);
Tensor gelu(const Tensor& a);
Tensor gelu_grad(const Tensor& g, const Tensor& x);
Tensor tanh_op(const Tensor& a);
Tensor tanh_grad(const Tensor& g, const Tensor& y);

// ---- normalization / attention ---------------------------------------------

Tensor softmax_lastdim(const Tensor& a);
Tensor softmax_grad(const Tensor& g, const Tensor& y);

struct LayerNormResult {
  Tensor y, mean, rstd;  ///< per-row statistics cached for backward
};
LayerNormResult layernorm(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps = 1e-5f);
struct LayerNormGrads {
  Tensor dx, dgamma, dbeta;
};
LayerNormGrads layernorm_grad(const Tensor& g, const Tensor& x,
                              const Tensor& gamma, const LayerNormResult& fw);

// ---- lookup & loss ----------------------------------------------------------

/// ids are float-encoded indices; rows gathered from table [V, H].
Tensor embedding(const Tensor& ids, const Tensor& table);
Tensor embedding_grad(const Tensor& g, const Tensor& ids, const Shape& table_shape);

struct CrossEntropyResult {
  Tensor loss;   ///< scalar (mean over rows)
  Tensor probs;  ///< softmax cache for backward
};
CrossEntropyResult cross_entropy(const Tensor& logits, const Tensor& targets);
Tensor cross_entropy_grad(const Tensor& probs, const Tensor& targets,
                          float upstream);

// ---- convolutional ops ------------------------------------------------------

Tensor conv2d(const Tensor& x, const Tensor& w, std::int64_t stride,
              std::int64_t pad);
Tensor conv2d_grad_x(const Tensor& g, const Tensor& w, const Shape& x_shape,
                     std::int64_t stride, std::int64_t pad);
Tensor conv2d_grad_w(const Tensor& g, const Tensor& x, const Shape& w_shape,
                     std::int64_t stride, std::int64_t pad);

struct BatchNormResult {
  Tensor y, mean, rstd;  ///< per-channel batch statistics
};
BatchNormResult batchnorm2d(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, float eps = 1e-5f);
struct BatchNormGrads {
  Tensor dx, dgamma, dbeta;
};
BatchNormGrads batchnorm2d_grad(const Tensor& g, const Tensor& x,
                                const Tensor& gamma,
                                const BatchNormResult& fw);

struct MaxPoolResult {
  Tensor y;
  std::vector<std::int64_t> argmax;  ///< flat input index per output element
};
MaxPoolResult maxpool2d(const Tensor& x, std::int64_t kernel,
                        std::int64_t stride, std::int64_t pad);
Tensor maxpool2d_grad(const Tensor& g, const MaxPoolResult& fw,
                      const Shape& x_shape);

Tensor global_avgpool2d(const Tensor& x);
Tensor global_avgpool2d_grad(const Tensor& g, const Shape& x_shape);

// ---- structural --------------------------------------------------------------

/// Concatenates tensors along `axis`; all other dimensions must match.
Tensor concat(const std::vector<Tensor>& parts, int axis);
/// Splits the upstream gradient back into per-input slices.
std::vector<Tensor> concat_grad(const Tensor& g,
                                const std::vector<Shape>& part_shapes,
                                int axis);

}  // namespace rannc
