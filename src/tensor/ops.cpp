#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "tensor/kernels_blocked.h"
#include "util/thread_pool.h"

namespace rannc {

namespace {

std::atomic<bool> g_naive{false};
std::atomic<ThreadPool*> g_kernel_pool{nullptr};

/// Per-op counters/histogram, resolved once per call site (function-local
/// static) so the hot path is two relaxed atomic adds plus one histogram
/// record.
struct KernelMetrics {
  obs::Counter& calls;
  obs::Counter& flops;
  obs::Counter& bytes;
  obs::Histogram& flops_per_call;
  explicit KernelMetrics(const std::string& op)
      : calls(obs::metrics().counter("runtime.kernel." + op + ".calls")),
        flops(obs::metrics().counter("runtime.kernel." + op + ".flops")),
        bytes(obs::metrics().counter("runtime.kernel." + op + ".bytes")),
        flops_per_call(
            obs::metrics().histogram("runtime.kernel." + op + ".flops_per_call")) {}
  /// `by` = operand + result bytes touched, so attribution can rank real
  /// runtime ops by both arithmetic and memory traffic.
  void record(double fl, double by) {
    calls.add(1);
    flops.add(static_cast<std::int64_t>(fl));
    bytes.add(static_cast<std::int64_t>(by));
    flops_per_call.record(fl);
  }
};

/// Operand + result traffic of a call, in bytes.
template <typename... Ts>
double tensor_bytes(const Ts&... ts) {
  return 4.0 * (static_cast<double>(ts.numel()) + ...);
}

constexpr double kInvSqrt2 = 0.70710678118654752440;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;

void check(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(msg);
}

/// Splits a matmul-style shape [..., m, k] into (batch, m, k).
void split3(const Shape& s, std::int64_t& batch, std::int64_t& m,
            std::int64_t& k) {
  check(s.rank() >= 2, "matmul operand must have rank >= 2");
  m = s.dims[s.rank() - 2];
  k = s.dims[s.rank() - 1];
  batch = 1;
  for (std::size_t i = 0; i + 2 < s.rank(); ++i) batch *= s.dims[i];
}

Tensor elementwise_unary(const Tensor& a, float (*fn)(float)) {
  Tensor out(a.shape());
  const float* x = a.data();
  float* y = out.data();
  kernel_pool().parallel_for(0, a.numel(),
                             [&](std::int64_t b, std::int64_t e) {
                               for (std::int64_t i = b; i < e; ++i)
                                 y[i] = fn(x[i]);
                             });
  return out;
}

}  // namespace

// ---- kernel dispatch --------------------------------------------------------

bool naive_kernels() { return g_naive.load(std::memory_order_relaxed); }

void set_naive_kernels(bool naive) {
  g_naive.store(naive, std::memory_order_relaxed);
}

void set_kernel_pool(ThreadPool* pool) {
  g_kernel_pool.store(pool, std::memory_order_relaxed);
}

ThreadPool& kernel_pool() {
  if (ThreadPool* p = g_kernel_pool.load(std::memory_order_relaxed)) return *p;
  // RANNC_THREADS=n caps kernel parallelism at n threads including the
  // caller (matching ThreadPool::global's convention of workers + caller).
  static ThreadPool* env_pool = [] {
    const auto n = parse_thread_count(std::getenv("RANNC_THREADS"));
    return n ? new ThreadPool(static_cast<unsigned>(*n - 1)) : nullptr;
  }();
  return env_pool ? *env_pool : ThreadPool::global();
}

// ---- matmul -----------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  std::int64_t ba, m, ka;
  split3(a.shape(), ba, m, ka);
  std::int64_t bb, kb, n;
  split3(b.shape(), bb, kb, n);
  check(ka == kb, "matmul: inner dimensions differ");
  check(bb == 1 || bb == ba, "matmul: batch dimensions differ");

  Shape out_shape = a.shape();
  out_shape.dims.back() = n;
  Tensor out(out_shape);
  const float* A = a.data();
  const float* B = b.data();
  float* C = out.data();
  const bool shared_b = bb == 1;

  static KernelMetrics km("matmul");
  km.record(2.0 * static_cast<double>(ba * m) * static_cast<double>(ka) * n,
            tensor_bytes(a, b, out));
  if (!naive_kernels()) {
    detail::blocked_matmul(A, B, C, ba, m, ka, n, shared_b, kernel_pool());
    return out;
  }
  kernel_pool().parallel_for(
      0, ba * m, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t bi = r / m;
          const float* arow = A + r * ka;
          const float* bmat = B + (shared_b ? 0 : bi * ka * n);
          float* crow = C + r * n;
          std::fill_n(crow, n, 0.0f);
          for (std::int64_t k = 0; k < ka; ++k) {
            const float av = arow[k];
            if (av == 0.0f) continue;
            const float* brow = bmat + k * n;
            for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
          }
        }
      });
  return out;
}

Tensor matmul_grad_a(const Tensor& g, const Tensor& b) {
  std::int64_t bg, m, n;
  split3(g.shape(), bg, m, n);
  std::int64_t bb, k, nb;
  split3(b.shape(), bb, k, nb);
  check(nb == n, "matmul_grad_a: shape mismatch");
  check(bb == 1 || bb == bg, "matmul_grad_a: batch mismatch");

  Shape da_shape = g.shape();
  da_shape.dims.back() = k;
  Tensor da(da_shape);
  const float* G = g.data();
  const float* B = b.data();
  float* DA = da.data();
  const bool shared_b = bb == 1;

  static KernelMetrics km("matmul_grad_a");
  km.record(2.0 * static_cast<double>(bg * m) * static_cast<double>(n) * k,
            tensor_bytes(g, b, da));
  if (!naive_kernels()) {
    detail::blocked_matmul_grad_a(G, B, DA, bg, m, n, k, shared_b,
                                  kernel_pool());
    return da;
  }
  kernel_pool().parallel_for(
      0, bg * m, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t bi = r / m;
          const float* grow = G + r * n;
          const float* bmat = B + (shared_b ? 0 : bi * k * n);
          float* darow = DA + r * k;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            const float* brow = bmat + kk * n;
            double acc = 0;
            for (std::int64_t j = 0; j < n; ++j)
              acc += static_cast<double>(grow[j]) * brow[j];
            darow[kk] = static_cast<float>(acc);
          }
        }
      });
  return da;
}

Tensor matmul_grad_b(const Tensor& a, const Tensor& g, const Shape& b_shape) {
  std::int64_t ba, m, k;
  split3(a.shape(), ba, m, k);
  std::int64_t bg, mg, n;
  split3(g.shape(), bg, mg, n);
  check(ba == bg && m == mg, "matmul_grad_b: shape mismatch");
  std::int64_t bb, kb, nb;
  split3(b_shape, bb, kb, nb);
  check(kb == k && nb == n, "matmul_grad_b: b_shape mismatch");

  Tensor db(b_shape, 0.0f);
  const float* A = a.data();
  const float* G = g.data();
  float* DB = db.data();

  static KernelMetrics km("matmul_grad_b");
  // Row groups the blocked kernel sent down its subnormal-immune route.
  static obs::Counter& exact_groups =
      obs::metrics().counter("runtime.kernel.matmul_grad_b.exact_groups");
  km.record(2.0 * static_cast<double>(ba * m) * static_cast<double>(k) * n,
            tensor_bytes(a, g, db));
  if (!naive_kernels()) {
    exact_groups.add(detail::blocked_matmul_grad_b(A, G, DB, ba, m, k, n,
                                                   bb == 1, kernel_pool()));
    return db;
  }
  if (bb == 1) {
    // Shared rhs: db[k,n] = sum over all batches of a^T g. Parallel over k
    // rows of db; each row reduction is sequential -> deterministic.
    kernel_pool().parallel_for(
        0, k, [&](std::int64_t k0, std::int64_t k1) {
          for (std::int64_t kk = k0; kk < k1; ++kk) {
            float* dbrow = DB + kk * n;
            for (std::int64_t r = 0; r < ba * m; ++r) {
              const float av = A[r * k + kk];
              if (av == 0.0f) continue;
              const float* grow = G + r * n;
              for (std::int64_t j = 0; j < n; ++j) dbrow[j] += av * grow[j];
            }
          }
        });
  } else {
    kernel_pool().parallel_for(
        0, bb, [&](std::int64_t b0, std::int64_t b1) {
          for (std::int64_t bi = b0; bi < b1; ++bi) {
            const float* amat = A + bi * m * k;
            const float* gmat = G + bi * m * n;
            float* dbmat = DB + bi * k * n;
            for (std::int64_t r = 0; r < m; ++r) {
              for (std::int64_t kk = 0; kk < k; ++kk) {
                const float av = amat[r * k + kk];
                if (av == 0.0f) continue;
                const float* grow = gmat + r * n;
                float* dbrow = dbmat + kk * n;
                for (std::int64_t j = 0; j < n; ++j) dbrow[j] += av * grow[j];
              }
            }
          }
        });
  }
  return db;
}

// ---- transpose --------------------------------------------------------------

Tensor transpose(const Tensor& a, const std::vector<int>& perm) {
  const Shape& s = a.shape();
  check(perm.size() == s.rank(), "transpose: perm rank mismatch");
  Shape out_shape;
  out_shape.dims.resize(s.rank());
  for (std::size_t i = 0; i < perm.size(); ++i)
    out_shape.dims[i] = s.dims[static_cast<std::size_t>(perm[i])];
  Tensor out(out_shape);

  const std::size_t rank = s.rank();
  std::vector<std::int64_t> in_strides(rank, 1), out_strides(rank, 1);
  for (std::size_t i = rank - 1; i > 0; --i)
    in_strides[i - 1] = in_strides[i] * s.dims[i];
  for (std::size_t i = rank - 1; i > 0; --i)
    out_strides[i - 1] = out_strides[i] * out_shape.dims[i];

  const float* X = a.data();
  float* Y = out.data();
  static KernelMetrics km("transpose");
  km.record(0.0, tensor_bytes(a, out));  // pure data movement, no flops
  if (!naive_kernels() && rank >= 2 && a.numel() > 0) {
    // Trailing-axes swap (weight transposes, attention reshuffles): tiled
    // 2-D transpose of `outer` independent matrices.
    bool last2_swap = perm[rank - 2] == static_cast<int>(rank - 1) &&
                      perm[rank - 1] == static_cast<int>(rank - 2);
    for (std::size_t i = 0; i + 2 < rank; ++i)
      last2_swap = last2_swap && perm[i] == static_cast<int>(i);
    if (last2_swap) {
      std::int64_t outer = 1;
      for (std::size_t i = 0; i + 2 < rank; ++i) outer *= s.dims[i];
      detail::blocked_transpose_last2(X, Y, outer,
                                      s.dims[rank - 2], s.dims[rank - 1],
                                      kernel_pool());
      return out;
    }
    // General permutation, row-granular: decompose indices once per output
    // row; the innermost output axis maps to a fixed input stride, so the
    // inner loop is a memcpy (stride 1) or a single strided walk. A pure
    // permutation — bit-identical to the per-element reference loop.
    const std::int64_t row_len = out_shape.dims[rank - 1];
    const std::int64_t inner_stride =
        in_strides[static_cast<std::size_t>(perm[rank - 1])];
    const std::int64_t rows = a.numel() / row_len;
    kernel_pool().parallel_for(0, rows, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t row = r0; row < r1; ++row) {
        std::int64_t rem = row;
        std::int64_t src = 0;
        for (std::size_t i = rank - 1; i > 0; --i) {
          const std::int64_t d = rem % out_shape.dims[i - 1];
          rem /= out_shape.dims[i - 1];
          src += d * in_strides[static_cast<std::size_t>(perm[i - 1])];
        }
        float* __restrict y = Y + row * row_len;
        if (inner_stride == 1) {
          std::memcpy(y, X + src, static_cast<std::size_t>(row_len) *
                                      sizeof(float));
        } else {
          const float* __restrict x = X + src;
          for (std::int64_t j = 0; j < row_len; ++j)
            y[j] = x[j * inner_stride];
        }
      }
    });
    return out;
  }
  kernel_pool().parallel_for(
      0, a.numel(), [&](std::int64_t b, std::int64_t e) {
        std::vector<std::int64_t> idx(rank);
        for (std::int64_t o = b; o < e; ++o) {
          std::int64_t rem = o;
          for (std::size_t i = 0; i < rank; ++i) {
            idx[i] = rem / out_strides[i];
            rem %= out_strides[i];
          }
          std::int64_t src = 0;
          for (std::size_t i = 0; i < rank; ++i)
            src += idx[i] * in_strides[static_cast<std::size_t>(perm[i])];
          Y[o] = X[src];
        }
      });
  return out;
}

// ---- elementwise --------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  const std::int64_t nb = b.numel();
  check(nb > 0 && a.numel() % nb == 0, "add: incompatible broadcast");
  Tensor out(a.shape());
  const float* X = a.data();
  const float* B = b.data();
  float* Y = out.data();
  kernel_pool().parallel_for(0, a.numel(),
                                    [&](std::int64_t lo, std::int64_t hi) {
                                      for (std::int64_t i = lo; i < hi; ++i)
                                        Y[i] = X[i] + B[i % nb];
                                    });
  return out;
}

Tensor add_reduce_grad(const Tensor& g, const Shape& b_shape) {
  const std::int64_t nb = b_shape.numel();
  if (nb == g.numel()) return g.clone();
  Tensor db(b_shape, 0.0f);
  float* D = db.data();
  const float* G = g.data();
  for (std::int64_t i = 0; i < g.numel(); ++i) D[i % nb] += G[i];
  return db;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  const std::int64_t nb = b.numel();
  check(nb > 0 && a.numel() % nb == 0, "mul: incompatible broadcast");
  Tensor out(a.shape());
  const float* X = a.data();
  const float* B = b.data();
  float* Y = out.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) Y[i] = X[i] * B[i % nb];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a.clone();
  out.scale_(s);
  return out;
}

Tensor relu(const Tensor& a) {
  return elementwise_unary(a, [](float x) { return x > 0 ? x : 0.0f; });
}

Tensor relu_grad(const Tensor& g, const Tensor& x) {
  Tensor out(g.shape());
  const float* G = g.data();
  const float* X = x.data();
  float* Y = out.data();
  for (std::int64_t i = 0; i < g.numel(); ++i) Y[i] = X[i] > 0 ? G[i] : 0.0f;
  return out;
}

Tensor gelu(const Tensor& a) {
  return elementwise_unary(a, [](float x) {
    return static_cast<float>(0.5 * x * (1.0 + std::erf(x * kInvSqrt2)));
  });
}

Tensor gelu_grad(const Tensor& g, const Tensor& x) {
  Tensor out(g.shape());
  const float* G = g.data();
  const float* X = x.data();
  float* Y = out.data();
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    const double xi = X[i];
    const double cdf = 0.5 * (1.0 + std::erf(xi * kInvSqrt2));
    const double pdf = kInvSqrt2Pi * std::exp(-0.5 * xi * xi);
    Y[i] = G[i] * static_cast<float>(cdf + xi * pdf);
  }
  return out;
}

Tensor tanh_op(const Tensor& a) {
  return elementwise_unary(a, [](float x) { return std::tanh(x); });
}

Tensor tanh_grad(const Tensor& g, const Tensor& y) {
  Tensor out(g.shape());
  const float* G = g.data();
  const float* Y = y.data();
  float* D = out.data();
  for (std::int64_t i = 0; i < g.numel(); ++i) D[i] = G[i] * (1.0f - Y[i] * Y[i]);
  return out;
}

// ---- softmax / layernorm -------------------------------------------------------

Tensor softmax_lastdim(const Tensor& a) {
  const std::int64_t c = a.shape().dims.back();
  const std::int64_t rows = a.numel() / c;
  Tensor out(a.shape());
  const float* X = a.data();
  float* Y = out.data();
  kernel_pool().parallel_for(0, rows, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* x = X + r * c;
      float* y = Y + r * c;
      float mx = x[0];
      for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, x[j]);
      double sum = 0;
      for (std::int64_t j = 0; j < c; ++j) {
        y[j] = std::exp(x[j] - mx);
        sum += y[j];
      }
      const auto inv = static_cast<float>(1.0 / sum);
      for (std::int64_t j = 0; j < c; ++j) y[j] *= inv;
    }
  });
  return out;
}

Tensor softmax_grad(const Tensor& g, const Tensor& y) {
  const std::int64_t c = y.shape().dims.back();
  const std::int64_t rows = y.numel() / c;
  Tensor out(y.shape());
  const float* G = g.data();
  const float* Y = y.data();
  float* D = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* gr = G + r * c;
    const float* yr = Y + r * c;
    float* dr = D + r * c;
    double dot = 0;
    for (std::int64_t j = 0; j < c; ++j) dot += static_cast<double>(gr[j]) * yr[j];
    for (std::int64_t j = 0; j < c; ++j)
      dr[j] = yr[j] * static_cast<float>(gr[j] - dot);
  }
  return out;
}

LayerNormResult layernorm(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps) {
  const std::int64_t h = x.shape().dims.back();
  check(gamma.numel() == h && beta.numel() == h, "layernorm: param shape");
  const std::int64_t rows = x.numel() / h;
  LayerNormResult res{Tensor(x.shape()), Tensor(Shape{rows}), Tensor(Shape{rows})};
  const float* X = x.data();
  const float* Gm = gamma.data();
  const float* Bt = beta.data();
  float* Y = res.y.data();
  float* Mean = res.mean.data();
  float* Rstd = res.rstd.data();
  kernel_pool().parallel_for(0, rows, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const float* xr = X + r * h;
      float* yr = Y + r * h;
      double mu = 0;
      for (std::int64_t j = 0; j < h; ++j) mu += xr[j];
      mu /= h;
      double var = 0;
      for (std::int64_t j = 0; j < h; ++j) var += (xr[j] - mu) * (xr[j] - mu);
      var /= h;
      const double rstd = 1.0 / std::sqrt(var + eps);
      Mean[r] = static_cast<float>(mu);
      Rstd[r] = static_cast<float>(rstd);
      for (std::int64_t j = 0; j < h; ++j)
        yr[j] = static_cast<float>((xr[j] - mu) * rstd) * Gm[j] + Bt[j];
    }
  });
  return res;
}

LayerNormGrads layernorm_grad(const Tensor& g, const Tensor& x,
                              const Tensor& gamma, const LayerNormResult& fw) {
  const std::int64_t h = x.shape().dims.back();
  const std::int64_t rows = x.numel() / h;
  LayerNormGrads out{Tensor(x.shape()), Tensor(Shape{h}, 0.0f), Tensor(Shape{h}, 0.0f)};
  const float* G = g.data();
  const float* X = x.data();
  const float* Gm = gamma.data();
  const float* Mean = fw.mean.data();
  const float* Rstd = fw.rstd.data();
  float* DX = out.dx.data();
  float* DG = out.dgamma.data();
  float* DB = out.dbeta.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* gr = G + r * h;
    const float* xr = X + r * h;
    float* dxr = DX + r * h;
    const double mu = Mean[r], rstd = Rstd[r];
    double s1 = 0, s2 = 0;  // mean(dy*gamma), mean(dy*gamma*xhat)
    for (std::int64_t j = 0; j < h; ++j) {
      const double xhat = (xr[j] - mu) * rstd;
      const double dyg = static_cast<double>(gr[j]) * Gm[j];
      s1 += dyg;
      s2 += dyg * xhat;
      DG[j] += static_cast<float>(gr[j] * xhat);
      DB[j] += gr[j];
    }
    s1 /= h;
    s2 /= h;
    for (std::int64_t j = 0; j < h; ++j) {
      const double xhat = (xr[j] - mu) * rstd;
      const double dyg = static_cast<double>(gr[j]) * Gm[j];
      dxr[j] = static_cast<float>(rstd * (dyg - s1 - xhat * s2));
    }
  }
  return out;
}

// ---- lookup & loss ----------------------------------------------------------

Tensor embedding(const Tensor& ids, const Tensor& table) {
  const std::int64_t n = ids.numel();
  const std::int64_t v = table.shape().dims[0];
  const std::int64_t h = table.shape().dims[1];
  Shape out_shape = ids.shape();
  out_shape.dims.push_back(h);
  Tensor out(out_shape);
  const float* T = table.data();
  float* Y = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto row = static_cast<std::int64_t>(ids.at(i));
    check(row >= 0 && row < v, "embedding: index out of range");
    std::copy_n(T + row * h, h, Y + i * h);
  }
  return out;
}

Tensor embedding_grad(const Tensor& g, const Tensor& ids,
                      const Shape& table_shape) {
  Tensor dt(table_shape, 0.0f);
  const std::int64_t h = table_shape.dims[1];
  const float* G = g.data();
  float* D = dt.data();
  for (std::int64_t i = 0; i < ids.numel(); ++i) {
    const auto row = static_cast<std::int64_t>(ids.at(i));
    float* drow = D + row * h;
    const float* grow = G + i * h;
    for (std::int64_t j = 0; j < h; ++j) drow[j] += grow[j];
  }
  return dt;
}

CrossEntropyResult cross_entropy(const Tensor& logits, const Tensor& targets) {
  const std::int64_t c = logits.shape().dims.back();
  const std::int64_t n = logits.numel() / c;
  check(targets.numel() == n, "cross_entropy: target count mismatch");
  CrossEntropyResult res{Tensor(Shape{}), softmax_lastdim(logits)};
  double loss = 0;
  const float* P = res.probs.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto t = static_cast<std::int64_t>(targets.at(i));
    check(t >= 0 && t < c, "cross_entropy: target out of range");
    loss -= std::log(std::max(1e-12, static_cast<double>(P[i * c + t])));
  }
  res.loss.at(0) = static_cast<float>(loss / n);
  return res;
}

Tensor cross_entropy_grad(const Tensor& probs, const Tensor& targets,
                          float upstream) {
  const std::int64_t c = probs.shape().dims.back();
  const std::int64_t n = probs.numel() / c;
  Tensor dl = probs.clone();
  float* D = dl.data();
  for (std::int64_t i = 0; i < n; ++i)
    D[i * c + static_cast<std::int64_t>(targets.at(i))] -= 1.0f;
  dl.scale_(upstream / static_cast<float>(n));
  return dl;
}

// ---- convolutional ------------------------------------------------------------

Tensor conv2d(const Tensor& x, const Tensor& w, std::int64_t stride,
              std::int64_t pad) {
  const auto& xs = x.shape().dims;  // [N, C, H, W]
  const auto& ws = w.shape().dims;  // [K, C, kh, kw]
  check(xs.size() == 4 && ws.size() == 4 && xs[1] == ws[1], "conv2d shapes");
  const std::int64_t N = xs[0], C = xs[1], H = xs[2], W = xs[3];
  const std::int64_t K = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t Ho = (H + 2 * pad - kh) / stride + 1;
  const std::int64_t Wo = (W + 2 * pad - kw) / stride + 1;
  Tensor out(Shape{N, K, Ho, Wo});
  const float* X = x.data();
  const float* Wt = w.data();
  float* Y = out.data();

  static KernelMetrics km("conv2d");
  km.record(2.0 * static_cast<double>(N * K * Ho * Wo) *
                static_cast<double>(C * kh * kw),
            tensor_bytes(x, w, out));
  if (!naive_kernels()) {
    detail::blocked_conv2d(X, Wt, Y, N, C, H, W, K, kh, kw, stride, pad, Ho,
                           Wo, kernel_pool());
    return out;
  }
  kernel_pool().parallel_for(0, N * K, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t n = p / K, k = p % K;
      float* plane = Y + (n * K + k) * Ho * Wo;
      for (std::int64_t ho = 0; ho < Ho; ++ho) {
        for (std::int64_t wo = 0; wo < Wo; ++wo) {
          double acc = 0;
          for (std::int64_t c = 0; c < C; ++c) {
            const float* xc = X + (n * C + c) * H * W;
            const float* wc = Wt + (k * C + c) * kh * kw;
            for (std::int64_t i = 0; i < kh; ++i) {
              const std::int64_t hi = ho * stride - pad + i;
              if (hi < 0 || hi >= H) continue;
              for (std::int64_t j = 0; j < kw; ++j) {
                const std::int64_t wi = wo * stride - pad + j;
                if (wi < 0 || wi >= W) continue;
                acc += static_cast<double>(xc[hi * W + wi]) * wc[i * kw + j];
              }
            }
          }
          plane[ho * Wo + wo] = static_cast<float>(acc);
        }
      }
    }
  });
  return out;
}

Tensor conv2d_grad_x(const Tensor& g, const Tensor& w, const Shape& x_shape,
                     std::int64_t stride, std::int64_t pad) {
  const auto& gs = g.shape().dims;  // [N, K, Ho, Wo]
  const auto& ws = w.shape().dims;
  const std::int64_t N = gs[0], K = gs[1], Ho = gs[2], Wo = gs[3];
  const std::int64_t C = ws[1], kh = ws[2], kw = ws[3];
  const std::int64_t H = x_shape.dims[2], W = x_shape.dims[3];
  Tensor dx(x_shape, 0.0f);
  const float* G = g.data();
  const float* Wt = w.data();
  float* DX = dx.data();

  static KernelMetrics km("conv2d_grad_x");
  km.record(2.0 * static_cast<double>(N * K * Ho * Wo) *
                static_cast<double>(C * kh * kw),
            tensor_bytes(g, w, dx));
  if (!naive_kernels()) {
    detail::blocked_conv2d_grad_x(G, Wt, DX, N, C, H, W, K, kh, kw, stride,
                                  pad, Ho, Wo, kernel_pool());
    return dx;
  }
  // Gather form over dx elements: deterministic under parallelism.
  kernel_pool().parallel_for(0, N * C, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t n = p / C, c = p % C;
      float* plane = DX + (n * C + c) * H * W;
      for (std::int64_t h = 0; h < H; ++h) {
        for (std::int64_t wv = 0; wv < W; ++wv) {
          double acc = 0;
          for (std::int64_t i = 0; i < kh; ++i) {
            const std::int64_t num = h + pad - i;
            if (num < 0 || num % stride != 0) continue;
            const std::int64_t ho = num / stride;
            if (ho >= Ho) continue;
            for (std::int64_t j = 0; j < kw; ++j) {
              const std::int64_t numw = wv + pad - j;
              if (numw < 0 || numw % stride != 0) continue;
              const std::int64_t wo = numw / stride;
              if (wo >= Wo) continue;
              for (std::int64_t k = 0; k < K; ++k) {
                acc += static_cast<double>(
                           G[((n * K + k) * Ho + ho) * Wo + wo]) *
                       Wt[((k * C + c) * kh + i) * kw + j];
              }
            }
          }
          plane[h * W + wv] = static_cast<float>(acc);
        }
      }
    }
  });
  return dx;
}

Tensor conv2d_grad_w(const Tensor& g, const Tensor& x, const Shape& w_shape,
                     std::int64_t stride, std::int64_t pad) {
  const auto& gs = g.shape().dims;
  const auto& xs = x.shape().dims;
  const std::int64_t N = gs[0], K = gs[1], Ho = gs[2], Wo = gs[3];
  const std::int64_t C = xs[1], H = xs[2], W = xs[3];
  const std::int64_t kh = w_shape.dims[2], kw = w_shape.dims[3];
  Tensor dw(w_shape, 0.0f);
  const float* G = g.data();
  const float* X = x.data();
  float* DW = dw.data();

  static KernelMetrics km("conv2d_grad_w");
  km.record(2.0 * static_cast<double>(N * K * Ho * Wo) *
                static_cast<double>(C * kh * kw),
            tensor_bytes(g, x, dw));
  if (!naive_kernels()) {
    detail::blocked_conv2d_grad_w(G, X, DW, N, C, H, W, K, kh, kw, stride,
                                  pad, Ho, Wo, kernel_pool());
    return dw;
  }
  kernel_pool().parallel_for(0, K * C, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t k = p / C, c = p % C;
      float* wplane = DW + (k * C + c) * kh * kw;
      for (std::int64_t i = 0; i < kh; ++i) {
        for (std::int64_t j = 0; j < kw; ++j) {
          double acc = 0;
          for (std::int64_t n = 0; n < N; ++n) {
            const float* gp = G + (n * K + k) * Ho * Wo;
            const float* xp = X + (n * C + c) * H * W;
            for (std::int64_t ho = 0; ho < Ho; ++ho) {
              const std::int64_t hi = ho * stride - pad + i;
              if (hi < 0 || hi >= H) continue;
              for (std::int64_t wo = 0; wo < Wo; ++wo) {
                const std::int64_t wi = wo * stride - pad + j;
                if (wi < 0 || wi >= W) continue;
                acc += static_cast<double>(gp[ho * Wo + wo]) * xp[hi * W + wi];
              }
            }
          }
          wplane[i * kw + j] = static_cast<float>(acc);
        }
      }
    }
  });
  return dw;
}

BatchNormResult batchnorm2d(const Tensor& x, const Tensor& gamma,
                            const Tensor& beta, float eps) {
  const auto& xs = x.shape().dims;
  const std::int64_t N = xs[0], C = xs[1], HW = xs[2] * xs[3];
  BatchNormResult res{Tensor(x.shape()), Tensor(Shape{C}), Tensor(Shape{C})};
  const float* X = x.data();
  const float* Gm = gamma.data();
  const float* Bt = beta.data();
  float* Y = res.y.data();
  kernel_pool().parallel_for(0, C, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      double mu = 0;
      for (std::int64_t n = 0; n < N; ++n) {
        const float* xc = X + (n * C + c) * HW;
        for (std::int64_t i = 0; i < HW; ++i) mu += xc[i];
      }
      mu /= static_cast<double>(N * HW);
      double var = 0;
      for (std::int64_t n = 0; n < N; ++n) {
        const float* xc = X + (n * C + c) * HW;
        for (std::int64_t i = 0; i < HW; ++i) var += (xc[i] - mu) * (xc[i] - mu);
      }
      var /= static_cast<double>(N * HW);
      const double rstd = 1.0 / std::sqrt(var + eps);
      res.mean.at(c) = static_cast<float>(mu);
      res.rstd.at(c) = static_cast<float>(rstd);
      for (std::int64_t n = 0; n < N; ++n) {
        const float* xc = X + (n * C + c) * HW;
        float* yc = Y + (n * C + c) * HW;
        for (std::int64_t i = 0; i < HW; ++i)
          yc[i] = static_cast<float>((xc[i] - mu) * rstd) * Gm[c] + Bt[c];
      }
    }
  });
  return res;
}

BatchNormGrads batchnorm2d_grad(const Tensor& g, const Tensor& x,
                                const Tensor& gamma,
                                const BatchNormResult& fw) {
  const auto& xs = x.shape().dims;
  const std::int64_t N = xs[0], C = xs[1], HW = xs[2] * xs[3];
  const auto M = static_cast<double>(N * HW);
  BatchNormGrads out{Tensor(x.shape()), Tensor(Shape{C}, 0.0f), Tensor(Shape{C}, 0.0f)};
  const float* G = g.data();
  const float* X = x.data();
  const float* Gm = gamma.data();
  float* DX = out.dx.data();
  kernel_pool().parallel_for(0, C, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const double mu = fw.mean.at(c), rstd = fw.rstd.at(c);
      double dbeta = 0, dgamma = 0;
      for (std::int64_t n = 0; n < N; ++n) {
        const float* gc = G + (n * C + c) * HW;
        const float* xc = X + (n * C + c) * HW;
        for (std::int64_t i = 0; i < HW; ++i) {
          dbeta += gc[i];
          dgamma += gc[i] * (xc[i] - mu) * rstd;
        }
      }
      out.dbeta.at(c) = static_cast<float>(dbeta);
      out.dgamma.at(c) = static_cast<float>(dgamma);
      const double k = Gm[c] * rstd / M;
      for (std::int64_t n = 0; n < N; ++n) {
        const float* gc = G + (n * C + c) * HW;
        const float* xc = X + (n * C + c) * HW;
        float* dxc = DX + (n * C + c) * HW;
        for (std::int64_t i = 0; i < HW; ++i) {
          const double xhat = (xc[i] - mu) * rstd;
          dxc[i] = static_cast<float>(k * (M * gc[i] - dbeta - xhat * dgamma));
        }
      }
    }
  });
  return out;
}

MaxPoolResult maxpool2d(const Tensor& x, std::int64_t kernel,
                        std::int64_t stride, std::int64_t pad) {
  const auto& xs = x.shape().dims;
  const std::int64_t N = xs[0], C = xs[1], H = xs[2], W = xs[3];
  const std::int64_t Ho = (H + 2 * pad - kernel) / stride + 1;
  const std::int64_t Wo = (W + 2 * pad - kernel) / stride + 1;
  MaxPoolResult res{Tensor(Shape{N, C, Ho, Wo}), {}};
  res.argmax.assign(static_cast<std::size_t>(N * C * Ho * Wo), -1);
  const float* X = x.data();
  float* Y = res.y.data();
  for (std::int64_t p = 0; p < N * C; ++p) {
    const float* xc = X + p * H * W;
    float* yc = Y + p * Ho * Wo;
    for (std::int64_t ho = 0; ho < Ho; ++ho) {
      for (std::int64_t wo = 0; wo < Wo; ++wo) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = -1;
        for (std::int64_t i = 0; i < kernel; ++i) {
          const std::int64_t hi = ho * stride - pad + i;
          if (hi < 0 || hi >= H) continue;
          for (std::int64_t j = 0; j < kernel; ++j) {
            const std::int64_t wi = wo * stride - pad + j;
            if (wi < 0 || wi >= W) continue;
            if (xc[hi * W + wi] > best) {
              best = xc[hi * W + wi];
              best_idx = p * H * W + hi * W + wi;
            }
          }
        }
        yc[ho * Wo + wo] = best;
        res.argmax[static_cast<std::size_t>(p * Ho * Wo + ho * Wo + wo)] = best_idx;
      }
    }
  }
  return res;
}

Tensor maxpool2d_grad(const Tensor& g, const MaxPoolResult& fw,
                      const Shape& x_shape) {
  Tensor dx(x_shape, 0.0f);
  float* DX = dx.data();
  const float* G = g.data();
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    const std::int64_t src = fw.argmax[static_cast<std::size_t>(i)];
    if (src >= 0) DX[src] += G[i];
  }
  return dx;
}

Tensor global_avgpool2d(const Tensor& x) {
  const auto& xs = x.shape().dims;
  const std::int64_t N = xs[0], C = xs[1], HW = xs[2] * xs[3];
  Tensor out(Shape{N, C, 1, 1});
  const float* X = x.data();
  for (std::int64_t p = 0; p < N * C; ++p) {
    double acc = 0;
    for (std::int64_t i = 0; i < HW; ++i) acc += X[p * HW + i];
    out.at(p) = static_cast<float>(acc / static_cast<double>(HW));
  }
  return out;
}

Tensor concat(const std::vector<Tensor>& parts, int axis) {
  check(!parts.empty(), "concat: no inputs");
  const Shape& first = parts[0].shape();
  const auto ax = static_cast<std::size_t>(axis);
  check(ax < first.rank(), "concat: axis out of range");
  Shape out_shape = first;
  out_shape.dims[ax] = 0;
  std::int64_t outer = 1, inner = 1;
  for (std::size_t i = 0; i < ax; ++i) outer *= first.dims[i];
  for (std::size_t i = ax + 1; i < first.rank(); ++i) inner *= first.dims[i];
  for (const Tensor& t : parts) {
    check(t.shape().rank() == first.rank(), "concat: rank mismatch");
    for (std::size_t i = 0; i < first.rank(); ++i)
      check(i == ax || t.shape().dims[i] == first.dims[i],
            "concat: non-axis dimension mismatch");
    out_shape.dims[ax] += t.shape().dims[ax];
  }
  Tensor out(out_shape);
  const std::int64_t out_axis = out_shape.dims[ax];
  std::int64_t offset = 0;
  for (const Tensor& t : parts) {
    const std::int64_t part_axis = t.shape().dims[ax];
    const float* X = t.data();
    float* Y = out.data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = X + o * part_axis * inner;
      float* dst = Y + (o * out_axis + offset) * inner;
      std::copy_n(src, part_axis * inner, dst);
    }
    offset += part_axis;
  }
  return out;
}

std::vector<Tensor> concat_grad(const Tensor& g,
                                const std::vector<Shape>& part_shapes,
                                int axis) {
  const auto ax = static_cast<std::size_t>(axis);
  const Shape& gs = g.shape();
  std::int64_t outer = 1, inner = 1;
  for (std::size_t i = 0; i < ax; ++i) outer *= gs.dims[i];
  for (std::size_t i = ax + 1; i < gs.rank(); ++i) inner *= gs.dims[i];
  const std::int64_t g_axis = gs.dims[ax];
  std::vector<Tensor> grads;
  grads.reserve(part_shapes.size());
  std::int64_t offset = 0;
  for (const Shape& ps : part_shapes) {
    const std::int64_t part_axis = ps.dims[ax];
    Tensor dp(ps);
    const float* G = g.data();
    float* D = dp.data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = G + (o * g_axis + offset) * inner;
      float* dst = D + o * part_axis * inner;
      std::copy_n(src, part_axis * inner, dst);
    }
    offset += part_axis;
    grads.push_back(std::move(dp));
  }
  check(offset == g_axis, "concat_grad: slices do not cover the gradient");
  return grads;
}

Tensor global_avgpool2d_grad(const Tensor& g, const Shape& x_shape) {
  const std::int64_t HW = x_shape.dims[2] * x_shape.dims[3];
  Tensor dx(x_shape);
  float* DX = dx.data();
  const float* G = g.data();
  const auto scale_v = 1.0f / static_cast<float>(HW);
  for (std::int64_t p = 0; p < g.numel(); ++p)
    for (std::int64_t i = 0; i < HW; ++i) DX[p * HW + i] = G[p] * scale_v;
  return dx;
}

}  // namespace rannc
