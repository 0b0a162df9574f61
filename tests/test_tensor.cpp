// Tests for the dense tensor, the thread pool, and every forward kernel
// against small hand-computed references — plus the blocked-kernel parity
// suite (blocked vs naive over a ragged shape catalog, bit-identity across
// thread counts) and the slab arena.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <vector>

#include "obs/metrics.h"
#include "tensor/kernels_blocked.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace rannc {
namespace {

TEST(Tensor, ConstructionAndFill) {
  Tensor t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_FLOAT_EQ(t.sum(), 9.0f);
  t.fill(0);
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, CopiesAreShallowCloneIsDeep) {
  Tensor a(Shape{4}, 1.0f);
  Tensor b = a;          // shallow
  Tensor c = a.clone();  // deep
  a.at(0) = 5.0f;
  EXPECT_FLOAT_EQ(b.at(0), 5.0f);
  EXPECT_FLOAT_EQ(c.at(0), 1.0f);
}

TEST(Tensor, ReshapeSharesData) {
  Tensor a(Shape{2, 3}, 2.0f);
  Tensor r = a.reshaped(Shape{6});
  r.at(0) = 7.0f;
  EXPECT_FLOAT_EQ(a.at(0), 7.0f);
  EXPECT_THROW(a.reshaped(Shape{5}), std::invalid_argument);
}

TEST(Tensor, UniformIsDeterministicPerSeed) {
  Tensor a = Tensor::uniform(Shape{100}, 1.0f, 42);
  Tensor b = Tensor::uniform(Shape{100}, 1.0f, 42);
  Tensor c = Tensor::uniform(Shape{100}, 1.0f, 43);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
  EXPECT_GT(max_abs_diff(a, c), 0.0f);
  EXPECT_LE(a.max_abs(), 1.0f);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  ThreadPool::global().parallel_for(0, 10000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  int count = 0;
  ThreadPool::global().parallel_for(5, 5, [&](std::int64_t, std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> total{0};
  ThreadPool::global().parallel_for(0, 3, [&](std::int64_t b, std::int64_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, ParallelEachRunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::global().parallel_each(257, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);

  int count = 0;
  ThreadPool::global().parallel_each(0, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);

  // Unlike parallel_for, small counts are still dispatched per-index
  // (each item may be arbitrarily expensive), including n == 1.
  std::atomic<int> one{0};
  ThreadPool::global().parallel_each(1, [&](std::int64_t i) {
    one += static_cast<int>(i) + 1;
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, ParallelEachWorksWithoutWorkers) {
  ThreadPool solo(0);
  std::vector<int> hits(17, 0);
  solo.parallel_each(17, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// The RANNC_THREADS parser both the kernel pool and the search use. Only
// the text is parsed: no pool is built, so a broken cap costs nothing.
TEST(ThreadPool, ParseThreadCountCapsAndRejects) {
  EXPECT_EQ(parse_thread_count("5"), 5);
  EXPECT_EQ(parse_thread_count("256"), kMaxThreads);
  EXPECT_EQ(parse_thread_count("100000"), kMaxThreads);
  EXPECT_EQ(parse_thread_count("99999999999999999999"), kMaxThreads);
  for (const char* unset : {"0", "-3", "", "garbage", "4x"})
    EXPECT_EQ(parse_thread_count(unset), std::nullopt) << unset;
  EXPECT_EQ(parse_thread_count(nullptr), std::nullopt);
}

TEST(MatMul, SmallReference) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 58);
  EXPECT_FLOAT_EQ(c.at(1), 64);
  EXPECT_FLOAT_EQ(c.at(2), 139);
  EXPECT_FLOAT_EQ(c.at(3), 154);
}

TEST(MatMul, BatchedBothSides) {
  // Two batches of 1x2 @ 2x1.
  Tensor a(Shape{2, 1, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 2, 1}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 17);  // 1*5+2*6
  EXPECT_FLOAT_EQ(c.at(1), 53);  // 3*7+4*8
}

TEST(MatMul, BatchedLhsSharedRhs) {
  Tensor a(Shape{2, 1, 2}, {1, 2, 3, 4});
  Tensor b(Shape{2, 1}, {5, 6});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 17);
  EXPECT_FLOAT_EQ(c.at(1), 39);
}

TEST(MatMul, RejectsMismatchedInner) {
  Tensor a(Shape{2, 3}, 1.0f);
  Tensor b(Shape{4, 2}, 1.0f);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Transpose, Permutes2D) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(a, {1, 0});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(0), 1);
  EXPECT_FLOAT_EQ(t.at(1), 4);
  EXPECT_FLOAT_EQ(t.at(2), 2);
}

TEST(Transpose, Permutes3D) {
  Tensor a(Shape{2, 1, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(a, {1, 0, 2});  // -> [1, 2, 3]
  EXPECT_EQ(t.shape(), (Shape{1, 2, 3}));
  EXPECT_FLOAT_EQ(max_abs_diff(t.reshaped(Shape{6}), a.reshaped(Shape{6})), 0);
}

TEST(Add, BroadcastBias) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3}, {10, 20, 30});
  Tensor c = add(a, b);
  EXPECT_FLOAT_EQ(c.at(0), 11);
  EXPECT_FLOAT_EQ(c.at(5), 36);
}

TEST(Add, ReduceGradSumsOverBroadcast) {
  Tensor g(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor db = add_reduce_grad(g, Shape{3});
  EXPECT_FLOAT_EQ(db.at(0), 5);
  EXPECT_FLOAT_EQ(db.at(1), 7);
  EXPECT_FLOAT_EQ(db.at(2), 9);
  // Equal shapes: identity.
  Tensor same = add_reduce_grad(g, Shape{2, 3});
  EXPECT_FLOAT_EQ(max_abs_diff(same, g), 0);
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Tensor a(Shape{2, 4}, {1, 2, 3, 4, -1, 0, 1, 2});
  Tensor s = softmax_lastdim(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int j = 0; j < 4; ++j) sum += s.at(r * 4 + j);
    EXPECT_NEAR(sum, 1.0f, 1e-6);
    EXPECT_LT(s.at(r * 4), s.at(r * 4 + 3));
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Tensor a(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor s = softmax_lastdim(a);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(s.at(j), 1.0f / 3.0f, 1e-6);
}

TEST(LayerNorm, NormalizesRows) {
  Tensor x(Shape{2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor gamma(Shape{4}, 1.0f);
  Tensor beta(Shape{4}, 0.0f);
  LayerNormResult r = layernorm(x, gamma, beta);
  for (int row = 0; row < 2; ++row) {
    float mean = 0, var = 0;
    for (int j = 0; j < 4; ++j) mean += r.y.at(row * 4 + j);
    EXPECT_NEAR(mean / 4, 0.0f, 1e-5);
    for (int j = 0; j < 4; ++j) var += r.y.at(row * 4 + j) * r.y.at(row * 4 + j);
    EXPECT_NEAR(var / 4, 1.0f, 1e-3);
  }
}

TEST(Gelu, KnownValues) {
  Tensor x(Shape{3}, {0.0f, 1.0f, -1.0f});
  Tensor y = gelu(x);
  EXPECT_NEAR(y.at(0), 0.0f, 1e-6);
  EXPECT_NEAR(y.at(1), 0.841345f, 1e-5);
  EXPECT_NEAR(y.at(2), -0.158655f, 1e-5);
}

TEST(Embedding, GathersRows) {
  Tensor ids(Shape{3}, {2, 0, 1});
  Tensor table(Shape{3, 2}, {10, 11, 20, 21, 30, 31});
  Tensor out = embedding(ids, table);
  EXPECT_FLOAT_EQ(out.at(0), 30);
  EXPECT_FLOAT_EQ(out.at(2), 10);
  EXPECT_FLOAT_EQ(out.at(4), 20);
}

TEST(Embedding, GradScattersRows) {
  Tensor ids(Shape{2}, {1, 1});  // same row twice: grads accumulate
  Tensor g(Shape{2, 2}, {1, 2, 3, 4});
  Tensor dt = embedding_grad(g, ids, Shape{3, 2});
  EXPECT_FLOAT_EQ(dt.at(2), 4);  // 1 + 3
  EXPECT_FLOAT_EQ(dt.at(3), 6);  // 2 + 4
  EXPECT_FLOAT_EQ(dt.at(0), 0);
}

TEST(CrossEntropy, UniformLogitsGiveLogC) {
  Tensor logits(Shape{2, 4}, 0.0f);
  Tensor targets(Shape{2}, {0, 3});
  CrossEntropyResult r = cross_entropy(logits, targets);
  EXPECT_NEAR(r.loss.at(0), std::log(4.0f), 1e-5);
}

TEST(Conv2d, IdentityKernel) {
  Tensor x(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w(Shape{1, 1, 1, 1}, {2.0f});
  Tensor y = conv2d(x, w, 1, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  EXPECT_FLOAT_EQ(y.at(4), 10.0f);
}

TEST(Conv2d, StrideAndPadding) {
  Tensor x(Shape{1, 1, 4, 4}, 1.0f);
  Tensor w(Shape{1, 1, 3, 3}, 1.0f);
  Tensor y = conv2d(x, w, 2, 1);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0), 4.0f);  // corner: 2x2 valid window
}

TEST(MaxPool, TracksArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1, 5, 3, 2});
  MaxPoolResult r = maxpool2d(x, 2, 2, 0);
  EXPECT_EQ(r.y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(r.y.at(0), 5.0f);
  EXPECT_EQ(r.argmax[0], 1);
  Tensor g(Shape{1, 1, 1, 1}, {2.0f});
  Tensor dx = maxpool2d_grad(g, r, x.shape());
  EXPECT_FLOAT_EQ(dx.at(1), 2.0f);
  EXPECT_FLOAT_EQ(dx.at(0), 0.0f);
}

TEST(GlobalAvgPool, AveragesPlane) {
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = global_avgpool2d(x);
  EXPECT_FLOAT_EQ(y.at(0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(1), 25.0f);
}

// ---- blocked-kernel parity --------------------------------------------------

/// Pins the kernel path for one scope and restores the blocked default.
struct NaiveScope {
  explicit NaiveScope(bool naive) { set_naive_kernels(naive); }
  ~NaiveScope() { set_naive_kernels(false); }
};

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

struct MmCase {
  std::int64_t ba, m, k, n;
  bool shared_b;
};

// Ragged sizes on purpose: every tile/vector tail path gets exercised.
const std::vector<MmCase> kMmCatalog = {
    {1, 1, 1, 1, true},      {1, 4, 16, 16, true},   {1, 33, 385, 130, true},
    {2, 7, 19, 23, true},    {3, 64, 64, 64, false}, {1, 128, 384, 384, true},
    {4, 5, 3, 2, false},     {1, 1, 512, 1, true},   {2, 31, 17, 257, true},
    {1, 63, 300, 15, true},  {2, 8, 1, 8, false},
};

TEST(KernelParity, MatmulFamilyMatchesNaiveOverCatalog) {
  for (const MmCase& c : kMmCatalog) {
    Tensor a = Tensor::uniform(Shape{c.ba, c.m, c.k}, 1.0f,
                               17 * static_cast<std::uint64_t>(c.m) + c.k);
    Tensor b = c.shared_b
                   ? Tensor::uniform(Shape{c.k, c.n}, 1.0f, 7 * c.n + 1)
                   : Tensor::uniform(Shape{c.ba, c.k, c.n}, 1.0f, 7 * c.n + 1);
    Tensor cn, dan, dbn, g;
    {
      NaiveScope naive(true);
      cn = matmul(a, b);
      g = Tensor::uniform(cn.shape(), 1.0f, 99);
      dan = matmul_grad_a(g, b);
      dbn = matmul_grad_b(a, g, b.shape());
    }
    Tensor cb = matmul(a, b);
    Tensor dab = matmul_grad_a(g, b);
    Tensor dbb = matmul_grad_b(a, g, b.shape());
    const std::string at = "case ba=" + std::to_string(c.ba) +
                           " m=" + std::to_string(c.m) +
                           " k=" + std::to_string(c.k) +
                           " n=" + std::to_string(c.n);
    EXPECT_LE(max_abs_diff(cn, cb), 1e-5f) << at;
    EXPECT_LE(max_abs_diff(dbn, dbb), 1e-5f) << at;
    // grad_a double-accumulates in both paths: the blocked lane tree and the
    // naive sequential sum differ by ~1e-16 relative before rounding to
    // float, which gives the same floats on this catalog (not guaranteed in
    // general; the lane-tree oracle below pins the blocked bits).
    EXPECT_TRUE(bit_equal(dan, dab)) << at;
  }
}

struct ConvCase {
  std::int64_t N, C, H, W, K, kh, kw, stride, pad;
};

const std::vector<ConvCase> kConvCatalog = {
    {2, 3, 13, 17, 4, 3, 3, 1, 1}, {1, 2, 8, 8, 3, 5, 5, 2, 2},
    {2, 4, 7, 9, 2, 3, 3, 2, 0},   {1, 1, 5, 5, 1, 1, 1, 1, 0},
    {2, 3, 16, 16, 8, 3, 3, 1, 0}, {1, 2, 9, 9, 2, 7, 7, 3, 3},
};

TEST(KernelParity, ConvFamilyBitIdenticalToNaive) {
  for (const ConvCase& c : kConvCatalog) {
    Tensor x = Tensor::uniform(Shape{c.N, c.C, c.H, c.W}, 1.0f, 5);
    Tensor w = Tensor::uniform(Shape{c.K, c.C, c.kh, c.kw}, 1.0f, 6);
    Tensor yn, dxn, dwn, g;
    {
      NaiveScope naive(true);
      yn = conv2d(x, w, c.stride, c.pad);
      g = Tensor::uniform(yn.shape(), 1.0f, 8);
      dxn = conv2d_grad_x(g, w, x.shape(), c.stride, c.pad);
      dwn = conv2d_grad_w(g, x, w.shape(), c.stride, c.pad);
    }
    Tensor yb = conv2d(x, w, c.stride, c.pad);
    Tensor dxb = conv2d_grad_x(g, w, x.shape(), c.stride, c.pad);
    Tensor dwb = conv2d_grad_w(g, x, w.shape(), c.stride, c.pad);
    const std::string at = "case kh=" + std::to_string(c.kh) +
                           " stride=" + std::to_string(c.stride) +
                           " pad=" + std::to_string(c.pad);
    // Both paths accumulate each output element in double over the same
    // per-element term order, so blocked == naive to the bit.
    EXPECT_TRUE(bit_equal(yn, yb)) << at;
    EXPECT_TRUE(bit_equal(dxn, dxb)) << at;
    EXPECT_LE(max_abs_diff(dwn, dwb), 1e-5f) << at;
  }
}

struct TrCase {
  std::vector<std::int64_t> dims;
  std::vector<int> perm;
};

// Mixes the trailing-swap fast path (last two axes), the row-granular
// general path, power-of-two sizes (the staging-buffer case), and ragged
// tails.
const std::vector<TrCase> kTrCatalog = {
    {{5, 7}, {1, 0}},           {{64, 64}, {1, 0}},
    {{128, 96}, {1, 0}},        {{129, 65}, {1, 0}},
    {{1, 300}, {1, 0}},         {{2, 3, 5}, {0, 2, 1}},
    {{2, 4, 16, 16}, {0, 1, 3, 2}}, {{2, 3, 4, 5}, {0, 2, 1, 3}},
    {{3, 4, 5}, {2, 0, 1}},     {{2, 3, 4, 5}, {3, 2, 1, 0}},
    {{6, 1, 9}, {1, 0, 2}},
};

TEST(KernelParity, TransposeBitIdenticalToNaiveOverCatalog) {
  for (const TrCase& c : kTrCatalog) {
    Shape s;
    s.dims = c.dims;
    Tensor x = Tensor::uniform(s, 1.0f, 11 * c.dims[0] + c.dims.back());
    Tensor yn;
    {
      NaiveScope naive(true);
      yn = transpose(x, c.perm);
    }
    Tensor yb = transpose(x, c.perm);
    // A transpose is a pure permutation: any evaluation order moves the
    // same bits, so blocked == naive exactly.
    EXPECT_TRUE(bit_equal(yn, yb))
        << "rank=" << c.dims.size() << " d0=" << c.dims[0];
  }
}

TEST(KernelParity, BlockedResultsBitIdenticalAcrossThreadCounts) {
  ThreadPool solo(0), wide(3);
  Tensor a = Tensor::uniform(Shape{2, 77, 151}, 1.0f, 1);
  Tensor b = Tensor::uniform(Shape{151, 203}, 1.0f, 2);
  set_kernel_pool(&solo);
  Tensor c1 = matmul(a, b);
  Tensor g = Tensor::uniform(c1.shape(), 1.0f, 3);
  Tensor da1 = matmul_grad_a(g, b);
  Tensor db1 = matmul_grad_b(a, g, b.shape());
  Tensor x = Tensor::uniform(Shape{2, 3, 11, 13}, 1.0f, 4);
  Tensor w = Tensor::uniform(Shape{4, 3, 3, 3}, 1.0f, 5);
  Tensor y1 = conv2d(x, w, 1, 1);
  Tensor t1 = transpose(a, {0, 2, 1});
  set_kernel_pool(&wide);
  Tensor c2 = matmul(a, b);
  Tensor da2 = matmul_grad_a(g, b);
  Tensor db2 = matmul_grad_b(a, g, b.shape());
  Tensor y2 = conv2d(x, w, 1, 1);
  Tensor t2 = transpose(a, {0, 2, 1});
  set_kernel_pool(nullptr);
  EXPECT_TRUE(bit_equal(c1, c2));
  EXPECT_TRUE(bit_equal(da1, da2));
  EXPECT_TRUE(bit_equal(db1, db2));
  EXPECT_TRUE(bit_equal(y1, y2));
  EXPECT_TRUE(bit_equal(t1, t2));
}

// ---- matmul_grad_b: float route vs exact (subnormal-immune) route ----------

/// Random values whose magnitude is set per row: normal-range, tiny
/// (1e-30 .. 1e-45), all-subnormal, or mixed within the row, with zeros of
/// both signs sprinkled in.
std::vector<float> magnitude_rows(std::int64_t rows, std::int64_t cols,
                                  std::uint32_t seed) {
  static const float kScales[] = {1.0f,  1e-3f, 1e-30f, 1e-36f, 1e-38f,
                                  1e-39f, 1e-41f, 1e-43f, 1e-45f};
  constexpr int kNumScales = sizeof(kScales) / sizeof(kScales[0]);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    const int kind = static_cast<int>(rng() % 4);
    const float row_scale = kind == 0   ? 1.0f
                            : kind == 1 ? kScales[2 + rng() % 7]
                            : kind == 2 ? kScales[4 + rng() % 5]
                                        : 0.0f;  // mixed: per element
    for (std::int64_t c = 0; c < cols; ++c) {
      const float s = kind == 3 ? kScales[rng() % kNumScales] : row_scale;
      float v = unit(rng) * s;
      if (rng() % 9 == 0) v = (rng() % 2) ? -0.0f : 0.0f;
      out[static_cast<std::size_t>(r * cols + c)] = v;
    }
  }
  return out;
}

enum class Route { kRouted, kFloat, kExact };

/// DB from the blocked grad_b kernel, routed as in production or with every
/// row group forced onto one route.
std::vector<float> grad_b_route(const std::vector<float>& a,
                                const std::vector<float>& g, std::int64_t ba,
                                std::int64_t m, std::int64_t k, std::int64_t n,
                                bool shared_b, Route route) {
  std::vector<float> db(static_cast<std::size_t>((shared_b ? 1 : ba) * k * n),
                        std::nanf(""));
  ThreadPool pool(2);
  if (route == Route::kRouted)
    detail::blocked_matmul_grad_b(a.data(), g.data(), db.data(), ba, m, k, n,
                                  shared_b, pool);
  else
    detail::blocked_matmul_grad_b_forced(a.data(), g.data(), db.data(), ba, m,
                                         k, n, shared_b,
                                         route == Route::kExact, pool);
  return db;
}

bool bit_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

TEST(KernelParity, GradBExactRouteBitIdenticalToFloatRoute) {
  if (!detail::blocked_kernels_simd())
    GTEST_SKIP() << "the exact route exists only in AVX2 builds";
  // Rows % 4 != 0 (leftover rows), n % 8 and n % 4 != 0 (column tails).
  const MmCase cases[] = {
      {1, 4, 3, 8, true},   {1, 7, 5, 13, true},  {2, 9, 4, 21, true},
      {3, 6, 3, 6, false},  {2, 11, 2, 35, false}, {1, 1, 2, 3, true},
      {2, 16, 6, 64, false}, {4, 5, 7, 1, true},
  };
  std::uint32_t seed = 1;
  for (const MmCase& c : cases) {
    for (int rep = 0; rep < 8; ++rep, ++seed) {
      const std::vector<float> a = magnitude_rows(c.ba * c.m, c.k, seed);
      const std::vector<float> g = magnitude_rows(c.ba * c.m, c.n, seed + 1000);
      for (bool shared : {c.shared_b, !c.shared_b}) {
        const std::string at = "ba=" + std::to_string(c.ba) +
                               " m=" + std::to_string(c.m) +
                               " k=" + std::to_string(c.k) +
                               " n=" + std::to_string(c.n) +
                               " shared_b=" + std::to_string(shared) +
                               " seed=" + std::to_string(seed);
        const auto fl =
            grad_b_route(a, g, c.ba, c.m, c.k, c.n, shared, Route::kFloat);
        const auto ex =
            grad_b_route(a, g, c.ba, c.m, c.k, c.n, shared, Route::kExact);
        const auto routed =
            grad_b_route(a, g, c.ba, c.m, c.k, c.n, shared, Route::kRouted);
        EXPECT_TRUE(bit_equal(fl, ex)) << at;
        EXPECT_TRUE(bit_equal(fl, routed)) << at;
      }
    }
  }
  // One 4-row group, k = 1: db = fma(a0, g0, rf(a1*g1)). a0*g0 is a float
  // midpoint (25 significant bits) and a1*g1 = +-2^-80 sits far below it,
  // so the double sum lands exactly on the midpoint with a non-zero error.
  // Rounding that sum straight to float would tie to even; only one
  // correct rounding of the exact value gives the fused result.
  struct Midpoint {
    float a0, g0, tiny, want;
  };
  const float u = 0x1p-12f;
  const Midpoint midpoints[] = {
      // 1 + 2^-11 + 2^-24: ties down to even; +tiny must round up.
      {1 + u, 1 + u, 0x1p-80f, 1 + 0x1p-11f + 0x1p-23f},
      // 1 + 2^-10 + 3*2^-24: ties up to even; -tiny must round down.
      {1 + u, 1 + 3 * u, -0x1p-80f, 1 + 0x1p-10f + 0x1p-23f},
  };
  for (const Midpoint& c : midpoints) {
    for (std::int64_t n : {1, 5, 8, 12}) {
      const std::vector<float> a = {c.a0, 0x1p-40f, 0.0f, 0.0f};
      std::vector<float> g(static_cast<std::size_t>(4 * n), 0.0f);
      for (std::int64_t j = 0; j < n; ++j) {
        g[static_cast<std::size_t>(j)] = c.g0;
        g[static_cast<std::size_t>(n + j)] = c.tiny * 0x1p40f;
      }
      const auto fl = grad_b_route(a, g, 1, 4, 1, n, true, Route::kFloat);
      const auto ex = grad_b_route(a, g, 1, 4, 1, n, true, Route::kExact);
      EXPECT_TRUE(bit_equal(fl, ex)) << "n=" << n;
      EXPECT_EQ(ex[0], c.want) << "n=" << n;
    }
  }
}

TEST(KernelParity, GradBMixedRoutesBitIdenticalAcrossThreadCounts) {
  // Normal-range operands except every 7th G row, which is subnormal: the
  // row groups holding one take the exact route, the others stay on floats.
  const std::int64_t ba = 2, m = 30, k = 9, n = 27;
  const Tensor au = Tensor::uniform(Shape{ba * m, k}, 1.0f, 77);
  Tensor gu = Tensor::uniform(Shape{ba * m, n}, 1.0f, 78);
  for (std::int64_t r = 3; r < ba * m; r += 7)
    for (std::int64_t j = 0; j < n; ++j) gu.at(r * n + j) *= 1e-39f;
  const std::vector<float> av(au.data(), au.data() + au.numel());
  const std::vector<float> gv(gu.data(), gu.data() + gu.numel());
  const Tensor a(Shape{ba, m, k}, av), g(Shape{ba, m, n}, gv);
  obs::Counter& exact_groups =
      obs::metrics().counter("runtime.kernel.matmul_grad_b.exact_groups");
  ThreadPool solo(0), wide(3);
  for (const Shape& b_shape : {Shape{k, n}, Shape{ba, k, n}}) {
    set_kernel_pool(&solo);
    const std::int64_t e0 = exact_groups.get();
    const Tensor db1 = matmul_grad_b(a, g, b_shape);
    const std::int64_t e1 = exact_groups.get();
    set_kernel_pool(&wide);
    const Tensor db2 = matmul_grad_b(a, g, b_shape);
    const std::int64_t e2 = exact_groups.get();
    set_kernel_pool(nullptr);
    EXPECT_TRUE(bit_equal(db1, db2));
    // Both routes ran: some row groups, but not all of them, went exact.
    // Builds without AVX2 have only the float route.
    const std::int64_t groups = k * ba * ((m + 3) / 4);
    if (detail::blocked_kernels_simd()) {
      EXPECT_GT(e1 - e0, 0);
      EXPECT_LT(e1 - e0, groups);
      // The routing of this input is pinned: the kernel variant (AVX2 or
      // AVX-512) changes the speed of the exact route, not which groups
      // take it.
      EXPECT_EQ(e1 - e0, 81);
    } else {
      EXPECT_EQ(e1 - e0, 0);
    }
    EXPECT_EQ(e2 - e1, e1 - e0);
    // The routed result equals the all-float one.
    const auto fl =
        grad_b_route(av, gv, ba, m, k, n, b_shape.rank() == 2, Route::kFloat);
    EXPECT_TRUE(std::memcmp(fl.data(), db1.data(),
                            fl.size() * sizeof(float)) == 0);
  }
}

// ---- matmul_grad_a: panel kernel vs row-dot oracle vs lane-tree oracle -----

/// One grad_a output in plain scalar code, with the lane tree every build
/// uses: lane t sums g[j]*b[j] over j = t (mod 8) below n8 = 8*floor(n/8) in
/// ascending j, the lanes combine as ((L0+L4)+(L2+L6)) + ((L1+L5)+(L3+L7)),
/// and the tail j >= n8 is added in order. Float products are exact in
/// double, so multiply-then-add here equals the kernels' FMAs.
float lane_tree_dot(const float* g, const float* b, std::int64_t n) {
  double l[8] = {};
  const std::int64_t n8 = n / 8 * 8;
  for (std::int64_t j = 0; j < n8; ++j)
    l[j % 8] += static_cast<double>(g[j]) * b[j];
  double s = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
  for (std::int64_t j = n8; j < n; ++j) s += static_cast<double>(g[j]) * b[j];
  return static_cast<float>(s);
}

/// Rows of uniform values, each row of one kind: plain, tiny (subnormal
/// products), subnormal, signed zeros, +-2^100, or sprinkled with +-Inf and
/// NaN.
std::vector<float> special_rows(std::int64_t rows, std::int64_t cols,
                                std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    const int kind = static_cast<int>(rng() % 6);
    for (std::int64_t c = 0; c < cols; ++c) {
      float v = unit(rng);
      if (kind == 1) v *= 1e-30f;
      if (kind == 2) v *= 1e-39f;
      if (kind == 3 && rng() % 2) v = (rng() % 2) ? -0.0f : 0.0f;
      if (kind == 4 && rng() % 3 == 0) v = (rng() % 2) ? 0x1p100f : -0x1p100f;
      if (kind == 5 && rng() % 7 == 0) {
        const float odd[] = {INFINITY, -INFINITY, NAN};
        v = odd[rng() % 3];
      }
      out[static_cast<std::size_t>(r * cols + c)] = v;
    }
  }
  return out;
}

/// Bit equality, except that any two NaNs match: which NaN payload survives
/// when two meet depends on operand order inside an instruction, not on the
/// association the kernels pin.
bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    if (std::memcmp(&x[i], &y[i], sizeof(float)) != 0) return false;
  }
  return true;
}

struct GradACase {
  std::int64_t bg, m, n, k;
  bool shared_b;
};

// Odd m/n/k, n < 8, n % 8 != 0, batched shared and unshared B, rows that
// need several row blocks (n = 1537), and rows too long for the panel
// kernel's scratch on every build (n = 16001, where it falls back to the
// row dots).
const std::vector<GradACase> kGradACatalog = {
    {1, 1, 1, 1, true},     {1, 3, 5, 7, true},      {2, 7, 13, 9, true},
    {3, 9, 8, 5, false},    {2, 17, 70, 29, false},  {4, 5, 16, 31, true},
    {1, 33, 385, 130, true}, {2, 11, 3, 26, false},  {1, 70, 1537, 30, true},
    {1, 2, 16001, 3, true},  {6, 64, 64, 64, false},  {1, 64, 384, 50, true},
};

std::vector<float> grad_a_with(
    const GradACase& c, const std::vector<float>& g, const std::vector<float>& b,
    ThreadPool& pool, bool rows) {
  std::vector<float> da(static_cast<std::size_t>(c.bg * c.m * c.k),
                        std::nanf(""));
  (rows ? detail::blocked_matmul_grad_a_rows : detail::blocked_matmul_grad_a)(
      g.data(), b.data(), da.data(), c.bg, c.m, c.n, c.k, c.shared_b, pool);
  return da;
}

std::string grad_a_case_name(const GradACase& c) {
  return "bg=" + std::to_string(c.bg) + " m=" + std::to_string(c.m) +
         " n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) +
         " shared_b=" + std::to_string(c.shared_b);
}

TEST(KernelParity, GradAPanelKernelMatchesOraclesBitForBit) {
  ThreadPool solo(0), wide(3);
  std::uint32_t seed = 1;
  for (const GradACase& c : kGradACatalog) {
    const std::vector<float> g = special_rows(c.bg * c.m, c.n, seed++);
    const std::vector<float> b =
        special_rows((c.shared_b ? 1 : c.bg) * c.k, c.n, seed++);
    const std::string at = grad_a_case_name(c);
    std::vector<float> tree(static_cast<std::size_t>(c.bg * c.m * c.k));
    for (std::int64_t bi = 0; bi < c.bg; ++bi)
      for (std::int64_t r = 0; r < c.m; ++r)
        for (std::int64_t kk = 0; kk < c.k; ++kk)
          tree[static_cast<std::size_t>((bi * c.m + r) * c.k + kk)] =
              lane_tree_dot(g.data() + (bi * c.m + r) * c.n,
                            b.data() + ((c.shared_b ? 0 : bi) * c.k + kk) * c.n,
                            c.n);
    const auto rows = grad_a_with(c, g, b, solo, true);
    EXPECT_TRUE(same_bits(tree, rows)) << at;
    for (ThreadPool* pool : {&solo, &wide})
      EXPECT_TRUE(same_bits(tree, grad_a_with(c, g, b, *pool, false)))
          << at << " threads=" << pool->size();
  }
}

/// Runs `fn` with the AVX-512 variants held off, then restores them.
template <typename Fn>
auto with_avx2(Fn fn) {
  detail::force_avx2_kernels(true);
  auto out = fn();
  detail::force_avx2_kernels(false);
  return out;
}

TEST(KernelParity, GradAAvx512MatchesAvx2BitForBit) {
  if (!detail::blocked_kernels_avx512())
    GTEST_SKIP() << "this host or build has no AVX-512 variants";
  ThreadPool solo(0), wide(3);
  std::uint32_t seed = 100;
  for (const GradACase& c : kGradACatalog) {
    const std::vector<float> g = special_rows(c.bg * c.m, c.n, seed++);
    const std::vector<float> b =
        special_rows((c.shared_b ? 1 : c.bg) * c.k, c.n, seed++);
    for (ThreadPool* pool : {&solo, &wide}) {
      const auto wide512 = grad_a_with(c, g, b, *pool, false);
      const auto avx2 =
          with_avx2([&] { return grad_a_with(c, g, b, *pool, false); });
      EXPECT_TRUE(same_bits(wide512, avx2))
          << grad_a_case_name(c) << " threads=" << pool->size();
    }
  }
}

TEST(KernelParity, GradBExactRouteAvx512MatchesAvx2BitForBit) {
  if (!detail::blocked_kernels_avx512())
    GTEST_SKIP() << "this host or build has no AVX-512 variants";
  const MmCase cases[] = {
      {1, 4, 3, 8, true},    {1, 7, 5, 13, true},   {2, 9, 4, 21, true},
      {3, 6, 3, 6, false},   {2, 11, 2, 35, false}, {1, 1, 2, 3, true},
      {2, 16, 6, 64, false}, {4, 5, 7, 1, true},    {1, 13, 3, 17, false},
  };
  ThreadPool pool(2);
  std::uint32_t seed = 500;
  for (const MmCase& c : cases) {
    for (int rep = 0; rep < 8; ++rep, ++seed) {
      const std::vector<float> a = magnitude_rows(c.ba * c.m, c.k, seed);
      const std::vector<float> g = magnitude_rows(c.ba * c.m, c.n, seed + 1000);
      for (bool shared : {c.shared_b, !c.shared_b}) {
        const std::string at = "ba=" + std::to_string(c.ba) +
                               " m=" + std::to_string(c.m) +
                               " k=" + std::to_string(c.k) +
                               " n=" + std::to_string(c.n) +
                               " shared_b=" + std::to_string(shared) +
                               " seed=" + std::to_string(seed);
        const auto ex512 =
            grad_b_route(a, g, c.ba, c.m, c.k, c.n, shared, Route::kExact);
        const auto ex2 = with_avx2([&] {
          return grad_b_route(a, g, c.ba, c.m, c.k, c.n, shared, Route::kExact);
        });
        EXPECT_TRUE(bit_equal(ex512, ex2)) << at;
        // Routing does not depend on the ISA: the same row groups go exact.
        std::vector<float> db(ex512.size());
        const auto routed = [&] {
          return detail::blocked_matmul_grad_b(a.data(), g.data(), db.data(),
                                               c.ba, c.m, c.k, c.n, shared,
                                               pool);
        };
        EXPECT_EQ(routed(), with_avx2(routed)) << at;
      }
    }
  }
}

// ---- arena ------------------------------------------------------------------

TEST(Arena, BuffersAre64ByteAlignedWithSufficientCapacity) {
  for (std::int64_t n : {1, 7, 63, 64, 65, 1000, 4096, 300000}) {
    Tensor t(Shape{n});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u) << n;
    EXPECT_GE(Arena::capacity_floats(t.data()), n) << n;
  }
}

TEST(Arena, ReusesReleasedSlabs) {
  Arena& arena = Arena::global();
  const float* p1;
  {
    Tensor t(Shape{512});
    p1 = t.data();
  }
  const auto before = arena.stats();
  Tensor t2(Shape{512});  // same size class: must come off the free list
  const auto after = arena.stats();
  EXPECT_EQ(t2.data(), p1);
  EXPECT_EQ(after.pool_hits, before.pool_hits + 1);
  EXPECT_EQ(after.fresh_bytes, before.fresh_bytes);
}

TEST(Arena, EndEpochCountsAndTrimDropsIdleSlabs) {
  Arena& arena = Arena::global();
  { Tensor t(Shape{2048}); }  // leaves one idle slab pooled
  EXPECT_GT(arena.stats().pooled_bytes, 0);
  const auto e0 = arena.stats().epochs;
  arena.end_epoch();
  EXPECT_EQ(arena.stats().epochs, e0 + 1);
  arena.trim();
  EXPECT_EQ(arena.stats().pooled_bytes, 0);
}

TEST(Arena, DisabledAllocationsStillAlignedAndSafe) {
  Arena& arena = Arena::global();
  const bool was = arena.enabled();
  arena.set_enabled(false);
  {
    Tensor t(Shape{333}, 1.0f);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u);
    EXPECT_FLOAT_EQ(t.sum(), 333.0f);
  }  // released while disabled: freed eagerly, not pooled
  arena.set_enabled(was);
}

TEST(Tensor, IsSharedTracksAliases) {
  Tensor a(Shape{8}, 1.0f);
  EXPECT_FALSE(a.is_shared());
  {
    Tensor alias = a;
    EXPECT_TRUE(a.is_shared());
  }
  EXPECT_FALSE(a.is_shared());
}

TEST(BatchNorm, NormalizesChannels) {
  Tensor x(Shape{2, 1, 1, 2}, {1, 2, 3, 4});
  Tensor gamma(Shape{1}, 1.0f);
  Tensor beta(Shape{1}, 0.0f);
  BatchNormResult r = batchnorm2d(x, gamma, beta);
  float mean = 0;
  for (int i = 0; i < 4; ++i) mean += r.y.at(i);
  EXPECT_NEAR(mean, 0.0f, 1e-5);
  EXPECT_NEAR(r.mean.at(0), 2.5f, 1e-6);
}

}  // namespace
}  // namespace rannc
