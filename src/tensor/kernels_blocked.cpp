#include "tensor/kernels_blocked.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "util/thread_pool.h"

#if defined(__AVX2__) && defined(__FMA__)
#define RANNC_KERNELS_AVX2 1
#include <immintrin.h>
// AVX-512 variants are compiled per function and run only after a CPU check.
#define RANNC_AVX512 __attribute__((target("avx512f")))
#endif

namespace rannc {
namespace detail {

namespace {

// GEMM tiling. The microkernel computes a 4x16 C tile: 8 vector
// accumulators at AVX2 width, k ascending one element at a time so the
// per-element order matches an axpy loop. B panels are packed so the
// microkernel streams contiguous, zero-padded rows regardless of n.
constexpr std::int64_t kNR = 16;        // C tile columns (2 AVX2 vectors)
constexpr std::int64_t kMR = 4;         // C tile rows
constexpr std::int64_t kKC = 256;       // k block (packed panel: 16 KiB)
constexpr std::int64_t kRowTile = 32;   // rows per parallel work item

void pack_b(const float* B, std::int64_t ldb, std::int64_t kc, std::int64_t jw,
            float* P) {
  if (jw == kNR) {
    for (std::int64_t kk = 0; kk < kc; ++kk)
      std::memcpy(P + kk * kNR, B + kk * ldb, kNR * sizeof(float));
  } else {
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = B + kk * ldb;
      float* dst = P + kk * kNR;
      std::int64_t j = 0;
      for (; j < jw; ++j) dst[j] = src[j];
      for (; j < kNR; ++j) dst[j] = 0.0f;
    }
  }
}

void micro_4x16(const float* __restrict A, std::int64_t lda,
                const float* __restrict P, std::int64_t kc,
                float* __restrict C, std::int64_t ldc, std::int64_t jw) {
  float acc[kMR][kNR];
  for (std::int64_t i = 0; i < kMR; ++i) {
    std::int64_t j = 0;
    for (; j < jw; ++j) acc[i][j] = C[i * ldc + j];
    for (; j < kNR; ++j) acc[i][j] = 0.0f;
  }
  const float* a0 = A;
  const float* a1 = A + lda;
  const float* a2 = A + 2 * lda;
  const float* a3 = A + 3 * lda;
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* __restrict b = P + kk * kNR;
    const float v0 = a0[kk], v1 = a1[kk], v2 = a2[kk], v3 = a3[kk];
    for (std::int64_t j = 0; j < kNR; ++j) {
      const float bj = b[j];
      acc[0][j] += v0 * bj;
      acc[1][j] += v1 * bj;
      acc[2][j] += v2 * bj;
      acc[3][j] += v3 * bj;
    }
  }
  for (std::int64_t i = 0; i < kMR; ++i)
    for (std::int64_t j = 0; j < jw; ++j) C[i * ldc + j] = acc[i][j];
}

void micro_1x16(const float* __restrict a, const float* __restrict P,
                std::int64_t kc, float* __restrict C, std::int64_t jw) {
  float acc[kNR];
  std::int64_t j = 0;
  for (; j < jw; ++j) acc[j] = C[j];
  for (; j < kNR; ++j) acc[j] = 0.0f;
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float v = a[kk];
    const float* __restrict b = P + kk * kNR;
    for (std::int64_t jj = 0; jj < kNR; ++jj) acc[jj] += v * b[jj];
  }
  for (std::int64_t jj = 0; jj < jw; ++jj) C[jj] = acc[jj];
}

/// One row tile [r0, r0+mt) of one batch's C = A x B.
void gemm_rows(const float* A, const float* B, float* C, std::int64_t mt,
               std::int64_t k, std::int64_t n) {
  alignas(64) float P[kKC * kNR];
  for (std::int64_t r = 0; r < mt; ++r)
    std::fill_n(C + r * n, n, 0.0f);
  for (std::int64_t kb = 0; kb < k; kb += kKC) {
    const std::int64_t kc = std::min(kKC, k - kb);
    for (std::int64_t j0 = 0; j0 < n; j0 += kNR) {
      const std::int64_t jw = std::min(kNR, n - j0);
      pack_b(B + kb * n + j0, n, kc, jw, P);
      std::int64_t r0 = 0;
      for (; r0 + kMR <= mt; r0 += kMR)
        micro_4x16(A + r0 * k + kb, k, P, kc, C + r0 * n + j0, n, jw);
      for (; r0 < mt; ++r0)
        micro_1x16(A + r0 * k + kb, P, kc, C + r0 * n + j0, jw);
    }
  }
}

// ---- double-accumulator helpers --------------------------------------------
//
// Float products are exact in double, so any fixed lane structure gives the
// same sum as a sequential double loop up to ~1e-16 relative — which rounds
// to the same float essentially always, but not always. The lane structure
// below is fixed on every build: lane t sums the terms j = t (mod 8) below
// 8*floor(len/8) in ascending order, lane_tree combines the lanes the way
// AVX2's hsum4(lo + hi) does, and the scalar tail is appended in order.

/// ((L0+L4) + (L2+L6)) + ((L1+L5) + (L3+L7)): the reduction tree of
/// hsum4(lo + hi) with lo = lanes 0..3 and hi = lanes 4..7.
double lane_tree(double l0, double l1, double l2, double l3, double l4,
                 double l5, double l6, double l7) {
  return ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7));
}

#ifdef RANNC_KERNELS_AVX2

double hsum4(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// out[q] = dot(g, B row q) for 4 consecutive rows of B, double-accumulated.
void dot4_rows(const float* __restrict g, const float* __restrict B,
               std::int64_t n, std::int64_t ldb, float* __restrict out) {
  const float* b0 = B;
  const float* b1 = B + ldb;
  const float* b2 = B + 2 * ldb;
  const float* b3 = B + 3 * ldb;
  __m256d l0 = _mm256_setzero_pd(), h0 = _mm256_setzero_pd();
  __m256d l1 = _mm256_setzero_pd(), h1 = _mm256_setzero_pd();
  __m256d l2 = _mm256_setzero_pd(), h2 = _mm256_setzero_pd();
  __m256d l3 = _mm256_setzero_pd(), h3 = _mm256_setzero_pd();
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 gv = _mm256_loadu_ps(g + j);
    const __m256d glo = _mm256_cvtps_pd(_mm256_castps256_ps128(gv));
    const __m256d ghi = _mm256_cvtps_pd(_mm256_extractf128_ps(gv, 1));
    __m256 bv = _mm256_loadu_ps(b0 + j);
    l0 = _mm256_fmadd_pd(glo, _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), l0);
    h0 = _mm256_fmadd_pd(ghi, _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), h0);
    bv = _mm256_loadu_ps(b1 + j);
    l1 = _mm256_fmadd_pd(glo, _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), l1);
    h1 = _mm256_fmadd_pd(ghi, _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), h1);
    bv = _mm256_loadu_ps(b2 + j);
    l2 = _mm256_fmadd_pd(glo, _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), l2);
    h2 = _mm256_fmadd_pd(ghi, _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), h2);
    bv = _mm256_loadu_ps(b3 + j);
    l3 = _mm256_fmadd_pd(glo, _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), l3);
    h3 = _mm256_fmadd_pd(ghi, _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), h3);
  }
  double s0 = hsum4(_mm256_add_pd(l0, h0));
  double s1 = hsum4(_mm256_add_pd(l1, h1));
  double s2 = hsum4(_mm256_add_pd(l2, h2));
  double s3 = hsum4(_mm256_add_pd(l3, h3));
  for (; j < n; ++j) {
    const double gv = g[j];
    s0 += gv * b0[j];
    s1 += gv * b1[j];
    s2 += gv * b2[j];
    s3 += gv * b3[j];
  }
  out[0] = static_cast<float>(s0);
  out[1] = static_cast<float>(s1);
  out[2] = static_cast<float>(s2);
  out[3] = static_cast<float>(s3);
}

/// dot(a, b) over len floats, double-accumulated.
double dot_f2d(const float* __restrict a, const float* __restrict b,
               std::int64_t len) {
  __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 av = _mm256_loadu_ps(a + j);
    const __m256 bv = _mm256_loadu_ps(b + j);
    lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                         _mm256_cvtps_pd(_mm256_castps256_ps128(bv)), lo);
    hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                         _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)), hi);
  }
  double s = hsum4(_mm256_add_pd(lo, hi));
  for (; j < len; ++j) s += static_cast<double>(a[j]) * b[j];
  return s;
}

/// acc[i] += w * x[i] over len elements, double accumulator array.
void axpy_f2d(double* __restrict acc, const float* __restrict x, double w,
              std::int64_t len) {
  const __m256d wv = _mm256_set1_pd(w);
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 xv = _mm256_loadu_ps(x + j);
    const __m256d x0 = _mm256_cvtps_pd(_mm256_castps256_ps128(xv));
    const __m256d x1 = _mm256_cvtps_pd(_mm256_extractf128_ps(xv, 1));
    _mm256_storeu_pd(acc + j,
                     _mm256_fmadd_pd(wv, x0, _mm256_loadu_pd(acc + j)));
    _mm256_storeu_pd(acc + j + 4,
                     _mm256_fmadd_pd(wv, x1, _mm256_loadu_pd(acc + j + 4)));
  }
  for (; j < len; ++j) acc[j] += w * x[j];
}

#else  // !RANNC_KERNELS_AVX2

double dot_f2d(const float* __restrict a, const float* __restrict b,
               std::int64_t len) {
  double l[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8)
    for (std::int64_t t = 0; t < 8; ++t)
      l[t] += static_cast<double>(a[j + t]) * b[j + t];
  double s = lane_tree(l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]);
  for (; j < len; ++j) s += static_cast<double>(a[j]) * b[j];
  return s;
}

void dot4_rows(const float* __restrict g, const float* __restrict B,
               std::int64_t n, std::int64_t ldb, float* __restrict out) {
  for (std::int64_t q = 0; q < 4; ++q)
    out[q] = static_cast<float>(dot_f2d(g, B + q * ldb, n));
}

void axpy_f2d(double* __restrict acc, const float* __restrict x, double w,
              std::int64_t len) {
  for (std::int64_t j = 0; j < len; ++j) acc[j] += w * x[j];
}

#endif  // RANNC_KERNELS_AVX2

}  // namespace

bool blocked_kernels_simd() {
#ifdef RANNC_KERNELS_AVX2
  return true;
#else
  return false;
#endif
}

namespace {

std::atomic<bool> g_force_avx2{false};

#ifdef RANNC_KERNELS_AVX2
/// True when the AVX-512 variants run: an AVX2 build on an AVX-512 host,
/// unless the test hook holds them off. The CPU is checked once.
bool use_avx512() {
  return blocked_kernels_avx512() &&
         !g_force_avx2.load(std::memory_order_relaxed);
}
#endif

}  // namespace

bool blocked_kernels_avx512() {
#ifdef RANNC_KERNELS_AVX2
  static const bool host =
      (__builtin_cpu_init(), __builtin_cpu_supports("avx512f"));
  return host;
#else
  return false;
#endif
}

void force_avx2_kernels(bool force) {
  g_force_avx2.store(force, std::memory_order_relaxed);
}

// ---- matmul ----------------------------------------------------------------

void blocked_matmul(const float* A, const float* B, float* C, std::int64_t ba,
                    std::int64_t m, std::int64_t k, std::int64_t n,
                    bool shared_b, ThreadPool& pool) {
  const std::int64_t tiles = (m + kRowTile - 1) / kRowTile;
  pool.parallel_for(0, ba * tiles, [&](std::int64_t u0, std::int64_t u1) {
    for (std::int64_t u = u0; u < u1; ++u) {
      const std::int64_t bi = u / tiles;
      const std::int64_t r0 = (u % tiles) * kRowTile;
      const std::int64_t mt = std::min(kRowTile, m - r0);
      gemm_rows(A + (bi * m + r0) * k, B + (shared_b ? 0 : bi * k * n),
                C + (bi * m + r0) * n, mt, k, n);
    }
  });
}

// ---- matmul_grad_a: DA = G x B^T --------------------------------------------

void blocked_matmul_grad_a_rows(const float* G, const float* B, float* DA,
                                std::int64_t bg, std::int64_t m,
                                std::int64_t n, std::int64_t k, bool shared_b,
                                ThreadPool& pool) {
  // Parallel unit: a (batch, contiguous kk-chunk) pair. Looping kk outside
  // the m output rows keeps each group of B rows resident while all m dots
  // against it run, so B streams through cache once per chunk instead of
  // once per output row. Every DA element is still one dot with a fixed
  // association, so any chunking or thread count is bit-identical.
  constexpr std::int64_t kChunk = 128;
  const std::int64_t chunks = (k + kChunk - 1) / kChunk;
  pool.parallel_for(0, bg * chunks, [&](std::int64_t u0, std::int64_t u1) {
    for (std::int64_t u = u0; u < u1; ++u) {
      const std::int64_t bi = u / chunks;
      const std::int64_t c0 = (u % chunks) * kChunk;
      const std::int64_t c1 = c0 + kChunk < k ? c0 + kChunk : k;
      const float* gmat = G + bi * m * n;
      const float* bmat = B + (shared_b ? 0 : bi * k * n);
      float* damat = DA + bi * m * k;
      std::int64_t kk = c0;
      for (; kk + 4 <= c1; kk += 4)
        for (std::int64_t r = 0; r < m; ++r)
          dot4_rows(gmat + r * n, bmat + kk * n, n, n, damat + r * k + kk);
      for (; kk < c1; ++kk)
        for (std::int64_t r = 0; r < m; ++r)
          damat[r * k + kk] =
              static_cast<float>(dot_f2d(gmat + r * n, bmat + kk * n, n));
    }
  });
}

// The panel kernel performs the double operations of the row dots above, in
// the same order, with the SIMD lanes running across outputs instead of
// within one dot. The 8 lanes of a dot are independent sums, so it loops
// over them outermost: lane t of a tile of outputs is a plain double GEMM of
// length n8/8 (n8 = 8*floor(n/8)) over operands packed per lane,
//
//   Gp[t][tile][i][r] = G[row r][8i + t],   Bp[t][i][c] = B[col c][8i + t],
//
// accumulated from +0 in ascending i by an MR x NR register tile with one
// FMA per term. The 8 lane tiles are then combined by lane_tree and the tail
// j >= n8 is added in order, as dot_f2d does. G is converted once per row
// block, B once per (row block, column panel, i-block); all packing goes to
// a leased, bounded ScratchLease block, so no call allocates.

namespace {

constexpr std::int64_t kLaneBlock = 32;  // i-steps per packed B block

/// Bound on the packed operands of one grad_a work unit, in doubles
/// (512 KiB): longer G rows are split into row blocks that fit.
constexpr std::int64_t kScratchDoubles = 64 * 1024;

/// Scratch for the packed operands of one grad_a work unit. Blocks live on
/// a process-wide free list: a unit leases one and returns it, so after the
/// first step no call allocates, and the blocks alive are bounded by the
/// number of units that ever ran at the same time.
class ScratchLease {
 public:
  ScratchLease() {
    Pool& p = pool();
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.free.empty()) {
      // Room to return every block made, so the destructor never allocates.
      p.free.reserve(static_cast<std::size_t>(++p.made));
      block_.reset(new Block);
    } else {
      block_ = std::move(p.free.back());
      p.free.pop_back();
    }
  }
  ~ScratchLease() {
    Pool& p = pool();
    std::lock_guard<std::mutex> lk(p.mu);
    p.free.push_back(std::move(block_));
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  double* data() { return block_->d; }

 private:
  struct alignas(64) Block {
    double d[kScratchDoubles];
  };
  struct Pool {
    std::mutex mu;  // guards free and made
    std::vector<std::unique_ptr<Block>> free;
    std::int64_t made = 0;
  };
  static Pool& pool() {
    static Pool p;
    return p;
  }
  std::unique_ptr<Block> block_;
};

// Register tiles: micro(g, b, len, c, accumulate) runs
//   c[r][q] (+)= sum over i < len of g[i*MR + r] * b[i*NR + q]
// in ascending i, starting from +0 unless `accumulate`.

#ifdef RANNC_KERNELS_AVX2

struct GradATileAvx2 {
  static constexpr std::int64_t kMR = 4, kNR = 12;
  static void micro(const double* __restrict g, const double* __restrict b,
                    std::int64_t len, double* __restrict c, bool accumulate) {
    __m256d x[kMR][3];
    for (int r = 0; r < kMR; ++r)
      for (int v = 0; v < 3; ++v)
        x[r][v] = accumulate ? _mm256_loadu_pd(c + r * kNR + 4 * v)
                             : _mm256_setzero_pd();
    for (std::int64_t i = 0; i < len; ++i, g += kMR, b += kNR) {
      const __m256d b0 = _mm256_loadu_pd(b);
      const __m256d b1 = _mm256_loadu_pd(b + 4);
      const __m256d b2 = _mm256_loadu_pd(b + 8);
      for (int r = 0; r < kMR; ++r) {
        const __m256d gr = _mm256_broadcast_sd(g + r);
        x[r][0] = _mm256_fmadd_pd(gr, b0, x[r][0]);
        x[r][1] = _mm256_fmadd_pd(gr, b1, x[r][1]);
        x[r][2] = _mm256_fmadd_pd(gr, b2, x[r][2]);
      }
    }
    for (int r = 0; r < kMR; ++r)
      for (int v = 0; v < 3; ++v)
        _mm256_storeu_pd(c + r * kNR + 4 * v, x[r][v]);
  }
};

struct GradATileAvx512 {
  static constexpr std::int64_t kMR = 8, kNR = 24;
  RANNC_AVX512 static void micro(const double* __restrict g,
                                 const double* __restrict b, std::int64_t len,
                                 double* __restrict c, bool accumulate) {
    __m512d x[kMR][3];
    for (int r = 0; r < kMR; ++r)
      for (int v = 0; v < 3; ++v)
        x[r][v] = accumulate ? _mm512_loadu_pd(c + r * kNR + 8 * v)
                             : _mm512_setzero_pd();
    for (std::int64_t i = 0; i < len; ++i, g += kMR, b += kNR) {
      const __m512d b0 = _mm512_loadu_pd(b);
      const __m512d b1 = _mm512_loadu_pd(b + 8);
      const __m512d b2 = _mm512_loadu_pd(b + 16);
      for (int r = 0; r < kMR; ++r) {
        const __m512d gr = _mm512_set1_pd(g[r]);
        x[r][0] = _mm512_fmadd_pd(gr, b0, x[r][0]);
        x[r][1] = _mm512_fmadd_pd(gr, b1, x[r][1]);
        x[r][2] = _mm512_fmadd_pd(gr, b2, x[r][2]);
      }
    }
    for (int r = 0; r < kMR; ++r)
      for (int v = 0; v < 3; ++v)
        _mm512_storeu_pd(c + r * kNR + 8 * v, x[r][v]);
  }
};

#else  // !RANNC_KERNELS_AVX2

struct GradATilePortable {
  static constexpr std::int64_t kMR = 4, kNR = 8;
  static void micro(const double* __restrict g, const double* __restrict b,
                    std::int64_t len, double* __restrict c, bool accumulate) {
    double x[kMR * kNR];
    for (std::int64_t q = 0; q < kMR * kNR; ++q) x[q] = accumulate ? c[q] : 0.0;
    for (std::int64_t i = 0; i < len; ++i, g += kMR, b += kNR)
      for (std::int64_t r = 0; r < kMR; ++r)
        for (std::int64_t q = 0; q < kNR; ++q) x[r * kNR + q] += g[r] * b[q];
    std::memcpy(c, x, sizeof(x));
  }
};

#endif  // RANNC_KERNELS_AVX2

/// Rows per row block so that one block's packed operands fit
/// kScratchDoubles (a multiple of MR, at most m rounded up), or 0 when not
/// even MR rows fit.
template <class Tile>
std::int64_t grad_a_block_rows(std::int64_t m, std::int64_t n) {
  constexpr std::int64_t MR = Tile::kMR, NR = Tile::kNR;
  const std::int64_t fixed = (8 * kLaneBlock + 7) * NR;  // Bp + tail
  const std::int64_t per_row = (n & ~std::int64_t{7}) + 8 * NR;  // Gp + lanes
  const std::int64_t fit = (kScratchDoubles - fixed) / per_row / MR * MR;
  if (fit < MR) return 0;
  const std::int64_t mp = (m + MR - 1) / MR * MR;
  if (mp <= fit) return mp;
  // Equal blocks, so the last one is not mostly padding.
  const std::int64_t blocks = (mp + fit - 1) / fit;
  return ((m + blocks - 1) / blocks + MR - 1) / MR * MR;
}

/// DA columns [c_begin, c_end) of one batch (G [m,n], B [k,n], DA [m,k]),
/// row block by row block of `mc` rows.
template <class Tile>
void grad_a_panels(const float* G, const float* B, float* DA, std::int64_t m,
                   std::int64_t n, std::int64_t k, std::int64_t c_begin,
                   std::int64_t c_end, std::int64_t mc, double* scratch) {
  constexpr std::int64_t MR = Tile::kMR, NR = Tile::kNR;
  const std::int64_t n8 = n & ~std::int64_t{7};
  const std::int64_t L = n8 / 8;
  double* const gp = scratch;              // [8][tiles][L][MR]
  double* const lanes = gp + mc * n8;      // [8][tiles][MR][NR]
  double* const bp = lanes + 8 * mc * NR;  // [8][kLaneBlock][NR]
  double* const bt = bp + 8 * kLaneBlock * NR;  // [n - n8][NR]
  for (std::int64_t r0 = 0; r0 < m; r0 += mc) {
    const std::int64_t rows = std::min(mc, m - r0);
    const std::int64_t tiles = (rows + MR - 1) / MR;
    for (std::int64_t tile = 0; tile < tiles; ++tile) {
      const std::int64_t live = std::min(MR, rows - tile * MR);
      const float* src = G + (r0 + tile * MR) * n;
      for (std::int64_t i = 0; i < L; ++i) {
        double* dst = gp + (tile * L + i) * MR;
        for (std::int64_t t = 0; t < 8; ++t) {
          double* d = dst + t * tiles * L * MR;
          for (std::int64_t r = 0; r < live; ++r) d[r] = src[r * n + 8 * i + t];
          for (std::int64_t r = live; r < MR; ++r) d[r] = 0.0;
        }
      }
    }
    for (std::int64_t c0 = c_begin; c0 < c_end; c0 += NR) {
      const std::int64_t cols = std::min(NR, c_end - c0);
      const float* bpanel = B + c0 * n;
      if (L == 0) std::fill_n(lanes, 8 * tiles * MR * NR, 0.0);
      for (std::int64_t i0 = 0; i0 < L; i0 += kLaneBlock) {
        const std::int64_t len = std::min(kLaneBlock, L - i0);
        for (std::int64_t i = 0; i < len; ++i)
          for (std::int64_t t = 0; t < 8; ++t) {
            double* d = bp + (t * len + i) * NR;
            const float* src = bpanel + 8 * (i0 + i) + t;
            for (std::int64_t c = 0; c < cols; ++c) d[c] = src[c * n];
            for (std::int64_t c = cols; c < NR; ++c) d[c] = 0.0;
          }
        for (std::int64_t t = 0; t < 8; ++t)
          for (std::int64_t tile = 0; tile < tiles; ++tile)
            Tile::micro(gp + ((t * tiles + tile) * L + i0) * MR,
                        bp + t * len * NR, len,
                        lanes + (t * tiles + tile) * MR * NR, i0 > 0);
      }
      for (std::int64_t j = n8; j < n; ++j)
        for (std::int64_t c = 0; c < NR; ++c)
          bt[(j - n8) * NR + c] =
              c < cols ? static_cast<double>(bpanel[c * n + j]) : 0.0;
      for (std::int64_t tile = 0; tile < tiles; ++tile) {
        const double* l[8];
        for (std::int64_t t = 0; t < 8; ++t)
          l[t] = lanes + (t * tiles + tile) * MR * NR;
        const std::int64_t live = std::min(MR, rows - tile * MR);
        for (std::int64_t r = 0; r < live; ++r) {
          const std::int64_t row = r0 + tile * MR + r;
          double s[NR];
          for (std::int64_t c = 0; c < NR; ++c) {
            const std::int64_t q = r * NR + c;
            s[c] = lane_tree(l[0][q], l[1][q], l[2][q], l[3][q], l[4][q],
                             l[5][q], l[6][q], l[7][q]);
          }
          for (std::int64_t j = n8; j < n; ++j) {
            const double gv = G[row * n + j];
            for (std::int64_t c = 0; c < NR; ++c)
              s[c] += gv * bt[(j - n8) * NR + c];
          }
          for (std::int64_t c = 0; c < cols; ++c)
            DA[row * k + c0 + c] = static_cast<float>(s[c]);
        }
      }
    }
  }
}

template <class Tile>
void grad_a_tiled(const float* G, const float* B, float* DA, std::int64_t bg,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  bool shared_b, ThreadPool& pool) {
  constexpr std::int64_t NR = Tile::kNR;
  // With one B for all batches, the batches are just more rows.
  if (shared_b) {
    m *= bg;
    bg = 1;
  }
  const std::int64_t mc = grad_a_block_rows<Tile>(m, n);
  if (mc == 0) {  // rows too long for the scratch bound: same bits, row dots
    blocked_matmul_grad_a_rows(G, B, DA, bg, m, n, k, shared_b, pool);
    return;
  }
  // Parallel unit: a (batch, kUnitCols-column run) pair, narrow so that
  // even one batch spreads over a pool. A thread packs G once per batch for
  // all the consecutive units it runs, so on a pool without workers G is
  // packed once per batch.
  constexpr std::int64_t kUnitCols = 24;  // a multiple of every tile's NR
  static_assert(kUnitCols % NR == 0);
  const std::int64_t units = (k + kUnitCols - 1) / kUnitCols;
  pool.parallel_for(0, bg * units, [&](std::int64_t u0, std::int64_t u1) {
    ScratchLease scratch;
    for (std::int64_t u = u0; u < u1;) {
      const std::int64_t bi = u / units;
      const std::int64_t last = std::min(u1, (bi + 1) * units);
      const std::int64_t c0 = (u - bi * units) * kUnitCols;
      const std::int64_t c1 = std::min(k, (last - bi * units) * kUnitCols);
      grad_a_panels<Tile>(G + bi * m * n, B + (shared_b ? 0 : bi * k * n),
                          DA + bi * m * k, m, n, k, c0, c1, mc, scratch.data());
      u = last;
    }
  });
}

}  // namespace

void blocked_matmul_grad_a(const float* G, const float* B, float* DA,
                           std::int64_t bg, std::int64_t m, std::int64_t n,
                           std::int64_t k, bool shared_b, ThreadPool& pool) {
#ifdef RANNC_KERNELS_AVX2
  if (use_avx512())
    grad_a_tiled<GradATileAvx512>(G, B, DA, bg, m, n, k, shared_b, pool);
  else
    grad_a_tiled<GradATileAvx2>(G, B, DA, bg, m, n, k, shared_b, pool);
#else
  grad_a_tiled<GradATilePortable>(G, B, DA, bg, m, n, k, shared_b, pool);
#endif
}

// ---- matmul_grad_b: DB = A^T x G --------------------------------------------
//
// Each DB row (fixed kk) sums A[r][kk] * G row r over rows r, in ascending
// groups of four with one fixed association per group:
//
//   d = d + (fma(a0, g0, a1*g1) + fma(a2, g2, a3*g3))
//
// and leftover rows as d = fma(a, g, d). With AVX2 that formula has two
// routes that produce the same bits:
//
// * the float route evaluates it with float intrinsics, fast on normal
//   operands but stalled by a microcode assist on every float multiply or
//   add that reads or produces a subnormal;
// * the exact route evaluates the same float operations in double, where no
//   value involved is subnormal, and rounds each one to float exactly as the
//   float instruction would (see exact_fused below).
//
// A 4-row group takes the exact route only when a subnormal could occur in
// its products (subnormal_risk); the route is a fixed function of the data,
// so it never depends on thread assignment. Cancellation to a subnormal is
// left on the float route, where it is exact, only slow.

namespace {

#ifdef RANNC_KERNELS_AVX2

/// Lane mask selecting the first w (1..7) of 8 floats, for column tails.
__m256i tail_mask(std::int64_t w) {
  alignas(32) static const std::int32_t kLanes[16] = {-1, -1, -1, -1, -1, -1,
                                                      -1, -1, 0,  0,  0,  0,
                                                      0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kLanes + 8 - w));
}

// Column drivers: run `kern` over columns [0, n) of R G rows and the DB row
// d, one vector at a time; the last n % 8 (n % 4) columns go through a lane
// mask, so masked-off lanes read zeros and are never stored. Every column is
// computed independently, so the tail gives the bits the body would.

template <int R, typename Kern>
void columns8(const float* const* g, float* d, std::int64_t n, Kern kern) {
  __m256 x[R];
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (int i = 0; i < R; ++i) x[i] = _mm256_loadu_ps(g[i] + j);
    _mm256_storeu_ps(d + j, kern(x, _mm256_loadu_ps(d + j)));
  }
  if (j < n) {
    const __m256i m = tail_mask(n - j);
    for (int i = 0; i < R; ++i) x[i] = _mm256_maskload_ps(g[i] + j, m);
    _mm256_maskstore_ps(d + j, m, kern(x, _mm256_maskload_ps(d + j, m)));
  }
}

template <int R, typename Kern>
void columns4(const float* const* g, float* d, std::int64_t n, Kern kern) {
  __m128 x[R];
  std::int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    for (int i = 0; i < R; ++i) x[i] = _mm_loadu_ps(g[i] + j);
    _mm_storeu_ps(d + j, kern(x, _mm_loadu_ps(d + j)));
  }
  if (j < n) {
    const __m128i m = _mm256_castsi256_si128(tail_mask(n - j));
    for (int i = 0; i < R; ++i) x[i] = _mm_maskload_ps(g[i] + j, m);
    _mm_maskstore_ps(d + j, m, kern(x, _mm_maskload_ps(d + j, m)));
  }
}

/// rf(x + y): the float nearest the exact sum of two doubles, where x + y
/// may need more than 53 bits. The double sum s is rounded to odd — when
/// the TwoSum error e is non-zero and s's last bit is even, s steps one ulp
/// toward e — and then rounded to float once. Rounding to odd at 53 >= 24 + 2
/// bits makes that second rounding correct (Boldo & Melquiond, "When double
/// rounding is odd", 2005), subnormal float results included. Non-finite
/// sums have a NaN error and are left as they are.
__m128 exact_fused(__m256d x, __m256d y) {
  const __m256d s = _mm256_add_pd(x, y);
  const __m256d bb = _mm256_sub_pd(s, x);
  const __m256d e = _mm256_add_pd(_mm256_sub_pd(x, _mm256_sub_pd(s, bb)),
                                  _mm256_sub_pd(y, bb));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i sb = _mm256_castpd_si256(s);
  const __m256i even = _mm256_cmpeq_epi64(_mm256_and_si256(sb, one), zero);
  const __m256i inexact = _mm256_castpd_si256(
      _mm256_cmp_pd(e, _mm256_setzero_pd(), _CMP_NEQ_OQ));
  // One ulp toward e: +1 on the bit pattern when e has s's sign, else -1.
  const __m256i toward = _mm256_or_si256(
      _mm256_cmpgt_epi64(zero, _mm256_xor_si256(sb, _mm256_castpd_si256(e))),
      one);
  const __m256i odd = _mm256_add_epi64(
      sb, _mm256_and_si256(toward, _mm256_and_si256(even, inexact)));
  return _mm256_cvtpd_ps(_mm256_castsi256_pd(odd));
}

/// rf(x + y) for two floats: their double sum rounded to float. Double
/// rounding is harmless because 53 >= 2*24 + 2 (and a subnormal float sum
/// is exact in both formats).
__m128 exact_add(__m128 x, __m128 y) {
  return _mm256_cvtpd_ps(_mm256_add_pd(_mm256_cvtps_pd(x), _mm256_cvtps_pd(y)));
}

/// fma(a0, x0, a1*x1) over four columns, on the exact route. A product of
/// two floats is exact in double, so every product here is exact and FP
/// contraction of it into a later add cannot change a bit.
__m128 exact_pair(__m256d a0, __m256d a1, __m128 x0, __m128 x1) {
  const __m256d q0 = _mm256_mul_pd(a0, _mm256_cvtps_pd(x0));
  const __m256d q1 = _mm256_mul_pd(a1, _mm256_cvtps_pd(x1));
  // rf(a1*x1), the product the float route rounds before its fma.
  const __m256d f1 = _mm256_cvtps_pd(_mm256_cvtpd_ps(q1));
  return exact_fused(q0, f1);
}

void gb4_float(const float* a, const float* const* g, float* d,
               std::int64_t n) {
  const __m256 av[4] = {_mm256_set1_ps(a[0]), _mm256_set1_ps(a[1]),
                        _mm256_set1_ps(a[2]), _mm256_set1_ps(a[3])};
  columns8<4>(g, d, n, [&](const __m256* x, __m256 dv) {
    const __m256 p01 = _mm256_fmadd_ps(av[0], x[0], _mm256_mul_ps(av[1], x[1]));
    const __m256 p23 = _mm256_fmadd_ps(av[2], x[2], _mm256_mul_ps(av[3], x[3]));
    return _mm256_add_ps(dv, _mm256_add_ps(p01, p23));
  });
}

// The exact route in AVX-512: the same float operations, 8 columns per
// vector. rf(x + y) rounds to odd with embedded rounding instead of TwoSum:
// x + y rounded down and rounded up are equal when the sum is exact, and
// otherwise the odd one of the two is the sum rounded to odd. An exact sum
// must take the round-to-nearest result, because rounding down turns
// x + (-x) into -0; rounding up gives the round-to-nearest bits for every
// exact sum, zeros included, so it is taken. The maskz forms with a full
// mask are the plain operations.

constexpr __mmask8 kAll8 = 0xff;

RANNC_AVX512 __m512d widen512(__m256 x) {
  return _mm512_maskz_cvtps_pd(kAll8, x);
}

RANNC_AVX512 __m256 narrow512(__m512d x) {
  return _mm512_maskz_cvtpd_ps(kAll8, x);
}

RANNC_AVX512 __m256 exact_fused512(__m512d x, __m512d y) {
  const __m512d rd = _mm512_maskz_add_round_pd(
      kAll8, x, y, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m512d ru = _mm512_maskz_add_round_pd(
      kAll8, x, y, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
  const __mmask8 exact = _mm512_cmp_pd_mask(rd, ru, _CMP_EQ_OQ);
  const __mmask8 ru_odd = _mm512_test_epi64_mask(_mm512_castpd_si512(ru),
                                                 _mm512_set1_epi64(1));
  return narrow512(_mm512_mask_blend_pd(exact | ru_odd, rd, ru));
}

/// d + (fma(a0,x0, a1*x1) + fma(a2,x2, a3*x3)) on the exact route.
RANNC_AVX512 __m256 exact_group512(const __m512d* av, const __m256* x,
                                   __m256 d) {
  __m256 p[2];
  for (int h = 0; h < 2; ++h) {
    const __m512d q0 = _mm512_mul_pd(av[2 * h], widen512(x[2 * h]));
    const __m512d q1 = _mm512_mul_pd(av[2 * h + 1], widen512(x[2 * h + 1]));
    // rf(a1*x1), the product the float route rounds before its fma.
    p[h] = exact_fused512(q0, widen512(narrow512(q1)));
  }
  const __m256 sum = narrow512(_mm512_add_pd(widen512(p[0]), widen512(p[1])));
  return narrow512(_mm512_add_pd(widen512(d), widen512(sum)));
}

RANNC_AVX512 void gb4_exact512(const float* a, const float* const* g,
                               float* d, std::int64_t n) {
  const __m512d av[4] = {_mm512_set1_pd(a[0]), _mm512_set1_pd(a[1]),
                         _mm512_set1_pd(a[2]), _mm512_set1_pd(a[3])};
  __m256 x[4];
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (int i = 0; i < 4; ++i) x[i] = _mm256_loadu_ps(g[i] + j);
    _mm256_storeu_ps(d + j, exact_group512(av, x, _mm256_loadu_ps(d + j)));
  }
  if (j < n) {
    const __m256i m = tail_mask(n - j);
    for (int i = 0; i < 4; ++i) x[i] = _mm256_maskload_ps(g[i] + j, m);
    _mm256_maskstore_ps(d + j, m,
                        exact_group512(av, x, _mm256_maskload_ps(d + j, m)));
  }
}

RANNC_AVX512 void gb1_exact512(float a, const float* g, float* d,
                               std::int64_t n) {
  const __m512d av = _mm512_set1_pd(a);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8)
    _mm256_storeu_ps(
        d + j, exact_fused512(_mm512_mul_pd(av, widen512(_mm256_loadu_ps(g + j))),
                              widen512(_mm256_loadu_ps(d + j))));
  if (j < n) {
    const __m256i m = tail_mask(n - j);
    _mm256_maskstore_ps(
        d + j, m,
        exact_fused512(_mm512_mul_pd(av, widen512(_mm256_maskload_ps(g + j, m))),
                       widen512(_mm256_maskload_ps(d + j, m))));
  }
}

void gb4_exact(const float* a, const float* const* g, float* d,
               std::int64_t n) {
  if (use_avx512()) {
    gb4_exact512(a, g, d, n);
    return;
  }
  const __m256d av[4] = {_mm256_set1_pd(a[0]), _mm256_set1_pd(a[1]),
                         _mm256_set1_pd(a[2]), _mm256_set1_pd(a[3])};
  columns4<4>(g, d, n, [&](const __m128* x, __m128 dv) {
    const __m128 p01 = exact_pair(av[0], av[1], x[0], x[1]);
    const __m128 p23 = exact_pair(av[2], av[3], x[2], x[3]);
    return exact_add(dv, exact_add(p01, p23));
  });
}

void gb1_float(float a, const float* g, float* d, std::int64_t n) {
  const __m256 av = _mm256_set1_ps(a);
  columns8<1>(&g, d, n, [&](const __m256* x, __m256 dv) {
    return _mm256_fmadd_ps(av, x[0], dv);
  });
}

void gb1_exact(float a, const float* g, float* d, std::int64_t n) {
  if (use_avx512()) {
    gb1_exact512(a, g, d, n);
    return;
  }
  const __m256d av = _mm256_set1_pd(a);
  columns4<1>(&g, d, n, [&](const __m128* x, __m128 dv) {
    return exact_fused(_mm256_mul_pd(av, _mm256_cvtps_pd(x[0])),
                       _mm256_cvtps_pd(dv));
  });
}

/// min |g| over the non-zero elements of one G row, +inf when there are
/// none. Works on the bit patterns (|g| orders as an unsigned integer), so
/// it never performs float arithmetic on a subnormal. Subtracting one maps
/// zero to the largest unsigned value, which never wins the min.
float row_min_nonzero(const float* g, std::int64_t n) {
  std::uint32_t lo = 0x7f800000u - 1;  // +inf, less one
  for (std::int64_t j = 0; j < n; ++j)
    lo = std::min(lo, (std::bit_cast<std::uint32_t>(g[j]) & 0x7fffffffu) - 1);
  return std::bit_cast<float>(lo + 1);
}

/// True when A[r][kk] * (a row-r element of G) could read a subnormal
/// operand or round to a subnormal product: a is subnormal, the row holds a
/// subnormal, or |a| * gmin (exact in double) is below 2^-125. Products at
/// or above FLT_MIN = 2^-126 are normal; the extra binade is a margin.
bool subnormal_risk(float a, float gmin) {
  constexpr float kFltMin = 0x1p-126f;
  const float aa = std::fabs(a);
  if (gmin < kFltMin) return true;
  if (aa == 0.0f) return false;
  return aa < kFltMin || static_cast<double>(aa) * gmin < 0x1p-125;
}

#endif  // RANNC_KERNELS_AVX2

enum class GradBRoute { kAuto, kFloat, kExact };

/// One DB row (fixed kk) over `rows` rows of A and G; returns the number of
/// row groups (4-row groups and leftover rows) that took the exact route.
/// gmin[r] is G row r's smallest non-zero |g| (read only by kAuto).
std::int64_t gb_row(const float* A, const float* G, const float* gmin,
                    float* dbrow, std::int64_t rows, std::int64_t k,
                    std::int64_t n, std::int64_t kk, GradBRoute route) {
  std::fill_n(dbrow, n, 0.0f);
  std::int64_t exact = 0;
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float a[4] = {A[r * k + kk], A[(r + 1) * k + kk],
                        A[(r + 2) * k + kk], A[(r + 3) * k + kk]};
    if (a[0] == 0.0f && a[1] == 0.0f && a[2] == 0.0f && a[3] == 0.0f)
      continue;
    const float* g[4] = {G + r * n, G + (r + 1) * n, G + (r + 2) * n,
                         G + (r + 3) * n};
#ifdef RANNC_KERNELS_AVX2
    const bool use_exact =
        route == GradBRoute::kExact ||
        (route == GradBRoute::kAuto &&
         (subnormal_risk(a[0], gmin[r]) || subnormal_risk(a[1], gmin[r + 1]) ||
          subnormal_risk(a[2], gmin[r + 2]) ||
          subnormal_risk(a[3], gmin[r + 3])));
    if (use_exact) {
      ++exact;
      gb4_exact(a, g, dbrow, n);
    } else {
      gb4_float(a, g, dbrow, n);
    }
#else
    (void)gmin;
    (void)route;
    const float* __restrict g0 = g[0];
    const float* __restrict g1 = g[1];
    const float* __restrict g2 = g[2];
    const float* __restrict g3 = g[3];
    float* __restrict d = dbrow;
    for (std::int64_t j = 0; j < n; ++j)
      d[j] += (a[0] * g0[j] + a[1] * g1[j]) + (a[2] * g2[j] + a[3] * g3[j]);
#endif
  }
  for (; r < rows; ++r) {
    const float av = A[r * k + kk];
    if (av == 0.0f) continue;
    const float* g = G + r * n;
#ifdef RANNC_KERNELS_AVX2
    if (route == GradBRoute::kExact ||
        (route == GradBRoute::kAuto && subnormal_risk(av, gmin[r]))) {
      ++exact;
      gb1_exact(av, g, dbrow, n);
    } else {
      gb1_float(av, g, dbrow, n);
    }
#else
    const float* __restrict gr = g;
    float* __restrict d = dbrow;
    for (std::int64_t j = 0; j < n; ++j) d[j] += av * gr[j];
#endif
  }
  return exact;
}

std::int64_t grad_b_routed(const float* A, const float* G, float* DB,
                           std::int64_t ba, std::int64_t m, std::int64_t k,
                           std::int64_t n, bool shared_b, ThreadPool& pool,
                           GradBRoute route) {
  // Routing input, once per call: each G row's smallest non-zero |g|.
  std::vector<float> gmin;
#ifdef RANNC_KERNELS_AVX2
  if (route == GradBRoute::kAuto) {
    gmin.resize(static_cast<std::size_t>(ba * m));
    pool.parallel_for(0, ba * m, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r)
        gmin[static_cast<std::size_t>(r)] = row_min_nonzero(G + r * n, n);
    });
  }
#endif
  std::atomic<std::int64_t> exact{0};
  if (shared_b) {
    pool.parallel_for(0, k, [&](std::int64_t k0, std::int64_t k1) {
      std::int64_t e = 0;
      for (std::int64_t kk = k0; kk < k1; ++kk)
        e += gb_row(A, G, gmin.data(), DB + kk * n, ba * m, k, n, kk, route);
      exact.fetch_add(e, std::memory_order_relaxed);
    });
  } else {
    pool.parallel_for(0, ba, [&](std::int64_t b0, std::int64_t b1) {
      std::int64_t e = 0;
      for (std::int64_t bi = b0; bi < b1; ++bi) {
        const float* amat = A + bi * m * k;
        const float* gmat = G + bi * m * n;
        const float* gm = gmin.empty() ? nullptr : gmin.data() + bi * m;
        float* dbmat = DB + bi * k * n;
        for (std::int64_t kk = 0; kk < k; ++kk)
          e += gb_row(amat, gmat, gm, dbmat + kk * n, m, k, n, kk, route);
      }
      exact.fetch_add(e, std::memory_order_relaxed);
    });
  }
  return exact.load(std::memory_order_relaxed);
}

}  // namespace

std::int64_t blocked_matmul_grad_b(const float* A, const float* G, float* DB,
                                   std::int64_t ba, std::int64_t m,
                                   std::int64_t k, std::int64_t n,
                                   bool shared_b, ThreadPool& pool) {
  return grad_b_routed(A, G, DB, ba, m, k, n, shared_b, pool,
                       GradBRoute::kAuto);
}

void blocked_matmul_grad_b_forced(const float* A, const float* G, float* DB,
                                  std::int64_t ba, std::int64_t m,
                                  std::int64_t k, std::int64_t n,
                                  bool shared_b, bool exact,
                                  ThreadPool& pool) {
  grad_b_routed(A, G, DB, ba, m, k, n, shared_b, pool,
                exact ? GradBRoute::kExact : GradBRoute::kFloat);
}

// ---- conv2d ----------------------------------------------------------------
//
// The conv kernels accumulate whole output rows in double, sweeping the
// reduction dimensions in exactly the naive kernels' per-element order
// (conv2d: c→kh→kw; grad_x: kh→kw→K) with the boundary terms excluded by
// hoisted range computation instead of per-element branches. The inner
// loops are contiguous for stride 1 (the common case) and vectorize as
// float→double fma streams.

void blocked_conv2d(const float* X, const float* Wt, float* Y, std::int64_t N,
                    std::int64_t C, std::int64_t H, std::int64_t W,
                    std::int64_t K, std::int64_t kh, std::int64_t kw,
                    std::int64_t stride, std::int64_t pad, std::int64_t Ho,
                    std::int64_t Wo, ThreadPool& pool) {
  pool.parallel_for(0, N * K, [&](std::int64_t p0, std::int64_t p1) {
    std::vector<double> acc(static_cast<std::size_t>(Wo));
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t ni = p / K, ki = p % K;
      float* plane = Y + (ni * K + ki) * Ho * Wo;
      for (std::int64_t ho = 0; ho < Ho; ++ho) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::int64_t c = 0; c < C; ++c) {
          const float* xc = X + (ni * C + c) * H * W;
          const float* wc = Wt + (ki * C + c) * kh * kw;
          for (std::int64_t i = 0; i < kh; ++i) {
            const std::int64_t hi = ho * stride - pad + i;
            if (hi < 0 || hi >= H) continue;
            const float* xrow = xc + hi * W;
            for (std::int64_t j = 0; j < kw; ++j) {
              const std::int64_t off = j - pad;  // wi = wo*stride + off
              const std::int64_t lo =
                  off < 0 ? (-off + stride - 1) / stride : 0;
              const std::int64_t top = W - 1 - off;
              if (top < 0) continue;
              const std::int64_t hi_wo = std::min(Wo, top / stride + 1);
              if (lo >= hi_wo) continue;
              const double w = wc[i * kw + j];
              if (stride == 1) {
                axpy_f2d(acc.data() + lo, xrow + lo + off, w, hi_wo - lo);
              } else {
                for (std::int64_t wo = lo; wo < hi_wo; ++wo)
                  acc[static_cast<std::size_t>(wo)] +=
                      w * xrow[wo * stride + off];
              }
            }
          }
        }
        float* out = plane + ho * Wo;
        for (std::int64_t wo = 0; wo < Wo; ++wo)
          out[wo] = static_cast<float>(acc[static_cast<std::size_t>(wo)]);
      }
    }
  });
}

void blocked_conv2d_grad_x(const float* G, const float* Wt, float* DX,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool) {
  pool.parallel_for(0, N * C, [&](std::int64_t p0, std::int64_t p1) {
    std::vector<double> acc(static_cast<std::size_t>(W));
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t ni = p / C, ci = p % C;
      float* plane = DX + (ni * C + ci) * H * W;
      for (std::int64_t h = 0; h < H; ++h) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::int64_t i = 0; i < kh; ++i) {
          const std::int64_t num = h + pad - i;
          if (num < 0 || num % stride != 0) continue;
          const std::int64_t ho = num / stride;
          if (ho >= Ho) continue;
          for (std::int64_t j = 0; j < kw; ++j) {
            for (std::int64_t ki = 0; ki < K; ++ki) {
              const double w = Wt[((ki * C + ci) * kh + i) * kw + j];
              const float* grow = G + ((ni * K + ki) * Ho + ho) * Wo;
              if (stride == 1) {
                // wv = wo + j - pad for wo in [0, Wo) clipped to [0, W).
                const std::int64_t off = j - pad;
                const std::int64_t lo = std::max<std::int64_t>(0, off);
                const std::int64_t hi = std::min(W, Wo + off);
                if (lo < hi) axpy_f2d(acc.data() + lo, grow + lo - off, w, hi - lo);
              } else {
                for (std::int64_t wo = 0; wo < Wo; ++wo) {
                  const std::int64_t wv = wo * stride - pad + j;
                  if (wv < 0 || wv >= W) continue;
                  acc[static_cast<std::size_t>(wv)] += w * grow[wo];
                }
              }
            }
          }
        }
        float* out = plane + h * W;
        for (std::int64_t wv = 0; wv < W; ++wv)
          out[wv] = static_cast<float>(acc[static_cast<std::size_t>(wv)]);
      }
    }
  });
}

void blocked_conv2d_grad_w(const float* G, const float* X, float* DW,
                           std::int64_t N, std::int64_t C, std::int64_t H,
                           std::int64_t W, std::int64_t K, std::int64_t kh,
                           std::int64_t kw, std::int64_t stride,
                           std::int64_t pad, std::int64_t Ho, std::int64_t Wo,
                           ThreadPool& pool) {
  pool.parallel_for(0, K * C, [&](std::int64_t p0, std::int64_t p1) {
    std::vector<double> acc(static_cast<std::size_t>(kh * kw));
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t ki = p / C, ci = p % C;
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::int64_t ni = 0; ni < N; ++ni) {
        const float* gp = G + (ni * K + ki) * Ho * Wo;
        const float* xp = X + (ni * C + ci) * H * W;
        for (std::int64_t ho = 0; ho < Ho; ++ho) {
          const float* grow = gp + ho * Wo;
          for (std::int64_t i = 0; i < kh; ++i) {
            const std::int64_t hi = ho * stride - pad + i;
            if (hi < 0 || hi >= H) continue;
            const float* xrow = xp + hi * W;
            for (std::int64_t j = 0; j < kw; ++j) {
              const std::int64_t off = j - pad;  // wi = wo*stride + off
              const std::int64_t lo =
                  off < 0 ? (-off + stride - 1) / stride : 0;
              const std::int64_t top = W - 1 - off;
              if (top < 0) continue;
              const std::int64_t hi_wo = std::min(Wo, top / stride + 1);
              if (lo >= hi_wo) continue;
              double s = 0;
              if (stride == 1) {
                s = dot_f2d(grow + lo, xrow + lo + off, hi_wo - lo);
              } else {
                for (std::int64_t wo = lo; wo < hi_wo; ++wo)
                  s += static_cast<double>(grow[wo]) * xrow[wo * stride + off];
              }
              acc[static_cast<std::size_t>(i * kw + j)] += s;
            }
          }
        }
      }
      float* wplane = DW + (ki * C + ci) * kh * kw;
      for (std::int64_t q = 0; q < kh * kw; ++q)
        wplane[q] = static_cast<float>(acc[static_cast<std::size_t>(q)]);
    }
  });
}

void blocked_transpose_last2(const float* X, float* Y, std::int64_t outer,
                             std::int64_t r, std::int64_t c, ThreadPool& pool) {
  // 64x64 tiles: one tile touches 16KiB of each side, so the strided side
  // stays resident in L1 while the other streams. Each output element is
  // written by exactly one (matrix, row-tile) unit and the kernel moves data
  // without arithmetic, so any unit-to-thread assignment is bit-identical.
  // The tile is transposed through a contiguous staging buffer: writing
  // straight to Y walks it with a stride of r floats, which for the
  // power-of-two matrices that dominate (e.g. 1024x1024 weights) lands every
  // store in the same L1 set and thrashes it. The buffer has no such stride,
  // and the flush to Y is row-contiguous.
  constexpr std::int64_t kT = 64;
  const std::int64_t rtiles = (r + kT - 1) / kT;
  pool.parallel_for(0, outer * rtiles, [&](std::int64_t u0, std::int64_t u1) {
    alignas(64) float buf[kT * kT];
    for (std::int64_t u = u0; u < u1; ++u) {
      const std::int64_t mat = u / rtiles;
      const std::int64_t i0 = (u % rtiles) * kT;
      const std::int64_t ni = (i0 + kT < r ? i0 + kT : r) - i0;
      const float* x = X + mat * r * c;
      float* y = Y + mat * r * c;
      for (std::int64_t j0 = 0; j0 < c; j0 += kT) {
        const std::int64_t nj = (j0 + kT < c ? j0 + kT : c) - j0;
        for (std::int64_t i = 0; i < ni; ++i) {
          const float* __restrict xr = x + (i0 + i) * c + j0;
          for (std::int64_t j = 0; j < nj; ++j) buf[j * kT + i] = xr[j];
        }
        for (std::int64_t j = 0; j < nj; ++j) {
          float* __restrict yr = y + (j0 + j) * r + i0;
          const float* __restrict br = buf + j * kT;
          for (std::int64_t i = 0; i < ni; ++i) yr[i] = br[i];
        }
      }
    }
  });
}

}  // namespace detail
}  // namespace rannc
