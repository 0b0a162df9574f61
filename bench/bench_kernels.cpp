// Micro-benchmarks (google-benchmark) for the hot paths: CPU tensor
// kernels used by the execution runtime and the three partitioning phases.
#include <benchmark/benchmark.h>

#include <array>

#include "rannc.h"
#include "util/thread_pool.h"

namespace {

using namespace rannc;

/// Pins the kernel path (naive reference vs blocked) for one benchmark run.
struct KernelPath {
  explicit KernelPath(bool naive) { set_naive_kernels(naive); }
  ~KernelPath() { set_naive_kernels(false); }
};

/// Runs one benchmark's kernels on the calling thread alone when `solo`, as
/// the training runtime does (its stage threads use a pool without
/// workers); otherwise on the default kernel pool.
struct KernelThreads {
  explicit KernelThreads(bool solo) {
    if (solo) set_kernel_pool(&pool);
  }
  ~KernelThreads() { set_kernel_pool(nullptr); }
  ThreadPool pool{0};
};

// Forward C[m,n] = A[m,k] x B[k,n] and its grad_a dA[m,k] = G[m,n] x B^T,
// both 2mkn flops. Args: m, k, n, naive (0 = blocked, 1 = naive reference
// loops), solo (1 = one thread). The solo rows at BERT-tiny's shapes (seq
// 64, hidden 384, FFN 1536) are the ones tools/bench_sentinel.py compares
// per flop.
void BM_MatMul(benchmark::State& state) {
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  KernelPath path(state.range(3) != 0);
  KernelThreads threads(state.range(4) != 0);
  Tensor a = Tensor::uniform(Shape{m, k}, 1.0f, 1);
  Tensor b = Tensor::uniform(Shape{k, n}, 1.0f, 2);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void BM_MatMulGradA(benchmark::State& state) {
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  KernelPath path(state.range(3) != 0);
  KernelThreads threads(state.range(4) != 0);
  Tensor g = Tensor::uniform(Shape{m, n}, 1.0f, 1);
  Tensor b = Tensor::uniform(Shape{k, n}, 1.0f, 2);
  for (auto _ : state) benchmark::DoNotOptimize(matmul_grad_a(g, b));
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void gemm_args(benchmark::internal::Benchmark* b) {
  b->ArgNames({"m", "k", "n", "naive", "solo"});
  for (std::int64_t n : {64, 128, 256, 512}) b->Args({n, n, n, 0, 0});
  b->Args({256, 256, 256, 1, 0});
  for (const auto& [m, k, n] : {std::array<std::int64_t, 3>{64, 384, 384},
                                {64, 384, 1536},
                                {64, 1536, 384}})
    b->Args({m, k, n, 0, 1});
}
BENCHMARK(BM_MatMul)->Apply(gemm_args);
BENCHMARK(BM_MatMulGradA)->Apply(gemm_args);

void BM_MatMulGradB(benchmark::State& state) {
  const auto n = state.range(0);
  KernelPath path(state.range(1) != 0);
  Tensor a = Tensor::uniform(Shape{n, n}, 1.0f, 1);
  Tensor g = Tensor::uniform(Shape{n, n}, 1.0f, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(matmul_grad_b(a, g, Shape{n, n}));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulGradB)->Args({256, 0})->Args({256, 1});

// matmul_grad_b at BERT-tiny's FFN shapes (seq 64): [64x384]^T x [64x1536]
// and [64x1536]^T x [64x384]. Args: k, n, upstream gradient (0 = uniform,
// 1 = all subnormal at 1e-39, 2 = every 50th row subnormal, ~2 % of rows,
// as late in training), path (0 = blocked, 1 = naive).
void BM_MatMulGradBSubnormal(benchmark::State& state) {
  const std::int64_t m = 64, k = state.range(0), n = state.range(1);
  KernelPath path(state.range(3) != 0);
  Tensor a = Tensor::uniform(Shape{m, k}, 1.0f, 1);
  Tensor g = Tensor::uniform(Shape{m, n}, 1.0f, 2);
  for (std::int64_t r = 0; r < m; ++r) {
    if (state.range(2) == 1 || (state.range(2) == 2 && r % 50 == 0))
      for (std::int64_t j = 0; j < n; ++j) g.at(r * n + j) = 1e-39f;
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(matmul_grad_b(a, g, Shape{k, n}));
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMulGradBSubnormal)
    ->Args({384, 1536, 0, 0})->Args({384, 1536, 1, 0})->Args({384, 1536, 2, 0})
    ->Args({1536, 384, 0, 0})->Args({1536, 384, 1, 0})->Args({1536, 384, 2, 0})
    ->Args({384, 1536, 0, 1})->Args({384, 1536, 1, 1})->Args({384, 1536, 2, 1})
    ->Args({1536, 384, 0, 1})->Args({1536, 384, 1, 1})->Args({1536, 384, 2, 1});

void BM_Transpose(benchmark::State& state) {
  const auto n = state.range(0);
  KernelPath path(state.range(1) != 0);
  Tensor x = Tensor::uniform(Shape{n, n}, 1.0f, 1);
  for (auto _ : state) benchmark::DoNotOptimize(transpose(x, {1, 0}));
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_Transpose)->Args({1024, 0})->Args({1024, 1});

void BM_Softmax(benchmark::State& state) {
  Tensor a = Tensor::uniform(Shape{state.range(0), 512}, 1.0f, 3);
  for (auto _ : state) benchmark::DoNotOptimize(softmax_lastdim(a));
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(512);

void BM_LayerNorm(benchmark::State& state) {
  Tensor x = Tensor::uniform(Shape{state.range(0), 768}, 1.0f, 4);
  Tensor g(Shape{768}, 1.0f);
  Tensor b(Shape{768}, 0.0f);
  for (auto _ : state) benchmark::DoNotOptimize(layernorm(x, g, b));
}
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(512);

void BM_Conv2d(benchmark::State& state) {
  KernelPath path(state.range(0) != 0);
  Tensor x = Tensor::uniform(Shape{1, 16, 32, 32}, 1.0f, 5);
  Tensor w = Tensor::uniform(Shape{16, 16, 3, 3}, 1.0f, 6);
  for (auto _ : state) benchmark::DoNotOptimize(conv2d(x, w, 1, 1));
}
BENCHMARK(BM_Conv2d)->Arg(0)->Arg(1);

BuiltModel bench_bert(std::int64_t layers) {
  BertConfig c;
  c.hidden = 1024;
  c.layers = layers;
  return build_bert(c);
}

void BM_AtomicPartition(benchmark::State& state) {
  BuiltModel m = bench_bert(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(atomic_partition(m.graph));
}
BENCHMARK(BM_AtomicPartition)->Arg(24)->Arg(96);

void BM_BlockPartition(benchmark::State& state) {
  BuiltModel m = bench_bert(state.range(0));
  AtomicPartition ap = atomic_partition(m.graph);
  GraphProfiler prof(ap.graph, DeviceSpec{});
  BlockPartitionConfig cfg;
  cfg.k = 32;
  cfg.profile_batch = 8;
  for (auto _ : state) benchmark::DoNotOptimize(block_partition(ap, prof, cfg));
}
BENCHMARK(BM_BlockPartition)->Arg(24)->Arg(96);

void BM_StageDp(benchmark::State& state) {
  // Synthetic 32-unit DP at the paper's scale: S stages over 8 devices.
  const int N = 32;
  std::vector<double> w(N, 1.0);
  for (int i = 0; i < N; ++i) w[static_cast<std::size_t>(i)] += 0.1 * (i % 5);
  StageDpInput in;
  in.num_units = N;
  in.num_stages = static_cast<int>(state.range(0));
  in.num_devices = 8;
  in.batch_size = 256;
  in.replica_factor = 4;
  in.microbatches = 8;
  in.device_memory = 1LL << 40;
  in.profile = [&w](int lo, int hi, std::int64_t bsize, int, int) {
    StageProfile p;
    double t = 0;
    for (int i = lo; i < hi; ++i) t += w[static_cast<std::size_t>(i)];
    p.t_f = t * static_cast<double>(bsize) * 1e-3;
    p.t_b = 2 * p.t_f;
    p.mem = 1;
    return p;
  };
  for (auto _ : state) benchmark::DoNotOptimize(form_stage_dp(in));
}
BENCHMARK(BM_StageDp)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
