// Tests for the execution runtime: optimizers, the reference trainer, the
// multi-threaded pipeline trainer's numerical equivalence with
// single-device training (the paper's loss-parity validation, Section IV-B),
// and the closable channel the pipeline trainer rides on.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "models/mlp.h"
#include "obs/metrics.h"
#include "runtime/channel.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/trainer.h"
#include "tensor/ops.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace rannc {
namespace {

/// Deterministic synthetic classification microbatches for an MLP.
std::vector<TensorMap> make_microbatches(const TaskGraph& g, int count,
                                         std::uint64_t seed) {
  const ValueId x = g.input_values()[0];
  const ValueId y = g.input_values()[1];
  const Shape& xs = g.value(x).shape;
  const std::int64_t b = xs.dims[0];
  std::vector<TensorMap> mbs;
  for (int j = 0; j < count; ++j) {
    TensorMap m;
    m.emplace(x, Tensor::uniform(xs, 1.0f, seed + static_cast<std::uint64_t>(j)));
    Tensor labels(Shape{b});
    for (std::int64_t i = 0; i < b; ++i)
      labels.at(i) = static_cast<float>((i + j) % 10);
    m.emplace(y, std::move(labels));
    mbs.push_back(std::move(m));
  }
  return mbs;
}

MlpConfig test_mlp() {
  MlpConfig c;
  c.input_dim = 12;
  c.hidden_dims = {16, 16, 16};
  c.num_classes = 10;
  c.batch = 4;
  return c;
}

/// Splits tasks into `S` contiguous chunks (valid stages for a chain MLP).
std::vector<std::vector<TaskId>> chunk_stages(const TaskGraph& g, int S) {
  std::vector<std::vector<TaskId>> stages(static_cast<std::size_t>(S));
  const auto n = static_cast<int>(g.num_tasks());
  for (int t = 0; t < n; ++t)
    stages[static_cast<std::size_t>(std::min(S - 1, t * S / n))].push_back(t);
  return stages;
}

TEST(Optimizer, SgdStepMovesAgainstGradient) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerConfig::Kind::SGD;
  cfg.lr = 0.5f;
  Optimizer opt(cfg);
  TensorMap params, grads;
  params.emplace(0, Tensor(Shape{2}, {1.0f, 2.0f}));
  grads.emplace(0, Tensor(Shape{2}, {1.0f, -1.0f}));
  opt.step(params, grads);
  EXPECT_FLOAT_EQ(params.at(0).at(0), 0.5f);
  EXPECT_FLOAT_EQ(params.at(0).at(1), 2.5f);
}

TEST(Optimizer, AdamFirstStepIsLrSized) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerConfig::Kind::Adam;
  cfg.lr = 0.1f;
  Optimizer opt(cfg);
  TensorMap params, grads;
  params.emplace(0, Tensor(Shape{1}, {1.0f}));
  grads.emplace(0, Tensor(Shape{1}, {3.0f}));
  opt.step(params, grads);
  // Bias-corrected Adam's first update is ~lr regardless of grad magnitude.
  EXPECT_NEAR(params.at(0).at(0), 1.0f - 0.1f, 1e-5);
}

TEST(InitParams, DeterministicAndPyTorchLike) {
  MlpConfig mc = test_mlp();
  BuiltModel m = build_mlp(mc);
  TensorMap p1 = init_params(m.graph, 7);
  TensorMap p2 = init_params(m.graph, 7);
  for (const auto& [v, t] : p1)
    EXPECT_FLOAT_EQ(max_abs_diff(t, p2.at(v)), 0.0f);
  // Biases start at zero.
  for (const Value& v : m.graph.values()) {
    if (v.kind == ValueKind::Param && v.name.ends_with(".bias")) {
      EXPECT_FLOAT_EQ(p1.at(v.id).max_abs(), 0.0f);
    }
  }
}

TEST(Trainer, LossDecreasesOnFixedBatch) {
  BuiltModel m = build_mlp(test_mlp());
  OptimizerConfig oc;
  oc.kind = OptimizerConfig::Kind::Adam;
  oc.lr = 0.01f;
  Trainer trainer(m.graph, oc, /*seed=*/3);
  const auto mbs = make_microbatches(m.graph, 2, 99);
  const float first = trainer.step(mbs);
  float last = first;
  for (int i = 0; i < 30; ++i) last = trainer.step(mbs);
  EXPECT_LT(last, first * 0.7f) << "training did not reduce the loss";
}

TEST(Trainer, RequiresScalarLossOutput) {
  TaskGraph g("two_out");
  ValueId x = g.add_input("x", Shape{2});
  ValueId a = g.add_task("a", OpKind::Relu, {x}, Shape{2});
  g.mark_output(a);  // non-scalar output
  EXPECT_THROW(Trainer(g, OptimizerConfig{}), std::invalid_argument);
}

class PipelineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(PipelineEquivalence, MatchesSingleDeviceTraining) {
  const auto [num_stages, microbatches, recompute] = GetParam();
  BuiltModel m = build_mlp(test_mlp());
  OptimizerConfig oc;
  oc.kind = OptimizerConfig::Kind::Adam;
  oc.lr = 0.01f;

  Trainer reference(m.graph, oc, /*seed=*/11);
  PipelineOptions popt;
  popt.opt = oc;
  popt.seed = 11;
  popt.recompute = recompute;
  PipelineTrainer pipeline(m.graph, chunk_stages(m.graph, num_stages), popt);

  for (int step = 0; step < 10; ++step) {
    const auto mbs =
        make_microbatches(m.graph, microbatches, 1000 + 17 * static_cast<std::uint64_t>(step));
    const float ref_loss = reference.step(mbs);
    const float pipe_loss = pipeline.step(mbs);
    // Same kernels, same accumulation order: losses agree to float noise.
    EXPECT_NEAR(ref_loss, pipe_loss, 1e-5f) << "step " << step;
  }

  // Parameters agree shard-by-shard after training.
  for (std::size_t s = 0; s < pipeline.num_stages(); ++s)
    for (const auto& [v, t] : pipeline.stage_params(s))
      EXPECT_LE(max_abs_diff(t, reference.params().at(v)), 1e-4f)
          << m.graph.value(v).name;
}

INSTANTIATE_TEST_SUITE_P(
    StagesAndMicrobatches, PipelineEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(false, true)));

TEST(PipelineTrainer, RejectsOverlappingStages) {
  BuiltModel m = build_mlp(test_mlp());
  auto stages = chunk_stages(m.graph, 2);
  stages[1].push_back(stages[0][0]);  // duplicate task
  EXPECT_THROW(PipelineTrainer(m.graph, stages, PipelineOptions{}),
               std::invalid_argument);
}

TEST(PipelineTrainer, RejectsIncompleteCover) {
  BuiltModel m = build_mlp(test_mlp());
  auto stages = chunk_stages(m.graph, 2);
  stages[1].pop_back();
  EXPECT_THROW(PipelineTrainer(m.graph, stages, PipelineOptions{}),
               std::invalid_argument);
}

TEST(PipelineTrainer, StageFailureUnblocksPeersAndRethrows) {
  // A stage that throws (here: stage 0, on a microbatch missing its graph
  // inputs) must not leave downstream stages blocked in recv() forever:
  // the boundary channels are closed and the first exception is rethrown.
  BuiltModel m = build_mlp(test_mlp());
  PipelineTrainer pipeline(m.graph, chunk_stages(m.graph, 3),
                           PipelineOptions{});
  std::vector<TensorMap> bad(2);  // no input values at all
  EXPECT_THROW(pipeline.step(bad), std::out_of_range);
  // Other stages may have stepped their optimizers before the failure, so
  // the trainer refuses to go on, even with good microbatches.
  EXPECT_THROW(pipeline.step(make_microbatches(m.graph, 2, 5)),
               std::logic_error);
}

TEST(PipelineTrainer, BoundedWaitFailsTheStep) {
  // Stage 0 stalls before its first forward; stage 1's first receive
  // outlives recv_timeout_s and fails the step after one wait.
  BuiltModel m = build_mlp(test_mlp());
  PipelineOptions po;
  po.recv_timeout_s = 0.05;
  po.stage_hook = [](int stage, int mb) {
    if (stage == 0 && mb == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
  };
  PipelineTrainer pipeline(m.graph, chunk_stages(m.graph, 2), po);
  try {
    pipeline.step(make_microbatches(m.graph, 2, 5));
    ADD_FAILURE() << "step did not time out";
  } catch (const StageTimeoutError& e) {
    EXPECT_EQ(e.stage(), 1);
  }
}

TEST(PipelineTrainer, ReportsSimulatedCommAndMeasuredComputeTime) {
  BuiltModel m = build_mlp(test_mlp());
  OptimizerConfig oc;
  oc.lr = 0.05f;
  PipelineOptions plain;
  plain.opt = oc;
  plain.seed = 7;
  PipelineOptions priced = plain;
  priced.cluster = ClusterSpec{};  // stage s pinned to device s

  PipelineTrainer a(m.graph, chunk_stages(m.graph, 3), plain);
  PipelineTrainer b(m.graph, chunk_stages(m.graph, 3), priced);
  const auto mbs = make_microbatches(m.graph, 2, 99);
  // Pricing only accounts for traffic; it must not change the numbers.
  EXPECT_FLOAT_EQ(a.step(mbs), b.step(mbs));

  std::int64_t total_in = 0, total_out = 0;
  for (std::size_t s = 0; s < b.num_stages(); ++s) {
    const StageReport& r = b.stage_report(s);
    EXPECT_GT(r.compute_seconds, 0.0) << "stage " << s;
    // Every stage of a 3-stage chain touches at least one boundary.
    EXPECT_GT(r.comm_seconds, 0.0) << "stage " << s;
    total_in += r.bytes_in;
    total_out += r.bytes_out;
    // Without a cluster configured, no comm is accrued.
    EXPECT_DOUBLE_EQ(a.stage_report(s).comm_seconds, 0.0);
  }
  EXPECT_GT(total_out, 0);
  EXPECT_EQ(total_in, total_out);  // byte conservation across the pipeline
}

TEST(PipelineTrainer, StepPublishesStageAndKernelMetrics) {
  BuiltModel m = build_mlp(test_mlp());
  OptimizerConfig oc;
  oc.lr = 0.05f;
  PipelineOptions po;
  po.opt = oc;
  po.seed = 11;
  PipelineTrainer t(m.graph, chunk_stages(m.graph, 2), po);
  obs::MetricsRegistry& reg = obs::metrics();
  const std::int64_t steps_before = reg.counter("runtime.steps").get();
  const std::int64_t mm_calls_before =
      reg.counter("runtime.kernel.matmul.calls").get();
  const std::int64_t mm_bytes_before =
      reg.counter("runtime.kernel.matmul.bytes").get();
  t.step(make_microbatches(m.graph, 2, 42));
  // The causal-attribution feeds: a step counter, per-stage compute/comm
  // gauges sourced from the StageReports, and kernel call/byte counters.
  EXPECT_EQ(reg.counter("runtime.steps").get(), steps_before + 1);
  for (std::size_t s = 0; s < t.num_stages(); ++s) {
    const std::string prefix = "runtime.stage." + std::to_string(s);
    EXPECT_GT(reg.gauge(prefix + ".compute_s").get(), 0.0) << prefix;
    EXPECT_DOUBLE_EQ(reg.gauge(prefix + ".compute_s").get(),
                     t.stage_report(s).compute_seconds);
  }
  EXPECT_GT(reg.counter("runtime.kernel.matmul.calls").get(),
            mm_calls_before);
  EXPECT_GT(reg.counter("runtime.kernel.matmul.bytes").get(),
            mm_bytes_before);
}

TEST(PipelineTrainer, RecomputeMatchesStored) {
  // Gradient checkpointing must not change the numbers, only the memory.
  BuiltModel m = build_mlp(test_mlp());
  OptimizerConfig oc;
  oc.lr = 0.05f;
  PipelineOptions stored;
  stored.opt = oc;
  stored.seed = 5;
  PipelineOptions ckpt = stored;
  ckpt.recompute = true;
  PipelineTrainer a(m.graph, chunk_stages(m.graph, 3), stored);
  PipelineTrainer b(m.graph, chunk_stages(m.graph, 3), ckpt);
  for (int step = 0; step < 5; ++step) {
    const auto mbs = make_microbatches(m.graph, 2, 50 + static_cast<std::uint64_t>(step));
    EXPECT_FLOAT_EQ(a.step(mbs), b.step(mbs));
  }
}

// ---- copy-on-write snapshots ------------------------------------------------

bool maps_bit_equal(const TensorMap& a, const TensorMap& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [v, t] : a) {
    auto it = b.find(v);
    if (it == b.end() || it->second.numel() != t.numel()) return false;
    if (std::memcmp(t.data(), it->second.data(),
                    static_cast<std::size_t>(t.numel()) * sizeof(float)) != 0)
      return false;
  }
  return true;
}

TEST(Optimizer, AdamKernelBitIdenticalToReferenceLoop) {
  // The fused Adam kernel (kernels_elementwise.cpp, -ffp-contract=off)
  // promises the exact bits of the scalar reference loop, at any thread
  // count. Ragged sizes cover the vector tails.
  OptimizerConfig cfg;
  cfg.kind = OptimizerConfig::Kind::Adam;
  cfg.lr = 0.01f;
  ThreadPool wide(3);
  for (std::int64_t n : {1, 7, 8, 64, 1000, 4097}) {
    Optimizer ref(cfg), fast(cfg), threaded(cfg);
    TensorMap pr, pf, pt;
    Tensor init = Tensor::uniform(Shape{n}, 1.0f, 100 + static_cast<std::uint64_t>(n));
    pr.emplace(0, init.clone());
    pf.emplace(0, init.clone());
    pt.emplace(0, init.clone());
    for (int step = 0; step < 3; ++step) {
      TensorMap grads;
      grads.emplace(0, Tensor::uniform(Shape{n}, 1.0f,
                                       7 * static_cast<std::uint64_t>(step) + 1));
      set_naive_kernels(true);
      ref.step(pr, grads);
      set_naive_kernels(false);
      fast.step(pf, grads);
      set_kernel_pool(&wide);
      threaded.step(pt, grads);
      set_kernel_pool(nullptr);
      EXPECT_TRUE(maps_bit_equal(pr, pf)) << "n=" << n << " step=" << step;
      EXPECT_TRUE(maps_bit_equal(pr, pt)) << "n=" << n << " step=" << step;
    }
    const OptStateMap& sr = ref.state();
    const OptStateMap& sf = fast.state();
    for (const auto& [v, s] : sr) {
      EXPECT_EQ(std::memcmp(s.m.data(), sf.at(v).m.data(),
                            static_cast<std::size_t>(n) * sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(s.v.data(), sf.at(v).v.data(),
                            static_cast<std::size_t>(n) * sizeof(float)), 0);
    }
  }
}

TEST(Optimizer, CopyOnWriteStepPreservesSnapshotAndMatchesInPlace) {
  OptimizerConfig cfg;
  cfg.kind = OptimizerConfig::Kind::Adam;
  cfg.lr = 0.1f;
  TensorMap grads;
  grads.emplace(0, Tensor::uniform(Shape{64}, 1.0f, 2));

  // In-place reference: no aliases, buffers are mutated directly.
  Optimizer ref_opt(cfg);
  TensorMap ref_params;
  ref_params.emplace(0, Tensor::uniform(Shape{64}, 1.0f, 1));
  const float* ref_buf = ref_params.at(0).data();
  ref_opt.step(ref_params, grads);
  EXPECT_EQ(ref_params.at(0).data(), ref_buf) << "unshared step must be in place";

  // CoW: a shallow alias of the parameter forces the update out of place.
  Optimizer cow_opt(cfg);
  TensorMap cow_params;
  cow_params.emplace(0, Tensor::uniform(Shape{64}, 1.0f, 1));
  TensorMap alias = cow_params;  // shallow
  Tensor before = cow_params.at(0).clone();
  cow_opt.step(cow_params, grads);
  EXPECT_NE(cow_params.at(0).data(), alias.at(0).data());
  EXPECT_FLOAT_EQ(max_abs_diff(alias.at(0), before), 0.0f)
      << "the alias's bytes must survive the step";
  // Same arithmetic either way: CoW and in-place results are bit-identical.
  EXPECT_TRUE(maps_bit_equal(ref_params, cow_params));
}

/// Boundary payload bytes per stage-pair edge of `stages`: every value
/// produced in one stage and consumed in another, counted once per
/// consuming stage. Gradient messages carry the same values back.
std::map<std::pair<int, int>, std::int64_t> edge_bytes(
    const TaskGraph& g, const std::vector<std::vector<TaskId>>& stages) {
  std::vector<int> stage_of(g.num_tasks(), -1);
  for (std::size_t s = 0; s < stages.size(); ++s)
    for (TaskId t : stages[s])
      stage_of[static_cast<std::size_t>(t)] = static_cast<int>(s);
  std::map<std::pair<int, int>, std::int64_t> bytes;
  for (const Value& v : g.values()) {
    if (v.producer == kNoTask) continue;
    const int from = stage_of[static_cast<std::size_t>(v.producer)];
    std::set<int> to;
    for (TaskId c : v.consumers)
      if (stage_of[static_cast<std::size_t>(c)] != from)
        to.insert(stage_of[static_cast<std::size_t>(c)]);
    for (int s : to)
      bytes[{from, s}] +=
          v.shape.numel() * static_cast<std::int64_t>(sizeof(float));
  }
  return bytes;
}

TEST(PipelineTrainer, CommSecondsAreInOrderP2pSums) {
  // Every message adds p2p_time(cluster, bytes, same_node) on its sending
  // and on its receiving stage. One device per node makes every boundary
  // cross nodes; two per node keeps 0->1 inside node 0 and moves 1->2
  // across. The reports must equal the in-order sums bit for bit.
  BuiltModel m = build_mlp(test_mlp());
  const auto stages = chunk_stages(m.graph, 3);
  const auto bytes = edge_bytes(m.graph, stages);
  ASSERT_EQ(bytes.size(), 2u);
  const int MB = 2, steps = 2;
  for (const int dpn : {1, 2}) {
    PipelineOptions po;
    po.seed = 3;
    po.cluster = ClusterSpec{};
    po.cluster->devices_per_node = dpn;
    const ClusterSpec& c = *po.cluster;
    PipelineTrainer t(m.graph, stages, po);
    for (int k = 0; k < steps; ++k)
      t.step(make_microbatches(m.graph, MB, 40 + static_cast<unsigned>(k)));

    std::vector<double> want_s(3, 0.0);
    std::vector<std::int64_t> want_in(3, 0), want_out(3, 0);
    for (const auto& [edge, b] : bytes) {
      const auto [from, to] = edge;
      const bool same_node = from / dpn == to / dpn;
      ASSERT_NE(p2p_time(c, b, true), p2p_time(c, b, false));
      // One direction of the edge over every message of every step; the
      // activations and the gradients carry the same bytes.
      double one_way = 0;
      for (int k = 0; k < steps * MB; ++k)
        one_way += p2p_time(c, b, same_node);
      want_s[static_cast<std::size_t>(from)] += one_way + one_way;
      want_s[static_cast<std::size_t>(to)] += one_way + one_way;
      want_out[static_cast<std::size_t>(from)] += steps * MB * b;
      want_in[static_cast<std::size_t>(from)] += steps * MB * b;
      want_out[static_cast<std::size_t>(to)] += steps * MB * b;
      want_in[static_cast<std::size_t>(to)] += steps * MB * b;
    }
    for (std::size_t s = 0; s < 3; ++s) {
      const StageReport& r = t.stage_report(s);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.comm_seconds),
                std::bit_cast<std::uint64_t>(want_s[s]))
          << "dpn=" << dpn << " stage " << s << ": " << r.comm_seconds
          << " vs " << want_s[s];
      EXPECT_EQ(r.bytes_in, want_in[s]) << "dpn=" << dpn << " stage " << s;
      EXPECT_EQ(r.bytes_out, want_out[s]) << "dpn=" << dpn << " stage " << s;
    }
  }
}

TEST(PipelineTrainer, BoundaryHandoffIsZeroCopy) {
  // Inter-stage traffic moves tensor handles, not bytes: a partitioned
  // step allocates exactly as many tensors as the unpartitioned one, so no
  // boundary activation or gradient is copied on its way between stages.
  BuiltModel m = build_mlp(test_mlp());
  const auto mbs = make_microbatches(m.graph, 2, 17);
  std::vector<std::int64_t> allocs;
  for (const int S : {1, 2, 3}) {
    PipelineOptions po;
    po.cluster = ClusterSpec{};
    PipelineTrainer t(m.graph, chunk_stages(m.graph, S), po);
    const std::int64_t before = Arena::global().stats().allocs;
    t.step(mbs);
    allocs.push_back(Arena::global().stats().allocs - before);
  }
  EXPECT_GT(allocs[0], 0);
  EXPECT_EQ(allocs[1], allocs[0]);
  EXPECT_EQ(allocs[2], allocs[0]);
}

// ---- closable channel ----------------------------------------------------

TEST(Channel, CloseUnblocksReceiverWithNullopt) {
  Channel<int> ch(4);
  std::optional<int> got = 0;
  std::thread receiver([&] { got = ch.recv(); });
  ch.close();
  receiver.join();
  EXPECT_FALSE(got.has_value());
}

TEST(Channel, CloseUnblocksFullSender) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.send(1));
  bool sent = true;
  std::thread sender([&] { sent = ch.send(2); });  // blocks: channel full
  ch.close();
  sender.join();
  EXPECT_FALSE(sent);
  EXPECT_FALSE(ch.send(3));  // closed channels reject immediately
}

TEST(Channel, DrainsQueuedItemsAfterClose) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.send(1));
  ASSERT_TRUE(ch.send(2));
  ch.close();
  EXPECT_EQ(ch.recv(), 1);
  EXPECT_EQ(ch.recv(), 2);
  EXPECT_EQ(ch.recv(), std::nullopt);
}

}  // namespace
}  // namespace rannc
