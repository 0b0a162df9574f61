// Tests for the comparator-framework planners and the Table I registry.
// Uses down-scaled devices so that the paper's qualitative feasibility
// ordering (DDP OOMs first, Megatron next, graph partitioning last) shows
// at test-sized models.
#include <gtest/gtest.h>

#include "baselines/data_parallel.h"
#include "baselines/feature_table.h"
#include "baselines/gpipe.h"
#include "baselines/layer_stages.h"
#include "baselines/megatron.h"
#include "baselines/pipedream.h"
#include "baselines/staged_eval.h"
#include "models/bert.h"
#include "models/resnet.h"

namespace rannc {
namespace {

BuiltModel test_bert(std::int64_t layers = 8) {
  BertConfig c;
  c.hidden = 128;
  c.layers = layers;
  c.seq_len = 32;
  c.vocab = 256;
  return build_bert(c);
}

ClusterSpec small_cluster(std::int64_t mem_mb) {
  ClusterSpec c;
  c.device.memory_bytes = mem_mb << 20;
  return c;
}

TEST(FeatureTable, MatchesPaperTableI) {
  const auto rows = framework_feature_table();
  ASSERT_EQ(rows.size(), 7u);
  const FrameworkFeatures& rannc = rows.back();
  EXPECT_EQ(rannc.name, "RaNNC (Ours)");
  EXPECT_EQ(rannc.partitioning, "Graph");
  EXPECT_TRUE(rannc.hybrid_parallelism);
  EXPECT_TRUE(rannc.automatic);
  EXPECT_TRUE(rannc.memory_estimation);
  EXPECT_TRUE(rannc.staleness_free);
  // RaNNC is the only row with all four properties.
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_FALSE(rows[i].hybrid_parallelism && rows[i].automatic &&
                 rows[i].memory_estimation && rows[i].staleness_free)
        << rows[i].name;
  }
  EXPECT_FALSE(render_feature_table().empty());
}

TEST(DataParallel, FeasibleWithRoomAndUsesAllDevices) {
  BuiltModel m = test_bert();
  ClusterSpec c = small_cluster(2048);
  BaselinePlan p = plan_data_parallel(m, c, Precision::FP32, 256);
  ASSERT_TRUE(p.feasible) << p.reason;
  EXPECT_EQ(p.replicas, c.total_devices());
  EXPECT_GT(p.throughput(256), 0);
}

TEST(DataParallel, OomWhenModelStateExceedsDevice) {
  BuiltModel m = test_bert();
  // Model state alone (16 B/param) exceeds a 16 MiB device.
  BaselinePlan p = plan_data_parallel(m, small_cluster(16), Precision::FP32, 256);
  EXPECT_FALSE(p.feasible);
  EXPECT_NE(p.reason.find("OOM"), std::string::npos);
}

TEST(DataParallel, GradientAccumulationRescuesActivationPressure) {
  BuiltModel m = test_bert();
  // Enough for model state but not for the full per-device batch at once.
  BaselinePlan p = plan_data_parallel(m, small_cluster(96), Precision::FP32, 512);
  if (p.feasible) {
    EXPECT_GT(p.microbatches, 1);
  }
}

TEST(Megatron, RejectsNonTransformer) {
  ResNetConfig rc;
  rc.depth = 50;
  rc.image_size = 32;
  BuiltModel m = build_resnet(rc);
  BaselinePlan p = plan_megatron(m, small_cluster(2048), Precision::FP32, 256);
  EXPECT_FALSE(p.feasible);
  EXPECT_NE(p.reason.find("Transformer"), std::string::npos);
}

TEST(Megatron, TensorParallelismIsPowerOfTwo) {
  BuiltModel m = test_bert();
  BaselinePlan p = plan_megatron(m, small_cluster(512), Precision::FP32, 256);
  ASSERT_TRUE(p.feasible) << p.reason;
  EXPECT_EQ(p.tensor_parallel & (p.tensor_parallel - 1), 0);
  EXPECT_EQ(p.microbatches, 1);  // no gradient accumulation
}

TEST(Megatron, TrainsLargerThanDataParallelButSmallerThanUnbounded) {
  // The qualitative Fig. 4 ordering at miniature scale: find a memory size
  // where DDP OOMs but Megatron still trains.
  BuiltModel m = test_bert(16);
  for (std::int64_t mem : {24, 32, 48, 64, 96}) {
    BaselinePlan dp = plan_data_parallel(m, small_cluster(mem), Precision::FP32, 256);
    BaselinePlan mg = plan_megatron(m, small_cluster(mem), Precision::FP32, 256);
    if (!dp.feasible && mg.feasible) {
      SUCCEED();
      return;
    }
  }
  FAIL() << "no memory size separated Megatron from DDP";
}

TEST(LayerStages, UniformSplitRequiresDivisibility) {
  BuiltModel m = test_bert(8);
  EXPECT_FALSE(uniform_layer_stages(m, 2).empty());
  EXPECT_FALSE(uniform_layer_stages(m, 4).empty());
  EXPECT_TRUE(uniform_layer_stages(m, 3).empty());  // 8 % 3 != 0
}

TEST(LayerStages, UniformSplitCoversAllTasks) {
  BuiltModel m = test_bert(8);
  const auto stages = uniform_layer_stages(m, 4);
  ASSERT_EQ(stages.size(), 4u);
  std::size_t total = 0;
  for (const auto& s : stages) total += s.size();
  EXPECT_EQ(total, m.graph.num_tasks());
}

TEST(LayerStages, BalancedSplitMinimizesBottleneck) {
  BuiltModel m = test_bert(8);
  GraphProfiler prof(m.graph, DeviceSpec{});
  const auto stages = balanced_layer_stages(m, prof, 4, 4);
  ASSERT_EQ(stages.size(), 4u);
  // Balanced split's bottleneck must not exceed the uniform split's.
  auto bottleneck = [&](const std::vector<std::vector<TaskId>>& st) {
    double worst = 0;
    for (const auto& s : st) {
      double t = 0;
      for (TaskId task : s)
        t += prof.task_time_f(task, 4, false) + prof.task_time_b(task, 4, false);
      worst = std::max(worst, t);
    }
    return worst;
  };
  EXPECT_LE(bottleneck(stages), bottleneck(uniform_layer_stages(m, 4)) + 1e-12);
}

TEST(GPipeHybrid, FeasiblePlanHasUniformReplicas) {
  BuiltModel m = test_bert(8);
  BaselinePlan p = plan_gpipe_hybrid(m, small_cluster(256), 256);
  ASSERT_TRUE(p.feasible) << p.reason;
  EXPECT_EQ(p.replicas * p.stages, ClusterSpec{}.total_devices());
  EXPECT_GE(p.microbatches, 1);
}

TEST(GPipeHybrid, RejectsNonTransformer) {
  ResNetConfig rc;
  rc.depth = 50;
  rc.image_size = 32;
  BaselinePlan p =
      plan_gpipe_hybrid(build_resnet(rc), small_cluster(2048), 256);
  EXPECT_FALSE(p.feasible);
}

TEST(GPipeModel, SingleNodeEightStages) {
  ResNetConfig rc;
  rc.depth = 50;
  rc.image_size = 32;
  BuiltModel m = build_resnet(rc);
  BaselinePlan p = plan_gpipe_model(m, small_cluster(1024), 128, 16);
  ASSERT_TRUE(p.feasible) << p.reason;
  EXPECT_EQ(p.stages, 8);
  EXPECT_EQ(p.replicas, 1);
  EXPECT_EQ(p.microbatches, 16);
}

TEST(PipeDream2BW, FasterThanGPipeHybridOnSameModel) {
  // Async 1F1B has no flush bubble, so with identical stage structure it
  // must not be slower (the paper's observation).
  BuiltModel m = test_bert(8);
  ClusterSpec c = small_cluster(512);
  BaselinePlan gp = plan_gpipe_hybrid(m, c, 256);
  BaselinePlan pd = plan_pipedream_2bw(m, c, 256);
  ASSERT_TRUE(gp.feasible);
  ASSERT_TRUE(pd.feasible);
  EXPECT_GE(pd.throughput(256), gp.throughput(256) * 0.99);
}

TEST(PipeDream2BW, DoubleBufferingCostsMemory) {
  // 2BW keeps two weight versions: with identical stage structure and a
  // single in-flight microbatch, its per-device footprint must exceed the
  // single-version GPipe accounting by exactly one weight copy per stage.
  BuiltModel m = test_bert(16);
  ClusterSpec c = small_cluster(2048);
  GraphProfiler prof(m.graph, c.device, Precision::FP32);
  const auto stages = uniform_layer_stages(m, 4);
  ASSERT_FALSE(stages.empty());
  const StagedEval gp = eval_stages(prof, c, stages, 4, 1, Precision::FP32,
                                    true, InflightPolicy::GPipeFlush, 0);
  const StagedEval pd = eval_stages(prof, c, stages, 4, 1, Precision::FP32,
                                    true, InflightPolicy::OneFOneB, 1);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const ProfileResult& p = prof.profile(stages[i], 4);
    EXPECT_EQ(pd.mems[i] - gp.mems[i], 4 * p.num_params) << "stage " << i;
  }
}

}  // namespace
}  // namespace rannc
