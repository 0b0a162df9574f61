// End-to-end tests of the RaNNC auto-partitioner (Algorithm 2 plus both
// lower phases) on real model graphs.
#include <gtest/gtest.h>

#include "graph/subgraph.h"
#include "models/bert.h"
#include "models/mlp.h"
#include "models/resnet.h"
#include "partition/auto_partitioner.h"
#include "partition/search.h"

namespace rannc {
namespace {

BertConfig tiny_bert() {
  BertConfig c;
  c.hidden = 128;
  c.layers = 4;
  c.seq_len = 32;
  c.vocab = 256;
  return c;
}

TEST(AutoPartition, TinyBertIsFeasibleAndCoversGraph) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(r.feasible) << r.infeasible_reason;
  ASSERT_NE(r.graph, nullptr);

  // Stages partition the (rebuilt) graph.
  std::vector<int> seen(r.graph->num_tasks(), 0);
  for (const StagePlan& s : r.stages)
    for (TaskId t : s.tasks) ++seen[static_cast<std::size_t>(t)];
  for (int c : seen) EXPECT_EQ(c, 1);

  // Every stage is convex and fits the memory budget.
  for (const StagePlan& s : r.stages) {
    EXPECT_TRUE(is_convex(*r.graph, s.tasks));
    EXPECT_LE(s.mem, cfg.usable_memory());
    EXPECT_GE(s.devices, 1);
    EXPECT_EQ(s.replicas_total, s.devices * r.pipelines);
  }
  EXPECT_GT(r.throughput(cfg.batch_size), 0);
  EXPECT_GT(r.stats.atomic_components, 0u);
  EXPECT_GT(r.stats.dp_invocations, 0);
}

TEST(AutoPartition, DeviceBudgetNeverExceeded) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(r.feasible);
  int total = 0;
  for (const StagePlan& s : r.stages) total += s.devices;
  // Devices of one pipeline times pipeline count == devices actually used;
  // bounded by the cluster size.
  EXPECT_LE(total * r.pipelines, cfg.cluster.total_devices());
}

TEST(AutoPartition, SmallModelUsesOneNodeGroupAndBeatsPlainDP) {
  // A model that easily fits one device: the search must settle in the
  // first node group (n=1, maximal data parallelism across pipelines) and,
  // since the single-stage configuration is inside its search space, must
  // never estimate worse than it. (It may still legitimately pick S > 1
  // when a tiny model is all-reduce-latency dominated.)
  MlpConfig mc;
  BuiltModel m = build_mlp(mc);
  SearchRequest cfg;
  cfg.batch_size = 64;
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.nodes_used, 1);
  EXPECT_EQ(r.pipelines, cfg.cluster.num_nodes);
  double single_stage_est = -1;
  for (const CandidateTrace& c : r.stats.candidates)
    if (c.feasible && c.stages == 1)
      single_stage_est = single_stage_est < 0
                             ? c.est_iteration
                             : std::min(single_stage_est, c.est_iteration);
  ASSERT_GT(single_stage_est, 0) << "single-stage config not explored";
  EXPECT_LE(r.est_iteration_time, single_stage_est + 1e-12);
}

TEST(AutoPartition, InfeasibleWhenMemoryAbsurdlySmall) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.cluster.device.memory_bytes = 1 << 20;  // 1 MiB devices
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.infeasible_reason.empty());
}

TEST(AutoPartition, LargerModelGetsMoreStages) {
  SearchRequest cfg;
  cfg.batch_size = 64;
  // Shrink devices so even the tiny configs need pipelining.
  cfg.cluster.device.memory_bytes = 48LL << 20;
  BertConfig small = tiny_bert();
  BertConfig big = tiny_bert();
  big.layers = 12;
  PartitionResult rs = auto_partition(build_bert(small).graph, cfg).plan;
  PartitionResult rb = auto_partition(build_bert(big).graph, cfg).plan;
  ASSERT_TRUE(rs.feasible);
  ASSERT_TRUE(rb.feasible);
  EXPECT_GE(rb.stages.size(), rs.stages.size());
}

TEST(AutoPartition, MixedPrecisionIsFaster) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  PartitionResult fp32 = auto_partition(m.graph, cfg).plan;
  cfg.precision = Precision::Mixed;
  PartitionResult amp = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(fp32.feasible);
  ASSERT_TRUE(amp.feasible);
  EXPECT_GT(amp.throughput(64), fp32.throughput(64));
}

TEST(AutoPartition, AblationVariantSearchesMoreAndEstimatesWorse) {
  // Section IV-C: without coarsening the DP runs over atomic components.
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.prune = false;  // measures the exhaustive search-space size
  PartitionResult with = auto_partition(m.graph, cfg).plan;
  cfg.use_coarsening = false;
  PartitionResult without = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(with.feasible);
  ASSERT_TRUE(without.feasible);
  // The variant's DP visits far more cells (units = atomic components).
  EXPECT_GT(without.stats.dp_cells_visited, 10 * with.stats.dp_cells_visited);
  EXPECT_GT(static_cast<int>(without.stats.blocks), with.stats.blocks);
}

TEST(AutoPartition, AblationAbortsOnBudget) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.use_coarsening = false;
  cfg.prune = false;  // pruning could finish inside the tiny budget
  cfg.budget.max_dp_cells = 100;  // emulates the paper's 24h timeout
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.infeasible_reason, "search budget exceeded");
}

TEST(AutoPartition, CandidateTraceRecordsSearch) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = 64;
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.stats.candidates.empty());
  bool any_feasible = false;
  for (const CandidateTrace& c : r.stats.candidates) {
    EXPECT_GE(c.stages, 1);
    EXPECT_GE(c.microbatches, 1);
    if (c.feasible) {
      any_feasible = true;
      EXPECT_GT(c.est_iteration, 0);
    }
  }
  EXPECT_TRUE(any_feasible);
}

TEST(AutoPartition, DescribeMentionsStages) {
  BuiltModel m = build_mlp(MlpConfig{});
  SearchRequest cfg;
  cfg.batch_size = 64;
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  const std::string desc = describe(r);
  EXPECT_NE(desc.find("stage"), std::string::npos);
}

TEST(AutoPartition, ResNetPartitionsCleanly) {
  ResNetConfig rc;
  rc.depth = 50;
  rc.image_size = 32;
  BuiltModel m = build_resnet(rc);
  SearchRequest cfg;
  cfg.batch_size = 32;
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(r.feasible) << r.infeasible_reason;
  for (const StagePlan& s : r.stages) EXPECT_TRUE(is_convex(*r.graph, s.tasks));
}

class BatchSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BatchSweep, FeasibleAcrossBatchSizes) {
  BuiltModel m = build_bert(tiny_bert());
  SearchRequest cfg;
  cfg.batch_size = GetParam();
  PartitionResult r = auto_partition(m.graph, cfg).plan;
  EXPECT_TRUE(r.feasible) << r.infeasible_reason;
  EXPECT_GT(r.throughput(cfg.batch_size), 0);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSweep,
                         ::testing::Values(32, 64, 128, 256));

}  // namespace
}  // namespace rannc
