// Tests for the deprecated auto_partition(PartitionConfig) shim: legacy
// callers must keep compiling (warned, not broken) and must see the exact
// PR 3 exhaustive engine — same plan AND same work counters — while the
// SearchRequest round-trip helpers preserve every legacy knob.
//
// The build compiles with -Werror=deprecated-declarations; this file is the
// one allowlisted caller of the legacy entry points, so every use is
// wrapped in a targeted diagnostic suppression.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "models/mlp.h"
#include "partition/auto_partitioner.h"
#include "partition/plan_io.h"
#include "partition/search.h"

namespace rannc {
namespace {

MlpConfig small_mlp() {
  MlpConfig c;
  c.input_dim = 64;
  c.hidden_dims = {128, 128, 128};
  c.num_classes = 16;
  return c;
}

PartitionConfig legacy_cfg() {
  PartitionConfig cfg;
  cfg.cluster.num_nodes = 1;
  cfg.cluster.devices_per_node = 4;
  cfg.batch_size = 64;
  cfg.threads = 2;
  return cfg;
}

PartitionResult call_legacy(const TaskGraph& g, const PartitionConfig& cfg) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  return auto_partition(g, cfg);
#pragma GCC diagnostic pop
}

TEST(DeprecatedShim, MatchesTheExhaustiveSearchRequestEngineExactly) {
  const BuiltModel m = build_mlp(small_mlp());
  const PartitionConfig cfg = legacy_cfg();
  const PartitionResult legacy = call_legacy(m.graph, cfg);
  ASSERT_TRUE(legacy.feasible) << legacy.infeasible_reason;

  const SearchRequest req = SearchRequest::from_config(cfg);
  EXPECT_FALSE(req.prune.enabled);  // the shim runs the PR 3 engine
  EXPECT_EQ(req.shard.shards, 1);
  const SearchResult sr = auto_partition(m.graph, req);
  ASSERT_TRUE(sr.feasible());

  // Same plan, bit for bit...
  EXPECT_EQ(plan_to_json(legacy), plan_to_json(sr.plan));
  // ...and the counters legacy consumers watch are untouched too.
  EXPECT_EQ(legacy.stats.dp_cells_visited, sr.stats().dp_cells_visited);
  EXPECT_EQ(legacy.stats.profile_queries, sr.stats().profile_queries);
  EXPECT_EQ(legacy.stats.candidates.size(), sr.stats().candidates.size());
  EXPECT_EQ(legacy.stats.prune.jobs_pruned, 0);
  EXPECT_EQ(legacy.stats.prune.incumbent_updates, 0);
}

TEST(DeprecatedShim, BeatenByTheDefaultPrunedEngineOnWorkNeverOnPlan) {
  const BuiltModel m = build_mlp(small_mlp());
  const PartitionConfig cfg = legacy_cfg();
  const PartitionResult legacy = call_legacy(m.graph, cfg);

  SearchRequest req = SearchRequest::from_config(cfg);
  req.prune.enabled = true;  // what new callers get by default
  const SearchResult pruned = auto_partition(m.graph, req);
  ASSERT_TRUE(pruned.feasible());
  EXPECT_EQ(plan_to_json(pruned.plan), plan_to_json(legacy));
  EXPECT_LE(pruned.stats().dp_cells_visited, legacy.stats.dp_cells_visited);
}

TEST(DeprecatedShim, KeepsTheLegacyValidationContract) {
  const BuiltModel m = build_mlp(small_mlp());
  PartitionConfig cfg = legacy_cfg();
  cfg.batch_size = -4;
  try {
    (void)call_legacy(m.graph, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Legacy callers parse this prefix; the shim must preserve it.
    EXPECT_EQ(std::string(e.what()).rfind("invalid PartitionConfig:", 0), 0u)
        << e.what();
  }
}

TEST(DeprecatedShim, ConfigRoundTripPreservesEveryLegacyKnob) {
  PartitionConfig cfg = legacy_cfg();
  cfg.precision = Precision::Mixed;
  cfg.optimizer = OptimizerKind::SGD;
  cfg.num_blocks = 12;
  cfg.memory_margin = 0.7;
  cfg.use_coarsening = false;
  cfg.max_dp_cells = 12345;

  const PartitionConfig back = SearchRequest::from_config(cfg).to_config();
  EXPECT_EQ(back.cluster.num_nodes, cfg.cluster.num_nodes);
  EXPECT_EQ(back.cluster.devices_per_node, cfg.cluster.devices_per_node);
  EXPECT_EQ(back.precision, cfg.precision);
  EXPECT_EQ(back.optimizer, cfg.optimizer);
  EXPECT_EQ(back.batch_size, cfg.batch_size);
  EXPECT_EQ(back.num_blocks, cfg.num_blocks);
  EXPECT_DOUBLE_EQ(back.memory_margin, cfg.memory_margin);
  EXPECT_EQ(back.use_coarsening, cfg.use_coarsening);
  EXPECT_EQ(back.max_dp_cells, cfg.max_dp_cells);
  EXPECT_EQ(back.threads, cfg.threads);
}

TEST(DeprecatedShim, LegacyValidatePlanOverloadForwards) {
  const BuiltModel m = build_mlp(small_mlp());
  const PartitionConfig cfg = legacy_cfg();
  const PartitionResult plan = call_legacy(m.graph, cfg);
  ASSERT_TRUE(plan.feasible);
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  const auto legacy_violations = validate_plan(plan, cfg);
#pragma GCC diagnostic pop
  const auto new_violations =
      validate_plan(plan, SearchRequest::from_config(cfg));
  EXPECT_EQ(legacy_violations.size(), new_violations.size());
  EXPECT_TRUE(new_violations.empty());
}

}  // namespace
}  // namespace rannc
