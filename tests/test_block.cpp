// Tests for block-level partitioning (paper Section III-B): block count,
// convexity (acyclic block quotient), coverage, memory bounds, balance and
// the communication-reducing refinement.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>

#include "graph/subgraph.h"
#include "models/bert.h"
#include "models/mlp.h"
#include "models/moe.h"
#include "models/resnet.h"
#include "obs/metrics.h"
#include "partition/atomic.h"
#include "partition/block.h"
#include "serve/model_zoo.h"

namespace rannc {
namespace {

struct Built {
  AtomicPartition ap;
  std::unique_ptr<GraphProfiler> prof;
};

Built prepare(int which) {
  TaskGraph g = [&] {
    switch (which) {
      case 0: {
        BertConfig c;
        c.hidden = 128;
        c.layers = 4;
        c.seq_len = 16;
        c.vocab = 64;
        return build_bert(c).graph;
      }
      case 1: {
        ResNetConfig c;
        c.depth = 50;
        c.image_size = 32;
        return build_resnet(c).graph;
      }
      default: {
        MlpConfig c;
        c.hidden_dims = {64, 64, 64, 64, 64, 64};
        return build_mlp(c).graph;
      }
    }
  }();
  Built b{atomic_partition(g), nullptr};
  b.prof = std::make_unique<GraphProfiler>(b.ap.graph, DeviceSpec{});
  return b;
}

class BlockInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BlockInvariants, ProducesKConvexCoveringBlocks) {
  const auto [model, k] = GetParam();
  Built b = prepare(model);
  if (static_cast<int>(b.ap.comps.size()) < k) GTEST_SKIP();
  BlockPartitionConfig cfg;
  cfg.k = k;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);

  EXPECT_EQ(static_cast<int>(bp.blocks.size()), k);

  // Coverage: every component in exactly one block.
  std::vector<int> seen(b.ap.comps.size(), 0);
  for (std::size_t i = 0; i < bp.blocks.size(); ++i)
    for (int c : bp.blocks[i].comps) {
      ++seen[static_cast<std::size_t>(c)];
      EXPECT_EQ(bp.block_of_comp[static_cast<std::size_t>(c)],
                static_cast<int>(i));
    }
  for (int s : seen) EXPECT_EQ(s, 1);

  // Convexity of every block at the task level.
  TaskAdjacency adj(b.ap.graph);
  for (const Block& blk : bp.blocks) {
    std::vector<char> member(b.ap.graph.num_tasks(), 0);
    for (TaskId t : blk.tasks) member[static_cast<std::size_t>(t)] = 1;
    EXPECT_TRUE(is_convex(adj, member));
  }

  // Topological chain: all value edges between blocks point forward.
  std::vector<int> block_of_task(b.ap.graph.num_tasks(), -1);
  for (std::size_t i = 0; i < bp.blocks.size(); ++i)
    for (TaskId t : bp.blocks[i].tasks)
      block_of_task[static_cast<std::size_t>(t)] = static_cast<int>(i);
  for (const Value& v : b.ap.graph.values()) {
    if (v.producer == kNoTask) continue;
    for (TaskId c : v.consumers)
      EXPECT_LE(block_of_task[static_cast<std::size_t>(v.producer)],
                block_of_task[static_cast<std::size_t>(c)]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndK, BlockInvariants,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Values(2, 4, 8, 16)));

TEST(BlockBalance, RefinementImprovesOrMatchesBalance) {
  Built b = prepare(0);
  BlockPartitionConfig cfg;
  cfg.k = 8;
  auto imbalance = [](const BlockPartition& bp) {
    double mx = 0, sum = 0;
    for (const Block& blk : bp.blocks) {
      mx = std::max(mx, blk.time());
      sum += blk.time();
    }
    return mx / (sum / static_cast<double>(bp.blocks.size()));
  };
  cfg.balance_refinement = false;
  const double rough = imbalance(block_partition(b.ap, *b.prof, cfg));
  cfg.balance_refinement = true;
  const double refined = imbalance(block_partition(b.ap, *b.prof, cfg));
  EXPECT_LE(refined, rough + 1e-9);
}

TEST(BlockBalance, BlocksAreReasonablyBalanced) {
  Built b = prepare(0);
  BlockPartitionConfig cfg;
  cfg.k = 8;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  double mx = 0, mn = 1e30;
  for (const Block& blk : bp.blocks) {
    mx = std::max(mx, blk.time());
    mn = std::min(mn, blk.time());
  }
  EXPECT_LT(mx / mn, 2.5) << "blocks are badly imbalanced";
}

TEST(BlockMemory, RespectsDeviceMemoryWhenFeasible) {
  Built b = prepare(2);  // MLP: small
  // Generous per-block budget: full graph / 2.
  const ProfileResult& whole = b.prof->profile(b.ap.graph.topo_order(), 1);
  BlockPartitionConfig cfg;
  cfg.k = 4;
  cfg.device_memory = 4 * whole.param_bytes + whole.act_bytes;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  for (const Block& blk : bp.blocks)
    EXPECT_LE(4 * blk.param_bytes + blk.act_bytes, cfg.device_memory);
}

TEST(BlockPartition, TimesSumToComponentTimes) {
  Built b = prepare(2);
  BlockPartitionConfig cfg;
  cfg.k = 3;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  double total_blocks = 0;
  for (const Block& blk : bp.blocks) total_blocks += blk.time();
  double total_tasks = 0;
  for (const Task& t : b.ap.graph.tasks())
    total_tasks += b.prof->task_time_f(t.id, cfg.profile_batch, false) +
                   b.prof->task_time_b(t.id, cfg.profile_batch, false);
  EXPECT_NEAR(total_blocks, total_tasks, 1e-9);
}

TEST(BlockPartition, KEqualsOneMergesEverything) {
  Built b = prepare(2);
  BlockPartitionConfig cfg;
  cfg.k = 1;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  ASSERT_EQ(bp.blocks.size(), 1u);
  EXPECT_EQ(bp.blocks[0].tasks.size(), b.ap.graph.num_tasks());
  EXPECT_EQ(bp.cut_bytes, 0);
}

TEST(BlockPartition, RejectsEmptyPartition) {
  AtomicPartition empty;
  GraphProfiler prof(empty.graph, DeviceSpec{});
  EXPECT_THROW(block_partition(empty, prof, BlockPartitionConfig{}),
               std::invalid_argument);
}

TEST(BlockPartition, CutBytesAreNonNegativeAndBounded) {
  Built b = prepare(0);
  BlockPartitionConfig cfg;
  cfg.k = 8;
  BlockPartition bp = block_partition(b.ap, *b.prof, cfg);
  std::int64_t total_act = 0;
  for (const Block& blk : bp.blocks) total_act += blk.act_bytes;
  EXPECT_GE(bp.cut_bytes, 0);
  EXPECT_LT(bp.cut_bytes, total_act);
}

// ---- incremental cycle check ----------------------------------------------

/// The 10-layer MoE decoder of the search benchmark (h512, seq 512).
Built prepare_moe(std::int64_t experts) {
  MoeConfig c;
  c.hidden = 512;
  c.seq_len = 512;
  c.layers = 10;
  c.experts = experts;
  Built b{atomic_partition(build_moe(c).graph), nullptr};
  b.prof = std::make_unique<GraphProfiler>(b.ap.graph, DeviceSpec{});
  return b;
}

/// Comp-level edges block partitioning works over: one per (value,
/// consumer comp) with the consumer outside the producer's comp.
std::int64_t comp_edges(const AtomicPartition& ap) {
  std::int64_t n = 0;
  for (const Value& v : ap.graph.values()) {
    if (v.producer == kNoTask || v.kind == ValueKind::Param) continue;
    const int pc = ap.comp_of_task[static_cast<std::size_t>(v.producer)];
    std::vector<int> seen;
    for (TaskId c : v.consumers) {
      const int cc = ap.comp_of_task[static_cast<std::size_t>(c)];
      if (cc == pc || std::find(seen.begin(), seen.end(), cc) != seen.end())
        continue;
      seen.push_back(cc);
      ++n;
    }
  }
  return n;
}

/// Runs the checked entry in all step combinations, with and without memory
/// budgets that reject merges and refinement moves, and expects the plain
/// entry's exact result. The checked entry diffs every incremental cycle
/// check against a full quotient rebuild, the carried quotient against a
/// fresh build_view() at every view, and every indexed refinement pick
/// against the linear scan; each view it audited is counted in `audit`.
/// With uncoarsening off, `uncoarsen_moves` must read 0 while refinement
/// still moves comps.
void expect_checked_matches_plain(const Built& b, const std::string& name) {
  BlockPartitionConfig base;
  const BlockPartition plain = block_partition(b.ap, *b.prof, base);
  std::int64_t max_mem = 0;
  for (const Block& blk : plain.blocks)
    max_mem = std::max(max_mem, 4 * blk.param_bytes + blk.act_bytes);
  obs::Counter& refine_moves =
      obs::metrics().counter("partition.block.refine_moves");
  std::int64_t refine_moves_without_uncoarsening = 0;
  for (int k : {4, 32})
    for (std::int64_t mem : {std::int64_t{0}, max_mem * 3 / 4, max_mem})
      for (bool unc : {true, false})
        for (bool bal : {true, false}) {
          BlockPartitionConfig cfg;
          cfg.k = k;
          cfg.device_memory = mem;
          cfg.uncoarsening = unc;
          cfg.balance_refinement = bal;
          SCOPED_TRACE(name + " k=" + std::to_string(k) +
                       " mem=" + std::to_string(mem) +
                       " unc=" + std::to_string(unc) +
                       " bal=" + std::to_string(bal));
          BlockPartition checked;
          detail::BlockAudit audit;
          ASSERT_NO_THROW(checked = detail::block_partition_checked(
                              b.ap, *b.prof, cfg, &audit));
          EXPECT_GE(audit.views, 2);  // at least a coarsening level + finalize
          const std::int64_t moves0 = refine_moves.get();
          const BlockPartition want = block_partition(b.ap, *b.prof, cfg);
          if (!unc) {
            EXPECT_EQ(want.uncoarsen_moves, 0);
            refine_moves_without_uncoarsening += refine_moves.get() - moves0;
          }
          EXPECT_EQ(checked.blocks, want.blocks);
          EXPECT_EQ(checked.block_of_comp, want.block_of_comp);
          EXPECT_EQ(checked.cut_bytes, want.cut_bytes);
          EXPECT_EQ(checked.coarsen_levels, want.coarsen_levels);
          EXPECT_EQ(checked.uncoarsen_moves, want.uncoarsen_moves);
          EXPECT_EQ(checked.compaction_merges, want.compaction_merges);
        }
  // Refinement did move comps, so the zeros above are not vacuous.
  EXPECT_GT(refine_moves_without_uncoarsening, 0);
}

TEST(BlockCycleCheck, AgreesWithFullRebuildOnModelZoo) {
  for (const char* model : {"mlp", "bert", "gpt2", "t5", "resnet"}) {
    serve::ModelSpec spec;
    spec.model = model;
    Built b{atomic_partition(serve::build_model(spec).graph), nullptr};
    b.prof = std::make_unique<GraphProfiler>(b.ap.graph, DeviceSpec{});
    expect_checked_matches_plain(b, model);
  }
}

TEST(BlockCycleCheck, AgreesWithFullRebuildOnMoe) {
  for (std::int64_t experts : {8, 16})
    expect_checked_matches_plain(prepare_moe(experts),
                                 "moe-E" + std::to_string(experts));
}

TEST(BlockCycleCheck, CheckWorkIsAFractionOfFullRebuilds) {
  // A full rebuild touches every component and comp edge per check; the
  // incremental checks must scan only a small share of that. The bound is
  // machine-independent, so a quadratic regression fails on any runner.
  const Built b = prepare_moe(16);
  obs::Counter& checks = obs::metrics().counter("partition.block.cycle_checks");
  obs::Counter& comps =
      obs::metrics().counter("partition.block.cycle_check_comps");
  const std::int64_t checks0 = checks.get(), comps0 = comps.get();
  block_partition(b.ap, *b.prof, BlockPartitionConfig{});
  const std::int64_t n_checks = checks.get() - checks0;
  const std::int64_t scanned = comps.get() - comps0;
  const std::int64_t full =
      n_checks *
      (static_cast<std::int64_t>(b.ap.comps.size()) + comp_edges(b.ap));
  ASSERT_GT(n_checks, 1000);
  EXPECT_LE(scanned * 20, full)
      << scanned << " comps scanned by " << n_checks << " checks; a full "
      << "rebuild per check would touch " << full;
}

// ---- carried quotient and movable index -----------------------------------

TEST(BlockRefine, IndexPicksWhatTheScanPicks) {
  // The checked entry diffs every indexed pick against the linear scan.
  // The MoE's experts have equal times, so the scan's "first listed wins"
  // tie-break decides many picks; a budget equal to the fullest block of
  // the unconstrained partition makes refinement moves hit the memory
  // check; both directions of the chain occur.
  detail::BlockAudit total;
  for (std::int64_t experts : {8, 16}) {
    const Built b = prepare_moe(experts);
    const BlockPartition free_bp =
        block_partition(b.ap, *b.prof, BlockPartitionConfig{});
    std::int64_t max_mem = 0;
    for (const Block& blk : free_bp.blocks)
      max_mem = std::max(max_mem, 4 * blk.param_bytes + blk.act_bytes);
    for (int k : {8, 32})
      for (std::int64_t mem : {std::int64_t{0}, max_mem}) {
        BlockPartitionConfig cfg;
        cfg.k = k;
        cfg.device_memory = mem;
        SCOPED_TRACE("E" + std::to_string(experts) + " k=" +
                     std::to_string(k) + " mem=" + std::to_string(mem));
        detail::BlockAudit audit;
        BlockPartition checked;
        ASSERT_NO_THROW(checked = detail::block_partition_checked(
                            b.ap, *b.prof, cfg, &audit));
        EXPECT_TRUE(checked == block_partition(b.ap, *b.prof, cfg));
        for (int dir : {0, 1}) total.picks[dir] += audit.picks[dir];
        total.tied_picks += audit.tied_picks;
        total.memory_rejects += audit.memory_rejects;
      }
  }
  EXPECT_GT(total.picks[0], 100);  // forward
  EXPECT_GT(total.picks[1], 100);  // backward
  EXPECT_GT(total.tied_picks, 100);
  EXPECT_GT(total.memory_rejects, 0);
}

TEST(BlockRefine, WorkIsAFractionOfTheScan) {
  // Machine-independent gate on Phase 2's work: one call builds the
  // comp-level quotient once, and the movable index examines a small share
  // of the comps the linear scan would walk for the same picks.
  const Built b = prepare_moe(16);
  const std::vector<std::string> names = {
      "views_built",    "merges_proposed", "merges_applied",
      "merges_rejected", "refine_moves",   "refine_comps_examined"};
  std::vector<std::int64_t> work;
  for (const std::string& n : names)
    work.push_back(-obs::metrics().counter("partition.block." + n).get());
  block_partition(b.ap, *b.prof, BlockPartitionConfig{});
  for (std::size_t i = 0; i < names.size(); ++i)
    work[i] += obs::metrics().counter("partition.block." + names[i]).get();
  const auto [views, proposed, applied, rejected, moves, examined] =
      std::tuple(work[0], work[1], work[2], work[3], work[4], work[5]);
  EXPECT_EQ(views, 1);
  EXPECT_EQ(proposed, applied + rejected);
  EXPECT_GT(applied, 1000);

  detail::BlockAudit audit;
  detail::block_partition_checked(b.ap, *b.prof, BlockPartitionConfig{},
                                  &audit);
  ASSERT_GT(moves, 1000);
  EXPECT_LE(examined * 20, audit.scanned)
      << examined << " comps examined for " << moves << " moves; the scan "
      << "walks " << audit.scanned;
}

}  // namespace
}  // namespace rannc
