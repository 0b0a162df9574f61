// Property-based fuzz tests over randomly generated layered DAGs.
//
// The three partitioning phases make structural promises (single
// non-constant task per atomic component, convex blocks, acyclic block
// quotient, full coverage) that must hold for *any* model graph, not just
// the shipped builders. These tests generate random DAGs with fan-out,
// skip connections, shared parameters and constant chains, and check every
// invariant, cross-validating convexity against a brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "analysis/analysis.h"
#include "graph/subgraph.h"
#include "partition/atomic.h"
#include "partition/auto_partitioner.h"
#include "partition/search.h"
#include "partition/block.h"
#include "profiler/graph_profiler.h"
#include "serve/fingerprint.h"

namespace rannc {
namespace {

/// Random layered DAG: `layers` ranks of 1..width elementwise/matmul tasks;
/// each task consumes 1-2 values from earlier ranks (skip connections
/// allowed); some tasks get parameters, and a few parameters are reached
/// through constant transpose chains shared by several consumers.
TaskGraph random_graph(std::uint32_t seed, int depth = 8, int width = 4) {
  std::mt19937 rng(seed);
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  TaskGraph g("fuzz_" + std::to_string(seed));
  const std::int64_t dim = 8;
  std::vector<ValueId> frontier;
  frontier.push_back(g.add_input("x", Shape{dim, dim}));

  // A couple of shared constant chains (transpose of a param).
  std::vector<ValueId> const_values;
  for (int i = 0; i < 2; ++i) {
    ValueId w = g.add_param("w" + std::to_string(i), Shape{dim, dim});
    const_values.push_back(
        g.add_task("w_t" + std::to_string(i), OpKind::Transpose, {w},
                   Shape{dim, dim}, DType::F32,
                   OpAttrs{}.set("perm0", std::int64_t{1})
                            .set("perm1", std::int64_t{0})));
  }

  int task_no = 0;
  for (int d = 0; d < depth; ++d) {
    const int n = 1 + pick(width);
    std::vector<ValueId> next;
    for (int i = 0; i < n; ++i) {
      const ValueId a =
          frontier[static_cast<std::size_t>(pick(static_cast<int>(frontier.size())))];
      const std::string name = "t" + std::to_string(task_no++);
      ValueId out;
      switch (pick(4)) {
        case 0:  // matmul with a shared constant chain
          out = g.add_task(name, OpKind::MatMul,
                           {a, const_values[static_cast<std::size_t>(pick(2))]},
                           Shape{dim, dim});
          break;
        case 1: {  // binary op with another frontier value
          const ValueId b = frontier[static_cast<std::size_t>(
              pick(static_cast<int>(frontier.size())))];
          out = g.add_task(name, OpKind::Add, {a, b}, Shape{dim, dim});
          break;
        }
        case 2:
          out = g.add_task(name, OpKind::Gelu, {a}, Shape{dim, dim});
          break;
        default: {  // parameterized matmul
          ValueId w = g.add_param(name + ".w", Shape{dim, dim});
          out = g.add_task(name, OpKind::MatMul, {a, w}, Shape{dim, dim});
          break;
        }
      }
      next.push_back(out);
    }
    // Keep some old frontier values reachable (skip connections).
    for (ValueId v : next) frontier.push_back(v);
    if (frontier.size() > 8)
      frontier.erase(frontier.begin(),
                     frontier.begin() + static_cast<long>(frontier.size() - 8));
  }
  // Join all loose ends so the graph has one output.
  ValueId acc = frontier[0];
  int j = 0;
  for (std::size_t i = 1; i < frontier.size(); ++i)
    acc = g.add_task("join" + std::to_string(j++), OpKind::Add,
                     {acc, frontier[i]}, Shape{dim, dim});
  g.mark_output(acc);
  return g;
}

/// Brute-force convexity oracle: for every pair (alpha, beta) in the set,
/// checks reachability through outside-the-set vertices only.
bool convex_oracle(const TaskGraph& g, const std::vector<TaskId>& tasks) {
  TaskAdjacency adj(g);
  std::vector<char> member(g.num_tasks(), 0);
  for (TaskId t : tasks) member[static_cast<std::size_t>(t)] = 1;
  // reach_out[t]: set of members reachable from t via paths whose interior
  // vertices are all outside the set.
  const auto n = static_cast<int>(g.num_tasks());
  for (TaskId a : tasks) {
    // BFS from a, first hop must leave the set.
    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    std::vector<TaskId> stack;
    for (TaskId s : adj.succ(a))
      if (!member[static_cast<std::size_t>(s)]) stack.push_back(s);
    while (!stack.empty()) {
      TaskId cur = stack.back();
      stack.pop_back();
      if (visited[static_cast<std::size_t>(cur)]) continue;
      visited[static_cast<std::size_t>(cur)] = 1;
      for (TaskId s : adj.succ(cur)) {
        if (member[static_cast<std::size_t>(s)]) return false;
        stack.push_back(s);
      }
    }
  }
  return true;
}

class Fuzz : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(Fuzz, AtomicInvariantsHold) {
  TaskGraph g = random_graph(GetParam());
  AtomicPartition ap = atomic_partition(g);
  const auto nc = find_non_constant_tasks(ap.graph);
  std::vector<int> seen(ap.graph.num_tasks(), 0);
  for (const AtomicComponent& c : ap.comps) {
    int nc_count = 0;
    for (TaskId t : c.tasks) {
      ++seen[static_cast<std::size_t>(t)];
      if (nc[static_cast<std::size_t>(t)]) ++nc_count;
    }
    EXPECT_EQ(nc_count, 1);
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  // After cloning, every constant task's output feeds exactly one consumer.
  for (const Task& t : ap.graph.tasks()) {
    if (nc[static_cast<std::size_t>(t.id)]) continue;
    EXPECT_LE(ap.graph.value(t.output).consumers.size(), 1u) << t.name;
  }
  EXPECT_EQ(ap.graph.num_params(), g.num_params());
}

TEST_P(Fuzz, ConvexityPredicateMatchesOracle) {
  TaskGraph g = random_graph(GetParam(), 6, 3);
  std::mt19937 rng(GetParam() ^ 0xabcdef);
  const auto n = static_cast<int>(g.num_tasks());
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<TaskId> subset;
    for (int t = 0; t < n; ++t)
      if (rng() % 3 == 0) subset.push_back(t);
    if (subset.empty()) continue;
    EXPECT_EQ(is_convex(g, subset), convex_oracle(g, subset))
        << "seed " << GetParam() << " trial " << trial;
  }
}

/// The incremental cycle checks agree with a full quotient rebuild at every
/// step, the carried quotient with a fresh build_view() at every view, and
/// the indexed refinement picks with the linear scan (the checked entry
/// throws otherwise); checking changes nothing. Memory
/// budgets below the largest block of `bp` reject merges and moves; the
/// toggles reach uncoarsening and refinement from different states.
void expect_checked_matches_plain(const AtomicPartition& ap,
                                  const GraphProfiler& prof,
                                  const BlockPartitionConfig& cfg,
                                  const BlockPartition& bp) {
  std::int64_t max_mem = 0;
  for (const Block& blk : bp.blocks)
    max_mem = std::max(max_mem, 4 * blk.param_bytes + blk.act_bytes);
  for (std::int64_t mem : {std::int64_t{0}, max_mem / 2, max_mem * 3 / 4})
    for (bool unc : {true, false})
      for (bool bal : {true, false}) {
        BlockPartitionConfig c = cfg;
        c.device_memory = mem;
        c.uncoarsening = unc;
        c.balance_refinement = bal;
        SCOPED_TRACE("k=" + std::to_string(c.k) + " mem=" +
                     std::to_string(mem) + " unc=" + std::to_string(unc) +
                     " bal=" + std::to_string(bal));
        BlockPartition checked;
        detail::BlockAudit audit;
        ASSERT_NO_THROW(
            checked = detail::block_partition_checked(ap, prof, c, &audit));
        EXPECT_GE(audit.views, 1);
        EXPECT_TRUE(checked == block_partition(ap, prof, c));
      }
}

TEST_P(Fuzz, BlockPartitionInvariantsHold) {
  TaskGraph g = random_graph(GetParam());
  AtomicPartition ap = atomic_partition(g);
  GraphProfiler prof(ap.graph, DeviceSpec{});
  for (int k : {2, 4, 7}) {
    if (static_cast<int>(ap.comps.size()) < k) continue;
    BlockPartitionConfig cfg;
    cfg.k = k;
    BlockPartition bp = block_partition(ap, prof, cfg);
    EXPECT_EQ(static_cast<int>(bp.blocks.size()), k);

    TaskAdjacency adj(ap.graph);
    std::vector<int> covered(ap.graph.num_tasks(), 0);
    for (const Block& blk : bp.blocks) {
      std::vector<char> member(ap.graph.num_tasks(), 0);
      for (TaskId t : blk.tasks) {
        member[static_cast<std::size_t>(t)] = 1;
        ++covered[static_cast<std::size_t>(t)];
      }
      EXPECT_TRUE(is_convex(adj, member));
    }
    for (int c : covered) EXPECT_EQ(c, 1);

    // Chain order: inter-block edges all point forward.
    std::vector<int> block_of_task(ap.graph.num_tasks(), -1);
    for (std::size_t i = 0; i < bp.blocks.size(); ++i)
      for (TaskId t : bp.blocks[i].tasks)
        block_of_task[static_cast<std::size_t>(t)] = static_cast<int>(i);
    for (const Value& v : ap.graph.values()) {
      if (v.producer == kNoTask) continue;
      for (TaskId c : v.consumers)
        EXPECT_LE(block_of_task[static_cast<std::size_t>(v.producer)],
                  block_of_task[static_cast<std::size_t>(c)]);
    }

    expect_checked_matches_plain(ap, prof, cfg, bp);
  }

  // Wider graphs are where merges checked pairwise against one snapshot
  // jointly close cycles, so coarsening's rejections get diffed too.
  AtomicPartition wide = atomic_partition(random_graph(GetParam(), 16, 8));
  GraphProfiler wide_prof(wide.graph, DeviceSpec{});
  for (int k : {2, 4, 7}) {
    BlockPartitionConfig cfg;
    cfg.k = k;
    expect_checked_matches_plain(wide, wide_prof, cfg,
                                 block_partition(wide, wide_prof, cfg));
  }
}

TEST_P(Fuzz, AutoPartitionProducesValidPlans) {
  TaskGraph g = random_graph(GetParam(), 10, 4);
  SearchRequest cfg;
  cfg.cluster.num_nodes = 1;
  cfg.cluster.devices_per_node = 4;
  cfg.batch_size = 16;
  cfg.num_blocks = 6;
  PartitionResult r = auto_partition(g, cfg).plan;
  if (!r.feasible) GTEST_SKIP();  // tiny graphs may be degenerate
  std::vector<int> covered(r.graph->num_tasks(), 0);
  for (const StagePlan& s : r.stages) {
    EXPECT_TRUE(is_convex(*r.graph, s.tasks));
    for (TaskId t : s.tasks) ++covered[static_cast<std::size_t>(t)];
  }
  for (int c : covered) EXPECT_EQ(c, 1);
}

TEST_P(Fuzz, RandomGraphsPassTheVerifier) {
  // Builder-produced graphs must be clean under the full lint, structurally
  // AND shape-wise, whatever the random topology. The atomic clone-rebuild
  // must preserve that.
  TaskGraph g = random_graph(GetParam());
  const auto ds = lint_graph(g);
  EXPECT_FALSE(has_errors(ds)) << render(ds);
  AtomicPartition ap = atomic_partition(g);
  const auto ds2 = lint_graph(ap.graph);
  EXPECT_FALSE(has_errors(ds2)) << render(ds2);
}

/// Each corruption applied to a random well-formed graph must yield exactly
/// the diagnostic the verifier documents for it — negative-path coverage for
/// every structural check, on arbitrary topologies — and both consumers of
/// a graph, the search and the serve fingerprint, must refuse it.
TEST_P(Fuzz, CorruptedGraphsYieldTheExpectedDiagnostic) {
  const std::uint32_t seed = GetParam();
  struct Corruption {
    DiagCode expected;
    void (*apply)(TaskGraph&);
  };
  const Corruption catalog[] = {
      {DiagCode::TaskIdNotDense,
       [](TaskGraph& g) { g.task_mut(1).id = 0; }},
      {DiagCode::ValueIdNotDense,
       [](TaskGraph& g) { g.value_mut(2).id = 0; }},
      {DiagCode::InputIdOutOfRange,
       [](TaskGraph& g) {
         g.task_mut(0).inputs[0] = static_cast<ValueId>(g.num_values());
       }},
      {DiagCode::OutputIdOutOfRange,
       [](TaskGraph& g) { g.task_mut(0).output = -2; }},
      {DiagCode::ProducerLinkBroken,
       [](TaskGraph& g) {
         g.value_mut(g.task(0).output).producer = g.task(1).id;
       }},
      {DiagCode::DanglingProducer,
       [](TaskGraph& g) {
         g.value_mut(g.task(0).output).producer =
             static_cast<TaskId>(g.num_tasks());
       }},
      {DiagCode::OrphanIntermediate,
       [](TaskGraph& g) { g.value_mut(g.task(0).output).producer = kNoTask; }},
      {DiagCode::MultiplyProducedValue,
       [](TaskGraph& g) { g.task_mut(1).output = g.task(0).output; }},
      {DiagCode::UseBeforeDef,
       [](TaskGraph& g) {
         const ValueId late = g.task(static_cast<TaskId>(g.num_tasks()) - 1).output;
         g.task_mut(0).inputs[0] = late;
       }},
      {DiagCode::ConsumerLinkBroken,
       [](TaskGraph& g) {
         // Claim a consumer that does not actually read the value.
         const ValueId v = g.task(static_cast<TaskId>(g.num_tasks()) - 1).output;
         g.value_mut(v).consumers.push_back(0);
       }},
      {DiagCode::MissingConsumerBackEdge,
       [](TaskGraph& g) { g.value_mut(g.task(0).inputs[0]).consumers.clear(); }},
      {DiagCode::NoMarkedOutput,
       [](TaskGraph& g) {
         for (const Value& v : g.values())
           if (v.is_output) g.value_mut(v.id).is_output = false;
       }},
      {DiagCode::GraphCycle,
       [](TaskGraph& g) {
         // Feed the last task's output back into one of its own producers,
         // with mirrored links, closing a two-task cycle that only the
         // order/cycle checks can catch.
         const Task& last = g.task(static_cast<TaskId>(g.num_tasks()) - 1);
         const TaskId p = g.value(last.inputs[0]).producer;
         g.task_mut(p).inputs.push_back(last.output);
         g.value_mut(last.output).consumers.push_back(p);
       }},
      {DiagCode::ShapeMismatch,
       [](TaskGraph& g) {
         g.value_mut(g.task(0).output).shape = Shape{3, 5, 7};
       }},
      {DiagCode::DTypeMismatch,
       [](TaskGraph& g) { g.value_mut(g.task(0).output).dtype = DType::I64; }},
  };
  for (const Corruption& c : catalog) {
    TaskGraph g = random_graph(seed);
    ASSERT_GE(g.num_tasks(), 2u);
    c.apply(g);
    const auto ds = lint_graph(g);
    EXPECT_TRUE(has_code(ds, c.expected))
        << "seed " << seed << ": corruption expected to yield "
        << diag_code_name(c.expected) << " but produced:\n"
        << render(ds);
    EXPECT_THROW((void)serve::fingerprint_graph(g), std::logic_error)
        << diag_code_name(c.expected);
    EXPECT_THROW((void)auto_partition(g, SearchRequest{}), std::logic_error)
        << diag_code_name(c.expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(1u, 21u));

}  // namespace
}  // namespace rannc
