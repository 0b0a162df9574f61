// Tests for atomic-level partitioning (paper Section III-A): non-constant
// task identification, one-non-constant-task-per-component, and the cloning
// of constant chains that feed multiple components.
#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "graph/subgraph.h"
#include "models/bert.h"
#include "models/mlp.h"
#include "models/resnet.h"
#include "partition/atomic.h"

namespace rannc {
namespace {

/// x -> matmul(x, transpose(w)) — the paper's Fig. 2(b) pattern.
TaskGraph linear_with_transpose() {
  TaskGraph g("lin");
  ValueId x = g.add_input("x", Shape{4, 8});
  ValueId w = g.add_param("w", Shape{16, 8});
  ValueId wt = g.add_task("w_t", OpKind::Transpose, {w}, Shape{8, 16});
  ValueId y = g.add_task("mm", OpKind::MatMul, {x, wt}, Shape{4, 16});
  g.mark_output(y);
  return g;
}

TEST(NonConstant, TransposeOfParamIsConstant) {
  TaskGraph g = linear_with_transpose();
  const auto nc = find_non_constant_tasks(g);
  EXPECT_FALSE(nc[0]);  // w_t: consumes only a parameter
  EXPECT_TRUE(nc[1]);   // mm: consumes the model input
}

TEST(NonConstant, PropagatesThroughChains) {
  TaskGraph g("chain");
  ValueId x = g.add_input("x", Shape{4});
  ValueId a = g.add_task("a", OpKind::Relu, {x}, Shape{4});
  ValueId b = g.add_task("b", OpKind::Relu, {a}, Shape{4});
  g.mark_output(b);
  const auto nc = find_non_constant_tasks(g);
  EXPECT_TRUE(nc[0]);
  EXPECT_TRUE(nc[1]);
}

TEST(AtomicPartition, ConstantTaskJoinsItsConsumer) {
  TaskGraph g = linear_with_transpose();
  AtomicPartition ap = atomic_partition(g);
  ASSERT_EQ(ap.comps.size(), 1u);  // transpose merged into the matmul comp
  EXPECT_EQ(ap.comps[0].tasks.size(), 2u);
  EXPECT_EQ(ap.num_cloned_tasks, 0u);
}

TEST(AtomicPartition, SharedConstantChainIsClonedPerConsumer) {
  // One constant transpose feeding TWO non-constant matmuls: the paper
  // requires cloning the constant task (and predecessors) per target.
  TaskGraph g("shared");
  ValueId x = g.add_input("x", Shape{4, 8});
  ValueId w = g.add_param("w", Shape{8, 8});
  ValueId wt = g.add_task("w_t", OpKind::Transpose, {w}, Shape{8, 8});
  ValueId y1 = g.add_task("mm1", OpKind::MatMul, {x, wt}, Shape{4, 8});
  ValueId y2 = g.add_task("mm2", OpKind::MatMul, {x, wt}, Shape{4, 8});
  ValueId s = g.add_task("sum", OpKind::Add, {y1, y2}, Shape{4, 8});
  g.mark_output(s);

  AtomicPartition ap = atomic_partition(g);
  ASSERT_EQ(ap.comps.size(), 3u);  // mm1, mm2, sum
  EXPECT_EQ(ap.num_cloned_tasks, 1u);  // one extra copy of the transpose
  // Rebuilt graph has 5 tasks: 2 transposes + 2 matmuls + add.
  EXPECT_EQ(ap.graph.num_tasks(), 5u);
  int transposes = 0;
  for (const Task& t : ap.graph.tasks())
    if (t.kind == OpKind::Transpose) ++transposes;
  EXPECT_EQ(transposes, 2);
  EXPECT_TRUE(verify_graph(ap.graph).empty());
}

TEST(AtomicPartition, DeepConstantChainClonedWhole) {
  // Constant chain of length 2 shared by two consumers: both tasks cloned.
  TaskGraph g("deep");
  ValueId x = g.add_input("x", Shape{4, 8});
  ValueId w = g.add_param("w", Shape{8, 8});
  ValueId wt = g.add_task("w_t", OpKind::Transpose, {w}, Shape{8, 8});
  ValueId ws = g.add_task("w_scale", OpKind::Scale, {wt}, Shape{8, 8},
                          DType::F32, OpAttrs{}.set("scale", 2.0));
  ValueId y1 = g.add_task("mm1", OpKind::MatMul, {x, ws}, Shape{4, 8});
  ValueId y2 = g.add_task("mm2", OpKind::MatMul, {x, ws}, Shape{4, 8});
  ValueId s = g.add_task("sum", OpKind::Add, {y1, y2}, Shape{4, 8});
  g.mark_output(s);
  AtomicPartition ap = atomic_partition(g);
  EXPECT_EQ(ap.graph.num_tasks(), 7u);  // 2x(transpose+scale) + 2 mm + add
  EXPECT_EQ(ap.num_cloned_tasks, 2u);
  EXPECT_TRUE(verify_graph(ap.graph).empty());
}

TEST(AtomicPartition, OriginTaskMapsClonesBack) {
  TaskGraph g = linear_with_transpose();
  AtomicPartition ap = atomic_partition(g);
  ASSERT_EQ(ap.origin_task.size(), ap.graph.num_tasks());
  for (std::size_t t = 0; t < ap.graph.num_tasks(); ++t) {
    const TaskId orig = ap.origin_task[t];
    EXPECT_EQ(g.task(orig).kind, ap.graph.task(static_cast<TaskId>(t)).kind);
  }
}

struct ModelCase {
  const char* name;
  TaskGraph graph;
};

class AtomicInvariants : public ::testing::TestWithParam<int> {
 protected:
  static TaskGraph make(int which) {
    switch (which) {
      case 0: {
        BertConfig c;
        c.hidden = 128;
        c.layers = 2;
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
        return build_mlp(c).graph;
      }
    }
  }
};

TEST_P(AtomicInvariants, EveryComponentHasExactlyOneNonConstantTask) {
  TaskGraph g = make(GetParam());
  AtomicPartition ap = atomic_partition(g);
  const auto nc = find_non_constant_tasks(ap.graph);
  for (const AtomicComponent& c : ap.comps) {
    int count = 0;
    for (TaskId t : c.tasks)
      if (nc[static_cast<std::size_t>(t)]) ++count;
    EXPECT_EQ(count, 1);
    ASSERT_NE(c.non_constant, kNoTask);
    EXPECT_TRUE(nc[static_cast<std::size_t>(c.non_constant)]);
  }
}

TEST_P(AtomicInvariants, ComponentsPartitionTheGraph) {
  TaskGraph g = make(GetParam());
  AtomicPartition ap = atomic_partition(g);
  std::vector<int> seen(ap.graph.num_tasks(), 0);
  for (std::size_t i = 0; i < ap.comps.size(); ++i)
    for (TaskId t : ap.comps[i].tasks) {
      ++seen[static_cast<std::size_t>(t)];
      EXPECT_EQ(ap.comp_of_task[static_cast<std::size_t>(t)],
                static_cast<int>(i));
    }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST_P(AtomicInvariants, ComponentsAreConvexAndTopologicallyOrdered) {
  TaskGraph g = make(GetParam());
  AtomicPartition ap = atomic_partition(g);
  TaskAdjacency adj(ap.graph);
  // Convexity of every component.
  for (const AtomicComponent& c : ap.comps) {
    std::vector<char> member(ap.graph.num_tasks(), 0);
    for (TaskId t : c.tasks) member[static_cast<std::size_t>(t)] = 1;
    EXPECT_TRUE(is_convex(adj, member));
  }
  // Quotient edges all point forward in component order.
  for (const Value& v : ap.graph.values()) {
    if (v.producer == kNoTask) continue;
    const int pc = ap.comp_of_task[static_cast<std::size_t>(v.producer)];
    for (TaskId c : v.consumers)
      EXPECT_LE(pc, ap.comp_of_task[static_cast<std::size_t>(c)]);
  }
}

TEST_P(AtomicInvariants, PreservesParameterCount) {
  TaskGraph g = make(GetParam());
  AtomicPartition ap = atomic_partition(g);
  EXPECT_EQ(ap.graph.num_params(), g.num_params());
}

INSTANTIATE_TEST_SUITE_P(Models, AtomicInvariants, ::testing::Range(0, 3));

TEST(AtomicPartition, BertComponentCountScalesWithLayers) {
  // The paper reports ~15,000 atomic components for a 256-layer BERT;
  // component count must grow linearly with depth.
  BertConfig c;
  c.hidden = 128;
  c.seq_len = 16;
  c.vocab = 64;
  c.layers = 2;
  const auto n2 = atomic_partition(build_bert(c).graph).comps.size();
  c.layers = 4;
  const auto n4 = atomic_partition(build_bert(c).graph).comps.size();
  EXPECT_GT(n4, n2);
  EXPECT_EQ(n4 - n2, 2 * ((n4 - n2) / 2));  // even: per-layer constant
}

}  // namespace
}  // namespace rannc
