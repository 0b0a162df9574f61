// Unit tests for the task-graph IR: shapes, builder invariants, boundary
// (cut) computation and the convexity predicate.
#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "graph/subgraph.h"
#include "graph/task_graph.h"

namespace rannc {
namespace {

TEST(Shape, NumelAndBatchRewrite) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.with_batch(7).numel(), 84);
  EXPECT_EQ(Shape{}.numel(), 1);  // scalar
  EXPECT_EQ(s.str(), "[2,3,4]");
}

TEST(Shape, TensorBytesByDtype) {
  Shape s{10, 10};
  EXPECT_EQ(tensor_bytes(s, DType::F32), 400);
  EXPECT_EQ(tensor_bytes(s, DType::F16), 200);
  EXPECT_EQ(tensor_bytes(s, DType::I64), 800);
  EXPECT_EQ(tensor_bytes(s, DType::Bool), 100);
}

/// y = relu(x W); loss = sum-ish via a fake scalar op.
TaskGraph tiny_graph() {
  TaskGraph g("tiny");
  ValueId x = g.add_input("x", Shape{4, 8});
  ValueId w = g.add_param("w", Shape{8, 16});
  ValueId h = g.add_task("mm", OpKind::MatMul, {x, w}, Shape{4, 16});
  ValueId r = g.add_task("relu", OpKind::Relu, {h}, Shape{4, 16});
  g.mark_output(r);
  return g;
}

TEST(TaskGraph, BuilderLinksProducersAndConsumers) {
  TaskGraph g = tiny_graph();
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.num_values(), 4u);
  const Task& mm = g.task(0);
  EXPECT_EQ(mm.kind, OpKind::MatMul);
  EXPECT_EQ(g.value(mm.output).producer, mm.id);
  EXPECT_EQ(g.value(0).consumers.size(), 1u);  // x feeds mm
  EXPECT_TRUE(verify_graph(g).empty());
}

TEST(TaskGraph, InputParamOutputQueries) {
  TaskGraph g = tiny_graph();
  EXPECT_EQ(g.input_values().size(), 1u);
  ASSERT_EQ(g.output_values().size(), 1u);
  EXPECT_TRUE(g.value(g.output_values()[0]).is_output);
  EXPECT_EQ(g.num_params(), 8 * 16);
  EXPECT_EQ(g.param_bytes(), 8 * 16 * 4);
}

TEST(TaskGraph, TopoOrderIsInsertionOrder) {
  TaskGraph g = tiny_graph();
  const auto order = g.topo_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(TaskGraph, AddTaskRejectsUnknownValue) {
  TaskGraph g("bad");
  EXPECT_THROW(g.add_task("t", OpKind::Relu, {42}, Shape{1}), std::logic_error);
}

TEST(TaskGraph, DotExportMentionsEveryNode) {
  TaskGraph g = tiny_graph();
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("mm"), std::string::npos);
  EXPECT_NE(dot.find("relu"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

/// A diamond: a -> {b, c} -> d, to exercise cuts and convexity.
struct Diamond {
  TaskGraph g{"diamond"};
  ValueId x, va, vb, vc, vd;
  Diamond() {
    x = g.add_input("x", Shape{4});
    va = g.add_task("a", OpKind::Relu, {x}, Shape{4});
    vb = g.add_task("b", OpKind::Relu, {va}, Shape{4});
    vc = g.add_task("c", OpKind::Gelu, {va}, Shape{4});
    vd = g.add_task("d", OpKind::Add, {vb, vc}, Shape{4});
    g.mark_output(vd);
  }
};

TEST(CutValues, DiamondMiddleCut) {
  Diamond d;
  // Subset {a, b}: inputs = {x, (nothing else)}, outputs = {va (feeds c), vb}.
  const CutValues cut = cut_values(d.g, std::vector<TaskId>{0, 1});
  EXPECT_EQ(cut.inputs.size(), 1u);
  EXPECT_EQ(cut.inputs[0], d.x);
  ASSERT_EQ(cut.outputs.size(), 2u);
  EXPECT_EQ(cut.outputs[0], d.va);
  EXPECT_EQ(cut.outputs[1], d.vb);
}

TEST(CutValues, OutputMarkedValueIsAlwaysACutOutput) {
  Diamond d;
  const CutValues cut = cut_values(d.g, std::vector<TaskId>{0, 1, 2, 3});
  EXPECT_TRUE(cut.inputs.size() == 1);  // just x
  ASSERT_EQ(cut.outputs.size(), 1u);
  EXPECT_EQ(cut.outputs[0], d.vd);
}

TEST(Convexity, DiamondBranchesAreConvex) {
  Diamond d;
  EXPECT_TRUE(is_convex(d.g, {0, 1}));
  EXPECT_TRUE(is_convex(d.g, {0, 1, 2}));
  EXPECT_TRUE(is_convex(d.g, {1}));
  EXPECT_TRUE(is_convex(d.g, {0, 1, 2, 3}));
}

TEST(Convexity, SkippingMiddleIsNotConvex) {
  Diamond d;
  // {a, d} skips both middles: path a -> b -> d exits and re-enters.
  EXPECT_FALSE(is_convex(d.g, {0, 3}));
  // {b, d} is fine forward, but path b->d exists directly and c is a
  // separate entry: a path b -> d does not leave the set; however a->c->d
  // does not START inside. Check the genuinely non-convex {a, d} only and
  // the convex {b, d}: b -> d is direct, no path through outside from b to
  // d other than... b->d is the only path. Convex.
  EXPECT_TRUE(is_convex(d.g, {1, 3}));
}

TEST(Convexity, ChainPrefixesAlwaysConvex) {
  // Long chain: every prefix/suffix/window is convex.
  TaskGraph g("chain");
  ValueId v = g.add_input("x", Shape{2});
  for (int i = 0; i < 10; ++i)
    v = g.add_task("t" + std::to_string(i), OpKind::Relu, {v}, Shape{2});
  g.mark_output(v);
  for (int lo = 0; lo < 10; ++lo) {
    for (int hi = lo + 1; hi <= 10; ++hi) {
      std::vector<TaskId> window;
      for (int t = lo; t < hi; ++t) window.push_back(t);
      if (window.empty()) continue;
      EXPECT_TRUE(is_convex(g, window)) << "window [" << lo << "," << hi << ")";
    }
  }
}

TEST(TaskAdjacency, DiamondEdges) {
  Diamond d;
  TaskAdjacency adj(d.g);
  EXPECT_EQ(adj.succ(0).size(), 2u);  // a -> b, a -> c
  EXPECT_EQ(adj.pred(3).size(), 2u);  // b, c -> d
  EXPECT_EQ(adj.succ(3).size(), 0u);
  EXPECT_EQ(adj.pred(0).size(), 0u);
}

}  // namespace
}  // namespace rannc
