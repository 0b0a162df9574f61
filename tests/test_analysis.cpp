// Tests for src/analysis: the structural verifier (positive paths on every
// model builder plus one negative path per diagnostic code), the shape/dtype
// re-inference pass, and the dataflow analyses (liveness, dead tasks,
// activation bound, reachability/convexity).
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/analysis.h"
#include "graph/subgraph.h"
#include "models/bert.h"
#include "models/gpt2.h"
#include "models/mlp.h"
#include "models/resnet.h"
#include "models/t5.h"
#include "profiler/graph_profiler.h"

namespace rannc {
namespace {

// x:[4,8] -> MatMul(w:[8,16]) -> h:[4,16] -> Relu -> r:[4,16] (output).
// Value ids: x=0, w=1, h=2, r=3. Task ids: fc=0, relu=1.
TaskGraph make_chain() {
  TaskGraph g("chain");
  const ValueId x = g.add_input("x", Shape{4, 8});
  const ValueId w = g.add_param("w", Shape{8, 16});
  const ValueId h = g.add_task("fc", OpKind::MatMul, {x, w}, Shape{4, 16});
  const ValueId r = g.add_task("relu", OpKind::Relu, {h}, Shape{4, 16});
  g.mark_output(r);
  return g;
}

// Diamond over one input: t0=relu, t1=gelu(t0), t2=tanh(t0), t3=add(t1,t2).
TaskGraph make_diamond() {
  TaskGraph g("diamond");
  const ValueId x = g.add_input("x", Shape{4, 8});
  const ValueId a = g.add_task("a", OpKind::Relu, {x}, Shape{4, 8});
  const ValueId b = g.add_task("b", OpKind::Gelu, {a}, Shape{4, 8});
  const ValueId c = g.add_task("c", OpKind::Tanh, {a}, Shape{4, 8});
  const ValueId d = g.add_task("d", OpKind::Add, {b, c}, Shape{4, 8});
  g.mark_output(d);
  return g;
}

// ---- verifier: positive paths ----------------------------------------------

TEST(Verifier, AcceptsHandBuiltGraphs) {
  EXPECT_TRUE(verify_graph(make_chain()).empty());
  EXPECT_TRUE(verify_graph(make_diamond()).empty());
  EXPECT_TRUE(verify_graph(TaskGraph("empty")).empty());
}

TEST(Verifier, LintCleanOnAllModelBuilders) {
  BertConfig bert;
  bert.hidden = 128;
  bert.layers = 2;
  bert.seq_len = 32;
  bert.vocab = 512;
  Gpt2Config gpt2;
  gpt2.hidden = 128;
  gpt2.layers = 2;
  gpt2.seq_len = 32;
  gpt2.vocab = 512;
  T5Config t5;
  t5.hidden = 64;
  t5.layers = 2;
  t5.seq_len = 16;
  t5.vocab = 256;
  ResNetConfig resnet;
  resnet.depth = 50;
  resnet.image_size = 64;

  for (const BuiltModel& m :
       {build_mlp(MlpConfig{}), build_bert(bert), build_gpt2(gpt2),
        build_t5(t5), build_resnet(resnet)}) {
    const auto ds = lint_graph(m.graph);
    EXPECT_TRUE(ds.empty()) << m.graph.name() << ":\n" << render(ds);
  }
}

TEST(Verifier, VerifyOrThrowPassesCleanThrowsCorrupt) {
  TaskGraph g = make_chain();
  EXPECT_NO_THROW(verify_or_throw(g));
  g.task_mut(0).output = 99;
  EXPECT_THROW(verify_or_throw(g), std::logic_error);
}

// ---- verifier: one negative path per diagnostic code -----------------------

TEST(VerifierNegative, TaskIdNotDense) {
  TaskGraph g = make_chain();
  g.task_mut(0).id = 5;
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::TaskIdNotDense));
}

TEST(VerifierNegative, ValueIdNotDense) {
  TaskGraph g = make_chain();
  g.value_mut(0).id = 7;
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::ValueIdNotDense));
}

TEST(VerifierNegative, InputIdOutOfRange) {
  TaskGraph g = make_chain();
  g.task_mut(0).inputs[0] = 99;
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::InputIdOutOfRange));
}

TEST(VerifierNegative, OutputIdOutOfRange) {
  TaskGraph g = make_chain();
  g.task_mut(1).output = -3;
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::OutputIdOutOfRange));
}

TEST(VerifierNegative, ProducerLinkBroken) {
  TaskGraph g = make_chain();
  g.value_mut(2).producer = 1;  // h actually comes from task 0
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::ProducerLinkBroken));
}

TEST(VerifierNegative, DanglingProducer) {
  TaskGraph g = make_chain();
  g.value_mut(2).producer = 42;
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::DanglingProducer));
}

TEST(VerifierNegative, OrphanIntermediate) {
  TaskGraph g = make_chain();
  g.value_mut(2).producer = kNoTask;
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::OrphanIntermediate));
}

TEST(VerifierNegative, MultiplyProducedValue) {
  TaskGraph g = make_chain();
  g.task_mut(1).output = 2;  // relu now also claims h
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::MultiplyProducedValue));
}

TEST(VerifierNegative, UseBeforeDef) {
  TaskGraph g = make_chain();
  g.task_mut(0).inputs[0] = 3;  // fc consumes relu's output
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::UseBeforeDef));
}

TEST(VerifierNegative, ConsumerLinkBroken) {
  TaskGraph g = make_chain();
  g.value_mut(1).consumers.push_back(1);  // relu does not read w
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::ConsumerLinkBroken));
}

TEST(VerifierNegative, MissingConsumerBackEdge) {
  TaskGraph g = make_chain();
  g.value_mut(0).consumers.clear();  // fc still reads x
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::MissingConsumerBackEdge));
}

TEST(VerifierNegative, NoMarkedOutput) {
  TaskGraph g("no_output");
  const ValueId x = g.add_input("x", Shape{4});
  g.add_task("id", OpKind::Identity, {x}, Shape{4});
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::NoMarkedOutput));
}

TEST(VerifierNegative, OutputUnreachable) {
  // The marked output depends only on a parameter, never on a model input.
  TaskGraph g("unreach");
  g.add_input("x", Shape{4});
  const ValueId w = g.add_param("w", Shape{4, 4});
  const ValueId t = g.add_task("tw", OpKind::Transpose, {w}, Shape{4, 4});
  g.mark_output(t);
  EXPECT_TRUE(has_code(verify_graph(g), DiagCode::OutputUnreachable));
}

TEST(VerifierNegative, GraphCycle) {
  TaskGraph g = make_chain();
  // Feed relu's output back into fc, keeping back-edges mirrored so the
  // cycle is reported by the independent Kahn check, not just UseBeforeDef.
  g.task_mut(0).inputs.push_back(3);
  g.value_mut(3).consumers.push_back(0);
  const auto ds = verify_graph(g);
  EXPECT_TRUE(has_code(ds, DiagCode::GraphCycle));
  EXPECT_TRUE(has_code(ds, DiagCode::UseBeforeDef));
}

// ---- shape/dtype re-inference ----------------------------------------------

TEST(ShapeInference, UnitRules) {
  const std::vector<DType> f32_2{DType::F32, DType::F32};
  // MatMul [2,4,8] x [8,16] -> [2,4,16] (batched lhs, rank-2 rhs).
  auto mm = infer_output(OpKind::MatMul, {Shape{2, 4, 8}, Shape{8, 16}},
                         f32_2, {}, {});
  ASSERT_TRUE(mm.ok) << mm.error;
  EXPECT_EQ(mm.shape, (Shape{2, 4, 16}));
  // Broadcast add [4,16] + [16] -> [4,16].
  auto add =
      infer_output(OpKind::Add, {Shape{4, 16}, Shape{16}}, f32_2, {}, {});
  ASSERT_TRUE(add.ok) << add.error;
  EXPECT_EQ(add.shape, (Shape{4, 16}));
  // Transpose perm (0,2,1,3): [b,s,h,d] -> [b,h,s,d].
  OpAttrs perm;
  perm.set("perm0", std::int64_t{0}).set("perm1", std::int64_t{2});
  perm.set("perm2", std::int64_t{1}).set("perm3", std::int64_t{3});
  auto tr = infer_output(OpKind::Transpose, {Shape{2, 8, 4, 16}},
                         {DType::F32}, perm, {});
  ASSERT_TRUE(tr.ok) << tr.error;
  EXPECT_EQ(tr.shape, (Shape{2, 4, 8, 16}));
  // Embedding dtype follows the table, not the ids.
  auto emb = infer_output(OpKind::Embedding, {Shape{4, 32}, Shape{512, 64}},
                          {DType::I64, DType::F32}, {}, {});
  ASSERT_TRUE(emb.ok) << emb.error;
  EXPECT_EQ(emb.shape, (Shape{4, 32, 64}));
  EXPECT_EQ(emb.dtype, DType::F32);
  // Conv2d [1,3,32,32] * [8,3,3,3] stride 2 pad 1 -> [1,8,16,16].
  OpAttrs conv;
  conv.set("stride", std::int64_t{2}).set("pad", std::int64_t{1});
  auto cv = infer_output(OpKind::Conv2d,
                         {Shape{1, 3, 32, 32}, Shape{8, 3, 3, 3}}, f32_2,
                         conv, {});
  ASSERT_TRUE(cv.ok) << cv.error;
  EXPECT_EQ(cv.shape, (Shape{1, 8, 16, 16}));
}

TEST(ShapeInference, RejectsIncompatibleOperands) {
  const std::vector<DType> f32_2{DType::F32, DType::F32};
  EXPECT_FALSE(
      infer_output(OpKind::MatMul, {Shape{4, 8}, Shape{9, 16}}, f32_2, {}, {})
          .ok);
  EXPECT_FALSE(
      infer_output(OpKind::Add, {Shape{4, 8}, Shape{3}}, f32_2, {}, {}).ok);
  EXPECT_FALSE(infer_output(OpKind::Reshape, {Shape{4, 8}}, {DType::F32}, {},
                            Shape{4, 9})
                   .ok);
  OpAttrs bad_perm;
  bad_perm.set("perm0", std::int64_t{0}).set("perm1", std::int64_t{0});
  EXPECT_FALSE(infer_output(OpKind::Transpose, {Shape{4, 8}}, {DType::F32},
                            bad_perm, {})
                   .ok);
}

TEST(ShapeInference, FlagsShapeMismatch) {
  TaskGraph g = make_chain();
  g.value_mut(2).shape = Shape{4, 17};  // fc really produces [4,16]
  ASSERT_TRUE(verify_graph(g).empty());  // structurally still fine
  EXPECT_TRUE(has_code(infer_shapes(g), DiagCode::ShapeMismatch));
}

TEST(ShapeInference, FlagsDTypeMismatch) {
  TaskGraph g = make_chain();
  g.value_mut(3).dtype = DType::F16;  // relu of an F32 input
  EXPECT_TRUE(has_code(infer_shapes(g), DiagCode::DTypeMismatch));
}

TEST(ShapeInference, FlagsMalformedOperand) {
  TaskGraph g("bad_matmul");
  const ValueId x = g.add_input("x", Shape{4, 8});
  const ValueId w = g.add_param("w", Shape{9, 16});  // inner dim disagrees
  const ValueId h = g.add_task("fc", OpKind::MatMul, {x, w}, Shape{4, 16});
  g.mark_output(h);
  EXPECT_TRUE(has_code(infer_shapes(g), DiagCode::MalformedOperand));
}

// ---- dataflow ---------------------------------------------------------------

TEST(Dataflow, LivenessIntervals) {
  const TaskGraph g = make_chain();
  const auto live = liveness_intervals(g);
  // h: defined at step 0, last used at step 1.
  EXPECT_EQ(live[2].start, 0);
  EXPECT_EQ(live[2].end, 1);
  // r: the marked output stays live through the last step.
  EXPECT_EQ(live[3].start, 1);
  EXPECT_EQ(live[3].end, 1);
  EXPECT_TRUE(live[2].live_at(1));
  EXPECT_FALSE(live[3].live_at(0));
}

TEST(Dataflow, PeakActivationBytesOnChain) {
  // At step 1 both h and r ([4,16] fp32 = 256 B each) are live.
  EXPECT_EQ(peak_activation_bytes(make_chain()), 512);
}

TEST(Dataflow, PeakActivationBoundedByProfilerTotal) {
  BertConfig bert;
  bert.hidden = 128;
  bert.layers = 2;
  bert.seq_len = 32;
  bert.vocab = 512;
  for (const BuiltModel& m : {build_mlp(MlpConfig{}), build_bert(bert)}) {
    const TaskGraph& g = m.graph;
    GraphProfiler prof(g, DeviceSpec{});
    const ProfileResult& p = prof.profile(g.topo_order(), 1);
    const std::int64_t peak = peak_activation_bytes(g);
    EXPECT_GT(peak, 0);
    EXPECT_LE(peak, p.act_bytes) << g.name();
  }
}

TEST(Dataflow, DeadTaskDetection) {
  TaskGraph g = make_chain();
  g.add_task("unused", OpKind::Tanh, {2}, Shape{4, 16});
  const auto dead = dead_tasks(g);
  EXPECT_EQ(dead, (std::vector<char>{0, 0, 1}));
  // Dead code is a warning, not an error: lint reports it but stays green.
  const auto ds = lint_graph(g);
  EXPECT_TRUE(has_code(ds, DiagCode::DeadTask));
  EXPECT_FALSE(has_errors(ds));
}

TEST(Dataflow, ReachabilityAndConvexity) {
  const TaskGraph g = make_diamond();
  const ReachabilityIndex reach(g);
  EXPECT_TRUE(reach.reaches(0, 3));
  EXPECT_FALSE(reach.reaches(1, 2));  // parallel branches
  EXPECT_FALSE(reach.reaches(3, 0));
  // {0,3} skips the branch tasks -> non-convex; agree with is_convex.
  const std::vector<TaskId> hole{0, 3};
  const std::vector<TaskId> full{0, 1, 2, 3};
  EXPECT_FALSE(reach.convex(hole));
  EXPECT_TRUE(reach.convex(full));
  EXPECT_EQ(reach.convex(hole), is_convex(g, hole));
  EXPECT_EQ(reach.convex(full), is_convex(g, full));
}

}  // namespace
}  // namespace rannc
