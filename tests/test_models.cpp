// Tests for the model-graph builders: parameter counts against closed
// forms, layer-span coverage, and architecture metadata.
#include <gtest/gtest.h>

#include "analysis/analysis.h"
#include "models/bert.h"
#include "models/gpt2.h"
#include "models/mlp.h"
#include "models/resnet.h"
#include "models/t5.h"
#include "serve/model_zoo.h"

namespace rannc {
namespace {

TEST(Bert, ParamCountMatchesClosedForm) {
  for (std::int64_t h : {256LL, 512LL}) {
    for (std::int64_t L : {2LL, 4LL}) {
      BertConfig cfg;
      cfg.hidden = h;
      cfg.layers = L;
      cfg.seq_len = 64;
      cfg.vocab = 1000;
      BuiltModel m = build_bert(cfg);
      EXPECT_EQ(m.graph.num_params(), cfg.param_count())
          << "h=" << h << " L=" << L;
    }
  }
}

TEST(Bert, BertLargeIs340MClass) {
  BertConfig cfg;  // defaults: hidden 1024, layers 24 == BERT-Large
  // Paper: "The original BERT model (BERT-Large) ... has 340 million
  // parameters" (ours counts untied MLM head too).
  EXPECT_NEAR(static_cast<double>(cfg.param_count()) / 1e6, 340, 30);
}

TEST(Bert, LargestPaperModelIsAbout13B) {
  BertConfig cfg;
  cfg.hidden = 2048;
  cfg.layers = 256;
  // Paper: "The largest model we tried (256 hidden layers of size 2048)
  // has 12.9 billion parameters."
  EXPECT_NEAR(static_cast<double>(cfg.param_count()) / 1e9, 12.9, 0.3);
}

TEST(Bert, LayerSpansCoverGraphExactly) {
  BertConfig cfg;
  cfg.hidden = 128;
  cfg.layers = 3;
  cfg.seq_len = 16;
  cfg.vocab = 100;
  BuiltModel m = build_bert(cfg);
  ASSERT_EQ(m.layers.size(), 5u);  // embeddings + 3 + head
  TaskId next = 0;
  for (const LayerSpan& s : m.layers) {
    EXPECT_EQ(s.begin, next);
    EXPECT_GT(s.end, s.begin);
    next = s.end;
  }
  EXPECT_EQ(static_cast<std::size_t>(next), m.graph.num_tasks());
  EXPECT_TRUE(m.transformer);
  EXPECT_EQ(m.hidden, 128);
  EXPECT_EQ(m.seq_len, 16);
}

TEST(Bert, EncoderLayersAreStructurallyIdentical) {
  BertConfig cfg;
  cfg.hidden = 128;
  cfg.layers = 4;
  cfg.seq_len = 16;
  cfg.vocab = 100;
  BuiltModel m = build_bert(cfg);
  const auto span_len = [&](std::size_t i) {
    return m.layers[i].end - m.layers[i].begin;
  };
  for (std::size_t i = 2; i + 1 < m.layers.size(); ++i)
    EXPECT_EQ(span_len(i), span_len(1));
}

TEST(ResNet, ParamCountMatchesClosedForm) {
  for (int depth : {50, 101, 152}) {
    ResNetConfig cfg;
    cfg.depth = depth;
    cfg.width_factor = 1;
    BuiltModel m = build_resnet(cfg);
    EXPECT_EQ(m.graph.num_params(), cfg.param_count()) << "depth " << depth;
  }
}

TEST(ResNet, WidthFactor8MatchesPaperSizes) {
  // Paper: "The largest model used in this experiment (ResNet152x8) has
  // 3.7 billion parameters."
  ResNetConfig cfg;
  cfg.depth = 152;
  cfg.width_factor = 8;
  EXPECT_NEAR(static_cast<double>(cfg.param_count()) / 1e9, 3.7, 0.15);
}

TEST(ResNet, RejectsUnknownDepth) {
  ResNetConfig cfg;
  cfg.depth = 77;
  EXPECT_THROW(build_resnet(cfg), std::invalid_argument);
}

TEST(ResNet, NotTransformer) {
  ResNetConfig cfg;
  cfg.depth = 50;
  BuiltModel m = build_resnet(cfg);
  EXPECT_FALSE(m.transformer);
  // stem + 16 bottleneck blocks + head
  EXPECT_EQ(m.layers.size(), 18u);
}

TEST(Gpt2, ParamCountMatchesClosedForm) {
  Gpt2Config cfg;
  cfg.hidden = 192;
  cfg.layers = 3;
  cfg.seq_len = 32;
  cfg.vocab = 500;
  BuiltModel m = build_gpt2(cfg);
  EXPECT_EQ(m.graph.num_params(), cfg.param_count());
  EXPECT_TRUE(m.transformer);
}

TEST(Gpt2, Gpt2SmallIs124MClass) {
  Gpt2Config cfg;  // 768 hidden, 12 layers, 1024 ctx
  EXPECT_NEAR(static_cast<double>(cfg.param_count()) / 1e6, 124, 15);
}

TEST(Mlp, ParamCountAndStructure) {
  MlpConfig cfg;
  cfg.input_dim = 10;
  cfg.hidden_dims = {20, 30};
  cfg.num_classes = 5;
  BuiltModel m = build_mlp(cfg);
  EXPECT_EQ(m.graph.num_params(), cfg.param_count());
  EXPECT_EQ(m.graph.num_params(), 10 * 20 + 20 + 20 * 30 + 30 + 30 * 5 + 5);
  EXPECT_EQ(m.layers.size(), 3u);
}

TEST(Mlp, BatchDimensionBakedIn) {
  MlpConfig cfg;
  cfg.batch = 7;
  BuiltModel m = build_mlp(cfg);
  EXPECT_EQ(m.graph.value(m.graph.input_values()[0]).shape.dim(0), 7);
}

class ModelValidation : public ::testing::TestWithParam<int> {};

// Builders do not check their own output: the analysis suite (structural
// verifier, shape re-inference, dead tasks) must find no error in it.
TEST_P(ModelValidation, AllBuildersProduceValidGraphs) {
  const serve::ModelSpec specs[] = {
      {.model = "bert", .layers = 2, .hidden = 128, .seq = 16, .vocab = 64},
      {.model = "resnet", .depth = 50, .image = 32},
      {.model = "gpt2", .layers = 2, .hidden = 64, .seq = 16, .vocab = 64},
      {.model = "mlp"},
      {.model = "t5", .layers = 2, .hidden = 64, .seq = 16, .vocab = 64},
      {.model = "moe", .layers = 2, .hidden = 64, .seq = 16, .vocab = 64,
       .experts = 4},
  };
  const serve::ModelSpec& spec = specs[GetParam()];
  const auto ds = lint_graph(serve::build_model(spec).graph);
  EXPECT_EQ(count_errors(ds), 0u) << serve::canonical_sig(spec) << ":\n"
                                  << render(ds);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelValidation, ::testing::Range(0, 6));

// Regression gate for builder shape/attr bugs: the independent shape
// re-inference of src/analysis must agree with every recorded shape, at two
// sizes per architecture (attention transposes, resnet downsample arithmetic
// and broadcast adds all change with the geometry).
TEST(ModelValidation, AllBuildersLintCleanAtTwoSizes) {
  std::vector<BuiltModel> models;
  for (std::int64_t scale : {1LL, 2LL}) {
    BertConfig bert;
    bert.hidden = 128 * scale;
    bert.layers = 2 * scale;
    bert.seq_len = 32 * scale;
    bert.vocab = 512;
    models.push_back(build_bert(bert));
    Gpt2Config gpt2;
    gpt2.hidden = 128 * scale;
    gpt2.layers = 2 * scale;
    gpt2.seq_len = 32 * scale;
    gpt2.vocab = 512;
    models.push_back(build_gpt2(gpt2));
    T5Config t5;
    t5.hidden = 64 * scale;
    t5.layers = 2 * scale;
    t5.seq_len = 16 * scale;
    t5.vocab = 256;
    models.push_back(build_t5(t5));
    ResNetConfig resnet;
    resnet.depth = scale == 1 ? 50 : 101;
    resnet.image_size = 64;
    models.push_back(build_resnet(resnet));
    MlpConfig mlp;
    mlp.input_dim = 64 * scale;
    mlp.hidden_dims.assign(static_cast<std::size_t>(2 * scale), 128 * scale);
    models.push_back(build_mlp(mlp));
  }
  for (const BuiltModel& m : models) {
    const auto ds = lint_graph(m.graph);
    EXPECT_TRUE(ds.empty()) << m.graph.name() << ":\n" << render(ds);
  }
}

}  // namespace
}  // namespace rannc
