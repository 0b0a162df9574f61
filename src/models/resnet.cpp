#include "models/resnet.h"

#include <array>
#include <stdexcept>
#include <string>

namespace rannc {

namespace {

std::array<int, 4> stage_blocks(int depth) {
  switch (depth) {
    case 50: return {3, 4, 6, 3};
    case 101: return {3, 4, 23, 3};
    case 152: return {3, 8, 36, 3};
    default: throw std::invalid_argument("ResNet depth must be 50/101/152");
  }
}

struct Ctx {
  TaskGraph* g;
  std::int64_t hw;  // current spatial size (square feature maps)
};

ValueId conv_bn(Ctx& c, const std::string& prefix, ValueId x,
                std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
                std::int64_t stride, bool relu) {
  TaskGraph& g = *c.g;
  const std::int64_t pad = kernel / 2;
  const std::int64_t out_hw = (c.hw + 2 * pad - kernel) / stride + 1;
  ValueId w = g.add_param(prefix + ".conv.weight",
                          Shape{out_ch, in_ch, kernel, kernel});
  ValueId y = g.add_task(prefix + ".conv", OpKind::Conv2d, {x, w},
                         Shape{1, out_ch, out_hw, out_hw}, DType::F32,
                         OpAttrs{}.set("stride", stride).set("pad", pad));
  ValueId gamma = g.add_param(prefix + ".bn.gamma", Shape{out_ch});
  ValueId beta = g.add_param(prefix + ".bn.beta", Shape{out_ch});
  y = g.add_task(prefix + ".bn", OpKind::BatchNorm2d, {y, gamma, beta},
                 Shape{1, out_ch, out_hw, out_hw});
  if (relu)
    y = g.add_task(prefix + ".relu", OpKind::Relu, {y},
                   Shape{1, out_ch, out_hw, out_hw});
  c.hw = out_hw;
  return y;
}

/// Bottleneck residual block: 1x1 -> 3x3(stride) -> 1x1 with projection
/// shortcut when shape changes.
ValueId bottleneck(Ctx& c, const std::string& prefix, ValueId x,
                   std::int64_t in_ch, std::int64_t mid_ch,
                   std::int64_t out_ch, std::int64_t stride) {
  TaskGraph& g = *c.g;
  const std::int64_t in_hw = c.hw;
  ValueId y = conv_bn(c, prefix + ".a", x, in_ch, mid_ch, 1, 1, true);
  y = conv_bn(c, prefix + ".b", y, mid_ch, mid_ch, 3, stride, true);
  y = conv_bn(c, prefix + ".c", y, mid_ch, out_ch, 1, 1, false);
  ValueId shortcut = x;
  if (in_ch != out_ch || stride != 1) {
    Ctx sc{c.g, in_hw};
    shortcut = conv_bn(sc, prefix + ".down", x, in_ch, out_ch, 1, stride, false);
  }
  ValueId sum = g.add_task(prefix + ".residual", OpKind::Add, {y, shortcut},
                           Shape{1, out_ch, c.hw, c.hw});
  return g.add_task(prefix + ".relu_out", OpKind::Relu, {sum},
                    Shape{1, out_ch, c.hw, c.hw});
}

}  // namespace

std::int64_t ResNetConfig::param_count() const {
  // Count by replaying the builder's channel plan.
  const auto blocks = stage_blocks(depth);
  const std::int64_t wf = width_factor;
  std::int64_t n = 0;
  auto conv_bn_params = [&](std::int64_t in, std::int64_t out, std::int64_t k) {
    n += out * in * k * k + 2 * out;
  };
  conv_bn_params(3, 64 * wf, 7);
  std::int64_t in_ch = 64 * wf;
  for (int s = 0; s < 4; ++s) {
    const std::int64_t mid = (64LL << s) * wf;
    const std::int64_t out = 4 * mid;
    for (int b = 0; b < blocks[static_cast<std::size_t>(s)]; ++b) {
      conv_bn_params(in_ch, mid, 1);
      conv_bn_params(mid, mid, 3);
      conv_bn_params(mid, out, 1);
      if (b == 0) conv_bn_params(in_ch, out, 1);  // projection shortcut
      in_ch = out;
    }
  }
  n += in_ch * num_classes + num_classes;  // fc
  return n;
}

BuiltModel build_resnet(const ResNetConfig& cfg) {
  const auto blocks = stage_blocks(cfg.depth);
  const std::int64_t wf = cfg.width_factor;

  BuiltModel m;
  m.transformer = false;
  TaskGraph& g = m.graph;
  auto begin_layer = [&](const std::string& name) {
    LayerSpan span;
    span.name = name;
    span.begin = static_cast<TaskId>(g.num_tasks());
    m.layers.push_back(span);
  };
  auto end_layer = [&] {
    m.layers.back().end = static_cast<TaskId>(g.num_tasks());
  };

  ValueId image = g.add_input("image", Shape{1, 3, cfg.image_size, cfg.image_size});
  ValueId label = g.add_input("label", Shape{1}, DType::F32);

  Ctx c{&g, cfg.image_size};
  begin_layer("stem");
  ValueId x = conv_bn(c, "stem", image, 3, 64 * wf, 7, 2, true);
  {
    const std::int64_t out_hw = (c.hw + 2 - 3) / 2 + 1;
    x = g.add_task("stem.maxpool", OpKind::MaxPool2d, {x},
                   Shape{1, 64 * wf, out_hw, out_hw}, DType::F32,
                   OpAttrs{}.set("kernel", std::int64_t{3})
                            .set("stride", std::int64_t{2})
                            .set("pad", std::int64_t{1}));
    c.hw = out_hw;
  }
  end_layer();

  std::int64_t in_ch = 64 * wf;
  for (int s = 0; s < 4; ++s) {
    const std::int64_t mid = (64LL << s) * wf;
    const std::int64_t out = 4 * mid;
    for (int b = 0; b < blocks[static_cast<std::size_t>(s)]; ++b) {
      const std::string name =
          "stage" + std::to_string(s) + ".block" + std::to_string(b);
      begin_layer(name);
      const std::int64_t stride = (b == 0 && s > 0) ? 2 : 1;
      x = bottleneck(c, name, x, in_ch, mid, out, stride);
      in_ch = out;
      end_layer();
    }
  }

  begin_layer("head");
  x = g.add_task("head.avgpool", OpKind::GlobalAvgPool2d, {x},
                 Shape{1, in_ch, 1, 1});
  x = g.add_task("head.flatten", OpKind::Flatten, {x}, Shape{1, in_ch});
  ValueId fc_w = g.add_param("head.fc.weight", Shape{in_ch, cfg.num_classes});
  ValueId fc_b = g.add_param("head.fc.bias", Shape{cfg.num_classes});
  ValueId logits = g.add_task("head.fc", OpKind::MatMul, {x, fc_w},
                              Shape{1, cfg.num_classes});
  logits = g.add_task("head.fc.bias_add", OpKind::Add, {logits, fc_b},
                      Shape{1, cfg.num_classes});
  ValueId loss = g.add_task("head.loss", OpKind::CrossEntropy, {logits, label},
                            Shape{});
  g.mark_output(loss);
  end_layer();

  return m;
}

}  // namespace rannc
