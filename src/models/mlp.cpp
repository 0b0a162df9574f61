#include "models/mlp.h"

#include <string>

namespace rannc {

std::int64_t MlpConfig::param_count() const {
  std::int64_t n = 0;
  std::int64_t in = input_dim;
  for (std::int64_t h : hidden_dims) {
    n += in * h + h;
    in = h;
  }
  n += in * num_classes + num_classes;
  return n;
}

BuiltModel build_mlp(const MlpConfig& cfg) {
  BuiltModel m;
  TaskGraph& g = m.graph;
  const std::int64_t b = cfg.batch;

  ValueId x = g.add_input("x", Shape{b, cfg.input_dim});
  ValueId y = g.add_input("y", Shape{b}, DType::F32);

  std::int64_t in = cfg.input_dim;
  ValueId cur = x;
  for (std::size_t i = 0; i < cfg.hidden_dims.size(); ++i) {
    const std::int64_t h = cfg.hidden_dims[i];
    const std::string p = "fc" + std::to_string(i);
    m.layers.push_back({p, static_cast<TaskId>(g.num_tasks()), 0});
    ValueId w = g.add_param(p + ".weight", Shape{h, in});
    ValueId bias = g.add_param(p + ".bias", Shape{h});
    ValueId wt = g.add_task(p + ".weight_t", OpKind::Transpose, {w},
                            Shape{in, h}, DType::F32,
                            OpAttrs{}.set("perm0", std::int64_t{1})
                                     .set("perm1", std::int64_t{0}));
    cur = g.add_task(p + ".matmul", OpKind::MatMul, {cur, wt}, Shape{b, h});
    cur = g.add_task(p + ".bias_add", OpKind::Add, {cur, bias}, Shape{b, h});
    cur = g.add_task(p + ".relu", OpKind::Relu, {cur}, Shape{b, h});
    m.layers.back().end = static_cast<TaskId>(g.num_tasks());
    in = h;
  }
  m.layers.push_back({"head", static_cast<TaskId>(g.num_tasks()), 0});
  ValueId w = g.add_param("head.weight", Shape{cfg.num_classes, in});
  ValueId bias = g.add_param("head.bias", Shape{cfg.num_classes});
  ValueId wt = g.add_task("head.weight_t", OpKind::Transpose, {w},
                          Shape{in, cfg.num_classes}, DType::F32,
                          OpAttrs{}.set("perm0", std::int64_t{1})
                                   .set("perm1", std::int64_t{0}));
  ValueId logits =
      g.add_task("head.matmul", OpKind::MatMul, {cur, wt}, Shape{b, cfg.num_classes});
  logits = g.add_task("head.bias_add", OpKind::Add, {logits, bias},
                      Shape{b, cfg.num_classes});
  ValueId loss =
      g.add_task("head.loss", OpKind::CrossEntropy, {logits, y}, Shape{});
  g.mark_output(loss);
  m.layers.back().end = static_cast<TaskId>(g.num_tasks());

  return m;
}

}  // namespace rannc
