#include "runtime/trainer.h"

#include <stdexcept>

#include "util/arena.h"

namespace rannc {

namespace {
std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

TensorMap init_params(const TaskGraph& g, std::uint64_t seed, float scale) {
  TensorMap params;
  for (const Value& v : g.values()) {
    if (v.kind != ValueKind::Param) continue;
    // LayerNorm/BatchNorm gains start at 1, shifts at 0, like PyTorch.
    const bool is_gain = v.name.ends_with(".gamma");
    const bool is_shift =
        v.name.ends_with(".beta") || v.name.ends_with(".bias");
    if (is_gain)
      params.emplace(v.id, Tensor::full(v.shape, 1.0f));
    else if (is_shift)
      params.emplace(v.id, Tensor::zeros(v.shape));
    else
      params.emplace(v.id,
                     Tensor::uniform(v.shape, scale, seed ^ name_hash(v.name)));
  }
  return params;
}

Trainer::Trainer(const TaskGraph& g, OptimizerConfig opt, std::uint64_t seed)
    : interp_(g), params_(init_params(g, seed)), opt_(opt) {
  const auto outs = g.output_values();
  if (outs.size() != 1)
    throw std::invalid_argument("Trainer requires exactly one (loss) output");
  loss_value_ = outs.front();
  if (g.value(loss_value_).shape.numel() != 1)
    throw std::invalid_argument("Trainer: loss output must be scalar");
  interp_.set_param_memo(!naive_kernels());
}

float Trainer::step(const std::vector<TensorMap>& microbatches) {
  if (microbatches.empty()) return 0;
  // params() hands out a mutable reference, so stale memo entries can't be
  // ruled out across steps; within the step the params are ours.
  interp_.invalidate_param_memo();
  TensorMap grad_acc;
  double loss_sum = 0;
  const float seed_grad = 1.0f / static_cast<float>(microbatches.size());
  const std::vector<TaskId> all = interp_.graph().topo_order();
  for (const TensorMap& mb : microbatches) {
    TensorMap values = params_;  // shallow tensor handles
    for (const auto& [v, t] : mb) values[v] = t;
    ForwardCache cache;
    interp_.forward(all, values, cache);
    loss_sum += values.at(loss_value_).at(0);
    TensorMap grads;
    grads.emplace(loss_value_, Tensor::full(Shape{}, seed_grad));
    interp_.backward(all, values, cache, grads);
    for (auto& [v, g] : grads)
      if (params_.count(v)) accumulate_grad(grad_acc, v, std::move(g));
  }
  opt_.step(params_, grad_acc);
  interp_.invalidate_param_memo();  // the step rewrote the params, maybe
                                    // in place (same buffer, new bytes)
  Arena::global().end_epoch();
  return static_cast<float>(loss_sum / static_cast<double>(microbatches.size()));
}

}  // namespace rannc
