// SGD and Adam optimizers over value-id-keyed parameter maps.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "autodiff/interpreter.h"
#include "tensor/tensor.h"

namespace rannc {

struct OptimizerConfig {
  enum class Kind { SGD, Adam } kind = Kind::SGD;
  float lr = 0.01f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

/// Per-parameter optimizer state: Adam first/second moments. SGD is
/// stateless and keeps no entries.
struct ParamOptState {
  Tensor m, v;
};
using OptStateMap = std::unordered_map<ValueId, ParamOptState>;

/// Stateful optimizer for one shard of parameters. Deterministic: update
/// order follows ascending ValueId.
///
/// Updates are in place unless a parameter or moment tensor's buffer is
/// aliased elsewhere (say, a caller still holding `gather_params()`): then
/// the alias is not mutated — the update lands in a fresh arena buffer and
/// the map entry is repointed (copy-on-write). The arithmetic is the same
/// either way, so in-place and CoW steps produce bit-identical values, and
/// an alias taken before `step` keeps the pre-step bytes.
class Optimizer {
 public:
  explicit Optimizer(OptimizerConfig cfg) : cfg_(cfg) {}

  /// Applies one update to every parameter present in `grads`.
  void step(TensorMap& params, const TensorMap& grads);

  [[nodiscard]] const OptimizerConfig& config() const { return cfg_; }

  /// The optimizer's step count (bias-correction time for Adam).
  [[nodiscard]] std::int64_t step_count() const { return t_; }

  /// The per-parameter state. Entries are updated in place by `step`.
  [[nodiscard]] const OptStateMap& state() const { return state_; }

 private:
  OptimizerConfig cfg_;
  OptStateMap state_;
  std::int64_t t_ = 0;
  std::vector<ValueId> order_;  ///< scratch for step(); reused across calls
};

}  // namespace rannc
