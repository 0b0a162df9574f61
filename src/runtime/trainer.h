// Single-device reference trainer: whole-graph forward/backward with
// gradient accumulation over microbatches. This is the ground truth the
// pipeline runtime is validated against (paper Section IV-B, loss parity).
#pragma once

#include <cstdint>
#include <vector>

#include "autodiff/interpreter.h"
#include "runtime/optimizer.h"

namespace rannc {

/// Deterministic parameter initialization shared by all trainers: each
/// parameter value is drawn from a uniform distribution seeded by a hash of
/// its name, so differently-partitioned executions start identically.
TensorMap init_params(const TaskGraph& g, std::uint64_t seed, float scale = 0.1f);

class Trainer {
 public:
  Trainer(const TaskGraph& g, OptimizerConfig opt, std::uint64_t seed = 1);

  /// Runs one optimizer step over `microbatches` (each map holds the graph
  /// input values of one microbatch), accumulating gradients across them.
  /// Returns the mean loss across microbatches.
  float step(const std::vector<TensorMap>& microbatches);

  [[nodiscard]] TensorMap& params() { return params_; }
  [[nodiscard]] const TaskGraph& graph() const { return interp_.graph(); }

 private:
  Interpreter interp_;
  TensorMap params_;
  Optimizer opt_;
  ValueId loss_value_;
};

}  // namespace rannc
