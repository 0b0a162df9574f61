// Forward/backward interpreter for TaskGraphs over the CPU tensor library.
//
// This is the execution engine beneath the runtime: given concrete input
// and parameter tensors, it runs any (sub)graph forward, and propagates
// gradients backward through it. Subgraph execution is first-class — a
// pipeline stage is simply a task subset whose cut values are fed/emitted —
// which is what lets partitioned execution be compared bit-for-bit against
// whole-graph execution.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/task_graph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rannc {

/// Values (activations, params, gradients) keyed by ValueId.
using TensorMap = std::unordered_map<ValueId, Tensor>;

/// Per-execution cache of auxiliary forward state needed by backward
/// (softmax outputs, layernorm statistics, pooling argmax, ...).
struct ForwardCache {
  std::unordered_map<TaskId, LayerNormResult> layernorm;
  std::unordered_map<TaskId, BatchNormResult> batchnorm;
  std::unordered_map<TaskId, MaxPoolResult> maxpool;
  std::unordered_map<TaskId, Tensor> ce_probs;
};

class Interpreter {
 public:
  explicit Interpreter(const TaskGraph& g) : graph_(&g) {}

  /// Executes the tasks in `tasks` (must be topologically consistent, i.e.
  /// sorted by id) forward. `values` must already contain every external
  /// input of the subset (graph inputs, params, cut inputs); outputs and
  /// intermediates are inserted into `values`.
  void forward(const std::vector<TaskId>& tasks, TensorMap& values,
               ForwardCache& cache) const;

  /// Propagates gradients backward through `tasks` (iterated in reverse).
  /// `grads` must contain gradients for every value of the subset that is
  /// consumed outside it (for the loss output, seed with a scalar 1).
  /// Gradients for cut inputs and parameters are accumulated into `grads`.
  void backward(const std::vector<TaskId>& tasks, const TensorMap& values,
                const ForwardCache& cache, TensorMap& grads) const;

  /// Whole-graph convenience: forward all tasks.
  void forward_all(TensorMap& values, ForwardCache& cache) const;

  /// Opt-in memo for forward outputs that are pure functions of parameter
  /// values only (currently Transpose of a Param input, i.e. the per-layer
  /// weight transposes). Parameters are fixed for the duration of a training
  /// step, so each memoized task runs once per step and every later
  /// microbatch reuses the result — a pure permutation of unchanged data,
  /// bit-identical to recomputing it. An entry is reused while its input
  /// keeps the data pointer it was computed from, and an in-place optimizer
  /// step keeps that pointer while changing the bytes, so callers MUST
  /// invalidate whenever parameters may change (after every optimizer
  /// step). Thread-safe.
  void set_param_memo(bool on) { param_memo_ = on; }
  void invalidate_param_memo() {
    std::lock_guard<std::mutex> lk(memo_mu_);
    memo_.clear();
  }

  [[nodiscard]] const TaskGraph& graph() const { return *graph_; }

 private:
  void run_task(const Task& t, TensorMap& values, ForwardCache& cache) const;
  void grad_task(const Task& t, const TensorMap& values,
                 const ForwardCache& cache, TensorMap& grads) const;

  const TaskGraph* graph_;
  bool param_memo_ = false;
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<ValueId, std::pair<const float*, Tensor>> memo_;
};

/// Accumulates `delta` into `grads[v]` (insert if absent).
void accumulate_grad(TensorMap& grads, ValueId v, Tensor delta);

}  // namespace rannc
