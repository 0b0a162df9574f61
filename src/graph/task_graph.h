// TaskGraph: the ONNX-like bipartite task/value graph (paper Fig. 2(b)).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/op.h"
#include "graph/types.h"

namespace rannc {

/// How a value enters the graph.
enum class ValueKind : std::uint8_t {
  Input,         // fed by the caller every step (changes per mini-batch)
  Param,         // trainable weight (constant w.r.t. the model input)
  Intermediate,  // produced by a task
};

/// A value node: one tensor flowing through the graph.
struct Value {
  ValueId id = -1;
  std::string name;
  Shape shape;
  DType dtype = DType::F32;
  ValueKind kind = ValueKind::Intermediate;
  bool is_output = false;       ///< marked as a model output (e.g. the loss)
  TaskId producer = kNoTask;    ///< kNoTask for Input/Param values
  std::vector<TaskId> consumers;

  [[nodiscard]] std::int64_t bytes() const { return tensor_bytes(shape, dtype); }
};

/// A task node: one operator application. Single-output by construction —
/// multi-output PyTorch ops are lowered to chains of single-output tasks.
struct Task {
  TaskId id = -1;
  std::string name;
  OpKind kind = OpKind::Identity;
  std::vector<ValueId> inputs;
  ValueId output = -1;
  OpAttrs attrs;
};

/// A directed acyclic bipartite graph of tasks and values.
///
/// Construction is append-only through the builder methods; the graph
/// becomes immutable once handed to the partitioner. Task ids are assigned
/// densely in insertion order, which is guaranteed to be a topological order
/// (a task may only consume already-existing values).
class TaskGraph {
 public:
  explicit TaskGraph(std::string name = "model") : name_(std::move(name)) {}

  // ---- builder API -------------------------------------------------------
  ValueId add_input(std::string name, Shape shape, DType dtype = DType::F32);
  ValueId add_param(std::string name, Shape shape, DType dtype = DType::F32);
  /// Appends a task producing a fresh value of the given shape/dtype.
  /// Returns the id of the produced value.
  ValueId add_task(std::string name, OpKind kind, std::vector<ValueId> inputs,
                   Shape out_shape, DType out_dtype = DType::F32,
                   OpAttrs attrs = {});
  void mark_output(ValueId v);

  // ---- accessors ---------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::span<const Task> tasks() const { return tasks_; }
  [[nodiscard]] std::span<const Value> values() const { return values_; }
  [[nodiscard]] const Task& task(TaskId t) const { return tasks_.at(static_cast<std::size_t>(t)); }
  [[nodiscard]] const Value& value(ValueId v) const { return values_.at(static_cast<std::size_t>(v)); }

  /// Mutable node access for graph surgery and for the negative-path tests
  /// of src/analysis (corruption injection). Mutation can break every
  /// builder invariant — run analysis::verify_graph afterwards.
  [[nodiscard]] Task& task_mut(TaskId t) { return tasks_.at(static_cast<std::size_t>(t)); }
  [[nodiscard]] Value& value_mut(ValueId v) { return values_.at(static_cast<std::size_t>(v)); }

  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  [[nodiscard]] std::size_t num_values() const { return values_.size(); }

  [[nodiscard]] std::vector<ValueId> input_values() const;
  [[nodiscard]] std::vector<ValueId> output_values() const;

  /// Task ids in a topological order (== insertion order by construction).
  [[nodiscard]] std::vector<TaskId> topo_order() const;

  /// Total number of trainable scalar parameters.
  [[nodiscard]] std::int64_t num_params() const;
  /// Total bytes of trainable parameters.
  [[nodiscard]] std::int64_t param_bytes() const;

  /// Graphviz DOT rendering (tasks as boxes, values as ellipses).
  [[nodiscard]] std::string to_dot() const;

 private:
  ValueId add_value(std::string name, Shape shape, DType dtype, ValueKind kind);

  std::string name_;
  std::vector<Task> tasks_;
  std::vector<Value> values_;
};

}  // namespace rannc
