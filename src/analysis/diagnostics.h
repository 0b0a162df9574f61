// Diagnostics engine for the static-analysis layer.
//
// Every analysis pass (structural verifier, shape re-inference, dataflow
// checks) reports findings as Diagnostic records instead of throwing, so a
// single run can surface *all* problems in a graph and so negative-path
// tests can assert on precise diagnostic codes. Rendering is human-readable
// and stable: `rannc lint` prints exactly what render() produces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace rannc {

enum class Severity : std::uint8_t {
  Note,     ///< informational (e.g. statistics)
  Warning,  ///< suspicious but executable (e.g. dead task)
  Error,    ///< the graph is malformed; downstream passes may crash
};

/// Stable identifiers for every check the analysis layer performs. Each code
/// has at least one negative-path test in tests/test_property_fuzz.cpp or
/// tests/test_analysis.cpp.
enum class DiagCode : std::uint8_t {
  // ---- structural verifier (analysis/verifier.cpp) ----
  TaskIdNotDense,         ///< task(i).id != i: ids must be dense topological
  ValueIdNotDense,        ///< value(i).id != i
  InputIdOutOfRange,      ///< task consumes a value id outside [0, V)
  OutputIdOutOfRange,     ///< task's output id outside [0, V)
  ProducerLinkBroken,     ///< value(t.output).producer != t.id
  DanglingProducer,       ///< value names a producer task that does not exist
  OrphanIntermediate,     ///< Intermediate value with no producer
  MultiplyProducedValue,  ///< two tasks claim the same output value
  UseBeforeDef,           ///< task consumes a value produced by a later task
  ConsumerLinkBroken,     ///< value lists a consumer that does not read it
  MissingConsumerBackEdge,///< task reads a value absent from its consumers
  NoMarkedOutput,         ///< non-empty graph without a marked output
  OutputUnreachable,      ///< marked output not reachable from any model input
  GraphCycle,             ///< task-level adjacency contains a cycle
  // ---- shape/dtype re-inference (analysis/shape_inference.cpp) ----
  MalformedOperand,       ///< inputs incompatible with the op (rank/dims/attrs)
  ShapeMismatch,          ///< builder-recorded output shape != re-inferred
  DTypeMismatch,          ///< builder-recorded output dtype != re-inferred
  // ---- dataflow (analysis/dataflow.cpp) ----
  DeadTask,               ///< task output cannot reach any marked output
  // ---- search request (SearchRequest::validate, partition/search.cpp) ----
  BadBatchSize,           ///< batch_size <= 0
  BadMemoryMargin,        ///< memory_margin outside (0, 1]
  BadThreadCount,         ///< budget.threads < 0 or > kMaxThreads
  BadBlockCount,          ///< num_blocks < 1
  EmptyCluster,           ///< cluster has no nodes or no devices per node
  BadCellBudget,          ///< budget.max_dp_cells < 0
};

const char* severity_name(Severity s);
const char* diag_code_name(DiagCode c);

/// One finding: where (task and/or value id; -1 = not applicable) and what.
struct Diagnostic {
  Severity severity = Severity::Error;
  DiagCode code = DiagCode::TaskIdNotDense;
  TaskId task = -1;
  ValueId value = -1;
  std::string message;
};

/// "error [ShapeMismatch] task 12 (layer0.attn.scores) value 40: ..."
std::string render(const Diagnostic& d);
/// One line per diagnostic, in order.
std::string render(std::span<const Diagnostic> ds);

[[nodiscard]] bool has_errors(std::span<const Diagnostic> ds);
[[nodiscard]] std::size_t count_errors(std::span<const Diagnostic> ds);

/// True if any diagnostic carries the given code.
[[nodiscard]] bool has_code(std::span<const Diagnostic> ds, DiagCode c);

}  // namespace rannc
