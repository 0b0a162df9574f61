#include "analysis/diagnostics.h"

#include <sstream>

namespace rannc {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* diag_code_name(DiagCode c) {
  switch (c) {
    case DiagCode::TaskIdNotDense: return "TaskIdNotDense";
    case DiagCode::ValueIdNotDense: return "ValueIdNotDense";
    case DiagCode::InputIdOutOfRange: return "InputIdOutOfRange";
    case DiagCode::OutputIdOutOfRange: return "OutputIdOutOfRange";
    case DiagCode::ProducerLinkBroken: return "ProducerLinkBroken";
    case DiagCode::DanglingProducer: return "DanglingProducer";
    case DiagCode::OrphanIntermediate: return "OrphanIntermediate";
    case DiagCode::MultiplyProducedValue: return "MultiplyProducedValue";
    case DiagCode::UseBeforeDef: return "UseBeforeDef";
    case DiagCode::ConsumerLinkBroken: return "ConsumerLinkBroken";
    case DiagCode::MissingConsumerBackEdge: return "MissingConsumerBackEdge";
    case DiagCode::NoMarkedOutput: return "NoMarkedOutput";
    case DiagCode::OutputUnreachable: return "OutputUnreachable";
    case DiagCode::GraphCycle: return "GraphCycle";
    case DiagCode::MalformedOperand: return "MalformedOperand";
    case DiagCode::ShapeMismatch: return "ShapeMismatch";
    case DiagCode::DTypeMismatch: return "DTypeMismatch";
    case DiagCode::DeadTask: return "DeadTask";
    case DiagCode::BadBatchSize: return "BadBatchSize";
    case DiagCode::BadMemoryMargin: return "BadMemoryMargin";
    case DiagCode::BadThreadCount: return "BadThreadCount";
    case DiagCode::BadBlockCount: return "BadBlockCount";
    case DiagCode::EmptyCluster: return "EmptyCluster";
    case DiagCode::BadCellBudget: return "BadCellBudget";
  }
  return "?";
}

std::string render(const Diagnostic& d) {
  std::ostringstream os;
  os << severity_name(d.severity) << " [" << diag_code_name(d.code) << "]";
  if (d.task >= 0) os << " task " << d.task;
  if (d.value >= 0) os << " value " << d.value;
  os << ": " << d.message;
  return os.str();
}

std::string render(std::span<const Diagnostic> ds) {
  std::ostringstream os;
  for (const Diagnostic& d : ds) os << render(d) << '\n';
  return os.str();
}

bool has_errors(std::span<const Diagnostic> ds) {
  return count_errors(ds) > 0;
}

std::size_t count_errors(std::span<const Diagnostic> ds) {
  std::size_t n = 0;
  for (const Diagnostic& d : ds)
    if (d.severity == Severity::Error) ++n;
  return n;
}

bool has_code(std::span<const Diagnostic> ds, DiagCode c) {
  for (const Diagnostic& d : ds)
    if (d.code == c) return true;
  return false;
}

}  // namespace rannc
