#include "partition/search.h"

#include <string>

namespace rannc {

std::vector<Diagnostic> SearchRequest::validate() const {
  std::vector<Diagnostic> ds;
  const auto err = [&ds](DiagCode code, std::string msg) {
    Diagnostic d;
    d.severity = Severity::Error;
    d.code = code;
    d.message = std::move(msg);
    ds.push_back(std::move(d));
  };
  if (batch_size <= 0)
    err(DiagCode::BadBatchSize,
        "batch_size must be positive, got " + std::to_string(batch_size));
  if (!(memory_margin > 0.0) || memory_margin > 1.0)
    err(DiagCode::BadMemoryMargin,
        "memory_margin must be in (0, 1], got " +
            std::to_string(memory_margin));
  if (budget.threads < 0 || budget.threads > kMaxThreads)
    err(DiagCode::BadThreadCount,
        "budget.threads must be in [0, " + std::to_string(kMaxThreads) +
            "] (0 = RANNC_THREADS env default), got " +
            std::to_string(budget.threads));
  if (budget.max_dp_cells < 0)
    err(DiagCode::BadCellBudget,
        "budget.max_dp_cells must be >= 0 (0 = unlimited), got " +
            std::to_string(budget.max_dp_cells));
  if (num_blocks < 1)
    err(DiagCode::BadBlockCount,
        "num_blocks must be >= 1, got " + std::to_string(num_blocks));
  if (cluster.num_nodes < 1 || cluster.devices_per_node < 1)
    err(DiagCode::EmptyCluster,
        "cluster must have at least one node and one device per node, got " +
            std::to_string(cluster.num_nodes) + " node(s) x " +
            std::to_string(cluster.devices_per_node) + " device(s)");
  return ds;
}

}  // namespace rannc
