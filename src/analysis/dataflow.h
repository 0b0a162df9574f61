// Classic dataflow analyses over TaskGraph: per-value liveness intervals,
// dead-task detection, a static activation-memory bound, and
// reachability/convexity queries.
//
// These are the reusable substrate the partitioner-side validators build
// on: liveness feeds a lower bound on any executor's activation memory
// (cross-checkable against src/profiler/memory's estimates), dead-task
// detection flags graph regions that waste partition budget, and
// ReachabilityIndex centralises the reachability and convexity queries
// that plan validation needs.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/diagnostics.h"
#include "graph/subgraph.h"
#include "graph/task_graph.h"

namespace rannc {

/// Half-open liveness interval of one value over the topological schedule.
/// A value is live from the step that defines it (0 for inputs/params,
/// which exist before execution) through its last use; values marked as
/// model outputs stay live to the end of the schedule.
struct LiveInterval {
  TaskId start = 0;        ///< first schedule step at which the value exists
  TaskId end = -1;         ///< last schedule step that needs it (inclusive);
                           ///< -1 for values never used nor output
  [[nodiscard]] bool live_at(TaskId t) const { return t >= start && t <= end; }
};

/// One interval per value, indexed by value id.
std::vector<LiveInterval> liveness_intervals(const TaskGraph& g);

/// Flags tasks whose output cannot reach any marked model output — their
/// computation is unobservable and they only waste partition budget.
std::vector<char> dead_tasks(const TaskGraph& g);

/// Dead tasks as warnings (one per task), for the lint report.
std::vector<Diagnostic> report_dead_tasks(const TaskGraph& g);

/// Peak bytes of simultaneously-live *intermediate* values over the
/// topological schedule, per the liveness intervals above. This is a lower
/// bound on the activation memory any single-device executor of the graph
/// needs (without recomputation), and is <= the profiler's whole-graph
/// activation total, which sums every task output. Parameters and model
/// inputs are excluded, matching ProfileResult::act_bytes.
std::int64_t peak_activation_bytes(const TaskGraph& g);

/// Task-level reachability and convexity queries over one graph, sharing
/// a single TaskAdjacency build. Used by the plan validator and by lint;
/// O(V+E) per query.
class ReachabilityIndex {
 public:
  explicit ReachabilityIndex(const TaskGraph& g);

  [[nodiscard]] const TaskAdjacency& adjacency() const { return adj_; }

  /// True iff a directed path from `from` to `to` exists (from == to: true).
  [[nodiscard]] bool reaches(TaskId from, TaskId to) const;

  /// Convexity of a task subset (see graph/subgraph.h); `member` is a
  /// per-task membership mask.
  [[nodiscard]] bool convex(const std::vector<char>& member) const;
  [[nodiscard]] bool convex(const std::vector<TaskId>& tasks) const;

 private:
  const TaskGraph* g_;
  TaskAdjacency adj_;
};

}  // namespace rannc
