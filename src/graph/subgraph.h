// Subgraph views, cut-value computation, convexity tests and a task-level
// adjacency index over a TaskGraph. These are the primitives the three
// partitioning phases (paper Section III) are built from.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/task_graph.h"

namespace rannc {

/// Task-level adjacency derived from the bipartite graph: there is an edge
/// a -> b iff some value produced by task a is consumed by task b.
class TaskAdjacency {
 public:
  explicit TaskAdjacency(const TaskGraph& g);

  [[nodiscard]] const std::vector<TaskId>& succ(TaskId t) const {
    return succ_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const std::vector<TaskId>& pred(TaskId t) const {
    return pred_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::size_t num_tasks() const { return succ_.size(); }

 private:
  std::vector<std::vector<TaskId>> succ_;
  std::vector<std::vector<TaskId>> pred_;
};

/// A subcomponent: a subset of tasks of a TaskGraph (paper: "a set of
/// computation tasks such as matrix multiplication"). Stored sorted.
struct SubGraph {
  const TaskGraph* graph = nullptr;
  std::vector<TaskId> tasks;  // sorted ascending

  [[nodiscard]] bool contains(TaskId t) const;
};

/// Values that cross the boundary of a task subset.
struct CutValues {
  /// Produced outside (or graph inputs/params) and consumed inside.
  std::vector<ValueId> inputs;
  /// Produced inside and consumed outside (or marked as model outputs).
  std::vector<ValueId> outputs;
};

/// Computes the boundary values of `tasks` within `g`. `member[t]` must be
/// true iff task t belongs to the subset.
CutValues cut_values(const TaskGraph& g, const std::vector<char>& member);

/// Convenience overload building the membership mask from a task list.
CutValues cut_values(const TaskGraph& g, const std::vector<TaskId>& tasks);

/// A subset u of a DAG is convex iff no path alpha -> gamma -> beta exists
/// with alpha, beta in u and gamma outside u (paper Section III-B). A stage
/// containing a non-convex subcomponent can deadlock the pipeline.
bool is_convex(const TaskAdjacency& adj, const std::vector<char>& member);
bool is_convex(const TaskGraph& g, const std::vector<TaskId>& tasks);

}  // namespace rannc
