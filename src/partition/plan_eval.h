// The one plan evaluator: what a partition plan costs.
//
// The stage cost h() of Algorithm 1 already includes the time to send a
// stage's outputs to the next stage (paper Section III-C), so a plan's
// iteration time is the GPipe makespan over the plan's per-stage (t_f, t_b)
// — with no separate boundary-comm edges — plus the slowest stage's
// gradient all-reduce. That is the estimate the search optimizes
// (PartitionResult::est_iteration_time is evaluate_plan's iteration_time),
// and every tool, example and test that scores a plan goes through
// evaluate_plan (docs/ALGORITHMS.md §11).
#pragma once

#include <vector>

#include "partition/auto_partitioner.h"
#include "partition/search.h"
#include "pipeline/schedule.h"

namespace rannc {

/// A plan scored under the search's folded cost model.
struct PlanEvaluation {
  /// One {t_f, t_b} per stage: boundary comm is folded into t_f / t_b.
  std::vector<StageTimes> stage_times;
  ScheduleResult schedule;        ///< GPipe over stage_times
  double allreduce_seconds = 0;   ///< the slowest stage's gradient all-reduce
  double iteration_time = 0;      ///< schedule makespan + allreduce_seconds
};

/// Scores `plan` for `req.cluster` / `req.precision`. A stage all-reduces
/// param_bytes (halved under Precision::Mixed) across its devices x R
/// replicas. Reads only the plan's stage fields, microbatches and
/// pipelines, so it also scores plans read back by plan_from_json.
PlanEvaluation evaluate_plan(const PartitionResult& plan,
                             const SearchRequest& req);

}  // namespace rannc
