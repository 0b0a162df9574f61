// The one plan evaluator: what a partition plan costs, and what traffic one
// training step of it puts on the fabric.
//
// The stage cost h() of Algorithm 1 already includes the time to send a
// stage's outputs to the next stage (paper Section III-C), so a plan's
// iteration time is the GPipe makespan over the plan's per-stage (t_f, t_b)
// — with no separate boundary-comm edges — plus the slowest stage's
// gradient all-reduce. That is the estimate the search optimizes
// (PartitionResult::est_iteration_time is evaluate_plan's iteration_time),
// and every tool, example and test that scores or replays a plan goes
// through these two functions (docs/ALGORITHMS.md §11).
#pragma once

#include <vector>

#include "comm/fabric.h"
#include "partition/auto_partitioner.h"
#include "partition/search.h"
#include "pipeline/schedule.h"

namespace rannc {

/// A plan scored under the search's folded cost model.
struct PlanEvaluation {
  /// One {t_f, t_b, 0} per stage: boundary comm is folded into t_f / t_b.
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

/// Replays one training step's traffic on `fabric`: per microbatch, a
/// forward and a backward p2p of comm_out_bytes between the lead ranks of
/// each pair of adjacent stages (replica 0), then one gradient all-reduce
/// ring per stage across its devices of every pipeline replica. Devices of
/// one replica are contiguous with the stages laid out in order. Recorder
/// and transfer log are whatever the caller set on the fabric.
void replay_plan_comm(comm::Fabric& fabric, const PartitionResult& plan);

}  // namespace rannc
