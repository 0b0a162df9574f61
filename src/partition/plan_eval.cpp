#include "partition/plan_eval.h"

#include <algorithm>
#include <cstdint>

namespace rannc {

PlanEvaluation evaluate_plan(const PartitionResult& plan,
                             const SearchRequest& req) {
  PlanEvaluation ev;
  ev.stage_times.reserve(plan.stages.size());
  const int R = plan.pipelines;
  for (const StagePlan& sp : plan.stages) {
    ev.stage_times.push_back({sp.t_f, sp.t_b});
    const std::int64_t grad_bytes = static_cast<std::int64_t>(
        static_cast<double>(sp.param_bytes) *
        (req.precision == Precision::Mixed ? 0.5 : 1.0));
    ev.allreduce_seconds = std::max(
        ev.allreduce_seconds,
        allreduce_time(req.cluster, grad_bytes, sp.devices * R, R > 1));
  }
  ev.schedule = simulate_gpipe(ev.stage_times, plan.microbatches);
  ev.iteration_time = ev.schedule.iteration_time + ev.allreduce_seconds;
  return ev;
}

}  // namespace rannc
