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

void replay_plan_comm(comm::Fabric& fabric, const PartitionResult& plan) {
  const std::size_t S = plan.stages.size();
  std::vector<comm::Rank> lead(S + 1, 0);  // first rank of each stage
  for (std::size_t s = 0; s < S; ++s)
    lead[s + 1] = lead[s] + plan.stages[s].devices;
  const int D = lead[S];  // devices per pipeline replica

  for (int j = 0; j < plan.microbatches; ++j)
    for (std::size_t s = 0; s + 1 < S; ++s) {
      const std::int64_t bytes = plan.stages[s].comm_out_bytes;
      if (bytes <= 0) continue;
      fabric.p2p(lead[s], lead[s + 1], bytes);  // activations
      fabric.p2p(lead[s + 1], lead[s], bytes);  // their gradients
    }
  for (std::size_t s = 0; s < S; ++s) {
    const StagePlan& sp = plan.stages[s];
    std::vector<comm::Rank> ring;
    for (int r = 0; r < plan.pipelines; ++r)
      for (int d = 0; d < sp.devices; ++d) ring.push_back(r * D + lead[s] + d);
    if (ring.size() > 1) fabric.ring_allreduce(ring, sp.param_bytes);
  }
}

}  // namespace rannc
