#include "baselines/data_parallel.h"

#include <algorithm>

#include "profiler/graph_profiler.h"

namespace rannc {

BaselinePlan plan_data_parallel(const BuiltModel& model,
                                const ClusterSpec& cluster, Precision prec,
                                std::int64_t batch_size,
                                double memory_margin) {
  BaselinePlan plan;
  plan.framework = "DataParallel";
  const int devices = cluster.total_devices();
  const std::int64_t per_dev = batch_size / devices;
  if (per_dev < 1) {
    plan.reason = "batch smaller than device count";
    return plan;
  }
  const auto M = static_cast<std::int64_t>(
      static_cast<double>(cluster.device.memory_bytes) * memory_margin);

  GraphProfiler prof(model.graph, cluster.device, prec);
  std::vector<TaskId> all_tasks;
  all_tasks.reserve(model.graph.num_tasks());
  for (const Task& t : model.graph.tasks()) all_tasks.push_back(t.id);

  // Smallest power-of-two accumulation-step count whose activations fit.
  for (std::int64_t accum = 1; accum <= per_dev; accum *= 2) {
    const std::int64_t bsize = per_dev / accum;
    if (bsize < 1) break;
    const ProfileResult& p = prof.profile(all_tasks, bsize);
    // No pipeline: backward follows forward per accumulation step, so only
    // one step's activations are live; DDP does not checkpoint by default.
    const StageMemory mem =
        stage_memory(p, prec, OptimizerKind::Adam, 1, false);
    if (mem.total() > M) continue;
    plan.feasible = true;
    plan.replicas = devices;
    plan.microbatches = static_cast<int>(accum);
    plan.mem_per_device = mem.total();
    const std::int64_t grad_bytes = static_cast<std::int64_t>(
        static_cast<double>(p.param_bytes) *
        (prec == Precision::Mixed ? 0.5 : 1.0));
    plan.iteration_time =
        static_cast<double>(accum) * (p.t_fwd + p.t_bwd) +
        allreduce_time(cluster, grad_bytes, devices, cluster.num_nodes > 1);
    return plan;
  }
  plan.reason = "model does not fit one device (OOM)";
  return plan;
}

}  // namespace rannc
