#include "baselines/gpipe.h"

#include <algorithm>

#include "baselines/layer_stages.h"
#include "baselines/staged_eval.h"

namespace rannc {

BaselinePlan plan_gpipe_hybrid(const BuiltModel& model,
                               const ClusterSpec& cluster,
                               std::int64_t batch_size, double memory_margin) {
  BaselinePlan best;
  best.framework = "GPipe-Hybrid";
  if (!model.transformer) {
    best.reason = "implementation is specialized to the BERT architecture";
    return best;
  }
  const int D = cluster.total_devices();
  const auto M = static_cast<std::int64_t>(
      static_cast<double>(cluster.device.memory_bytes) * memory_margin);
  // GPipe-Hybrid has no mixed-precision support (Section IV-B): FP32 only.
  GraphProfiler prof(model.graph, cluster.device, Precision::FP32);
  best.reason = "no stage count in {2,4,8,16} fits (OOM)";

  for (int S : {2, 4, 8, 16}) {
    if (D % S != 0) continue;
    const int replicas = D / S;
    const auto stages = uniform_layer_stages(model, S);
    if (stages.empty()) continue;  // layer count not divisible by S
    for (std::int64_t MB = 1; MB <= batch_size / replicas; MB *= 2) {
      const std::int64_t bsize = batch_size / replicas / MB;
      if (bsize < 1) break;
      const StagedEval ev =
          eval_stages(prof, cluster, stages, bsize, static_cast<int>(MB),
                      Precision::FP32, /*checkpointing=*/true,
                      InflightPolicy::GPipeFlush);
      if (!ev.fits(M)) continue;
      const ScheduleResult sched =
          simulate_gpipe(ev.times, static_cast<int>(MB));
      double max_ar = 0;
      for (std::int64_t pb : ev.param_bytes)
        max_ar = std::max(max_ar, allreduce_time(cluster, pb, replicas,
                                                  cluster.num_nodes > 1));
      const double iter = sched.iteration_time + max_ar;
      if (!best.feasible || iter < best.iteration_time) {
        best.feasible = true;
        best.reason.clear();
        best.iteration_time = iter;
        best.stages = S;
        best.replicas = replicas;
        best.microbatches = static_cast<int>(MB);
        best.mem_per_device = ev.max_mem();
      }
    }
  }
  return best;
}

BaselinePlan plan_gpipe_model(const BuiltModel& model,
                              const ClusterSpec& cluster,
                              std::int64_t batch_size, int microbatches,
                              double memory_margin) {
  BaselinePlan best;
  best.framework = "GPipe-Model";
  // torchgpipe only uses the GPUs of a single node (Section IV-B).
  const ClusterSpec node = cluster.single_node();
  const int S = node.devices_per_node;
  const auto M = static_cast<std::int64_t>(
      static_cast<double>(node.device.memory_bytes) * memory_margin);
  GraphProfiler prof(model.graph, node.device, Precision::FP32);

  const std::int64_t bsize =
      std::max<std::int64_t>(1, batch_size / microbatches);
  const auto stages = balanced_layer_stages(model, prof, S, bsize);
  if (stages.empty()) {
    best.reason = "fewer layers than stages";
    return best;
  }
  const StagedEval ev =
      eval_stages(prof, node, stages, bsize, microbatches, Precision::FP32,
                  /*checkpointing=*/true, InflightPolicy::GPipeFlush);
  if (!ev.fits(M)) {
    best.reason = "stage does not fit device memory (OOM)";
    return best;
  }
  const ScheduleResult sched = simulate_gpipe(ev.times, microbatches);
  best.feasible = true;
  best.iteration_time = sched.iteration_time;  // no replicas: no all-reduce
  best.stages = S;
  best.replicas = 1;
  best.microbatches = microbatches;
  best.mem_per_device = ev.max_mem();
  return best;
}

}  // namespace rannc
