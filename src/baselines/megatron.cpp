#include "baselines/megatron.h"

#include <algorithm>

#include "profiler/graph_profiler.h"
#include "profiler/memory.h"

namespace rannc {

BaselinePlan plan_megatron(const BuiltModel& model, const ClusterSpec& cluster,
                           Precision prec, std::int64_t batch_size,
                           double memory_margin) {
  BaselinePlan plan;
  plan.framework = "Megatron-LM";
  if (!model.transformer) {
    plan.reason = "applicable only to Transformer-based models";
    return plan;
  }
  const int D = cluster.total_devices();
  const auto M = static_cast<std::int64_t>(
      static_cast<double>(cluster.device.memory_bytes) * memory_margin);
  GraphProfiler prof(model.graph, cluster.device, prec);
  const double act_f = prof.act_factor();

  BaselinePlan best;
  best.framework = plan.framework;
  best.reason = "model does not fit with any tensor-parallel size (OOM)";

  for (int p = 1; p <= D; p *= 2) {
    const int dp = D / p;
    const std::int64_t bsize = batch_size / dp;  // no gradient accumulation
    if (bsize < 1) continue;

    // Compute time: GEMMs split p ways, everything else replicated.
    double gemm_f = 0, gemm_b = 0, vec_f = 0, vec_b = 0;
    for (const Task& t : model.graph.tasks()) {
      const double tf = prof.task_time_f(t.id, bsize, false);
      const double tb = prof.task_time_b(t.id, bsize, false);
      if (prof.cost(t.id).gemm_like) {
        gemm_f += tf;
        gemm_b += tb;
      } else {
        vec_f += tf;
        vec_b += tb;
      }
    }
    // Activation all-reduces: 2 per layer forward, 2 backward, each of one
    // [b, s, h] tensor across the p tensor-parallel ranks; plus one pair
    // for the vocabulary head.
    const std::int64_t encoder_layers =
        static_cast<std::int64_t>(model.layers.size()) - 2;
    const auto ar_bytes = static_cast<std::int64_t>(
        static_cast<double>(bsize * model.seq_len * model.hidden * 4) * act_f);
    const bool tp_spans_nodes = p > cluster.devices_per_node;
    const double ar_one = allreduce_time(cluster, ar_bytes, p, tp_spans_nodes);
    const double ar_fwd = (2.0 * static_cast<double>(encoder_layers) + 1.0) * ar_one;
    const double ar_bwd = ar_fwd;

    const double t_f = gemm_f / p + vec_f + ar_fwd;
    const double t_b = gemm_b / p + vec_b + ar_bwd;

    // Memory. Model state is sharded p ways; activations are NOT (the
    // buffer-size observation from Section IV-B). Gradient checkpointing is
    // on (the paper's authors added it), so per-layer boundaries are stored
    // and the largest layer is recomputed transiently — including the
    // unsharded vocabulary-logit buffer in the head.
    const std::int64_t nparams = model.graph.num_params();
    const std::int64_t state_per_param = prec == Precision::Mixed ? 16 : 16;
    const std::int64_t state = nparams * state_per_param / p;
    const auto boundary = static_cast<std::int64_t>(
        static_cast<double>(bsize * model.seq_len * model.hidden * 4) * act_f);
    std::int64_t max_span_act = 0;
    for (const LayerSpan& span : model.layers) {
      const ProfileResult& sp = prof.profile(span.tasks(), bsize);
      max_span_act = std::max(max_span_act, sp.act_bytes);
    }
    const std::int64_t mem = state +
                             static_cast<std::int64_t>(model.layers.size()) *
                                 boundary +
                             max_span_act;
    if (mem > M) continue;

    // Gradient all-reduce across the dp data-parallel replicas (each rank
    // holds 1/p of the parameters).
    const auto grad_bytes = static_cast<std::int64_t>(
        static_cast<double>(nparams) * (prec == Precision::Mixed ? 2.0 : 4.0) /
        p);
    const double iter =
        t_f + t_b +
        allreduce_time(cluster, grad_bytes, dp, cluster.num_nodes > 1);

    if (!best.feasible || iter < best.iteration_time) {
      best.feasible = true;
      best.reason.clear();
      best.iteration_time = iter;
      best.tensor_parallel = p;
      best.replicas = dp;
      best.microbatches = 1;
      best.mem_per_device = mem;
    }
  }
  return best;
}

}  // namespace rannc
