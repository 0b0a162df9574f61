#include "baselines/staged_eval.h"

#include <algorithm>

namespace rannc {

std::int64_t StagedEval::max_mem() const {
  std::int64_t m = 0;
  for (std::int64_t v : mems) m = std::max(m, v);
  return m;
}

bool StagedEval::fits(std::int64_t budget) const {
  return budget <= 0 || max_mem() <= budget;
}

StagedEval eval_stages(const GraphProfiler& prof, const ClusterSpec& cluster,
                       const std::vector<std::vector<TaskId>>& stages,
                       std::int64_t bsize, int microbatches, Precision prec,
                       bool checkpointing, InflightPolicy policy,
                       int extra_weight_copies) {
  StagedEval ev;
  const int S = static_cast<int>(stages.size());
  ev.times.resize(static_cast<std::size_t>(S));
  ev.mems.resize(static_cast<std::size_t>(S));
  ev.param_bytes.resize(static_cast<std::size_t>(S));
  for (int i = 0; i < S; ++i) {
    const ProfileResult& p =
        prof.profile(stages[static_cast<std::size_t>(i)], bsize);
    const double comm_out =
        i + 1 < S ? partitioner_comm_time(cluster, p.boundary_out_bytes) : 0;
    const double comm_in =
        i > 0 ? partitioner_comm_time(cluster, p.boundary_in_bytes) : 0;
    StageTimes& st = ev.times[static_cast<std::size_t>(i)];
    st.t_f = p.t_fwd + comm_out;
    st.t_b = p.t_bwd + (checkpointing ? p.t_fwd : 0) + comm_in;

    std::int64_t inflight = 1;
    if (S > 1) {
      inflight = policy == InflightPolicy::GPipeFlush
                     ? microbatches
                     : std::min<std::int64_t>(microbatches, S - i);
    }
    StageMemory mem = stage_memory(p, prec, OptimizerKind::Adam, inflight,
                                   checkpointing && S > 1);
    mem.weights += extra_weight_copies *
                   (prec == Precision::Mixed ? 2 : 4) * p.num_params;
    ev.mems[static_cast<std::size_t>(i)] = mem.total();
    ev.param_bytes[static_cast<std::size_t>(i)] = p.param_bytes;
  }
  return ev;
}

}  // namespace rannc
