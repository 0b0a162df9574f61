#include "resilience/recovery.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rannc {
namespace resilience {

ClusterSpec shrink_cluster(const ClusterSpec& spec,
                           const std::vector<int>& failed_ranks) {
  const int N = spec.num_nodes;
  const int D = spec.devices_per_node;
  std::set<int> failed;
  for (int r : failed_ranks) {
    if (r < 0 || r >= spec.total_devices())
      throw std::invalid_argument("shrink_cluster: rank " + std::to_string(r) +
                                  " outside the cluster");
    failed.insert(r);
  }

  std::vector<int> survivors(static_cast<std::size_t>(N), 0);
  for (int n = 0; n < N; ++n)
    for (int d = 0; d < D; ++d)
      if (failed.find(n * D + d) == failed.end())
        ++survivors[static_cast<std::size_t>(n)];

  // Largest uniform sub-cluster: maximize d * |{nodes with >= d
  // survivors}|; ties go to the larger d (fewer, fuller nodes keep more
  // traffic on NVLink).
  int best_d = 0, best_nodes = 0;
  for (int d = 1; d <= D; ++d) {
    int nodes = 0;
    for (int n = 0; n < N; ++n)
      if (survivors[static_cast<std::size_t>(n)] >= d) ++nodes;
    if (nodes > 0 && d * nodes >= best_d * best_nodes) {
      best_d = d;
      best_nodes = nodes;
    }
  }
  if (best_d == 0)
    throw std::invalid_argument("shrink_cluster: no surviving devices");

  ClusterSpec out = spec;
  out.num_nodes = best_nodes;
  out.devices_per_node = best_d;
  return out;
}

namespace {

/// Stage of each task of a plan, by task id.
std::vector<int> stage_of_task(const PartitionResult& plan) {
  std::vector<int> owner(plan.graph->num_tasks(), -1);
  for (std::size_t s = 0; s < plan.stages.size(); ++s)
    for (TaskId t : plan.stages[s].tasks)
      owner[static_cast<std::size_t>(t)] = static_cast<int>(s);
  return owner;
}

/// Stage owning parameter `v` under `owner` (first consumer's stage — the
/// rule PipelineTrainer enforces shard exclusivity with).
int param_stage(const Value& v, const std::vector<int>& owner) {
  int stage = -1;
  for (TaskId c : v.consumers) {
    const int s = owner[static_cast<std::size_t>(c)];
    if (stage == -1 || s < stage) stage = s;
  }
  return stage;
}

}  // namespace

ShardMigration remap_shards(const PartitionResult& before,
                            const PartitionResult& after) {
  if (!before.feasible || !after.feasible || !before.graph || !after.graph)
    throw std::invalid_argument("remap_shards: both plans must be feasible");
  const TaskGraph& gb = *before.graph;
  const TaskGraph& ga = *after.graph;
  if (gb.num_values() != ga.num_values() || gb.num_tasks() != ga.num_tasks())
    throw std::invalid_argument(
        "remap_shards: plans partition different graphs");

  const std::vector<int> owner_b = stage_of_task(before);
  const std::vector<int> owner_a = stage_of_task(after);

  ShardMigration mig;
  for (const Value& v : gb.values()) {
    if (v.kind != ValueKind::Param) continue;
    const int sb = param_stage(v, owner_b);
    const int sa = param_stage(ga.value(v.id), owner_a);
    if (sb < 0 || sa < 0) continue;  // unconsumed parameter
    if (sb == sa) {
      ++mig.unchanged;
      continue;
    }
    ShardMove m;
    m.value = v.id;
    m.from_stage = sb;
    m.to_stage = sa;
    m.bytes = v.bytes();
    mig.total_bytes += m.bytes;
    mig.moves.push_back(m);
  }
  return mig;
}

RecoveryCoordinator::RecoveryCoordinator(const TaskGraph& model,
                                         SearchRequest req)
    : model_(model), req_(std::move(req)) {}

const PartitionResult& RecoveryCoordinator::partition() {
  plan_ = auto_partition(model_, req_).plan;
  have_plan_ = true;
  return plan_;
}

RecoveryCoordinator::Outcome RecoveryCoordinator::recover(
    const std::vector<int>& failed_ranks) {
  if (!have_plan_)
    throw std::logic_error("RecoveryCoordinator: recover() before partition()");

  obs::Scope sc("recover", "resilience");
  sc.arg("failed_ranks", static_cast<std::int64_t>(failed_ranks.size()));
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("resilience.device_failures")
      .add(static_cast<std::int64_t>(failed_ranks.size()));

  Outcome out;
  try {
    out.cluster = shrink_cluster(req_.cluster, failed_ranks);
  } catch (const std::invalid_argument& e) {
    out.reason = e.what();
    m.counter("resilience.recovery_failures").add(1);
    return out;
  }

  SearchRequest req2 = req_;
  req2.cluster = out.cluster;
  out.plan = auto_partition(model_, req2).plan;
  if (!out.plan.feasible) {
    out.reason = "no feasible plan on the shrunk cluster (" +
                 out.plan.infeasible_reason + ")";
    m.counter("resilience.recovery_failures").add(1);
    return out;
  }

  out.migration = remap_shards(plan_, out.plan);
  out.ok = true;
  req_ = std::move(req2);
  plan_ = out.plan;

  m.counter("resilience.recoveries").add(1);
  m.counter("resilience.migrated_values")
      .add(static_cast<std::int64_t>(out.migration.moves.size()));
  m.counter("resilience.migrated_bytes").add(out.migration.total_bytes);
  RANNC_LOG_INFO("recovered onto "
                 << out.cluster.num_nodes << "x"
                 << out.cluster.devices_per_node << " devices; "
                 << out.plan.stages.size() << " stages, "
                 << out.migration.moves.size() << " shards migrated");
  return out;
}

}  // namespace resilience
}  // namespace rannc
