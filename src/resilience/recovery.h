// Elastic recovery from device loss.
//
// When a rank fail-stops, training can continue on the survivors: shrink
// the cluster to its largest uniform sub-cluster, re-run the automatic
// partitioner on the smaller device set (a plain cold search: its plan is
// exactly the one a fresh search on the survivors would return), remap
// parameter shards onto the new stage layout,
// and resume from the last completed optimizer step (which transactional
// pipeline steps guarantee is well-defined). The RecoveryCoordinator owns
// that policy loop; the partitioner, fabric and runtime supply mechanism.
//
// Everything here is deterministic: the shrink rule, the re-partition
// (bit-identical at any thread count, like every auto_partition call) and
// the migration plan (ascending ValueId) depend only on their inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "graph/task_graph.h"
#include "partition/auto_partitioner.h"
#include "partition/search.h"

namespace rannc {
namespace resilience {

/// Shrinks `spec` to the largest *uniform* sub-cluster of the survivors
/// (ClusterSpec models num_nodes x devices_per_node, so the survivors of a
/// partial node loss must be trimmed to a common per-node device count):
/// over d in [1, devices_per_node], pick the d maximizing d * |{nodes with
/// >= d surviving devices}|, preferring larger d on ties. Throws
/// std::invalid_argument when no device survives or a failed rank is out
/// of range. Deterministic.
ClusterSpec shrink_cluster(const ClusterSpec& spec,
                           const std::vector<int>& failed_ranks);

/// One parameter shard that changes stage between two plans.
struct ShardMove {
  ValueId value = -1;
  int from_stage = 0;
  int to_stage = 0;
  std::int64_t bytes = 0;
};

/// Parameter remapping between two plans over the same model. Stage
/// ownership of a parameter follows its consuming tasks (the same rule
/// PipelineTrainer uses to build shards).
struct ShardMigration {
  std::vector<ShardMove> moves;  ///< ascending ValueId; only actual moves
  std::int64_t total_bytes = 0;  ///< sum of moved shard bytes
  int unchanged = 0;             ///< parameters whose stage did not change
};

/// Computes the migration `before` -> `after`. Both plans must be feasible
/// and partition graphs built from the same model (task/value ids line
/// up); throws std::invalid_argument otherwise.
ShardMigration remap_shards(const PartitionResult& before,
                            const PartitionResult& after);

class RecoveryCoordinator {
 public:
  /// `model` must outlive the coordinator.
  RecoveryCoordinator(const TaskGraph& model, SearchRequest req);

  /// Runs the initial partition and stores it as the active plan.
  const PartitionResult& partition();

  /// The active plan (initial, or the latest recovery's).
  [[nodiscard]] const PartitionResult& plan() const { return plan_; }
  /// The active search request (cluster shrinks across recoveries).
  [[nodiscard]] const SearchRequest& request() const { return req_; }

  struct Outcome {
    bool ok = false;
    std::string reason;        ///< set when !ok
    ClusterSpec cluster;       ///< shrunk survivor cluster
    PartitionResult plan;      ///< re-partition on the shrunk cluster
    ShardMigration migration;  ///< old plan -> new plan parameter moves
  };

  /// Handles the loss of `failed_ranks` (ranks in the *current* cluster's
  /// numbering): shrink, re-partition, shard remap. On success the
  /// coordinator's active plan and cluster advance to the outcome's, so
  /// repeated failures chain. On failure (no survivors, or no feasible
  /// plan on the shrunk cluster) the active state is unchanged and
  /// `reason` says why. Emits resilience.* metrics either way.
  Outcome recover(const std::vector<int>& failed_ranks);

 private:
  const TaskGraph& model_;
  SearchRequest req_;
  PartitionResult plan_;
  bool have_plan_ = false;
};

}  // namespace resilience
}  // namespace rannc
