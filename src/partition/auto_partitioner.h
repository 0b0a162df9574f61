// RaNNC's end-to-end automatic partitioner: atomic-level partitioning,
// block-level partitioning, and the outer stage search (paper Algorithm 2,
// form_stage) that determines the number of pipeline stages, microbatches,
// per-stage device counts and whole-pipeline replicas.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "graph/task_graph.h"
#include "partition/block.h"
#include "partition/stage_dp.h"
#include "pipeline/schedule.h"
#include "profiler/memory.h"

namespace rannc {

/// One pipeline stage of the final plan.
struct StagePlan {
  std::vector<TaskId> tasks;   ///< task ids in PartitionResult::graph
  int devices = 1;             ///< stage replicas within one pipeline (d_i)
  int replicas_total = 1;      ///< d_i * R across all pipeline copies
  std::int64_t microbatch_size = 1;  ///< per-replica samples per microbatch
  double t_f = 0;              ///< profiled fwd seconds per microbatch
  double t_b = 0;              ///< profiled bwd seconds (incl. recompute)
  std::int64_t mem = 0;        ///< bytes per replica
  std::int64_t param_bytes = 0;
  std::int64_t comm_out_bytes = 0;  ///< activation bytes to the next stage
};

/// One (S, MB) configuration examined by Algorithm 2.
struct CandidateTrace {
  int nodes = 0;
  int stages = 0;
  int microbatches = 0;
  bool feasible = false;
  double est_iteration = 0;  ///< 0 when infeasible
  /// The branch-and-bound search proved this job dominated (its lower bound
  /// exceeded the incumbent) and skipped or aborted its DP. Always false on
  /// the exhaustive engine.
  bool pruned = false;
};

/// Branch-and-bound accounting of one search (all zeros on the exhaustive
/// engine). Like the cell/query totals, most of these depend on when the
/// live incumbent advances, so they are deterministic at threads = 1 and
/// scheduling-dependent at threads > 1; the plan is identical either way.
struct PruneStats {
  std::int64_t jobs_pruned = 0;   ///< (S, MB) jobs skipped before their DP
  std::int64_t jobs_dominated = 0;///< jobs aborted mid-DP by the incumbent
  std::int64_t ranges_mem_pruned = 0;   ///< stage ranges cut by the memory floor
  std::int64_t ranges_bound_pruned = 0; ///< ranges cut by the time lower bound
  std::int64_t columns_pruned = 0; ///< DP columns cut (suffix bound / s==S)
  std::int64_t paths_pruned = 0;   ///< prefix states dominated by the incumbent
  std::int64_t bound_queries = 0;  ///< lower-bound evaluations
  std::int64_t incumbent_updates = 0;  ///< successful incumbent lowerings

  [[nodiscard]] std::int64_t ranges_pruned() const {
    return ranges_mem_pruned + ranges_bound_pruned;
  }
};

struct SearchStats {
  std::size_t atomic_components = 0;
  std::size_t cloned_constant_tasks = 0;
  int blocks = 0;
  int coarsen_levels = 0;
  int uncoarsen_moves = 0;
  int compaction_merges = 0;
  std::int64_t dp_cells_visited = 0;
  std::int64_t profile_queries = 0;
  /// Queries avoided by the equal-stage_devs reuse inside form_stage_dp.
  std::int64_t profile_queries_saved = 0;
  int dp_invocations = 0;
  int threads_used = 1;      ///< resolved SearchBudget::threads
  /// Branch-and-bound counters (all zero on the exhaustive engine).
  PruneStats prune;
  double wall_seconds = 0;   ///< auto_partition call, after verification
  double search_seconds = 0; ///< Phase-3 sweep only (subset of wall_seconds)
  /// Every (S, MB) examined, in deterministic (nodes, stages, microbatches)
  /// order regardless of which worker thread finished first. When the
  /// search aborts on the cell budget, the aborting node group's traces are
  /// dropped (which sibling jobs completed first is scheduling-dependent)
  /// and the cell/query totals reflect the work actually done, which may
  /// vary with scheduling; every other field is thread-count-invariant.
  std::vector<CandidateTrace> candidates;
};

struct PartitionResult {
  bool feasible = false;
  std::string infeasible_reason;
  /// The (possibly clone-rebuilt) graph the stage task ids refer to.
  std::shared_ptr<const TaskGraph> graph;
  std::vector<StagePlan> stages;
  int microbatches = 1;     ///< MB
  int pipelines = 1;        ///< R (whole-pipeline replicas)
  int nodes_used = 0;       ///< n in Algorithm 2
  double est_iteration_time = 0;  ///< seconds per global mini-batch
  double bottleneck_value = 0;    ///< V = max t_f + max t_b
  SearchStats stats;

  /// Training throughput in samples/second.
  [[nodiscard]] double throughput(std::int64_t batch_size) const {
    return est_iteration_time > 0
               ? static_cast<double>(batch_size) / est_iteration_time
               : 0.0;
  }
};

/// Resolves a search thread knob: an explicit positive value wins,
/// else the RANNC_THREADS environment variable, else 1.
int resolve_search_threads(int threads_knob);

/// Human-readable plan summary (stages, devices, times, memory).
std::string describe(const PartitionResult& r);

}  // namespace rannc
