// Phase 2 — block-level partitioning (paper Section III-B).
//
// Groups the atomic subcomponents into k balanced, coarse-grained, convex
// *blocks* using an adaptation of k-way multilevel graph partitioning
// (Karypis-Kumar style, as extended for streaming-application load
// balancing). Three steps:
//
//   coarsening   — iteratively merge the cheapest group with its best
//                  adjacent partner (convex, memory-feasible, minimizing the
//                  merged computation time) until k groups remain or no
//                  merge is possible;
//   uncoarsening — walk the merge history back down, moving sub-groups
//                  across block boundaries when that reduces the bytes
//                  communicated between blocks;
//   compaction   — if more than k groups survive coarsening, merge
//                  topologically-consecutive groups (always convex) in
//                  ascending computation-time order until exactly k remain.
//
// Convexity is enforced throughout by keeping the block-quotient graph
// acyclic: a non-convex subcomponent is exactly one that induces a cycle
// among blocks, which would deadlock the sequential pipeline (Section III-B).
// Each merge or move is checked locally against a maintained topological
// order of the groups (see block.cpp), not by rebuilding the quotient. The
// quotient itself is built from the components once per call and updated in
// place by every merge and move.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_spec.h"
#include "partition/atomic.h"
#include "profiler/graph_profiler.h"

namespace rannc {

struct BlockPartitionConfig {
  int k = 32;                       ///< desired number of blocks (paper: 32)
  std::int64_t device_memory = 0;   ///< usable bytes per device (0 = no limit)
  std::int64_t profile_batch = 1;   ///< microbatch size for balance profiling
  /// Post-compaction boundary refinement that equalizes block times by
  /// moving atomic components across adjacent block boundaries. Extension
  /// beyond the paper's three steps (see block.cpp); ablatable.
  bool balance_refinement = true;
  /// The paper's uncoarsening step (communication-reducing boundary
  /// adjustments along the merge history). Ablatable for experiments.
  bool uncoarsening = true;
};

/// One coarse-grained block: a convex union of atomic subcomponents.
struct Block {
  std::vector<int> comps;      ///< atomic component indices, ascending
  std::vector<TaskId> tasks;   ///< merged task ids, ascending
  double time_f = 0;           ///< forward estimate at profile_batch, seconds
  double time_b = 0;
  std::int64_t param_bytes = 0;
  std::int64_t act_bytes = 0;  ///< activation bytes at profile_batch
  [[nodiscard]] double time() const { return time_f + time_b; }
  friend bool operator==(const Block&, const Block&) = default;
};

struct BlockPartition {
  std::vector<Block> blocks;        ///< topologically sorted
  std::vector<int> block_of_comp;   ///< comp index -> index into blocks
  // Search diagnostics (experiment E6).
  int coarsen_levels = 0;
  int uncoarsen_moves = 0;
  int compaction_merges = 0;
  std::int64_t cut_bytes = 0;       ///< activation bytes crossing block edges
  friend bool operator==(const BlockPartition&,
                         const BlockPartition&) = default;
};

/// Runs block-level partitioning over the atomic partition `ap`.
/// `prof` must be a profiler over `ap.graph`.
BlockPartition block_partition(const AtomicPartition& ap,
                               const GraphProfiler& prof,
                               const BlockPartitionConfig& cfg);

namespace detail {

/// What the checked entry audited, for tests that must show a case was
/// exercised, not merely passed.
struct BlockAudit {
  std::int64_t views = 0;           ///< carried views diffed vs build_view()
  std::int64_t picks[2] = {0, 0};   ///< indexed picks diffed vs the scan:
                                    ///< [0] forward, [1] backward
  std::int64_t tied_picks = 0;      ///< picks with another candidate of the
                                    ///< same time (list position decides)
  std::int64_t memory_rejects = 0;  ///< picks the memory budget refused
  std::int64_t scanned = 0;         ///< comps the scan walked for the picks
};

/// Test hook: runs exactly what block_partition runs, with three oracles.
/// Every incremental cycle check is diffed against a full quotient rebuild
/// and the maintained topological order verified after it; the carried
/// quotient (members, time, memory, arcs with edge counts, Kahn ranks) is
/// diffed field by field against a fresh build_view() at every view (each
/// coarsening level, compaction merge, refinement pass and finalize); and
/// every movable-index pick of the balance refinement is diffed against
/// the linear scan of the source block. Throws std::logic_error naming the
/// step and index of the first disagreement. O(n + E) per check and view;
/// not for production use. `audit`, if given, receives what was audited.
BlockPartition block_partition_checked(const AtomicPartition& ap,
                                       const GraphProfiler& prof,
                                       const BlockPartitionConfig& cfg,
                                       BlockAudit* audit = nullptr);

}  // namespace detail

}  // namespace rannc
