// The partition-search request/result API.
//
// `SearchRequest` is a typed request: what to partition for (cluster,
// precision, optimizer, global batch), how hard to look (SearchBudget),
// and whether the sweep may take branch-and-bound cuts (`prune`).
// `SearchResult` pairs the winning plan with the search statistics,
// including the prune counters.
//
// Invariant: the returned *plan* is bit-identical across every thread
// count and pruned vs exhaustive mode. Pruning uses
// admissible lower bounds and strictly dominated cuts only (see
// docs/ALGORITHMS.md §12), so it can never remove the winner or perturb the
// deterministic (n, S, MB) tie-break; only the work counters (cells
// visited, queries, prune totals) change.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/verifier.h"
#include "cluster/cluster_spec.h"
#include "partition/auto_partitioner.h"
#include "profiler/memory.h"
#include "util/thread_pool.h"

namespace rannc {

/// How much work the search may spend.
struct SearchBudget {
  /// Global DP cell cap shared by every stage-DP invocation of the sweep
  /// (0 = unlimited), a safety cap for the Section IV-C ablation whose DP
  /// is O(|B|^2 D^2 S). The cap is drawn from one atomic counter, so
  /// whether it is exhausted depends only on the total demand: the
  /// aborted-vs-completed outcome is identical at any thread count.
  std::int64_t max_dp_cells = 0;
  /// Worker threads for the sweep, at most kMaxThreads (util/thread_pool.h).
  /// 0 = RANNC_THREADS env (capped at kMaxThreads), else 1.
  int threads = 0;
};

/// A complete, validated description of one partition search.
struct SearchRequest {
  ClusterSpec cluster;
  Precision precision = Precision::FP32;
  OptimizerKind optimizer = OptimizerKind::Adam;
  std::int64_t batch_size = 256;  ///< global mini-batch BS
  int num_blocks = 32;            ///< k for block-level partitioning
  /// Fraction of device memory usable for model state.
  double memory_margin = 0.9;
  /// false selects the Section IV-C ablation (DP over atomic components).
  bool use_coarsening = true;
  SearchBudget budget;
  /// Branch-and-bound cuts: memory floors, roofline/comm time floors and a
  /// live incumbent shared across the (S, MB) sweep. Every cut preserves
  /// the winning plan exactly; false is the exhaustive reference engine.
  bool prune = true;

  [[nodiscard]] std::int64_t usable_memory() const {
    return static_cast<std::int64_t>(
        static_cast<double>(cluster.device.memory_bytes) * memory_margin);
  }

  /// Checks the request for obvious misuse; one diagnostic per violation
  /// (stable DiagCodes: BadBatchSize, BadMemoryMargin, BadThreadCount,
  /// BadBlockCount, EmptyCluster, BadCellBudget). Empty
  /// result = valid. auto_partition calls this at entry and throws
  /// std::invalid_argument listing every error.
  [[nodiscard]] std::vector<Diagnostic> validate() const;
};

/// The winning plan plus the search's accounting.
struct SearchResult {
  PartitionResult plan;

  [[nodiscard]] bool feasible() const { return plan.feasible; }
  [[nodiscard]] const SearchStats& stats() const { return plan.stats; }
  [[nodiscard]] const PruneStats& prune() const { return plan.stats.prune; }
};

/// Runs the full RaNNC partitioning pipeline on `model` — the primary
/// entry point. Branch-and-bound is governed by `req.prune`; defaults give
/// the pruned search. Passing a TaskGraph verifies it on the way in
/// (analysis::VerifiedGraph): a malformed graph or a builder shape bug
/// would silently skew the roofline profile, block balance and stage DP,
/// so it throws std::logic_error before any partitioning work.
SearchResult auto_partition(const VerifiedGraph& model,
                            const SearchRequest& req);

namespace detail {

/// Test-only access to the stage profiles the Phase-3 sweep reads. Runs
/// Phases 1-2 of auto_partition(model, req) and builds the per-microbatch
/// profile tables exactly as the sweep does. `oracle` evaluates the same
/// formula with no shared table: it rebuilds that microbatch's prefix sums
/// on the spot, calls partitioner_comm_time per query and applies
/// stage_memory. The two must agree bit for bit.
class SweepProfiles {
 public:
  SweepProfiles(const TaskGraph& model, const SearchRequest& req);
  ~SweepProfiles();

  [[nodiscard]] int num_units() const;
  /// Every microbatch size the sweep can query, ascending.
  [[nodiscard]] const std::vector<std::int64_t>& bsizes() const;
  [[nodiscard]] StageProfile table(int lo, int hi, std::int64_t bsize,
                                   int microbatches, int num_stages) const;
  [[nodiscard]] StageProfile oracle(int lo, int hi, std::int64_t bsize,
                                    int microbatches, int num_stages) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace detail

}  // namespace rannc
