// Phase 3 — stage-level partitioning (paper Section III-C, Algorithm 1).
//
// Given a topologically-ordered sequence of units (normally the k blocks
// from phase 2; atomic components for the Section IV-C ablation variant),
// the DP `form_stage_dp` splits the sequence into S consecutive stages and
// assigns each stage a number of devices (= stage replicas within one
// pipeline) so that the bottleneck per-microbatch time, V = max t_f + max
// t_b, is minimized subject to the device-memory constraint.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace rannc {

/// What `profile(U, batch)` returns for a candidate stage U.
struct StageProfile {
  double t_f = 0;         ///< forward seconds per microbatch (incl. comm out)
  double t_b = 0;         ///< backward seconds per microbatch (incl. recompute)
  std::int64_t mem = 0;   ///< device memory required by one replica
};

/// Profiles the candidate stage made of units (lo, hi] — i.e. unit indices
/// lo+1 .. hi in 1-based block terms — at per-replica microbatch size
/// `bsize`. `microbatches` and `num_stages` are needed for the in-flight
/// activation count and the gradient-checkpointing decision.
using RangeProfileFn = std::function<StageProfile(
    int lo, int hi, std::int64_t bsize, int microbatches, int num_stages)>;

/// Admissible lower bound for the candidate stage (lo, hi]: `time` must
/// lower-bound t_f + t_b, and `mem` the replica memory, over EVERY device
/// count the DP can assign the range (in practice: the profile at the
/// smallest reachable per-replica microbatch — times and memory are
/// monotone in the microbatch size, which shrinks as devices are added).
struct StageBound {
  double time = 0;
  std::int64_t mem = 0;
};
using RangeBoundFn = std::function<StageBound(int lo, int hi)>;

struct StageDpInput {
  int num_units = 0;           ///< |B|
  int num_stages = 0;          ///< S
  int num_devices = 0;         ///< D (devices available to one pipeline)
  std::int64_t batch_size = 0; ///< BS (global mini-batch)
  int replica_factor = 1;      ///< R (whole-pipeline data-parallel copies)
  int microbatches = 1;        ///< MB
  std::int64_t device_memory = 0;  ///< M
  /// Abort the search once this many DP cells have been visited (0 = no
  /// limit). Emulates the paper's 24-hour search timeout for the
  /// no-coarsening ablation (Section IV-C).
  std::int64_t max_cells = 0;
  /// Optional cross-invocation budget. When set, every invocation sharing
  /// the counter draws its cell visits from it and `max_cells` bounds the
  /// *sum* across all of them — this is how auto_partition gives the whole
  /// concurrent (S, MB) sweep one budget. When null, `max_cells` bounds
  /// this invocation alone (the legacy semantics). Whether the shared
  /// budget is exhausted at all is deterministic (it only depends on the
  /// total demand), but *which* concurrent invocation observes the
  /// exhaustion first is scheduling-dependent; callers must treat any
  /// aborted invocation as aborting the whole sweep.
  std::atomic<std::int64_t>* shared_cells = nullptr;
  /// Reuse the StageProfile across (d, dp) pairs with equal stage_devs =
  /// d - dp within one (s, b) iteration: the profile depends on dp only
  /// through stage_devs, so the descending d loop re-queries identical
  /// ranges. Avoided queries are counted in `profile_queries_saved`.
  /// Off reproduces the legacy one-query-per-cell behaviour; the solution
  /// is identical either way.
  bool reuse_equal_stage_devs = true;
  RangeProfileFn profile;

  // ---- branch-and-bound hooks (PR 10); all optional ---------------------
  // Every cut below is *strict* (fires only when a lower bound exceeds the
  // incumbent, never on equality) and every bound admissible, so the DP's
  // returned solution is bit-identical to the exhaustive run whenever this
  // invocation's optimum can still beat (or tie) the incumbent; invocations
  // whose optimum is strictly dominated may return a worse or infeasible
  // solution, which by construction cannot affect the sweep's winner.
  /// Admissible per-range lower bound; null disables range-level pruning.
  RangeBoundFn bound;
  /// suffix_bound[b] lower-bounds the bottleneck V of any stage covering
  /// units from the suffix (b, N] (max of per-unit bounds). Size N+1 when
  /// set; used to cut whole (s, b) columns against the incumbent.
  const double* suffix_bound = nullptr;
  /// Best iteration estimate so far across the sweep, stored as the bit
  /// pattern of a positive double (their IEEE order matches uint64 order).
  /// Read-only here; null disables incumbent pruning.
  const std::atomic<std::uint64_t>* incumbent = nullptr;
  /// remaining_load[b] lower-bounds the summed t_f + t_b of the units of
  /// the suffix (b, N]. Size N+1 when set; the column cut spreads it over
  /// the S - s stages left, so V >= remaining_load[b] / (S - s).
  const double* remaining_load = nullptr;
  /// Every incumbent cut compares estimate_floor(x, est_scale, total_load,
  /// allreduce_floor) against the incumbent, for a floor x on the
  /// bottleneck V of the solutions it would drop. est_scale is the
  /// microbatch count; total_load floors the summed t_f + t_b of all
  /// stages and allreduce_floor the slowest stage's gradient all-reduce
  /// (with both 0 the floor is est_scale * x, less the slack).
  double est_scale = 0;
  double total_load = 0;
  double allreduce_floor = 0;
  /// Job-level V lower bound (max over suffix_bound[0..N-1]); re-checked at
  /// the batched budget cadence so a job dominated by a sibling's newly
  /// published incumbent aborts mid-DP (`dominated`).
  double job_bound = 0;
  /// Take the incumbent-free cuts. (a) Skip ranges whose `bound().mem`
  /// exceeds device_memory before the (d, dp) loops run (memory is
  /// microbatch-monotone, so the floor is admissible for every device
  /// count). (b) Restrict the s == S layer to the only column/device count
  /// the answer reads (b == N, d == D), and skip cells whose prefix
  /// V[s-1][bp][dp] lies outside the span of that prefix column's finite
  /// cells (such a cell can set no value, no clipped flag and no cut).
  /// (c) Skip a cell before its profile lookup when its prefix value
  /// already reaches the target's V[s][b][d]: max(tf', t_f) + max(tb', t_b)
  /// rounds to at least tf' + tb' (IEEE addition is monotone), and an
  /// update needs a strict improvement.
  bool prune = false;
};

struct StageDpSolution {
  bool feasible = false;
  bool aborted = false;  ///< search budget (max_cells) exhausted
  /// Aborted because the incumbent proved this invocation cannot win (the
  /// estimate floor at job_bound exceeded it mid-DP). Distinct from
  /// `aborted`: a dominated job is a successful prune, not a budget
  /// exhaustion.
  bool dominated = false;
  /// b_i: exclusive end-unit of stage i (stage i = units (b_{i-1}, b_i]).
  std::vector<int> stage_end;
  /// Devices (stage replicas within one pipeline) per stage: d_i - d_{i-1}.
  std::vector<int> stage_devices;
  double max_tf = 0;  ///< bottleneck forward time across stages
  double max_tb = 0;
  [[nodiscard]] double value() const { return max_tf + max_tb; }
  // Search diagnostics.
  std::int64_t dp_cells_visited = 0;
  std::int64_t profile_queries = 0;
  /// Queries avoided by the equal-stage_devs reuse (see StageDpInput).
  std::int64_t profile_queries_saved = 0;
  // Branch-and-bound accounting (zero when the hooks are unset).
  std::int64_t ranges_mem_pruned = 0;
  std::int64_t ranges_bound_pruned = 0;
  std::int64_t columns_pruned = 0;
  std::int64_t paths_pruned = 0;
  std::int64_t bound_queries = 0;
};

/// Relative slack on every estimate floor. The floors are sums and
/// products of the same table reads the estimate is made of, evaluated in
/// another order, so rounding could lift an exact floor a few ulps over
/// the estimate it bounds; scaling by 1 - 1e-9 keeps it below.
inline constexpr double kFloorSlack = 1.0 - 1e-9;

/// Admissible floor on the iteration estimate of any GPipe plan with
/// bottleneck V >= x, MB = est_scale microbatches, summed stage time
/// sum_s (t_f,s + t_b,s) >= total_load and slowest all-reduce >=
/// allreduce_floor. The makespan is sum_s (t_f,s + t_b,s) + (MB - 1) * V
/// (gpipe_iteration) and the sum is >= max(total_load, V), so it is at
/// least MB * V + max(0, total_load - V), which is nondecreasing in V.
[[nodiscard]] inline double estimate_floor(double x, double est_scale,
                                           double total_load,
                                           double allreduce_floor) {
  const double rest = total_load > x ? total_load - x : 0.0;
  return (est_scale * x + rest + allreduce_floor) * kFloorSlack;
}

/// Algorithm 1 (form_stage_dp). Returns an infeasible solution when
/// V[S, |B|, D] stays infinite.
StageDpSolution form_stage_dp(const StageDpInput& in);

}  // namespace rannc
