#include "partition/stage_dp.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/trace.h"

namespace rannc {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Cell visits are flushed to a shared budget counter in batches, so the
/// atomic is touched ~once per kFlush cells instead of once per cell. A
/// concurrent sweep can therefore overshoot the budget by at most
/// kFlush * threads cells — the budget is a work cap, not an exact count.
constexpr std::int64_t kFlush = 4096;
}

StageDpSolution form_stage_dp(const StageDpInput& in) {
  const int S = in.num_stages;
  const int N = in.num_units;
  const int D = in.num_devices;
  StageDpSolution sol;
  if (S <= 0 || N <= 0 || D <= 0 || S > N || S > D || !in.profile)
    return sol;

  obs::Scope sc(
      [&] {
        return "form_stage_dp S=" + std::to_string(S) +
               " N=" + std::to_string(N) + " D=" + std::to_string(D);
      },
      "dp");
  sc.arg("microbatches", in.microbatches);

  // V[s][b][d]: best bottleneck value using s stages over the first b units
  // with d devices. tf/tb track the bottleneck components; bp_* are
  // backpointers for reconstruction.
  const auto idx = [N, D](int s, int b, int d) {
    return (static_cast<std::size_t>(s) * static_cast<std::size_t>(N + 1) +
            static_cast<std::size_t>(b)) *
               static_cast<std::size_t>(D + 1) +
           static_cast<std::size_t>(d);
  };
  const std::size_t cells = static_cast<std::size_t>(S + 1) *
                            static_cast<std::size_t>(N + 1) *
                            static_cast<std::size_t>(D + 1);
  std::vector<double> V(cells, kInf), tf(cells, 0), tb(cells, 0);
  std::vector<int> bp_b(cells, -1), bp_d(cells, -1);
  // Deviation from the pseudocode's line 6 (V_{s=0,b,d} = 0 for all b, d):
  // only the empty prefix with zero devices is a valid base case; any other
  // (b, d) would let the first stage skip units or strand devices on an
  // empty prefix.
  V[idx(0, 0, 0)] = 0;
  // fin_lo/fin_hi[(s, b)]: smallest/largest d with a finite V[s][b][d]
  // (empty span: D + 1 / -1). The structural cut skips prefix cells
  // outside that span.
  const auto col = [N](int s, int b) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(N + 1) +
           static_cast<std::size_t>(b);
  };
  std::vector<int> fin_lo(static_cast<std::size_t>(S + 1) *
                              static_cast<std::size_t>(N + 1),
                          D + 1),
      fin_hi(fin_lo.size(), -1);
  fin_lo[col(0, 0)] = fin_hi[col(0, 0)] = 0;

  // Budget accounting. With a shared counter the per-cell check becomes a
  // batched flush (see kFlush); without one the legacy exact per-cell
  // comparison is kept.
  std::int64_t unflushed_cells = 0;
  const auto budget_exceeded = [&]() -> bool {
    if (in.max_cells <= 0) return false;
    if (in.shared_cells == nullptr)
      return sol.dp_cells_visited > in.max_cells;
    if (unflushed_cells < kFlush) return false;
    in.shared_cells->fetch_add(unflushed_cells, std::memory_order_relaxed);
    unflushed_cells = 0;
    return in.shared_cells->load(std::memory_order_relaxed) > in.max_cells;
  };
  const auto flush_cells = [&] {
    if (in.shared_cells && unflushed_cells > 0) {
      in.shared_cells->fetch_add(unflushed_cells, std::memory_order_relaxed);
      unflushed_cells = 0;
    }
  };

  // Incumbent channel: the best iteration estimate published by any job of
  // the sweep so far. Re-read at the same batched cadence as the budget
  // (one relaxed load per kFlush cells) plus once per column; a stale read
  // only prunes less, never wrongly.
  const bool use_inc = in.incumbent != nullptr && in.est_scale > 0;
  // The estimate floor of every solution whose bottleneck V is >= x.
  const auto floor_of = [&in](double x) {
    return estimate_floor(x, in.est_scale, in.total_load, in.allreduce_floor);
  };
  double I = kInf;  // current incumbent estimate
  const auto load_incumbent = [&] {
    if (use_inc)
      I = std::bit_cast<double>(in.incumbent->load(std::memory_order_relaxed));
  };
  load_incumbent();
  std::int64_t cells_since_refresh = 0;

  // Per-column cache of range lower bounds: bound(bp, b) is independent of
  // (d, dp), but the bp loop re-runs for every d of the column.
  const bool use_bound = static_cast<bool>(in.bound);
  struct BoundEnt {
    std::uint32_t epoch = 0;
    StageBound b;
  };
  std::vector<BoundEnt> bcache;
  if (use_bound) bcache.assign(static_cast<std::size_t>(N), BoundEnt{});

  // Per-(s, b) StageProfile reuse across equal stage_devs = d - dp: the
  // profile of range (bp, b] depends on (d, dp) only through stage_devs,
  // which the descending d loop would otherwise re-query for every d.
  struct CacheEnt {
    std::uint32_t epoch = 0;
    StageProfile p;
  };
  std::vector<CacheEnt> pcache;
  if (in.reuse_equal_stage_devs)
    pcache.assign(static_cast<std::size_t>(N) *
                      static_cast<std::size_t>(D + 1),
                  CacheEnt{});
  std::uint32_t epoch = 0;

  // Largest stage_devs whose per-replica microbatch stays >= 1.
  const std::int64_t max_stage_devs =
      in.batch_size / in.replica_factor / in.microbatches;
  // bsize_of[k]: per-replica microbatch of a stage with k devices.
  std::vector<std::int64_t> bsize_of(static_cast<std::size_t>(D) + 1, 0);
  for (int k = 1; k <= D; ++k)
    bsize_of[static_cast<std::size_t>(k)] = max_stage_devs / k;
  int d_min = 1;
  // Set when any incumbent-dependent cut (column, range or path) skipped a
  // candidate. From then on an infinite cell may be evidence of domination
  // rather than of a memory failure — and infinities propagate through the
  // prevV reads of later layers — so the d_min advancement below must stay
  // off for the rest of the invocation to keep winner-path cells exact.
  bool incumbent_cut_fired = false;
  for (int s = 1; s <= S; ++s) {
    for (int b = s; b <= N - S + s; ++b) {
      // Structural cut: the answer reads only V[S][N][D], so the final
      // layer's other columns (and, below, device counts) are dead work.
      if (in.prune && s == S && b != N) {
        ++sol.columns_pruned;
        continue;
      }
      ++epoch;  // invalidates the (bp, stage_devs) profile cache
      load_incumbent();
      // Suffix cut: any completion of this column still places the units
      // (b, N] in the S - s later stages, so its bottleneck V is at least
      // suffix_bound[b] (the worst unit) and remaining_load[b] / (S - s)
      // (the busiest stage's share); a floor strictly above the incumbent
      // means no solution through this column can win or tie.
      if (use_inc && s < S) {
        double x = in.suffix_bound ? in.suffix_bound[b] : 0.0;
        if (in.remaining_load)
          x = std::max(x, in.remaining_load[b] / static_cast<double>(S - s));
        if (floor_of(x) > I) {
          ++sol.columns_pruned;
          incumbent_cut_fired = true;
          continue;
        }
      }
      // Structural cut: the last layer's answer is read at d == D only.
      const int d_stop = in.prune && s == S ? std::max(d_min, D)
                                             : std::max(d_min, s);
      for (int d = D - (S - s); d >= d_stop; --d) {
        bool bsize_clipped = false;
        for (int bp = s - 1; bp <= b - 1; ++bp) {
          if (use_bound) {
            // Range cuts, cached per (column, bp): admissible floors on
            // the candidate stage (bp, b] at ANY device count.
            BoundEnt& be = bcache[static_cast<std::size_t>(bp)];
            if (be.epoch != epoch) {
              ++sol.bound_queries;
              be.b = in.bound(bp, b);
              be.epoch = epoch;
            }
            if (in.prune && in.device_memory > 0 &&
                be.b.mem > in.device_memory) {
              // The memory floor (profiled at the smallest reachable
              // microbatch) already overflows: no device count fits. The
              // skipped candidates must still set bsize_clipped exactly as
              // the exhaustive loop below would (a feasible prefix whose
              // stage_devs rounds the microbatch down to 0), or d_min
              // advances where the exhaustive engine's does not and cuts
              // the optimum from every later column and layer.
              ++sol.ranges_mem_pruned;
              for (int dp = s - 1; dp < d - max_stage_devs && !bsize_clipped;
                   ++dp)
                bsize_clipped = V[idx(s - 1, bp, dp)] != kInf;
              continue;
            }
            if (use_inc && floor_of(be.b.time) > I) {
              ++sol.ranges_bound_pruned;
              incumbent_cut_fired = true;
              continue;  // any solution using this stage is dominated
            }
          }
          int dp_lo = s - 1;
          int dp_hi = d - 1;
          if (in.prune) {
            // A cell whose prefix V[s-1][bp][dp] is infinite sets no
            // value, no bsize_clipped and no cut: skip the spans around
            // the prefix column's finite cells.
            dp_lo = std::max(dp_lo, fin_lo[col(s - 1, bp)]);
            dp_hi = std::min(dp_hi, fin_hi[col(s - 1, bp)]);
          }
          for (int dp = dp_lo; dp <= dp_hi; ++dp) {
            ++sol.dp_cells_visited;
            ++unflushed_cells;
            if (++cells_since_refresh >= kFlush) {
              cells_since_refresh = 0;
              load_incumbent();
              if (use_inc && in.job_bound > 0 && floor_of(in.job_bound) > I) {
                // A sibling's newly published incumbent dominates this
                // whole invocation — abort it as pruned, not as a budget
                // exhaustion.
                sol.dominated = true;
                flush_cells();
                return sol;
              }
            }
            if (budget_exceeded()) {
              sol.aborted = true;
              flush_cells();
              return sol;
            }
            const double prevV = V[idx(s - 1, bp, dp)];
            if (prevV == kInf) continue;  // previous stages infeasible
            if (use_inc && floor_of(prevV) > I) {
              ++sol.paths_pruned;  // prefix alone already dominated
              incumbent_cut_fired = true;
              continue;
            }
            const int stage_devs = d - dp;
            const std::int64_t bsize =
                bsize_of[static_cast<std::size_t>(stage_devs)];
            if (bsize < 1) {
              bsize_clipped = true;  // too many replicas for this microbatch
              continue;
            }
            // Cannot improve the target (see StageDpInput::prune (c)). A
            // finite target also makes bsize_clipped irrelevant for (s, b, d).
            if (in.prune && prevV >= V[idx(s, b, d)]) continue;
            StageProfile p;
            if (in.reuse_equal_stage_devs) {
              CacheEnt& ce =
                  pcache[static_cast<std::size_t>(bp) *
                             static_cast<std::size_t>(D + 1) +
                         static_cast<std::size_t>(stage_devs)];
              if (ce.epoch == epoch) {
                ++sol.profile_queries_saved;
                p = ce.p;
              } else {
                ++sol.profile_queries;
                p = in.profile(bp, b, bsize, in.microbatches, S);
                ce.epoch = epoch;
                ce.p = p;
              }
            } else {
              ++sol.profile_queries;
              p = in.profile(bp, b, bsize, in.microbatches, S);
            }
            if (in.device_memory > 0 && p.mem > in.device_memory)
              continue;  // does not fit the device memory
            const double ntf = std::max(tf[idx(s - 1, bp, dp)], p.t_f);
            const double ntb = std::max(tb[idx(s - 1, bp, dp)], p.t_b);
            const double v = ntf + ntb;
            if (v < V[idx(s, b, d)]) {
              fin_lo[col(s, b)] = std::min(fin_lo[col(s, b)], d);
              fin_hi[col(s, b)] = std::max(fin_hi[col(s, b)], d);
              V[idx(s, b, d)] = v;
              tf[idx(s, b, d)] = ntf;
              tb[idx(s, b, d)] = ntb;
              bp_b[idx(s, b, d)] = bp;
              bp_d[idx(s, b, d)] = dp;
            }
          }
        }
        if (V[idx(s, b, d)] == kInf && !bsize_clipped &&
            !incumbent_cut_fired) {
          // No solution with d devices for memory reasons: fewer devices
          // only increase the per-replica batch (and therefore memory), so
          // no smaller d can succeed either (paper: d_min <- d + 1). The
          // prune must NOT fire when the failure was a microbatch clipped
          // to zero — that happens with too MANY devices and smaller d
          // would succeed — nor once any incumbent cut has skipped a
          // candidate, since infinities may then mean domination rather
          // than memory (see incumbent_cut_fired above).
          d_min = d + 1;
          break;
        }
      }
    }
  }

  flush_cells();
  if (V[idx(S, N, D)] == kInf) return sol;

  sol.feasible = true;
  sol.max_tf = tf[idx(S, N, D)];
  sol.max_tb = tb[idx(S, N, D)];
  sol.stage_end.resize(static_cast<std::size_t>(S));
  sol.stage_devices.resize(static_cast<std::size_t>(S));
  int b = N, d = D;
  for (int s = S; s >= 1; --s) {
    const int pb = bp_b[idx(s, b, d)];
    const int pd = bp_d[idx(s, b, d)];
    if (pb < 0 || pd < 0) throw std::logic_error("stage DP backpointer hole");
    sol.stage_end[static_cast<std::size_t>(s - 1)] = b;
    sol.stage_devices[static_cast<std::size_t>(s - 1)] = d - pd;
    b = pb;
    d = pd;
  }
  return sol;
}

}  // namespace rannc
