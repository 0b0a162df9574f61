#include "partition/block.h"

#include <algorithm>
#include <climits>
#include <deque>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rannc {

namespace {

/// Comp-level weighted edge (activation bytes crossing between components).
struct CompEdge {
  int from = 0;
  int to = 0;
  std::int64_t bytes = 0;
};

/// Epoch-stamped membership set over [0, n): clear() is O(1), so a check
/// never allocates or zeroes an n-sized array.
class StampSet {
 public:
  void resize(std::size_t n) {
    stamp_.assign(n, 0);
    epoch_ = 1;
  }
  void clear() {
    if (++epoch_ == 0) {  // wrapped: forget every stale stamp
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  [[nodiscard]] bool contains(int i) const {
    return stamp_[static_cast<std::size_t>(i)] == epoch_;
  }
  /// Adds `i`; false if it was already present.
  bool insert(int i) {
    std::uint32_t& s = stamp_[static_cast<std::size_t>(i)];
    if (s == epoch_) return false;
    s = epoch_;
    return true;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

/// Working state shared by the three steps. Groups are tracked as an
/// assignment comp -> group id; group ids are compacted between steps.
class Partitioner {
 public:
  /// `checked` diffs every incremental cycle check against the full
  /// quotient rebuild (`quotient_acyclic`) and throws on disagreement.
  Partitioner(const AtomicPartition& ap, const GraphProfiler& prof,
              const BlockPartitionConfig& cfg, bool checked)
      : ap_(ap), cfg_(cfg), checked_(checked) {
    const TaskGraph& g = ap.graph;
    const int n = static_cast<int>(ap.comps.size());
    comp_time_f_.resize(static_cast<std::size_t>(n));
    comp_time_b_.resize(static_cast<std::size_t>(n));
    comp_params_.resize(static_cast<std::size_t>(n));
    comp_act_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      double tf = 0, tb = 0;
      std::int64_t pb = 0, ab = 0;
      for (TaskId t : ap.comps[static_cast<std::size_t>(i)].tasks) {
        tf += prof.task_time_f(t, cfg.profile_batch, /*standalone=*/false);
        tb += prof.task_time_b(t, cfg.profile_batch, /*standalone=*/false);
        for (ValueId in : g.task(t).inputs)
          if (g.value(in).kind == ValueKind::Param) pb += g.value(in).bytes();
        ab += static_cast<std::int64_t>(
            static_cast<double>(g.value(g.task(t).output).bytes()) *
            static_cast<double>(cfg.profile_batch) * prof.act_factor());
      }
      comp_time_f_[static_cast<std::size_t>(i)] = tf;
      comp_time_b_[static_cast<std::size_t>(i)] = tb;
      comp_params_[static_cast<std::size_t>(i)] = pb;
      comp_act_[static_cast<std::size_t>(i)] = ab;
    }
    // Inter-component edges: every non-constant output consumed by another
    // component. One edge per (producer comp, consumer comp, value), bytes
    // scaled to the profiling batch.
    comp_adj_.resize(static_cast<std::size_t>(n));
    comp_radj_.resize(static_cast<std::size_t>(n));
    for (const Value& v : g.values()) {
      if (v.producer == kNoTask || v.kind == ValueKind::Param) continue;
      const int pc = ap.comp_of_task[static_cast<std::size_t>(v.producer)];
      std::vector<int> seen;
      for (TaskId c : v.consumers) {
        const int cc = ap.comp_of_task[static_cast<std::size_t>(c)];
        if (cc == pc ||
            std::find(seen.begin(), seen.end(), cc) != seen.end())
          continue;
        seen.push_back(cc);
        const auto bytes = static_cast<std::int64_t>(
            static_cast<double>(v.bytes()) *
            static_cast<double>(cfg.profile_batch) * prof.act_factor());
        const int e = static_cast<int>(edges_.size());
        edges_.push_back({pc, cc, bytes});
        comp_adj_[static_cast<std::size_t>(pc)].push_back(e);
        comp_radj_[static_cast<std::size_t>(cc)].push_back(e);
      }
    }
    group_of_comp_.resize(static_cast<std::size_t>(n));
    std::iota(group_of_comp_.begin(), group_of_comp_.end(), 0);
    in_move_.resize(static_cast<std::size_t>(n));
    seen_.resize(static_cast<std::size_t>(n));
  }

  BlockPartition run() {
    {
      obs::Scope sc("phase2:coarsen");
      step_ = "coarsen";
      coarsen();
    }
    if (cfg_.uncoarsening) {
      obs::Scope sc("phase2:uncoarsen");
      step_ = "uncoarsen";
      uncoarsen();
    }
    {
      obs::Scope sc("phase2:compact");
      compact();
    }
    if (cfg_.balance_refinement) {
      obs::Scope sc("phase2:refine");
      step_ = "refine";
      balance_refine();
    }
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("partition.block.cycle_checks").add(cycle_checks_);
    m.counter("partition.block.cycle_check_comps").add(cycle_check_comps_);
    return finalize();
  }

 private:
  struct GroupView {
    std::vector<std::vector<int>> comps;  // group id -> comps
    std::vector<double> time;             // fwd+bwd
    std::vector<std::int64_t> mem;
    std::vector<std::vector<int>> succ;   // quotient successors (dedup)
    std::vector<std::vector<int>> pred;
    std::vector<int> rank;                // topological rank
  };

  /// Memory footprint estimate of a group: fp32 Adam training state
  /// (weights + grads + two moments = 16 bytes/param) plus activations at
  /// the profiling batch size.
  [[nodiscard]] std::int64_t group_mem(std::int64_t params_bytes,
                                       std::int64_t act_bytes) const {
    return 4 * params_bytes + act_bytes;
  }

  /// Builds a compacted view of the current partition. Group ids are
  /// renumbered densely; group_of_comp_ is rewritten accordingly, and the
  /// incremental check state (members_, ord_, pos_) is reset from the view.
  GroupView build_view() {
    // Renumber group ids densely.
    std::vector<int> remap(group_of_comp_.size(), -1);
    int next = 0;
    for (int& gid : group_of_comp_) {
      if (remap[static_cast<std::size_t>(gid)] < 0)
        remap[static_cast<std::size_t>(gid)] = next++;
      gid = remap[static_cast<std::size_t>(gid)];
    }
    GroupView gv;
    gv.comps.resize(static_cast<std::size_t>(next));
    gv.time.assign(static_cast<std::size_t>(next), 0);
    std::vector<std::int64_t> params(static_cast<std::size_t>(next), 0);
    std::vector<std::int64_t> act(static_cast<std::size_t>(next), 0);
    for (std::size_t c = 0; c < group_of_comp_.size(); ++c) {
      const auto gid = static_cast<std::size_t>(group_of_comp_[c]);
      gv.comps[gid].push_back(static_cast<int>(c));
      gv.time[gid] += comp_time_f_[c] + comp_time_b_[c];
      params[gid] += comp_params_[c];
      act[gid] += comp_act_[c];
    }
    gv.mem.resize(static_cast<std::size_t>(next));
    for (int i = 0; i < next; ++i)
      gv.mem[static_cast<std::size_t>(i)] =
          group_mem(params[static_cast<std::size_t>(i)],
                    act[static_cast<std::size_t>(i)]);
    gv.succ.resize(static_cast<std::size_t>(next));
    gv.pred.resize(static_cast<std::size_t>(next));
    for (const CompEdge& e : edges_) {
      const int a = group_of_comp_[static_cast<std::size_t>(e.from)];
      const int b = group_of_comp_[static_cast<std::size_t>(e.to)];
      if (a != b) {
        gv.succ[static_cast<std::size_t>(a)].push_back(b);
        gv.pred[static_cast<std::size_t>(b)].push_back(a);
      }
    }
    for (auto& v : gv.succ) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    for (auto& v : gv.pred) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    gv.rank = topo_rank(gv);
    members_ = gv.comps;
    pos_ = gv.rank;
    ord_.resize(static_cast<std::size_t>(next));
    for (int gid = 0; gid < next; ++gid)
      ord_[static_cast<std::size_t>(pos_[static_cast<std::size_t>(gid)])] = gid;
    return gv;
  }

  /// Full acyclicity check of the current quotient (group_of_comp_ +
  /// edges_): rebuilds the quotient and runs Kahn's algorithm, O(n + E).
  /// Kept only as the oracle the checked entry diffs `move_if_acyclic`
  /// against.
  [[nodiscard]] bool quotient_acyclic() const {
    const int n = static_cast<int>(group_of_comp_.size());
    std::vector<int> indeg(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
    for (const CompEdge& e : edges_) {
      const int a = group_of_comp_[static_cast<std::size_t>(e.from)];
      const int b = group_of_comp_[static_cast<std::size_t>(e.to)];
      if (a != b) {
        succ[static_cast<std::size_t>(a)].push_back(b);
        ++indeg[static_cast<std::size_t>(b)];
      }
    }
    std::deque<int> q;
    std::vector<char> is_group(static_cast<std::size_t>(n), 0);
    for (int g : group_of_comp_) is_group[static_cast<std::size_t>(g)] = 1;
    int groups = 0;
    for (int g = 0; g < n; ++g)
      if (is_group[static_cast<std::size_t>(g)]) {
        ++groups;
        if (indeg[static_cast<std::size_t>(g)] == 0) q.push_back(g);
      }
    int visited = 0;
    while (!q.empty()) {
      const int u = q.front();
      q.pop_front();
      ++visited;
      for (int v : succ[static_cast<std::size_t>(u)])
        if (--indeg[static_cast<std::size_t>(v)] == 0) q.push_back(v);
    }
    return visited == groups;
  }

  // ---- incremental cycle check ---------------------------------------------
  // Every step changes the partition by one operation: move the comp set S
  // out of its group H into the group T (a coarsening merge moves all of H).
  // The move only removes quotient edges at H and only adds edges at T, so
  // starting from an acyclic quotient, every new cycle passes through T:
  // T -> y ~> x -> T, with y an out-neighbour and x an in-neighbour of T
  // after the move, and the path y ~> x avoiding T. That path uses only
  // edges that already existed, so along it the maintained topological
  // order ord_ strictly increases: the move closes a cycle iff a DFS from
  // the out-neighbours, restricted to groups ranked <= max rank of an
  // in-neighbour, reaches T. When every in-neighbour ranks before T and
  // every out-neighbour after it, no DFS is needed and ord_ stays valid.

  /// Moves the comps `s` (all in group `h`) into group `t` iff that keeps
  /// the quotient acyclic; returns whether it did.
  bool move_if_acyclic(std::span<const int> s, int h, int t) {
    const bool expect = checked_ && acyclic_after_move(s, t);
    const bool ok = check_and_move(s, h, t);
    if (checked_) audit(ok, expect);
    return ok;
  }

  /// Group of comp `c` once the marked move set (in_move_) sits in `t`.
  [[nodiscard]] int group_after(int c, int t) const {
    return in_move_.contains(c) ? t
                                : group_of_comp_[static_cast<std::size_t>(c)];
  }

  bool check_and_move(std::span<const int> s, int h, int t) {
    ++cycle_checks_;
    in_move_.clear();
    for (int c : s) in_move_.insert(c);
    const int rt = pos_[static_cast<std::size_t>(t)];
    // In- and out-neighbours that S brings to T. T's own in-neighbours all
    // rank before rt and its own out-neighbours after rt.
    int max_in = -1;
    int min_out = INT_MAX;
    outs_.clear();
    cycle_check_comps_ += static_cast<std::int64_t>(s.size());
    for (int c : s) {
      for (int e : comp_radj_[static_cast<std::size_t>(c)]) {
        const int g = group_after(edges_[static_cast<std::size_t>(e)].from, t);
        if (g != t)
          max_in = std::max(max_in, pos_[static_cast<std::size_t>(g)]);
      }
      for (int e : comp_adj_[static_cast<std::size_t>(c)]) {
        const int g = group_after(edges_[static_cast<std::size_t>(e)].to, t);
        if (g == t) continue;
        min_out = std::min(min_out, pos_[static_cast<std::size_t>(g)]);
        outs_.push_back(g);
      }
    }
    if (max_in < rt && min_out > rt) {  // ord_ stays a topological order
      apply_move(s, h, t);
      return true;
    }
    // The DFS bound is the highest rank of any in-neighbour after the move.
    // If S brings one after rt, T's own out-neighbours can start a cycle
    // below it; otherwise T's own in-neighbours may set the bound.
    const auto& tm = members_[static_cast<std::size_t>(t)];
    cycle_check_comps_ += static_cast<std::int64_t>(tm.size());
    if (max_in > rt) {
      for (int c : tm)
        for (int e : comp_adj_[static_cast<std::size_t>(c)]) {
          const int g = group_after(edges_[static_cast<std::size_t>(e)].to, t);
          if (g != t) outs_.push_back(g);
        }
    } else {
      for (int c : tm)
        for (int e : comp_radj_[static_cast<std::size_t>(c)]) {
          const int g =
              group_after(edges_[static_cast<std::size_t>(e)].from, t);
          if (g != t)
            max_in = std::max(max_in, pos_[static_cast<std::size_t>(g)]);
        }
    }
    seen_.clear();
    stack_.clear();
    for (int g : outs_)
      if (pos_[static_cast<std::size_t>(g)] <= max_in && seen_.insert(g))
        stack_.push_back(g);
    while (!stack_.empty()) {
      const int u = stack_.back();
      stack_.pop_back();
      const auto& um = members_[static_cast<std::size_t>(u)];
      cycle_check_comps_ += static_cast<std::int64_t>(um.size());
      for (int c : um) {
        if (u == h && in_move_.contains(c)) continue;
        for (int e : comp_adj_[static_cast<std::size_t>(c)]) {
          const int g = group_after(edges_[static_cast<std::size_t>(e)].to, t);
          if (g == u) continue;
          if (g == t) return false;  // T -> ... -> u -> T
          if (pos_[static_cast<std::size_t>(g)] <= max_in && seen_.insert(g))
            stack_.push_back(g);
        }
      }
    }
    apply_move(s, h, t);
    repair_order(t, std::min(rt, min_out), max_in);
    return true;
  }

  /// Restores ord_ after an accepted move into `t`. The DFS set F (seen_)
  /// holds every group reachable from T's out-neighbours within rank
  /// `bound` (= max in-neighbour rank). Only the rank window [lo, hi]
  /// changes: its groups ranked <= bound outside F keep their order and
  /// precede T, then come F, then the groups ranked > bound (all of which
  /// rank before rt, so no in-neighbour is among them).
  void repair_order(int t, int lo, int bound) {
    const int rt = pos_[static_cast<std::size_t>(t)];
    const int hi = std::max(rt, bound);
    if (lo >= hi) return;
    window_.clear();
    for (int r = lo; r <= hi; ++r) {
      const int g = ord_[static_cast<std::size_t>(r)];
      if (g != t && r <= bound && !seen_.contains(g)) window_.push_back(g);
    }
    window_.push_back(t);
    for (int r = lo; r <= hi; ++r) {
      const int g = ord_[static_cast<std::size_t>(r)];
      if (g != t && seen_.contains(g)) window_.push_back(g);
    }
    for (int r = std::max(lo, bound + 1); r <= hi; ++r) {
      const int g = ord_[static_cast<std::size_t>(r)];
      if (g != t) window_.push_back(g);
    }
    for (std::size_t i = 0; i < window_.size(); ++i) {
      const int r = lo + static_cast<int>(i);
      ord_[static_cast<std::size_t>(r)] = window_[i];
      pos_[static_cast<std::size_t>(window_[i])] = r;
    }
  }

  /// Commits the marked move set (in_move_ == `s`) from `h` into `t`.
  void apply_move(std::span<const int> s, int h, int t) {
    auto& tm = members_[static_cast<std::size_t>(t)];
    for (int c : s) {
      group_of_comp_[static_cast<std::size_t>(c)] = t;
      tm.push_back(c);
    }
    auto& hm = members_[static_cast<std::size_t>(h)];
    if (hm.size() == s.size()) {
      hm.clear();
    } else {
      hm.erase(std::remove_if(hm.begin(), hm.end(),
                              [&](int c) { return in_move_.contains(c); }),
               hm.end());
    }
  }

  // ---- the oracle (checked entry only) -------------------------------------
  /// Full-rebuild answer for "move `s` into `t`", leaving state unchanged.
  [[nodiscard]] bool acyclic_after_move(std::span<const int> s, int t) {
    std::vector<int> saved;
    saved.reserve(s.size());
    for (int c : s) {
      saved.push_back(group_of_comp_[static_cast<std::size_t>(c)]);
      group_of_comp_[static_cast<std::size_t>(c)] = t;
    }
    const bool ok = quotient_acyclic();
    for (std::size_t i = 0; i < s.size(); ++i)
      group_of_comp_[static_cast<std::size_t>(s[i])] = saved[i];
    return ok;
  }

  /// Throws on the first check that disagrees with the oracle, or that
  /// leaves ord_ no longer a topological order of the quotient.
  void audit(bool got, bool expect) const {
    const std::string where = std::string(step_) + " check #" +
                              std::to_string(cycle_checks_ - 1);
    if (got != expect)
      throw std::logic_error(
          "block_partition: " + where + ": incremental check says " +
          (got ? "acyclic" : "cycle") + ", full quotient rebuild says " +
          (expect ? "acyclic" : "cycle"));
    for (const CompEdge& e : edges_) {
      const int a = group_of_comp_[static_cast<std::size_t>(e.from)];
      const int b = group_of_comp_[static_cast<std::size_t>(e.to)];
      if (a != b && pos_[static_cast<std::size_t>(a)] >=
                        pos_[static_cast<std::size_t>(b)])
        throw std::logic_error("block_partition: " + where +
                               ": maintained order is no longer topological");
    }
  }

  /// Kahn topological ranks; throws if the quotient has a cycle (would mean
  /// a convexity invariant was violated).
  static std::vector<int> topo_rank(const GroupView& gv) {
    const int n = static_cast<int>(gv.comps.size());
    std::vector<int> indeg(static_cast<std::size_t>(n), 0);
    for (int u = 0; u < n; ++u)
      for (int v : gv.succ[static_cast<std::size_t>(u)])
        ++indeg[static_cast<std::size_t>(v)];
    std::deque<int> q;
    for (int u = 0; u < n; ++u)
      if (indeg[static_cast<std::size_t>(u)] == 0) q.push_back(u);
    std::vector<int> rank(static_cast<std::size_t>(n), -1);
    int next = 0;
    while (!q.empty()) {
      const int u = q.front();
      q.pop_front();
      rank[static_cast<std::size_t>(u)] = next++;
      for (int v : gv.succ[static_cast<std::size_t>(u)])
        if (--indeg[static_cast<std::size_t>(v)] == 0) q.push_back(v);
    }
    if (next != n) throw std::logic_error("block quotient graph has a cycle");
    return rank;
  }

  /// True iff a path u ->+ x exists in the quotient that passes through at
  /// least one intermediate group. Pruned DFS using topological ranks.
  bool indirect_path(const GroupView& gv, int u, int x) {
    const int limit = gv.rank[static_cast<std::size_t>(x)];
    seen_.clear();
    stack_.clear();
    for (int s : gv.succ[static_cast<std::size_t>(u)]) {
      if (s == x) continue;  // direct edge: allowed
      if (gv.rank[static_cast<std::size_t>(s)] < limit && seen_.insert(s))
        stack_.push_back(s);
    }
    while (!stack_.empty()) {
      const int cur = stack_.back();
      stack_.pop_back();
      for (int s : gv.succ[static_cast<std::size_t>(cur)]) {
        if (s == x) return true;
        if (gv.rank[static_cast<std::size_t>(s)] < limit && seen_.insert(s))
          stack_.push_back(s);
      }
    }
    return false;
  }

  /// Merge feasibility: adjacent + convex + within device memory.
  [[nodiscard]] bool can_merge(const GroupView& gv, int a, int b) {
    if (cfg_.device_memory > 0 &&
        gv.mem[static_cast<std::size_t>(a)] +
                gv.mem[static_cast<std::size_t>(b)] >
            cfg_.device_memory)
      return false;
    // Orient by topological rank; DAG guarantees one direction only.
    const int u = gv.rank[static_cast<std::size_t>(a)] <
                          gv.rank[static_cast<std::size_t>(b)]
                      ? a
                      : b;
    const int x = u == a ? b : a;
    return !indirect_path(gv, u, x);
  }

  // ---- coarsening ---------------------------------------------------------
  void coarsen() {
    // Target block time (criterion 1 of Section III-B: balance of the
    // blocks' computation times). Merges that would exceed the ideal
    // per-block share are deferred; the compaction step performs the few
    // remaining over-target merges in best-balance order. Without the cap,
    // halting a pairwise-matching level midway leaves blocks of ~2x
    // different sizes, which quantizes the stage-level balance.
    double total_time = 0;
    for (std::size_t c = 0; c < group_of_comp_.size(); ++c)
      total_time += comp_time_f_[c] + comp_time_b_[c];
    const double time_cap = total_time / std::max(1, cfg_.k);
    while (true) {
      GroupView gv = build_view();
      const int n = static_cast<int>(gv.comps.size());
      if (n <= cfg_.k) break;

      // Visit groups in ascending computation time (paper Section III-B).
      std::vector<int> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return gv.time[static_cast<std::size_t>(a)] <
               gv.time[static_cast<std::size_t>(b)];
      });

      std::vector<char> consumed(static_cast<std::size_t>(n), 0);
      std::vector<std::pair<int, int>> merges;
      int remaining = n;
      for (int v : order) {
        if (consumed[static_cast<std::size_t>(v)]) continue;
        if (remaining <= cfg_.k) break;
        int best = -1;
        double best_time = 0;
        auto consider = [&](int w) {
          if (w == v || consumed[static_cast<std::size_t>(w)]) return;
          const double t = gv.time[static_cast<std::size_t>(v)] +
                           gv.time[static_cast<std::size_t>(w)];
          if (t > time_cap) return;  // defer over-target merges to compaction
          if (!can_merge(gv, v, w)) return;
          if (best < 0 || t < best_time) {
            best = w;
            best_time = t;
          }
        };
        for (int w : gv.succ[static_cast<std::size_t>(v)]) consider(w);
        for (int w : gv.pred[static_cast<std::size_t>(v)]) consider(w);
        consumed[static_cast<std::size_t>(v)] = 1;
        if (best >= 0) {
          consumed[static_cast<std::size_t>(best)] = 1;
          merges.emplace_back(v, best);
          --remaining;
        }
      }
      if (merges.empty()) break;  // |G_L| == |G_{L+1}|: no progress

      // Record history for uncoarsening, then apply the merges one at a
      // time, each only if it keeps the quotient acyclic: merges checked
      // pairwise against the same snapshot can jointly create a cycle, so
      // offenders are skipped (they may merge at a later level).
      LevelHistory hist;
      bool applied_any = false;
      for (auto [a, b] : merges) {
        const auto& ca = gv.comps[static_cast<std::size_t>(a)];
        const auto& cb = gv.comps[static_cast<std::size_t>(b)];
        if (!move_if_acyclic(
                cb, group_of_comp_[static_cast<std::size_t>(cb.front())],
                group_of_comp_[static_cast<std::size_t>(ca.front())]))
          continue;
        applied_any = true;
        hist.pairs.push_back({ca, cb});
      }
      if (!applied_any) break;  // every candidate merge would create a cycle
      history_.push_back(std::move(hist));
      ++result_levels_;
    }
  }

  // ---- uncoarsening -------------------------------------------------------
  /// Bytes of comp edges between the comp set `sub` and the group `gid`
  /// (excluding comps of `sub` itself, which in_move_ must hold).
  [[nodiscard]] std::int64_t bytes_between(const std::vector<int>& sub,
                                           int gid) const {
    std::int64_t total = 0;
    for (int c : sub) {
      for (int e : comp_adj_[static_cast<std::size_t>(c)]) {
        const int o = edges_[static_cast<std::size_t>(e)].to;
        if (!in_move_.contains(o) &&
            group_of_comp_[static_cast<std::size_t>(o)] == gid)
          total += edges_[static_cast<std::size_t>(e)].bytes;
      }
      for (int e : comp_radj_[static_cast<std::size_t>(c)]) {
        const int o = edges_[static_cast<std::size_t>(e)].from;
        if (!in_move_.contains(o) &&
            group_of_comp_[static_cast<std::size_t>(o)] == gid)
          total += edges_[static_cast<std::size_t>(e)].bytes;
      }
    }
    return total;
  }

  void uncoarsen() {
    // Walk the merge history from the coarsest level back to level 0,
    // trying to move each recorded sub-group into an adjacent block when
    // that strictly reduces inter-block communication (paper Fig. 3(b)).
    // Moves are applied to the *current* top-level partition and thereby
    // propagate to all coarser levels, as the paper requires.
    for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
      for (const auto& pr : it->pairs) {
        try_move(pr.first);
        try_move(pr.second);
      }
    }
  }

  void try_move(const std::vector<int>& sub) {
    if (sub.empty()) return;
    // The sub-group must currently live entirely inside one block, and must
    // not be the whole block (a whole-block move is a merge, not a
    // boundary adjustment).
    const int home = group_of_comp_[static_cast<std::size_t>(sub.front())];
    for (int c : sub)
      if (group_of_comp_[static_cast<std::size_t>(c)] != home) return;
    if (members_[static_cast<std::size_t>(home)].size() == sub.size())
      return;

    // Candidate targets: blocks adjacent to any comp of `sub`.
    std::vector<int> cands;
    in_move_.clear();
    for (int c : sub) in_move_.insert(c);
    for (int c : sub) {
      for (int e : comp_adj_[static_cast<std::size_t>(c)]) {
        const int o = edges_[static_cast<std::size_t>(e)].to;
        const int og = group_of_comp_[static_cast<std::size_t>(o)];
        if (!in_move_.contains(o) && og != home) cands.push_back(og);
      }
      for (int e : comp_radj_[static_cast<std::size_t>(c)]) {
        const int o = edges_[static_cast<std::size_t>(e)].from;
        const int og = group_of_comp_[static_cast<std::size_t>(o)];
        if (!in_move_.contains(o) && og != home) cands.push_back(og);
      }
    }
    std::sort(cands.begin(), cands.end());
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    if (cands.empty()) return;

    const std::int64_t stay_bytes = bytes_between(sub, home);
    int best = -1;
    std::int64_t best_gain = 0;
    for (int t : cands) {
      const std::int64_t gain = bytes_between(sub, t) - stay_bytes;
      if (gain > best_gain) {
        best = t;
        best_gain = gain;
      }
    }
    if (best < 0) return;

    // The move must fit the target's memory and keep the quotient acyclic.
    if (cfg_.device_memory > 0) {
      std::int64_t params = 0, act = 0;
      const auto add = [&](int c) {
        params += comp_params_[static_cast<std::size_t>(c)];
        act += comp_act_[static_cast<std::size_t>(c)];
      };
      for (int c : members_[static_cast<std::size_t>(best)]) add(c);
      for (int c : sub) add(c);
      if (group_mem(params, act) > cfg_.device_memory) return;
    }
    if (move_if_acyclic(sub, home, best)) ++result_moves_;
  }

  // ---- compaction ---------------------------------------------------------
  void compact() {
    while (true) {
      GroupView gv = build_view();
      const int n = static_cast<int>(gv.comps.size());
      if (n <= cfg_.k) break;

      // Topologically sorted positions: pos[i] = group at rank i.
      std::vector<int> pos(static_cast<std::size_t>(n));
      for (int gid = 0; gid < n; ++gid)
        pos[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(gid)])] =
            gid;
      std::vector<int> order(static_cast<std::size_t>(n));
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return gv.time[static_cast<std::size_t>(a)] <
               gv.time[static_cast<std::size_t>(b)];
      });

      bool merged = false;
      for (int v : order) {
        const int r = gv.rank[static_cast<std::size_t>(v)];
        int cand[2] = {-1, -1};
        if (r > 0) cand[0] = pos[static_cast<std::size_t>(r - 1)];
        if (r + 1 < n) cand[1] = pos[static_cast<std::size_t>(r + 1)];
        // Prefer the smaller-time neighbor (paper Section III-B).
        if (cand[0] >= 0 && cand[1] >= 0 &&
            gv.time[static_cast<std::size_t>(cand[1])] <
                gv.time[static_cast<std::size_t>(cand[0])])
          std::swap(cand[0], cand[1]);
        for (int w : cand) {
          if (w < 0) continue;
          if (cfg_.device_memory > 0 &&
              gv.mem[static_cast<std::size_t>(v)] +
                      gv.mem[static_cast<std::size_t>(w)] >
                  cfg_.device_memory)
            continue;
          const int target = group_of_comp_[static_cast<std::size_t>(
              gv.comps[static_cast<std::size_t>(v)].front())];
          for (int c : gv.comps[static_cast<std::size_t>(w)])
            group_of_comp_[static_cast<std::size_t>(c)] = target;
          merged = true;
          ++result_compaction_;
          break;
        }
        if (merged) break;  // rebuild the view after every merge
      }
      if (!merged) break;  // memory-bound: cannot reach k blocks
    }
  }

  // ---- balance refinement -------------------------------------------------
  // Extension beyond the paper's three steps: after compaction, atomic
  // components are shifted across adjacent block boundaries so that the
  // cumulative block time tracks the ideal prefix (i+1) * total/k. The
  // paper's coarsening targets balance but is quantized by its pairwise
  // merges; when the stage DP later packs only a few blocks per stage
  // (very large models), residual block skew becomes stage skew directly.
  // Moves preserve convexity by construction: a component with no successor
  // inside its block may always move to the next block of the topological
  // chain (and symmetrically backwards); each move is additionally
  // validated against the quotient and the memory budget.
  void balance_refine() {
    for (int iter = 0; iter < 64; ++iter) {
      GroupView gv = build_view();
      const int n = static_cast<int>(gv.comps.size());
      if (n < 2) return;
      double total = 0;
      for (double t : gv.time) total += t;
      const double target = total / n;
      const double tol = 0.01 * target;
      std::vector<int> pos(static_cast<std::size_t>(n));
      for (int gid = 0; gid < n; ++gid)
        pos[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(gid)])] = gid;

      bool changed = false;
      double cum = 0;
      for (int r = 0; r + 1 < n; ++r) {
        const int here = pos[static_cast<std::size_t>(r)];
        const int next = pos[static_cast<std::size_t>(r + 1)];
        cum += gv.time[static_cast<std::size_t>(here)];
        // Push overshoot right / pull undershoot left. The moved component
        // must not exceed twice the deviation, so the deviation strictly
        // shrinks and the loops terminate.
        for (int guard = 0; guard < 256; ++guard) {
          const double over = cum - (r + 1) * target;
          if (over > tol) {
            const double tc = move_across(gv, here, next, true, 2 * over);
            if (tc <= 0) break;
            cum -= tc;
            changed = true;
          } else if (over < -tol) {
            const double tc = move_across(gv, next, here, false, -2 * over);
            if (tc <= 0) break;
            cum += tc;
            changed = true;
          } else {
            break;
          }
        }
      }
      if (!changed) return;
    }
  }

  /// Moves the largest movable component with time in (0, max_tc] from
  /// `src` across the boundary to the adjacent block `dst`. `forward` means
  /// dst follows src in the topological chain. Returns the moved time, or 0
  /// if no component qualifies. Updates `gv` in place.
  double move_across(GroupView& gv, int src, int dst, bool forward,
                     double max_tc) {
    if (gv.comps[static_cast<std::size_t>(src)].size() <= 1) return 0;
    int best_comp = -1;
    double best_tc = 0;
    for (int c : gv.comps[static_cast<std::size_t>(src)]) {
      const double tc = comp_time_f_[static_cast<std::size_t>(c)] +
                        comp_time_b_[static_cast<std::size_t>(c)];
      if (tc <= 0 || tc > max_tc || tc <= best_tc) continue;
      // Boundary-side check: no successor (forward) / predecessor
      // (backward) inside the source block.
      bool boundary_free = true;
      const auto& nbr = forward ? comp_adj_[static_cast<std::size_t>(c)]
                                : comp_radj_[static_cast<std::size_t>(c)];
      for (int e : nbr) {
        const int o = forward ? edges_[static_cast<std::size_t>(e)].to
                              : edges_[static_cast<std::size_t>(e)].from;
        if (group_of_comp_[static_cast<std::size_t>(o)] ==
            group_of_comp_[static_cast<std::size_t>(c)]) {
          boundary_free = false;
          break;
        }
      }
      if (!boundary_free) continue;
      best_comp = c;
      best_tc = tc;
    }
    if (best_comp < 0) return 0;
    const std::int64_t cm =
        group_mem(comp_params_[static_cast<std::size_t>(best_comp)],
                  comp_act_[static_cast<std::size_t>(best_comp)]);
    if (cfg_.device_memory > 0 &&
        gv.mem[static_cast<std::size_t>(dst)] + cm > cfg_.device_memory)
      return 0;
    const int dst_gid = group_of_comp_[static_cast<std::size_t>(
        gv.comps[static_cast<std::size_t>(dst)].front())];
    const int src_gid = group_of_comp_[static_cast<std::size_t>(best_comp)];
    // Defensive: reject convexity-breaking moves.
    if (!move_if_acyclic(std::span<const int>(&best_comp, 1), src_gid,
                         dst_gid))
      return 0;
    gv.time[static_cast<std::size_t>(src)] -= best_tc;
    gv.time[static_cast<std::size_t>(dst)] += best_tc;
    gv.mem[static_cast<std::size_t>(src)] -= cm;
    gv.mem[static_cast<std::size_t>(dst)] += cm;
    auto& sc = gv.comps[static_cast<std::size_t>(src)];
    sc.erase(std::find(sc.begin(), sc.end(), best_comp));
    gv.comps[static_cast<std::size_t>(dst)].push_back(best_comp);
    ++result_moves_;
    return best_tc;
  }

  // ---- finalize -----------------------------------------------------------
  BlockPartition finalize() {
    GroupView gv = build_view();
    const int n = static_cast<int>(gv.comps.size());
    BlockPartition bp;
    bp.blocks.resize(static_cast<std::size_t>(n));
    bp.block_of_comp.resize(group_of_comp_.size());
    // Order blocks by topological rank so stage-level DP can treat them as
    // a consecutive sequence (paper Section III-C).
    for (int gid = 0; gid < n; ++gid) {
      Block& blk =
          bp.blocks[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(gid)])];
      blk.comps = gv.comps[static_cast<std::size_t>(gid)];
      std::sort(blk.comps.begin(), blk.comps.end());
      for (int c : blk.comps) {
        bp.block_of_comp[static_cast<std::size_t>(c)] =
            gv.rank[static_cast<std::size_t>(gid)];
        const AtomicComponent& ac = ap_.comps[static_cast<std::size_t>(c)];
        blk.tasks.insert(blk.tasks.end(), ac.tasks.begin(), ac.tasks.end());
        blk.time_f += comp_time_f_[static_cast<std::size_t>(c)];
        blk.time_b += comp_time_b_[static_cast<std::size_t>(c)];
        blk.param_bytes += comp_params_[static_cast<std::size_t>(c)];
        blk.act_bytes += comp_act_[static_cast<std::size_t>(c)];
      }
      std::sort(blk.tasks.begin(), blk.tasks.end());
    }
    for (const CompEdge& e : edges_)
      if (bp.block_of_comp[static_cast<std::size_t>(e.from)] !=
          bp.block_of_comp[static_cast<std::size_t>(e.to)])
        bp.cut_bytes += e.bytes;
    bp.coarsen_levels = result_levels_;
    bp.uncoarsen_moves = result_moves_;
    bp.compaction_merges = result_compaction_;
    return bp;
  }

  struct LevelHistory {
    std::vector<std::pair<std::vector<int>, std::vector<int>>> pairs;
  };

  const AtomicPartition& ap_;
  BlockPartitionConfig cfg_;
  std::vector<double> comp_time_f_, comp_time_b_;
  std::vector<std::int64_t> comp_params_, comp_act_;
  std::vector<CompEdge> edges_;
  std::vector<std::vector<int>> comp_adj_, comp_radj_;  // edge indices
  std::vector<int> group_of_comp_;
  // Incremental cycle-check state, reset by build_view(): member comps per
  // group, a topological order of the current groups (ord_[rank] = group,
  // pos_[group] = rank), and reusable scratch.
  std::vector<std::vector<int>> members_;
  std::vector<int> ord_, pos_;
  StampSet in_move_;  // comps of the set being moved
  StampSet seen_;     // groups visited by a DFS
  std::vector<int> stack_, outs_, window_;
  bool checked_ = false;
  const char* step_ = "coarsen";
  std::int64_t cycle_checks_ = 0;
  std::int64_t cycle_check_comps_ = 0;
  std::vector<LevelHistory> history_;
  int result_levels_ = 0;
  int result_moves_ = 0;
  int result_compaction_ = 0;
};

}  // namespace

BlockPartition block_partition(const AtomicPartition& ap,
                               const GraphProfiler& prof,
                               const BlockPartitionConfig& cfg) {
  if (ap.comps.empty()) throw std::invalid_argument("empty atomic partition");
  return Partitioner(ap, prof, cfg, /*checked=*/false).run();
}

namespace detail {

BlockPartition block_partition_checked(const AtomicPartition& ap,
                                       const GraphProfiler& prof,
                                       const BlockPartitionConfig& cfg) {
  if (ap.comps.empty()) throw std::invalid_argument("empty atomic partition");
  return Partitioner(ap, prof, cfg, /*checked=*/true).run();
}

}  // namespace detail

}  // namespace rannc
