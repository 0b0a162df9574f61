#include "partition/block.h"

#include <algorithm>
#include <array>
#include <climits>
#include <deque>
#include <memory_resource>
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

/// Quotient arc to a neighbouring group. `edges` counts the comp edges
/// behind it, so the arc disappears with its last comp edge.
struct Arc {
  int group = 0;
  int edges = 0;
  friend bool operator==(const Arc&, const Arc&) = default;
};

void add_arc(std::pmr::vector<Arc>& arcs, int group, int edges) {
  for (Arc& a : arcs)
    if (a.group == group) {
      a.edges += edges;
      return;
    }
  arcs.push_back({group, edges});
}

void drop_arc(std::pmr::vector<Arc>& arcs, int group, int edges) {
  for (Arc& a : arcs)
    if (a.group == group) {
      a.edges -= edges;
      if (a.edges == 0) {
        a = arcs.back();
        arcs.pop_back();
      }
      return;
    }
}

/// Re-points the arc towards `from` in `arcs` to `to`, merging it into an
/// existing arc towards `to`.
void repoint_arc(std::pmr::vector<Arc>& arcs, int from, int to) {
  std::size_t f = arcs.size(), t = arcs.size();
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (arcs[i].group == from) f = i;
    if (arcs[i].group == to) t = i;
  }
  if (t == arcs.size()) {
    arcs[f].group = to;
    return;
  }
  arcs[t].edges += arcs[f].edges;
  arcs[f] = arcs.back();
  arcs.pop_back();
}

/// The group-level quotient of the comp graph, indexed by group slot. Its
/// many small lists draw from one memory resource.
struct Quotient {
  explicit Quotient(std::pmr::memory_resource* mr)
      : members(mr), succ(mr), pred(mr) {}
  std::pmr::vector<std::pmr::vector<int>> members;  // group -> comps
  std::vector<double> time;                         // fwd+bwd
  std::vector<std::int64_t> mem;
  std::pmr::vector<std::pmr::vector<Arc>> succ;
  std::pmr::vector<std::pmr::vector<Arc>> pred;
};

/// Adjacency in compressed rows: the neighbours of i are
/// ids[at[i] .. at[i + 1]).
struct Csr {
  std::vector<int> at{0};
  std::vector<int> ids;
  [[nodiscard]] std::span<const int> operator[](std::size_t i) const {
    return {ids.data() + at[i], ids.data() + at[i + 1]};
  }
  /// `rows` rows holding the value of each (row, value) pair, in pair order.
  static Csr of(std::size_t rows,
                const std::vector<std::pair<int, int>>& pairs) {
    Csr r;
    r.at.assign(rows + 1, 0);
    for (auto [row, v] : pairs) ++r.at[static_cast<std::size_t>(row) + 1];
    for (std::size_t i = 0; i < rows; ++i) r.at[i + 1] += r.at[i];
    r.ids.resize(pairs.size());
    std::vector<int> fill(r.at.begin(), r.at.end() - 1);
    for (auto [row, v] : pairs)
      r.ids[static_cast<std::size_t>(fill[static_cast<std::size_t>(row)]++)] =
          v;
    return r;
  }
};

/// Dense snapshot of a quotient in build_view()'s numbering: groups ordered
/// by their smallest comp, adjacency ascending, Kahn topological ranks.
struct GroupView {
  std::vector<int> slot;  // dense id -> group slot
  std::vector<double> time;
  std::vector<std::int64_t> mem;
  Csr succ;  // dense ids, ascending
  Csr pred;
  std::vector<int> rank;
};

/// Movable-index entry. Entries sort by time descending, then by the comp's
/// position in its block's member list, which is what the linear scan's
/// "largest time, first listed wins ties" rule amounts to.
struct Movable {
  double neg_time = 0;
  int key = 0;  // position key, see Partitioner::key_
  int comp = 0;
  bool operator<(const Movable& o) const {
    return neg_time != o.neg_time ? neg_time < o.neg_time : key < o.key;
  }
};

/// Working state shared by the three steps. Groups live in stable slots
/// (comp -> slot); one quotient over the slots is built from the comps once
/// and updated in place by every merge and move.
class Partitioner {
 public:
  /// `checked` diffs every incremental cycle check against the full
  /// quotient rebuild (`quotient_acyclic`), the carried quotient against
  /// `build_view()` at every view, and every indexed refinement pick
  /// against the linear scan; it throws on disagreement.
  Partitioner(const AtomicPartition& ap, const GraphProfiler& prof,
              const BlockPartitionConfig& cfg, bool checked,
              detail::BlockAudit* audit)
      : ap_(ap), cfg_(cfg), checked_(checked), audit_(audit) {
    const TaskGraph& g = ap.graph;
    const int n = static_cast<int>(ap.comps.size());
    const auto un = static_cast<std::size_t>(n);
    comp_time_f_.resize(un);
    comp_time_b_.resize(un);
    comp_time_.resize(un);
    comp_params_.resize(un);
    comp_act_.resize(un);
    comp_mem_.resize(un);
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
      const auto ui = static_cast<std::size_t>(i);
      comp_time_f_[ui] = tf;
      comp_time_b_[ui] = tb;
      comp_time_[ui] = tf + tb;
      comp_params_[ui] = pb;
      comp_act_[ui] = ab;
      comp_mem_[ui] = group_mem(pb, ab);
    }
    // Inter-component edges: every non-constant output consumed by another
    // component. One edge per (producer comp, consumer comp, value), bytes
    // scaled to the profiling batch.
    StampSet consumers;
    consumers.resize(un);
    for (const Value& v : g.values()) {
      if (v.producer == kNoTask || v.kind == ValueKind::Param) continue;
      const int pc = ap.comp_of_task[static_cast<std::size_t>(v.producer)];
      consumers.clear();
      for (TaskId c : v.consumers) {
        const int cc = ap.comp_of_task[static_cast<std::size_t>(c)];
        if (cc == pc || !consumers.insert(cc)) continue;
        const auto bytes = static_cast<std::int64_t>(
            static_cast<double>(v.bytes()) *
            static_cast<double>(cfg.profile_batch) * prof.act_factor());
        edges_.push_back({pc, cc, bytes});
      }
    }
    // Per-comp neighbour rows in edge order, one entry per comp edge.
    std::vector<std::pair<int, int>> by_from, by_to;  // (comp, edge)
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      by_from.emplace_back(edges_[e].from, static_cast<int>(e));
      by_to.emplace_back(edges_[e].to, static_cast<int>(e));
    }
    out_ = Csr::of(un, by_from);
    in_ = Csr::of(un, by_to);
    for (int& e : out_.ids) {
      out_bytes_.push_back(edges_[static_cast<std::size_t>(e)].bytes);
      e = edges_[static_cast<std::size_t>(e)].to;
    }
    for (int& e : in_.ids) {
      in_bytes_.push_back(edges_[static_cast<std::size_t>(e)].bytes);
      e = edges_[static_cast<std::size_t>(e)].from;
    }
    group_of_comp_.resize(un);
    std::iota(group_of_comp_.begin(), group_of_comp_.end(), 0);
    in_move_.resize(un);
    seen_.resize(un);
    // Every comp starts as its own group, so slots, dense ids and comp
    // indices coincide and build_view()'s quotient is the carried one.
    q_ = build_view(&arena_);
    index_in_group_.assign(un, 0);
    live_.resize(un);
    std::iota(live_.begin(), live_.end(), 0);
    dense_.resize(un);
    pos_.resize(un);
    dirty_flag_.assign(un, 0);
    min_comp_ = live_;
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
      step_ = "compact";
      compact();
    }
    if (cfg_.balance_refinement) {
      obs::Scope sc("phase2:refine");
      step_ = "refine";
      balance_refine();
    }
    step_ = "finalize";
    BlockPartition bp = finalize();
    obs::MetricsRegistry& m = obs::metrics();
    m.counter("partition.block.cycle_checks").add(cycle_checks_);
    m.counter("partition.block.cycle_check_comps").add(cycle_check_comps_);
    m.counter("partition.block.views_built").add(views_built_);
    m.counter("partition.block.merges_proposed").add(merges_proposed_);
    m.counter("partition.block.merges_applied").add(merges_applied_);
    m.counter("partition.block.merges_rejected")
        .add(merges_proposed_ - merges_applied_);
    m.counter("partition.block.refine_moves").add(refine_moves_);
    m.counter("partition.block.refine_comps_examined").add(refine_examined_);
    return bp;
  }

 private:
  /// Memory footprint estimate of a group: fp32 Adam training state
  /// (weights + grads + two moments = 16 bytes/param) plus activations at
  /// the profiling batch size.
  [[nodiscard]] static std::int64_t group_mem(std::int64_t params_bytes,
                                              std::int64_t act_bytes) {
    return 4 * params_bytes + act_bytes;
  }

  /// Builds the quotient of the current assignment from the comps, with
  /// groups renumbered densely in order of their smallest comp. O(n + E log
  /// E). Seeds the carried quotient once per call; afterwards it runs only
  /// as the checked entry's oracle.
  [[nodiscard]] Quotient build_view(std::pmr::memory_resource* mr) {
    ++views_built_;
    std::vector<int> dense(group_of_comp_.size(), -1);
    int next = 0;
    for (int gid : group_of_comp_)
      if (dense[static_cast<std::size_t>(gid)] < 0)
        dense[static_cast<std::size_t>(gid)] = next++;
    const auto un = static_cast<std::size_t>(next);
    Quotient q(mr);
    q.members.resize(un);
    q.time.assign(un, 0);
    std::vector<std::int64_t> params(un, 0);
    std::vector<std::int64_t> act(un, 0);
    for (std::size_t c = 0; c < group_of_comp_.size(); ++c) {
      const auto gid = static_cast<std::size_t>(
          dense[static_cast<std::size_t>(group_of_comp_[c])]);
      q.members[gid].push_back(static_cast<int>(c));
      q.time[gid] += comp_time_[c];
      params[gid] += comp_params_[c];
      act[gid] += comp_act_[c];
    }
    q.mem.resize(un);
    for (std::size_t i = 0; i < un; ++i)
      q.mem[i] = group_mem(params[i], act[i]);
    // The comp edges between groups, in rows by source (by target for
    // pred), counted into arcs.
    std::vector<std::pair<int, int>> cross;
    for (const CompEdge& e : edges_) {
      const int a = dense[static_cast<std::size_t>(
          group_of_comp_[static_cast<std::size_t>(e.from)])];
      const int b = dense[static_cast<std::size_t>(
          group_of_comp_[static_cast<std::size_t>(e.to)])];
      if (a != b) cross.emplace_back(a, b);
    }
    q.succ.resize(un);
    q.pred.resize(un);
    count_arcs(cross, q.succ);
    for (auto& [a, b] : cross) std::swap(a, b);
    count_arcs(cross, q.pred);
    return q;
  }

  /// Counts the (from, to) group pairs into arcs, ascending by group.
  static void count_arcs(const std::vector<std::pair<int, int>>& cross,
                         std::pmr::vector<std::pmr::vector<Arc>>& arcs) {
    Csr rows = Csr::of(arcs.size(), cross);
    for (std::size_t g = 0; g < arcs.size(); ++g) {
      const auto lo = rows.ids.begin() + rows.at[g];
      const auto hi = rows.ids.begin() + rows.at[g + 1];
      std::sort(lo, hi);
      for (auto it = lo; it != hi; ++it) {
        if (arcs[g].empty() || arcs[g].back().group != *it)
          arcs[g].push_back({*it, 0});
        ++arcs[g].back().edges;
      }
    }
  }

  /// Fills `gv` with the dense snapshot of `q` over `slots` (already in
  /// dense order) and writes dense[slot]. O(groups + arcs log arcs).
  static void make_view(const Quotient& q, std::span<const int> slots,
                        std::vector<int>& dense, GroupView& gv) {
    gv.slot.assign(slots.begin(), slots.end());
    const std::size_t n = gv.slot.size();
    for (std::size_t i = 0; i < n; ++i)
      dense[static_cast<std::size_t>(gv.slot[i])] = static_cast<int>(i);
    gv.time.resize(n);
    gv.mem.resize(n);
    for (Csr* adj : {&gv.succ, &gv.pred}) {
      adj->at.assign(1, 0);
      adj->ids.clear();
    }
    const auto add_row = [&](const std::pmr::vector<Arc>& arcs, Csr& out) {
      for (const Arc& a : arcs)
        out.ids.push_back(dense[static_cast<std::size_t>(a.group)]);
      std::sort(out.ids.begin() + out.at.back(), out.ids.end());
      out.at.push_back(static_cast<int>(out.ids.size()));
    };
    for (std::size_t i = 0; i < n; ++i) {
      const auto g = static_cast<std::size_t>(gv.slot[i]);
      gv.time[i] = q.time[g];
      gv.mem[i] = q.mem[g];
      add_row(q.succ[g], gv.succ);
      add_row(q.pred[g], gv.pred);
    }
    topo_rank(gv);
  }

  /// The carried quotient in build_view()'s numbering and order. Re-sums the
  /// time of every group whose members changed since the last view, and
  /// resets the maintained topological order to the exact Kahn ranks.
  const GroupView& view() {
    refresh();
    std::erase_if(live_, [&](int g) {
      return q_.members[static_cast<std::size_t>(g)].empty();
    });
    std::sort(live_.begin(), live_.end(), [&](int a, int b) {
      return min_comp_[static_cast<std::size_t>(a)] <
             min_comp_[static_cast<std::size_t>(b)];
    });
    GroupView& gv = view_;
    make_view(q_, live_, dense_, gv);
    ord_.resize(gv.slot.size());
    for (std::size_t i = 0; i < gv.slot.size(); ++i) {
      pos_[static_cast<std::size_t>(gv.slot[i])] = gv.rank[i];
      ord_[static_cast<std::size_t>(gv.rank[i])] = gv.slot[i];
    }
    ++views_;
    if (checked_) audit_view(gv);
    return gv;
  }

  void touch(int g) {
    if (dirty_flag_[static_cast<std::size_t>(g)]) return;
    dirty_flag_[static_cast<std::size_t>(g)] = 1;
    dirty_.push_back(g);
  }

  /// Re-sums the time of every touched group in ascending comp order, the
  /// order build_view() adds in (a carried `time[a] += time[b]` would round
  /// differently), and finds its smallest comp. When the touched groups hold
  /// many comps, one pass over all comps beats sorting their member lists.
  void refresh() {
    std::size_t touched = 0;
    for (int g : dirty_)
      touched += q_.members[static_cast<std::size_t>(g)].size();
    if (touched * 8 > group_of_comp_.size()) {
      for (int g : dirty_) {
        q_.time[static_cast<std::size_t>(g)] = 0;
        min_comp_[static_cast<std::size_t>(g)] = -1;
      }
      for (std::size_t c = 0; c < group_of_comp_.size(); ++c) {
        const auto g = static_cast<std::size_t>(group_of_comp_[c]);
        if (!dirty_flag_[g]) continue;
        q_.time[g] += comp_time_[c];
        if (min_comp_[g] < 0) min_comp_[g] = static_cast<int>(c);
      }
    } else {
      for (int g : dirty_) {
        const auto& m = q_.members[static_cast<std::size_t>(g)];
        sorted_.assign(m.begin(), m.end());
        std::sort(sorted_.begin(), sorted_.end());
        double t = 0;
        for (int c : sorted_) t += comp_time_[static_cast<std::size_t>(c)];
        q_.time[static_cast<std::size_t>(g)] = t;
        min_comp_[static_cast<std::size_t>(g)] =
            sorted_.empty() ? -1 : sorted_.front();
      }
    }
    for (int g : dirty_) dirty_flag_[static_cast<std::size_t>(g)] = 0;
    dirty_.clear();
  }

  /// `g`'s members in ascending comp order.
  [[nodiscard]] std::vector<int> sorted_members(int g) const {
    const auto& members = q_.members[static_cast<std::size_t>(g)];
    std::vector<int> m(members.begin(), members.end());
    std::sort(m.begin(), m.end());
    return m;
  }

  // ---- the oracles (checked entry only) ------------------------------------
  /// Full acyclicity check of the current quotient (group_of_comp_ +
  /// edges_): rebuilds the quotient and runs Kahn's algorithm, O(n + E).
  /// The oracle the checked entry diffs `move_if_acyclic` against.
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

  /// Diffs the carried view field by field against a fresh build_view().
  void audit_view(const GroupView& gv) {
    const Quotient fresh = build_view(std::pmr::get_default_resource());
    std::vector<int> ids(fresh.members.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::vector<int> fresh_dense(ids.size());
    GroupView want;
    make_view(fresh, ids, fresh_dense, want);
    const auto fail = [&](const std::string& what) {
      throw std::logic_error("block_partition: " + std::string(step_) +
                             " view #" + std::to_string(views_) +
                             ": carried quotient " + what +
                             " differs from build_view()");
    };
    if (gv.slot.size() != ids.size()) fail("group count");
    const auto dense_arcs = [&](const std::pmr::vector<Arc>& arcs) {
      std::vector<Arc> out;
      for (const Arc& a : arcs)
        out.push_back({dense_[static_cast<std::size_t>(a.group)], a.edges});
      std::sort(out.begin(), out.end(), [](const Arc& x, const Arc& y) {
        return x.group < y.group;
      });
      return out;
    };
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto g = static_cast<std::size_t>(gv.slot[i]);
      const std::string of = " of group " + std::to_string(i);
      if (!std::ranges::equal(sorted_members(gv.slot[i]), fresh.members[i]))
        fail("members" + of);
      if (gv.time[i] != want.time[i]) fail("time" + of);
      if (gv.mem[i] != want.mem[i]) fail("memory" + of);
      if (!std::ranges::equal(dense_arcs(q_.succ[g]), fresh.succ[i]))
        fail("successor arcs" + of);
      if (!std::ranges::equal(dense_arcs(q_.pred[g]), fresh.pred[i]))
        fail("predecessor arcs" + of);
      if (gv.rank[i] != want.rank[i]) fail("rank" + of);
    }
    if (audit_) ++audit_->views;
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
    // A whole-group merge is checked on the quotient arcs alone: h's arcs
    // become t's. A partial move is checked on the comp edges of S (and of
    // T or a DFS group when needed), since an arc into H may or may not end
    // in S.
    const auto uh = static_cast<std::size_t>(h);
    const bool whole = s.size() == q_.members[uh].size();
    in_move_.clear();
    if (!whole)
      for (int c : s) in_move_.insert(c);
    const int rt = pos_[static_cast<std::size_t>(t)];
    // In- and out-neighbours that S brings to T. T's own in-neighbours all
    // rank before rt and its own out-neighbours after rt.
    int max_in = -1;
    int min_out = INT_MAX;
    outs_.clear();
    const auto add_in = [&](int g) {
      if (g != t) max_in = std::max(max_in, pos_[static_cast<std::size_t>(g)]);
    };
    const auto add_out = [&](int g) {
      if (g == t) return;
      min_out = std::min(min_out, pos_[static_cast<std::size_t>(g)]);
      outs_.push_back(g);
    };
    if (whole) {
      for (const Arc& a : q_.pred[uh]) add_in(a.group);
      for (const Arc& a : q_.succ[uh]) add_out(a.group);
    } else {
      cycle_check_comps_ += static_cast<std::int64_t>(s.size());
      for (int c : s) {
        const auto uc = static_cast<std::size_t>(c);
        for (int o : in_[uc]) add_in(group_after(o, t));
        for (int o : out_[uc]) add_out(group_after(o, t));
      }
    }
    if (max_in < rt && min_out > rt) {  // ord_ stays a topological order
      apply_move(s, h, t);
      return true;
    }
    // The DFS bound is the highest rank of any in-neighbour after the move.
    // If S brings one after rt, T's own out-neighbours can start a cycle
    // below it; otherwise T's own in-neighbours may set the bound.
    const auto ut = static_cast<std::size_t>(t);
    const auto& tm = q_.members[ut];
    if (whole) {
      if (max_in > rt) {
        for (const Arc& a : q_.succ[ut])
          if (a.group != h) outs_.push_back(a.group);
      } else {
        for (const Arc& a : q_.pred[ut])
          if (a.group != h) add_in(a.group);
      }
    } else {
      cycle_check_comps_ += static_cast<std::int64_t>(tm.size());
      if (max_in > rt) {
        for (int c : tm)
          for (int o : out_[static_cast<std::size_t>(c)]) {
            const int g = group_after(o, t);
            if (g != t) outs_.push_back(g);
          }
      } else {
        for (int c : tm)
          for (int o : in_[static_cast<std::size_t>(c)])
            add_in(group_after(o, t));
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
      // Returns true when g closes the cycle T -> ... -> u -> T.
      const auto visit = [&](int g) {
        if (g == u) return false;
        if (g == t) return true;
        if (pos_[static_cast<std::size_t>(g)] <= max_in && seen_.insert(g))
          stack_.push_back(g);
        return false;
      };
      if (whole) {
        for (const Arc& a : q_.succ[static_cast<std::size_t>(u)])
          if (visit(a.group == h ? t : a.group)) return false;
        continue;
      }
      const auto& um = q_.members[static_cast<std::size_t>(u)];
      cycle_check_comps_ += static_cast<std::int64_t>(um.size());
      for (int c : um) {
        if (u == h && in_move_.contains(c)) continue;
        for (int o : out_[static_cast<std::size_t>(c)])
          if (visit(group_after(o, t))) return false;
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

  // ---- carried quotient updates --------------------------------------------
  /// Commits the move set `s` (all in `h`) into `t`; a partial move needs
  /// in_move_ == `s`. Arcs change only where an edge of S crosses the old
  /// or new boundary.
  void apply_move(std::span<const int> s, int h, int t) {
    auto& hm = q_.members[static_cast<std::size_t>(h)];
    if (hm.size() == s.size()) {
      merge_groups(h, t);
      return;
    }
    std::int64_t moved_mem = 0;
    for (int c : s) {
      for (int o : out_[static_cast<std::size_t>(c)]) {
        if (in_move_.contains(o)) continue;  // stays inside S
        const int g = group_of_comp_[static_cast<std::size_t>(o)];
        if (g != h) drop_edge(h, g);
        if (g != t) add_edge(t, g);
      }
      for (int o : in_[static_cast<std::size_t>(c)]) {
        if (in_move_.contains(o)) continue;
        const int g = group_of_comp_[static_cast<std::size_t>(o)];
        if (g != h) drop_edge(g, h);
        if (g != t) add_edge(g, t);
      }
      moved_mem += comp_mem_[static_cast<std::size_t>(c)];
    }
    q_.mem[static_cast<std::size_t>(h)] -= moved_mem;
    q_.mem[static_cast<std::size_t>(t)] += moved_mem;
    auto& tm = q_.members[static_cast<std::size_t>(t)];
    for (int c : s) {
      const auto uc = static_cast<std::size_t>(c);
      const int i = index_in_group_[uc];  // swap-remove from h
      hm[static_cast<std::size_t>(i)] = hm.back();
      index_in_group_[static_cast<std::size_t>(hm.back())] = i;
      hm.pop_back();
      index_in_group_[uc] = static_cast<int>(tm.size());
      tm.push_back(c);
      group_of_comp_[uc] = t;
    }
    touch(h);
    touch(t);
  }

  void add_edge(int a, int b) {
    add_arc(q_.succ[static_cast<std::size_t>(a)], b, 1);
    add_arc(q_.pred[static_cast<std::size_t>(b)], a, 1);
  }
  void drop_edge(int a, int b) {
    drop_arc(q_.succ[static_cast<std::size_t>(a)], b, 1);
    drop_arc(q_.pred[static_cast<std::size_t>(b)], a, 1);
  }

  /// Merges the whole group `h` into `t` at the group level: h's arcs are
  /// re-pointed to t and its members appended to t's.
  void merge_groups(int h, int t) {
    const auto uh = static_cast<std::size_t>(h);
    const auto ut = static_cast<std::size_t>(t);
    for (const Arc& a : q_.succ[uh]) {
      if (a.group == t) {  // h -> t becomes internal
        drop_arc(q_.pred[ut], h, a.edges);
        continue;
      }
      add_arc(q_.succ[ut], a.group, a.edges);
      repoint_arc(q_.pred[static_cast<std::size_t>(a.group)], h, t);
    }
    for (const Arc& a : q_.pred[uh]) {
      if (a.group == t) {
        drop_arc(q_.succ[ut], h, a.edges);
        continue;
      }
      add_arc(q_.pred[ut], a.group, a.edges);
      repoint_arc(q_.succ[static_cast<std::size_t>(a.group)], h, t);
    }
    q_.succ[uh].clear();
    q_.pred[uh].clear();
    q_.mem[ut] += q_.mem[uh];
    q_.mem[uh] = 0;
    auto& hm = q_.members[uh];
    auto& tm = q_.members[ut];
    for (int c : hm) {
      const auto uc = static_cast<std::size_t>(c);
      group_of_comp_[uc] = t;
      index_in_group_[uc] = static_cast<int>(tm.size());
      tm.push_back(c);
    }
    hm.clear();
    touch(h);
    touch(t);
  }

  /// Sets gv.rank to the Kahn topological ranks (FIFO seeded in dense id
  /// order, successors in ascending id order); throws if the quotient has a
  /// cycle (would mean a convexity invariant was violated).
  static void topo_rank(GroupView& gv) {
    const auto n = gv.slot.size();
    std::vector<int> indeg(n, 0);
    for (int v : gv.succ.ids) ++indeg[static_cast<std::size_t>(v)];
    std::vector<int> fifo;  // every group enters once: a vector suffices
    fifo.reserve(n);
    for (std::size_t u = 0; u < n; ++u)
      if (indeg[u] == 0) fifo.push_back(static_cast<int>(u));
    gv.rank.assign(n, -1);
    for (std::size_t head = 0; head < fifo.size(); ++head) {
      const auto u = static_cast<std::size_t>(fifo[head]);
      gv.rank[u] = static_cast<int>(head);
      for (int v : gv.succ[u])
        if (--indeg[static_cast<std::size_t>(v)] == 0) fifo.push_back(v);
    }
    if (fifo.size() != n)
      throw std::logic_error("block quotient graph has a cycle");
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

  /// Dense ids ordered by time with std::sort, which is not stable: ties
  /// come out in an order fixed by the input order (dense id) and the
  /// comparisons made. Sorting (time, id) pairs on time alone makes exactly
  /// those comparisons and moves, so the result is that of sorting the ids
  /// by time[id], without the indirection.
  static std::vector<int> by_time(const GroupView& gv) {
    std::vector<std::pair<double, int>> tv(gv.time.size());
    for (std::size_t i = 0; i < tv.size(); ++i)
      tv[i] = {gv.time[i], static_cast<int>(i)};
    std::sort(tv.begin(), tv.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<int> order(tv.size());
    for (std::size_t i = 0; i < tv.size(); ++i) order[i] = tv[i].second;
    return order;
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
    for (double t : comp_time_) total_time += t;
    const double time_cap = total_time / std::max(1, cfg_.k);
    while (true) {
      const GroupView& gv = view();
      const int n = static_cast<int>(gv.slot.size());
      if (n <= cfg_.k) break;

      // Visit groups in ascending computation time (paper Section III-B).
      const std::vector<int> order = by_time(gv);

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
      merges_proposed_ += static_cast<std::int64_t>(merges.size());
      for (auto [a, b] : merges) {
        const int sa = gv.slot[static_cast<std::size_t>(a)];
        const int sb = gv.slot[static_cast<std::size_t>(b)];
        const auto& ma = q_.members[static_cast<std::size_t>(sa)];
        const auto& mb = q_.members[static_cast<std::size_t>(sb)];
        const std::size_t start = hist.comps.size();
        const std::size_t mid = start + ma.size();
        hist.comps.insert(hist.comps.end(), ma.begin(), ma.end());
        hist.comps.insert(hist.comps.end(), mb.begin(), mb.end());
        if (!move_if_acyclic(
                std::span<const int>(hist.comps).subspan(mid), sb, sa)) {
          hist.comps.resize(start);
          continue;
        }
        hist.at.push_back(static_cast<int>(mid));
        hist.at.push_back(static_cast<int>(hist.comps.size()));
      }
      const auto applied = static_cast<std::int64_t>(hist.at.size() - 1) / 2;
      if (applied == 0) break;  // every candidate merge would cycle
      merges_applied_ += applied;
      history_.push_back(std::move(hist));
      ++result_levels_;
    }
  }

  // ---- uncoarsening -------------------------------------------------------
  void uncoarsen() {
    // Walk the merge history from the coarsest level back to level 0,
    // trying to move each recorded sub-group into an adjacent block when
    // that strictly reduces inter-block communication (paper Fig. 3(b)).
    // Moves are applied to the *current* top-level partition and thereby
    // propagate to all coarser levels, as the paper requires.
    for (auto it = history_.rbegin(); it != history_.rend(); ++it)
      for (std::size_t i = 0; i + 1 < it->at.size(); ++i)
        try_move(std::span<const int>(
            it->comps.data() + it->at[i],
            static_cast<std::size_t>(it->at[i + 1] - it->at[i])));
  }

  void try_move(std::span<const int> sub) {
    if (sub.empty()) return;
    // The sub-group must currently live entirely inside one block, and must
    // not be the whole block (a whole-block move is a merge, not a
    // boundary adjustment).
    const int home = group_of_comp_[static_cast<std::size_t>(sub.front())];
    for (int c : sub)
      if (group_of_comp_[static_cast<std::size_t>(c)] != home) return;
    if (q_.members[static_cast<std::size_t>(home)].size() == sub.size())
      return;

    // Bytes of the comp edges between `sub` and each adjacent group, in one
    // pass over sub's edges (edges inside `sub` excluded).
    in_move_.clear();
    for (int c : sub) in_move_.insert(c);
    nbr_bytes_.clear();
    const auto add = [&](int o, std::int64_t bytes) {
      if (in_move_.contains(o)) return;
      const int g = group_of_comp_[static_cast<std::size_t>(o)];
      for (auto& [ng, nb] : nbr_bytes_)
        if (ng == g) {
          nb += bytes;
          return;
        }
      nbr_bytes_.emplace_back(g, bytes);
    };
    for (int c : sub) {
      const auto uc = static_cast<std::size_t>(c);
      for (auto i = static_cast<std::size_t>(out_.at[uc]);
           i < static_cast<std::size_t>(out_.at[uc + 1]); ++i)
        add(out_.ids[i], out_bytes_[i]);
      for (auto i = static_cast<std::size_t>(in_.at[uc]);
           i < static_cast<std::size_t>(in_.at[uc + 1]); ++i)
        add(in_.ids[i], in_bytes_[i]);
    }
    // The best positive gain wins; ties go to the group first in the dense
    // order of the last view (no group has appeared or vanished since).
    std::int64_t stay_bytes = 0;
    for (const auto& [g, bytes] : nbr_bytes_)
      if (g == home) stay_bytes = bytes;
    int best = -1;
    std::int64_t best_gain = 0;
    for (const auto& [g, bytes] : nbr_bytes_) {
      if (g == home) continue;
      const std::int64_t gain = bytes - stay_bytes;
      if (gain > best_gain ||
          (best >= 0 && gain == best_gain &&
           dense_[static_cast<std::size_t>(g)] <
               dense_[static_cast<std::size_t>(best)])) {
        best = g;
        best_gain = gain;
      }
    }
    if (best < 0) return;

    // The move must fit the target's memory and keep the quotient acyclic.
    if (cfg_.device_memory > 0) {
      std::int64_t mem = q_.mem[static_cast<std::size_t>(best)];
      for (int c : sub) mem += comp_mem_[static_cast<std::size_t>(c)];
      if (mem > cfg_.device_memory) return;
    }
    if (move_if_acyclic(sub, home, best)) ++result_moves_;
  }

  // ---- compaction ---------------------------------------------------------
  void compact() {
    while (true) {
      const GroupView& gv = view();
      const int n = static_cast<int>(gv.slot.size());
      if (n <= cfg_.k) break;

      // Topologically sorted positions: pos[i] = group at rank i.
      std::vector<int> pos(static_cast<std::size_t>(n));
      for (int gid = 0; gid < n; ++gid)
        pos[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(gid)])] =
            gid;
      const std::vector<int> order = by_time(gv);

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
          // Topologically consecutive groups: the merge is always convex.
          merge_groups(gv.slot[static_cast<std::size_t>(w)],
                       gv.slot[static_cast<std::size_t>(v)]);
          merged = true;
          ++result_compaction_;
          break;
        }
        if (merged) break;  // take a fresh view after every merge
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
      const GroupView& gv = view();
      const int n = static_cast<int>(gv.slot.size());
      if (n < 2) return;
      if (iter == 0) {
        build_index(gv);
      } else {
        rekey_moved();
      }
      if (checked_)  // the scan's lists start each pass ascending
        for (int g : gv.slot) scan_list(g) = sorted_members(g);
      double total = 0;
      for (double t : gv.time) total += t;
      const double target = total / n;
      const double tol = 0.01 * target;
      std::vector<int> chain(static_cast<std::size_t>(n));  // rank -> slot
      for (int i = 0; i < n; ++i)
        chain[static_cast<std::size_t>(gv.rank[static_cast<std::size_t>(i)])] =
            gv.slot[static_cast<std::size_t>(i)];

      bool changed = false;
      double cum = 0;
      for (int r = 0; r + 1 < n; ++r) {
        const int here = chain[static_cast<std::size_t>(r)];
        const int next = chain[static_cast<std::size_t>(r + 1)];
        cum += q_.time[static_cast<std::size_t>(here)];
        // Push overshoot right / pull undershoot left. The moved component
        // must not exceed twice the deviation, so the deviation strictly
        // shrinks and the loops terminate.
        for (int guard = 0; guard < 256; ++guard) {
          const double over = cum - (r + 1) * target;
          if (over > tol) {
            const double tc = move_across(here, next, true, 2 * over);
            if (tc <= 0) break;
            cum -= tc;
            changed = true;
          } else if (over < -tol) {
            const double tc = move_across(next, here, false, -2 * over);
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

  // Movable index. A comp may cross forward (backward) when it has no
  // successor (predecessor) inside its block: in_block_[0][c] counts the
  // comp edges from c to its own block, in_block_[1][c] those into c. Per
  // block and direction, index_ lists the movable comps with positive time
  // as Movable entries, ascending. A comp's position key stands for its
  // place in the scan's block list: its comp index while it sits where it
  // was at the start of the pass (each pass starts the lists ascending),
  // and next_key_++ once moved (the scan appends it to its new block's
  // list), so key order is list order. A move updates the entries of the
  // moved comp and of the neighbours whose count leaves or reaches zero.

  void build_index(const GroupView& gv) {
    const std::size_t nc = group_of_comp_.size();
    for (auto& v : in_block_) v.assign(nc, 0);
    for (const CompEdge& e : edges_)
      if (group_of_comp_[static_cast<std::size_t>(e.from)] ==
          group_of_comp_[static_cast<std::size_t>(e.to)]) {
        ++in_block_[0][static_cast<std::size_t>(e.from)];
        ++in_block_[1][static_cast<std::size_t>(e.to)];
      }
    key_.resize(nc);
    std::iota(key_.begin(), key_.end(), 0);
    next_key_ = static_cast<int>(nc);
    block_.assign(q_.members.size(), -1);
    index_.assign(gv.slot.size(), {});
    if (checked_) scan_list_.assign(gv.slot.size(), {});
    for (std::size_t i = 0; i < gv.slot.size(); ++i) {
      const auto g = static_cast<std::size_t>(gv.slot[i]);
      block_[g] = static_cast<int>(i);
      for (int c : q_.members[g])
        for (int dir = 0; dir < 2; ++dir) {
          const auto uc = static_cast<std::size_t>(c);
          if (in_block_[static_cast<std::size_t>(dir)][uc] == 0 &&
              comp_time_[uc] > 0)
            index_[i][static_cast<std::size_t>(dir)].push_back(
                {-comp_time_[uc], c, c});
        }
      for (auto& v : index_[i]) std::sort(v.begin(), v.end());
    }
  }

  /// Inserts or erases comp `c` in block `g`'s index for direction `dir`.
  void set_movable(int c, int g, int dir, bool on) {
    const auto uc = static_cast<std::size_t>(c);
    if (comp_time_[uc] <= 0) return;
    auto& v = index_[static_cast<std::size_t>(
        block_[static_cast<std::size_t>(g)])][static_cast<std::size_t>(dir)];
    const Movable m{-comp_time_[uc], key_[uc], c};
    const auto it = std::lower_bound(v.begin(), v.end(), m);
    if (on) {
      v.insert(it, m);
    } else {
      v.erase(it);
    }
  }

  /// Adds `delta` to comp `o`'s in-block count for `dir`, updating its
  /// movability when the count leaves or reaches zero.
  void count_in_block(int o, int dir, int delta) {
    int& n =
        in_block_[static_cast<std::size_t>(dir)][static_cast<std::size_t>(o)];
    const bool was_free = n == 0;
    n += delta;
    if (was_free != (n == 0))
      set_movable(o, group_of_comp_[static_cast<std::size_t>(o)], dir, n == 0);
  }

  /// Index update after comp `c` moved from `src` into `dst`: only `c` and
  /// its neighbours in those two blocks change their in-block counts.
  void index_move(int c, int src, int dst) {
    const auto uc = static_cast<std::size_t>(c);
    for (int dir = 0; dir < 2; ++dir)
      if (in_block_[static_cast<std::size_t>(dir)][uc] == 0)
        set_movable(c, src, dir, false);
    key_[uc] = next_key_++;
    moved_.push_back(c);
    int out_in = 0, in_in = 0;
    for (int o : out_[uc]) {
      const int g = group_of_comp_[static_cast<std::size_t>(o)];
      if (g == src) {
        count_in_block(o, 1, -1);
      } else if (g == dst) {
        count_in_block(o, 1, +1);
        ++out_in;
      }
    }
    for (int o : in_[uc]) {
      const int g = group_of_comp_[static_cast<std::size_t>(o)];
      if (g == src) {
        count_in_block(o, 0, -1);
      } else if (g == dst) {
        count_in_block(o, 0, +1);
        ++in_in;
      }
    }
    in_block_[0][uc] = out_in;
    in_block_[1][uc] = in_in;
    for (int dir = 0; dir < 2; ++dir)
      if (in_block_[static_cast<std::size_t>(dir)][uc] == 0)
        set_movable(c, dst, dir, true);
  }

  /// A new pass starts every block list ascending: comps moved in the last
  /// pass get their comp index back as position key.
  void rekey_moved() {
    for (int c : moved_) key_[static_cast<std::size_t>(c)] = c;
    moved_.clear();
    next_key_ = static_cast<int>(group_of_comp_.size());
    for (auto& row : index_)
      for (auto& v : row) {
        bool rekeyed = false;
        for (Movable& m : v)
          if (m.key != m.comp) {
            m.key = m.comp;
            rekeyed = true;
          }
        if (rekeyed) std::sort(v.begin(), v.end());
      }
  }

  /// The indexed pick: the largest time in (0, max_tc] among comps of `src`
  /// movable in the given direction, ties to the comp listed first.
  int pick(int src, bool forward, double max_tc) {
    const auto& v = index_[static_cast<std::size_t>(
        block_[static_cast<std::size_t>(src)])][forward ? 0 : 1];
    const auto it =
        std::lower_bound(v.begin(), v.end(), Movable{-max_tc, INT_MIN, 0});
    if (it == v.end()) return -1;
    ++refine_examined_;
    return it->comp;
  }

  /// Block slot `g`'s list as the linear scan keeps it (checked entry only).
  std::vector<int>& scan_list(int g) {
    return scan_list_[static_cast<std::size_t>(
        block_[static_cast<std::size_t>(g)])];
  }

  /// The oracle of pick(): scans src's member list in list order and checks
  /// each comp's boundary side against the comp adjacency.
  [[nodiscard]] int scan_pick(int src, bool forward, double max_tc) {
    int best_comp = -1;
    double best_tc = 0;
    int tied = 0;
    const std::vector<int>& list = scan_list(src);
    if (audit_) audit_->scanned += static_cast<std::int64_t>(list.size());
    for (int c : list) {
      const double tc = comp_time_[static_cast<std::size_t>(c)];
      if (tc <= 0 || tc > max_tc || tc < best_tc) continue;
      // Boundary-side check: no successor (forward) / predecessor
      // (backward) inside the source block.
      bool boundary_free = true;
      for (int o : (forward ? out_ : in_)[static_cast<std::size_t>(c)]) {
        if (group_of_comp_[static_cast<std::size_t>(o)] == src) {
          boundary_free = false;
          break;
        }
      }
      if (!boundary_free) continue;
      if (tc == best_tc) {
        ++tied;
        continue;
      }
      best_comp = c;
      best_tc = tc;
      tied = 0;
    }
    if (audit_ && tied > 0) ++audit_->tied_picks;
    return best_comp;
  }

  /// Moves the largest movable component with time in (0, max_tc] from
  /// `src` across the boundary to the adjacent block `dst`. `forward` means
  /// dst follows src in the topological chain. Returns the moved time, or 0
  /// if no component qualifies.
  double move_across(int src, int dst, bool forward, double max_tc) {
    if (q_.members[static_cast<std::size_t>(src)].size() <= 1) return 0;
    const int c = pick(src, forward, max_tc);
    if (checked_) {
      const int want = scan_pick(src, forward, max_tc);
      if (c != want)
        throw std::logic_error(
            "block_partition: refine pick #" + std::to_string(picks_) +
            ": movable index picks comp " + std::to_string(c) +
            ", scan picks comp " + std::to_string(want));
      if (audit_) ++audit_->picks[forward ? 0 : 1];
    }
    ++picks_;
    if (c < 0) return 0;
    const auto uc = static_cast<std::size_t>(c);
    if (cfg_.device_memory > 0 &&
        q_.mem[static_cast<std::size_t>(dst)] + comp_mem_[uc] >
            cfg_.device_memory) {
      if (audit_) ++audit_->memory_rejects;
      return 0;
    }
    // Defensive: reject convexity-breaking moves.
    if (!move_if_acyclic(std::span<const int>(&c, 1), src, dst)) return 0;
    const double tc = comp_time_[uc];
    q_.time[static_cast<std::size_t>(src)] -= tc;
    q_.time[static_cast<std::size_t>(dst)] += tc;
    index_move(c, src, dst);
    if (checked_) {  // the scan's list moves: erase, then append
      auto& sl = scan_list(src);
      sl.erase(std::find(sl.begin(), sl.end(), c));
      scan_list(dst).push_back(c);
    }
    ++result_moves_;
    ++refine_moves_;
    return tc;
  }

  // ---- finalize -----------------------------------------------------------
  BlockPartition finalize() {
    const GroupView& gv = view();
    const int n = static_cast<int>(gv.slot.size());
    BlockPartition bp;
    bp.blocks.resize(static_cast<std::size_t>(n));
    bp.block_of_comp.resize(group_of_comp_.size());
    // Order blocks by topological rank so stage-level DP can treat them as
    // a consecutive sequence (paper Section III-C).
    for (int gid = 0; gid < n; ++gid) {
      const int rank = gv.rank[static_cast<std::size_t>(gid)];
      Block& blk = bp.blocks[static_cast<std::size_t>(rank)];
      blk.comps = sorted_members(gv.slot[static_cast<std::size_t>(gid)]);
      for (int c : blk.comps) {
        bp.block_of_comp[static_cast<std::size_t>(c)] = rank;
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

  /// One coarsening level's applied merges (a, b): the comps of a, then
  /// of b, as they were before the merge, in consecutive ranges
  /// comps[at[i] .. at[i + 1]).
  struct LevelHistory {
    std::vector<int> comps;
    std::vector<int> at{0};
  };

  std::pmr::monotonic_buffer_resource arena_;  // backs q_'s small lists
  const AtomicPartition& ap_;
  BlockPartitionConfig cfg_;
  std::vector<double> comp_time_f_, comp_time_b_, comp_time_;
  std::vector<std::int64_t> comp_params_, comp_act_, comp_mem_;
  std::vector<CompEdge> edges_;
  Csr out_, in_;  // comp -> successor / predecessor comps, per comp edge
  std::vector<std::int64_t> out_bytes_, in_bytes_;  // bytes of those edges
  std::vector<int> group_of_comp_;                      // comp -> slot
  // The carried quotient. Member lists are unordered (index_in_group_ gives
  // each comp's position, for O(1) removal); time and min_comp_ are exact
  // only after view(), which re-sums touched groups. dense_ is the last
  // view's slot -> dense id map, live_ its slots in dense order.
  Quotient q_{&arena_};
  std::vector<int> index_in_group_;
  std::vector<int> min_comp_;  // smallest member comp, exact after view()
  std::vector<int> sorted_;    // refresh() scratch
  std::vector<int> live_, dense_;
  GroupView view_;  // the last view(), buffers reused
  std::vector<int> dirty_;
  std::vector<char> dirty_flag_;
  // Incremental cycle-check state, reset by view(): a topological order of
  // the current groups (ord_[rank] = slot, pos_[slot] = rank) and reusable
  // scratch.
  std::vector<int> ord_, pos_;
  StampSet in_move_;  // comps of the set being moved
  StampSet seen_;     // groups visited by a DFS
  std::vector<int> stack_, outs_, window_;
  std::vector<std::pair<int, std::int64_t>> nbr_bytes_;  // try_move scratch
  // Balance-refinement movable index (see build_index); block_ maps a slot
  // to its index row. scan_list_ is the checked entry's list-order oracle.
  std::array<std::vector<int>, 2> in_block_;
  std::vector<int> key_, moved_, block_;
  int next_key_ = 0;
  std::vector<std::array<std::vector<Movable>, 2>> index_;
  std::vector<std::vector<int>> scan_list_;
  bool checked_ = false;
  detail::BlockAudit* audit_ = nullptr;
  const char* step_ = "coarsen";
  std::int64_t views_ = 0;
  std::int64_t picks_ = 0;
  std::int64_t cycle_checks_ = 0;
  std::int64_t cycle_check_comps_ = 0;
  std::int64_t views_built_ = 0;
  std::int64_t merges_proposed_ = 0;
  std::int64_t merges_applied_ = 0;
  std::int64_t refine_moves_ = 0;
  std::int64_t refine_examined_ = 0;
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
  return Partitioner(ap, prof, cfg, /*checked=*/false, nullptr).run();
}

namespace detail {

BlockPartition block_partition_checked(const AtomicPartition& ap,
                                       const GraphProfiler& prof,
                                       const BlockPartitionConfig& cfg,
                                       BlockAudit* audit) {
  if (ap.comps.empty()) throw std::invalid_argument("empty atomic partition");
  return Partitioner(ap, prof, cfg, /*checked=*/true, audit).run();
}

}  // namespace detail

}  // namespace rannc
