// Experiment E10 — bound-and-prune search at very large scale.
//
// The paper's motivating regime is a task graph of hundreds of thousands of
// operations searched over a multi-node cluster; the synthetic MoE builder
// (src/models/moe.h) reaches that magnitude honestly. This benchmark runs
// the same (model, cluster, batch) search under three engines —
//
//   exhaustive   the reference sweep (prune = false) at 4 threads: every
//                (n, S, MB) job runs its full stage DP; its dp_cells total
//                is the search-space size and the comparison baseline;
//   pruned       branch-and-bound (memory floors, roofline/comm bounds,
//                live incumbent) at 4 threads;
//   pruned-t1    the same engine at threads = 1, i.e. the default
//                SearchRequest; one thread makes its counters
//                deterministic;
//
// — and emits BENCH_SEARCH.json: per-model DP-cell counts, prune counters,
// the Phase-2 block counters (blocks, coarsening levels, uncoarsening and
// refinement moves, compaction merges), the Phase-3 sweep and whole-call
// wall-clock, the cells / sweep / whole-call ratios of exhaustive over
// pruned, and an equal-quality proof (bit-identical plan JSON and bit-equal
// est_iteration across all three engines). The headline gate holds the
// PR 10 acceptance bar: on the 100k-task builder the pruned engine must
// show >= 10x fewer DP cells or >= 10x search wall-clock speedup at equal
// plan cost.
//
// Usage: bench_search_scale [--quick] [--out FILE]
//   --quick   small MoE geometries, gate demoted to plan-identity only
//             (CI smoke mode; the 10x bar is meaningful only at scale)
//   --out     JSON output path (default BENCH_SEARCH.json)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rannc.h"

namespace {

using namespace rannc;

struct Scenario {
  std::string name;
  MoeConfig moe;
  int nodes = 0;
  int devices_per_node = 0;
  std::int64_t batch_size = 0;
  /// The PR 10 acceptance bar (>= 10x fewer DP cells or >= 10x search
  /// wall-clock) is a claim about the 100k-task regime; small scenarios
  /// report their ratios but are not held to it.
  bool gated = false;
};

struct EngineResult {
  std::string label;
  bool feasible = false;
  double search_seconds = 0;
  double wall_seconds = 0;
  std::int64_t dp_cells = 0;
  std::int64_t profile_queries = 0;
  std::int64_t bound_queries = 0;
  std::int64_t jobs_pruned = 0;
  std::int64_t jobs_dominated = 0;
  std::int64_t ranges_pruned = 0;
  std::int64_t columns_pruned = 0;
  std::int64_t paths_pruned = 0;
  std::int64_t incumbent_updates = 0;
  // Phase 2 (block partitioning) runs before the engine choice, so these
  // are the same for every engine of a scenario.
  int blocks = 0;
  int coarsen_levels = 0;
  int uncoarsen_moves = 0;
  int compaction_merges = 0;
  double est_iteration = 0;
  std::string plan_json;
};

std::vector<Scenario> make_scenarios(bool quick) {
  std::vector<Scenario> ss;
  // The small scenarios run in both modes, so a committed full-run
  // baseline also covers everything a --quick CI rerun produces (the
  // bench-sentinel matches scenarios by name and skips ones it cannot
  // find in the baseline).
  {
    Scenario a;
    a.name = "moe-h256-L4-E8";
    a.moe.hidden = 256;
    a.moe.layers = 4;
    a.moe.seq_len = 128;
    a.moe.vocab = 2048;
    a.moe.experts = 8;
    a.nodes = 4;
    a.devices_per_node = 2;
    a.batch_size = 128;
    ss.push_back(a);

    Scenario b;
    b.name = "moe-h512-L8-E16";
    b.moe.hidden = 512;
    b.moe.layers = 8;
    b.moe.seq_len = 256;
    b.moe.vocab = 4096;
    b.moe.experts = 16;
    b.nodes = 4;
    b.devices_per_node = 4;
    b.batch_size = 256;
    ss.push_back(b);
  }
  if (!quick) {
    // The GPT-3-scale regime the paper targets: ~100k atomic tasks (80
    // layers x 128 experts), ~21B parameters — the Adam state spreads to
    // ~11 GB per device across the 32 V100s. seq/batch are sized so the
    // tightest stage peaks at ~29 GB of the 31 GB budget: the search has
    // real memory-feasibility structure (shorter pipelines and replica
    // groups are genuinely infeasible) without being a foregone
    // infeasibility everywhere.
    Scenario big;
    big.name = "moe-gpt3-h512-L80-E128";
    big.moe.hidden = 512;
    big.moe.layers = 80;
    big.moe.seq_len = 512;
    big.moe.vocab = 50257;
    big.moe.experts = 128;
    big.nodes = 8;
    big.devices_per_node = 4;
    big.batch_size = 128;
    big.gated = true;
    ss.push_back(big);
  }
  return ss;
}

EngineResult run_engine(const TaskGraph& graph, const Scenario& sc,
                        const std::string& label, bool prune, int threads) {
  SearchRequest req;
  req.cluster.num_nodes = sc.nodes;
  req.cluster.devices_per_node = sc.devices_per_node;
  req.batch_size = sc.batch_size;
  req.budget.threads = threads;
  req.prune = prune;

  const SearchResult sr = auto_partition(graph, req);
  EngineResult er;
  er.label = label;
  er.feasible = sr.feasible();
  er.search_seconds = sr.stats().search_seconds;
  er.wall_seconds = sr.stats().wall_seconds;
  er.dp_cells = sr.stats().dp_cells_visited;
  er.profile_queries = sr.stats().profile_queries;
  er.bound_queries = sr.prune().bound_queries;
  er.jobs_pruned = sr.prune().jobs_pruned;
  er.jobs_dominated = sr.prune().jobs_dominated;
  er.ranges_pruned = sr.prune().ranges_pruned();
  er.columns_pruned = sr.prune().columns_pruned;
  er.paths_pruned = sr.prune().paths_pruned;
  er.incumbent_updates = sr.prune().incumbent_updates;
  er.blocks = sr.stats().blocks;
  er.coarsen_levels = sr.stats().coarsen_levels;
  er.uncoarsen_moves = sr.stats().uncoarsen_moves;
  er.compaction_merges = sr.stats().compaction_merges;
  er.est_iteration = sr.plan.est_iteration_time;
  if (er.feasible) er.plan_json = plan_to_json(sr.plan);
  return er;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_SEARCH.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE]\n", argv[0]);
      return 2;
    }
  }

  struct ScenarioResult {
    std::string name;
    std::size_t tasks = 0;
    int nodes = 0, devices_per_node = 0;
    std::int64_t batch_size = 0;
    std::vector<EngineResult> engines;
    bool plans_identical = true;
    bool gated = false;        ///< held to the 10x acceptance bar
    double cells_ratio = 0;    ///< exhaustive / pruned dp_cells
    double search_speedup = 0; ///< exhaustive / pruned search seconds
    double wall_speedup = 0;   ///< exhaustive / pruned wall seconds
  };
  std::vector<ScenarioResult> results;
  bool all_plans_identical = true;
  bool gate_10x = true;

  for (const Scenario& sc : make_scenarios(quick)) {
    std::printf("== %s ==\n", sc.name.c_str());
    const BuiltModel bm = build_moe(sc.moe);
    ScenarioResult r;
    r.name = sc.name;
    r.gated = sc.gated;
    r.tasks = bm.graph.num_tasks();
    r.nodes = sc.nodes;
    r.devices_per_node = sc.devices_per_node;
    r.batch_size = sc.batch_size;
    std::printf("  %zu tasks, cluster %dx%d, BS=%lld\n", r.tasks, sc.nodes,
                sc.devices_per_node, static_cast<long long>(sc.batch_size));

    r.engines.push_back(run_engine(bm.graph, sc, "exhaustive",
                                   /*prune=*/false, /*threads=*/4));
    r.engines.push_back(run_engine(bm.graph, sc, "pruned",
                                   /*prune=*/true, /*threads=*/4));
    r.engines.push_back(run_engine(bm.graph, sc, "pruned-t1",
                                   /*prune=*/true, /*threads=*/1));

    const EngineResult& ex = r.engines[0];
    const EngineResult& pr = r.engines[1];
    for (const EngineResult& er : r.engines) {
      std::printf(
          "  %-10s wall=%8.3fs search=%8.3fs cells=%10lld bounds=%8lld "
          "jobs_cut=%lld est=%.6f\n",
          er.label.c_str(), er.wall_seconds, er.search_seconds,
          static_cast<long long>(er.dp_cells),
          static_cast<long long>(er.bound_queries),
          static_cast<long long>(er.jobs_pruned + er.jobs_dominated),
          er.est_iteration);
      if (!er.feasible || er.plan_json != ex.plan_json)
        r.plans_identical = false;
    }
    r.cells_ratio = pr.dp_cells > 0 ? static_cast<double>(ex.dp_cells) /
                                          static_cast<double>(pr.dp_cells)
                                    : 0.0;
    r.search_speedup =
        pr.search_seconds > 0 ? ex.search_seconds / pr.search_seconds : 0.0;
    r.wall_speedup =
        pr.wall_seconds > 0 ? ex.wall_seconds / pr.wall_seconds : 0.0;
    std::printf("  plans identical: %s; cells ratio %.1fx; search speedup "
                "%.1fx; wall speedup %.2fx\n\n",
                r.plans_identical ? "yes" : "NO", r.cells_ratio,
                r.search_speedup, r.wall_speedup);

    all_plans_identical = all_plans_identical && r.plans_identical;
    // The acceptance bar: >= 10x fewer DP cells or >= 10x faster search at
    // equal plan quality. A claim about the 100k-task regime, so only the
    // gated (full-size) scenarios are held to it; the small ones — and
    // every --quick run — report their ratios without gating.
    if (!quick && sc.gated && r.cells_ratio < 10.0 &&
        r.search_speedup < 10.0)
      gate_10x = false;
    results.push_back(std::move(r));
  }

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  os << "{\n";
  os << "  \"bench\": \"search_scale\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"all_plans_identical\": "
     << (all_plans_identical ? "true" : "false") << ",\n";
  os << "  \"gate_10x\": " << (gate_10x ? "true" : "false") << ",\n";
  os << "  \"scenarios\": [\n";
  for (std::size_t si = 0; si < results.size(); ++si) {
    const auto& r = results[si];
    os << "    {\n";
    os << "      \"name\": " << obs::json_string(r.name) << ",\n";
    os << "      \"tasks\": " << r.tasks << ",\n";
    os << "      \"nodes\": " << r.nodes << ",\n";
    os << "      \"devices_per_node\": " << r.devices_per_node << ",\n";
    os << "      \"batch_size\": " << r.batch_size << ",\n";
    os << "      \"plans_identical\": "
       << (r.plans_identical ? "true" : "false") << ",\n";
    os << "      \"gated\": " << (r.gated ? "true" : "false") << ",\n";
    os << "      \"cells_ratio\": " << r.cells_ratio << ",\n";
    os << "      \"search_speedup\": " << r.search_speedup << ",\n";
    os << "      \"wall_speedup\": " << r.wall_speedup << ",\n";
    os << "      \"engines\": [\n";
    for (std::size_t ei = 0; ei < r.engines.size(); ++ei) {
      const auto& er = r.engines[ei];
      os << "        {\n";
      os << "          \"label\": " << obs::json_string(er.label) << ",\n";
      os << "          \"feasible\": " << (er.feasible ? "true" : "false")
         << ",\n";
      os << "          \"search_seconds\": " << er.search_seconds << ",\n";
      os << "          \"wall_seconds\": " << er.wall_seconds << ",\n";
      os << "          \"dp_cells\": " << er.dp_cells << ",\n";
      os << "          \"profile_queries\": " << er.profile_queries << ",\n";
      os << "          \"bound_queries\": " << er.bound_queries << ",\n";
      os << "          \"jobs_pruned\": " << er.jobs_pruned << ",\n";
      os << "          \"jobs_dominated\": " << er.jobs_dominated << ",\n";
      os << "          \"ranges_pruned\": " << er.ranges_pruned << ",\n";
      os << "          \"columns_pruned\": " << er.columns_pruned << ",\n";
      os << "          \"paths_pruned\": " << er.paths_pruned << ",\n";
      os << "          \"incumbent_updates\": " << er.incumbent_updates
         << ",\n";
      os << "          \"blocks\": " << er.blocks << ",\n";
      os << "          \"coarsen_levels\": " << er.coarsen_levels << ",\n";
      os << "          \"uncoarsen_moves\": " << er.uncoarsen_moves << ",\n";
      os << "          \"compaction_merges\": " << er.compaction_merges
         << ",\n";
      os << "          \"est_iteration\": " << er.est_iteration << "\n";
      os << "        }" << (ei + 1 < r.engines.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }" << (si + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  os.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!all_plans_identical) {
    std::fprintf(stderr,
                 "FAIL: engines disagree on the plan (quality not equal)\n");
    return 1;
  }
  if (!gate_10x) {
    std::fprintf(stderr,
                 "FAIL: bound-and-prune below the 10x bar at scale\n");
    return 1;
  }
  return 0;
}
