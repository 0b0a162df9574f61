// Experiment E6 — partitioning cost and quality diagnostics supporting the
// Fig. 2/3 narrative and the design-choice ablations called out in
// DESIGN.md:
//  * atomic component counts vs model depth (paper: ~15k at 256 layers);
//  * block-count (k) sweep: balance quality vs search cost (paper fixes 32);
//  * balance-refinement ablation;
//  * DP search-space statistics (cells, profile queries);
//  * search-engine benchmark: the parallel (S, MB) stage-DP sweep across
//    BERT / ResNet / GPT-2 geometries at 1, 4 and 8 threads, emitted as
//    BENCH_PARTITIONER.json (search wall-clock, dp_cells, profile_queries,
//    speedup vs one thread, and a bit-identical-plan check across every
//    configuration).
//
// Usage: bench_partitioner [--quick] [--out FILE] [--trace FILE]
//   --quick   small geometries, single rep, skip the legacy diagnostic
//             sections (CI smoke mode)
//   --out     JSON output path (default BENCH_PARTITIONER.json)
//   --trace   additionally run one 2-thread search on the first geometry
//             with the trace recorder attached and write the Chrome
//             trace-event JSON (search flame view + sweep_progress
//             counters) to FILE
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "rannc.h"

namespace {

using namespace rannc;

struct Geometry {
  std::string name;
  std::int64_t batch_size = 256;
  std::function<BuiltModel()> build;
};

struct ConfigResult {
  std::string label;
  int threads = 1;
  bool feasible = false;
  double search_seconds = 0;  ///< min over reps
  double wall_seconds = 0;    ///< min over reps, whole auto_partition
  std::int64_t dp_cells = 0;
  std::int64_t profile_queries = 0;
  std::int64_t profile_queries_saved = 0;
  std::string plan_json;
};

std::vector<Geometry> make_geometries(bool quick) {
  std::vector<Geometry> gs;
  if (quick) {
    gs.push_back({"bert-h512-L8", 64, [] {
                    BertConfig bc;
                    bc.hidden = 512;
                    bc.layers = 8;
                    return build_bert(bc);
                  }});
    gs.push_back({"resnet50", 64, [] {
                    ResNetConfig rc;
                    rc.depth = 50;
                    return build_resnet(rc);
                  }});
    gs.push_back({"gpt2-h256-L4", 32, [] {
                    Gpt2Config gc;
                    gc.hidden = 256;
                    gc.layers = 4;
                    gc.seq_len = 256;
                    return build_gpt2(gc);
                  }});
  } else {
    gs.push_back({"bert-large-h1024-L24", 256, [] {
                    BertConfig bc;
                    bc.hidden = 1024;
                    bc.layers = 24;
                    return build_bert(bc);
                  }});
    gs.push_back({"resnet50", 256, [] {
                    ResNetConfig rc;
                    rc.depth = 50;
                    return build_resnet(rc);
                  }});
    gs.push_back({"gpt2-h768-L12", 64, [] {
                    Gpt2Config gc;
                    gc.hidden = 768;
                    gc.layers = 12;
                    return build_gpt2(gc);
                  }});
  }
  return gs;
}

ConfigResult run_config(const TaskGraph& graph, const Geometry& g,
                        const std::string& label, int threads, int reps) {
  ConfigResult cr;
  cr.label = label;
  cr.threads = threads;
  cr.search_seconds = 1e30;
  cr.wall_seconds = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    SearchRequest req;
    req.batch_size = g.batch_size;
    req.budget.threads = threads;
    // This bench measures the exhaustive sweep (its counters are the
    // sentinel baseline); bench_search_scale covers the pruned engine.
    req.prune = false;
    PartitionResult r = auto_partition(graph, req).plan;
    cr.feasible = r.feasible;
    cr.search_seconds = std::min(cr.search_seconds, r.stats.search_seconds);
    cr.wall_seconds = std::min(cr.wall_seconds, r.stats.wall_seconds);
    cr.dp_cells = r.stats.dp_cells_visited;
    cr.profile_queries = r.stats.profile_queries;
    cr.profile_queries_saved = r.stats.profile_queries_saved;
    if (rep == 0) cr.plan_json = plan_to_json(r);
  }
  return cr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rannc;

  bool quick = false;
  std::string out_path = "BENCH_PARTITIONER.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE] [--trace FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!quick) {
    std::printf("== Atomic component counts (BERT hidden 1024) ==\n");
    std::printf("%-7s %-8s %-8s %-8s\n", "layers", "tasks", "atomic",
                "cloned");
    for (std::int64_t L : {24LL, 96LL, 256LL}) {
      BertConfig bc;
      bc.hidden = 1024;
      bc.layers = L;
      BuiltModel bm = build_bert(bc);
      AtomicPartition ap = atomic_partition(bm.graph);
      std::printf("%-7lld %-8zu %-8zu %-8zu\n", static_cast<long long>(L),
                  ap.graph.num_tasks(), ap.comps.size(), ap.num_cloned_tasks);
    }

    std::printf("\n== Block count (k) sweep: BERT hidden 1024, 96 layers ==\n");
    std::printf("%-5s %-12s %-12s %-10s %-10s\n", "k", "max/mean", "cut(MiB)",
                "levels", "moves");
    {
      BertConfig bc;
      bc.hidden = 1024;
      bc.layers = 96;
      BuiltModel bm = build_bert(bc);
      AtomicPartition ap = atomic_partition(bm.graph);
      GraphProfiler prof(ap.graph, DeviceSpec{});
      for (int k : {8, 16, 32, 64}) {
        BlockPartitionConfig cfg;
        cfg.k = k;
        cfg.profile_batch = 8;
        BlockPartition bp = block_partition(ap, prof, cfg);
        double mx = 0, sum = 0;
        for (const Block& b : bp.blocks) {
          mx = std::max(mx, b.time());
          sum += b.time();
        }
        std::printf("%-5d %-12.3f %-12.1f %-10d %-10d\n", k,
                    mx / (sum / static_cast<double>(bp.blocks.size())),
                    static_cast<double>(bp.cut_bytes) / (1024.0 * 1024.0),
                    bp.coarsen_levels, bp.uncoarsen_moves);
      }
    }

    std::printf("\n== Uncoarsening ablation (k=32): inter-block traffic ==\n");
    {
      BertConfig bc;
      bc.hidden = 1024;
      bc.layers = 96;
      BuiltModel bm = build_bert(bc);
      AtomicPartition ap = atomic_partition(bm.graph);
      GraphProfiler prof(ap.graph, DeviceSpec{});
      for (bool unc : {false, true}) {
        BlockPartitionConfig cfg;
        cfg.k = 32;
        cfg.profile_batch = 8;
        cfg.uncoarsening = unc;
        BlockPartition bp = block_partition(ap, prof, cfg);
        std::printf(
            "  uncoarsening %-3s: cut = %.1f MiB (%d boundary moves)\n",
            unc ? "on" : "off",
            static_cast<double>(bp.cut_bytes) / (1024.0 * 1024.0),
            bp.uncoarsen_moves);
      }
    }

    std::printf("\n== Balance-refinement ablation (k=32) ==\n");
    {
      BertConfig bc;
      bc.hidden = 1024;
      bc.layers = 96;
      BuiltModel bm = build_bert(bc);
      AtomicPartition ap = atomic_partition(bm.graph);
      GraphProfiler prof(ap.graph, DeviceSpec{});
      for (bool refine : {false, true}) {
        BlockPartitionConfig cfg;
        cfg.k = 32;
        cfg.profile_batch = 8;
        cfg.balance_refinement = refine;
        BlockPartition bp = block_partition(ap, prof, cfg);
        double mx = 0, mn = 1e30;
        for (const Block& b : bp.blocks) {
          mx = std::max(mx, b.time());
          mn = std::min(mn, b.time());
        }
        std::printf("  refinement %-3s: block time spread max/min = %.2f\n",
                    refine ? "on" : "off", mx / mn);
      }
    }
  }

  // ---- Search-engine benchmark: parallel (S, MB) sweep -------------------
  const int reps = quick ? 1 : 3;
  const std::vector<int> thread_counts = quick ? std::vector<int>{1, 4}
                                               : std::vector<int>{1, 4, 8};
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("\n== Search engine: parallel (S, MB) sweep ==\n");
  std::printf("(hardware_concurrency = %u, reps = %d, min taken)\n", hw, reps);

  struct GeomResult {
    std::string name;
    std::int64_t batch_size = 0;
    std::size_t tasks = 0;
    std::vector<ConfigResult> configs;
    bool plans_identical = true;
  };
  std::vector<GeomResult> results;

  for (const Geometry& g : make_geometries(quick)) {
    BuiltModel bm = g.build();
    GeomResult gr;
    gr.name = g.name;
    gr.batch_size = g.batch_size;
    gr.tasks = bm.graph.num_tasks();

    for (int t : thread_counts)
      gr.configs.push_back(
          run_config(bm.graph, g, "t" + std::to_string(t), t, reps));

    for (const ConfigResult& cr : gr.configs)
      if (cr.plan_json != gr.configs.front().plan_json)
        gr.plans_identical = false;

    const double base = gr.configs.front().search_seconds;
    std::printf("\n-- %s (BS=%lld, %zu tasks) --\n", g.name.c_str(),
                static_cast<long long>(g.batch_size), gr.tasks);
    std::printf("%-10s %-10s %-12s %-12s %-10s %-8s\n", "config",
                "search(s)", "dp_cells", "profiles", "saved", "speedup");
    for (const ConfigResult& cr : gr.configs) {
      std::printf("%-10s %-10.3f %-12lld %-12lld %-10lld %-8.2f\n",
                  cr.label.c_str(), cr.search_seconds,
                  static_cast<long long>(cr.dp_cells),
                  static_cast<long long>(cr.profile_queries),
                  static_cast<long long>(cr.profile_queries_saved),
                  cr.search_seconds > 0 ? base / cr.search_seconds : 0.0);
    }
    std::printf("  plans identical across configs: %s\n",
                gr.plans_identical ? "yes" : "NO");
    results.push_back(std::move(gr));
  }

  // ---- Optional traced run ------------------------------------------------
  // One multi-thread search with the recorder attached: a flame view of
  // the sweep's worker lanes plus the cumulative sweep_progress counter
  // series (DP cells, profile queries, jobs done).
  if (!trace_path.empty()) {
    const Geometry g = make_geometries(quick).front();
    BuiltModel bm = g.build();
    obs::set_thread_name("main");
    obs::TraceRecorder rec;
    obs::set_recorder(&rec);
    run_config(bm.graph, g, "traced-t2", 2, /*reps=*/1);
    obs::set_recorder(nullptr);
    std::size_t progress_samples = 0;
    for (const obs::TraceEvent& e : rec.snapshot())
      if (e.ph == 'C' && e.name == "sweep_progress") ++progress_samples;
    if (!rec.write_json_file(trace_path)) {
      RANNC_LOG_ERROR("cannot open " << trace_path << " for writing");
      return 1;
    }
    std::printf("\nwrote %s (%zu events, %zu sweep-progress samples)\n",
                trace_path.c_str(), rec.event_count(), progress_samples);
    if (progress_samples == 0) {
      RANNC_LOG_ERROR("traced run emitted no sweep_progress counter events");
      return 1;
    }
  }

  // ---- JSON emission ------------------------------------------------------
  std::ofstream os(out_path);
  if (!os) {
    RANNC_LOG_ERROR("cannot open " << out_path << " for writing");
    return 1;
  }
  os << "{\n";
  os << "  \"bench\": \"partitioner_search\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"hardware_concurrency\": " << hw << ",\n";
  os << "  \"geometries\": [\n";
  for (std::size_t gi = 0; gi < results.size(); ++gi) {
    const auto& gr = results[gi];
    const double base = gr.configs.front().search_seconds;
    os << "    {\n";
    os << "      \"name\": " << obs::json_string(gr.name) << ",\n";
    os << "      \"batch_size\": " << gr.batch_size << ",\n";
    os << "      \"tasks\": " << gr.tasks << ",\n";
    os << "      \"plans_identical\": "
       << (gr.plans_identical ? "true" : "false") << ",\n";
    os << "      \"configs\": [\n";
    for (std::size_t ci = 0; ci < gr.configs.size(); ++ci) {
      const auto& cr = gr.configs[ci];
      os << "        {\n";
      os << "          \"label\": " << obs::json_string(cr.label) << ",\n";
      os << "          \"threads\": " << cr.threads << ",\n";
      os << "          \"feasible\": " << (cr.feasible ? "true" : "false")
         << ",\n";
      os << "          \"search_seconds\": " << cr.search_seconds << ",\n";
      os << "          \"wall_seconds\": " << cr.wall_seconds << ",\n";
      os << "          \"dp_cells\": " << cr.dp_cells << ",\n";
      os << "          \"profile_queries\": " << cr.profile_queries << ",\n";
      os << "          \"profile_queries_saved\": " << cr.profile_queries_saved
         << ",\n";
      os << "          \"speedup_vs_t1\": "
         << (cr.search_seconds > 0 ? base / cr.search_seconds : 0.0) << "\n";
      os << "        }" << (ci + 1 < gr.configs.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }" << (gi + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  os.close();
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
