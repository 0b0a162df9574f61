// Experiment E4 — reproduces the Section IV-C coarsening ablation:
// RaNNC vs a variant that skips block-level partitioning and runs the
// stage DP directly over atomic subcomponents, with costs approximated by
// summing standalone per-component profiles.
//
// Paper findings being reproduced:
//  * the variant trains at most the 48-layer model (memory estimates from
//    summed activations are gross over-estimates);
//  * where it trains, throughput is ~33% below full RaNNC (summed
//    standalone times over-estimate non-uniformly, steering the DP to
//    worse partitions and worse S/MB choices);
//  * the search does not finish for deeper models (emulated here by a DP
//    cell budget standing in for the paper's 24-hour timeout).
//
// A second section prints the experiment E6 diagnostics behind the Fig. 2/3
// narrative: atomic component counts vs model depth (paper: ~15k at 256
// layers), a block-count (k) sweep of balance against cut bytes (the paper
// fixes k = 32), and the uncoarsening and balance-refinement ablations.
// bench_search measures the search cost itself.
#include <algorithm>
#include <cstdio>

#include "rannc.h"

int main() {
  using namespace rannc;
  const std::int64_t BS = 256;

  std::printf("== Section IV-C: effect of coarsening (BERT, hidden 1024) ==\n\n");
  std::printf("%-7s | %-28s | %-36s\n", "layers", "RaNNC (with coarsening)",
              "no-coarsening variant");
  std::printf("%-7s | %-10s %-8s %-8s | %-10s %-8s %-16s\n", "", "thr(s/s)",
              "stages", "cells", "thr(s/s)", "stages", "search");

  for (std::int64_t L : {24LL, 48LL, 96LL}) {
    BertConfig bc;
    bc.hidden = 1024;
    bc.layers = L;
    BuiltModel bm = build_bert(bc);

    SearchRequest with;
    with.batch_size = BS;
    const PartitionResult rw = auto_partition(bm.graph, with).plan;

    SearchRequest without = with;
    without.use_coarsening = false;
    // Stand-in for the paper's 24h wall-clock limit: a DP cell budget.
    without.budget.max_dp_cells = 400'000'000;
    const PartitionResult ro = auto_partition(bm.graph, without).plan;

    char wcell[64] = "OOM";
    if (rw.feasible)
      std::snprintf(wcell, sizeof(wcell), "%.1f", rw.throughput(BS));
    char ocell[64] = "OOM";
    const char* search = "completed";
    if (ro.feasible) {
      std::snprintf(ocell, sizeof(ocell), "%.1f", ro.throughput(BS));
    } else if (ro.infeasible_reason == "search budget exceeded") {
      search = "TIMEOUT (>24h equiv.)";
    }
    std::printf("%-7lld | %-10s %-8zu %-8lld | %-10s %-8zu %-16s\n",
                static_cast<long long>(L), wcell, rw.stages.size(),
                static_cast<long long>(rw.stats.dp_cells_visited), ocell,
                ro.stages.size(), search);
    if (rw.feasible && ro.feasible) {
      const double slowdown =
          100.0 * (1.0 - ro.throughput(BS) / rw.throughput(BS));
      std::printf("         -> variant is %.0f%% slower\n",
                  std::max(0.0, slowdown));
    }
  }
  std::printf(
      "\nDirection matches Section IV-C: the variant trains at most the\n"
      "48-layer model, is slower where it trains, and its atomic-granularity\n"
      "search explodes beyond that. The paper reports ~33%% slowdown at 48\n"
      "layers; our analytic profiler is noiseless, so summed standalone\n"
      "estimates stay nearly proportional to merged profiles and mislead the\n"
      "DP less than real measurement error does (see EXPERIMENTS.md).\n");

  // ---- E6: coarsening cost and quality diagnostics -----------------------
  std::printf("\n== Atomic component counts (BERT hidden 1024) ==\n");
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
  return 0;
}
