// Visualizes the two pipeline disciplines the paper contrasts
// (Section II-B): synchronous GPipe fill/drain (staleness-free, has a
// bubble) vs asynchronous 1F1B (no bubble, parameter staleness) — for a
// GPT-2 model partitioned by RaNNC.
//
// Usage: ./examples/pipeline_gantt [microbatches]
#include <cstdio>
#include <cstdlib>

#include "rannc.h"

int main(int argc, char** argv) {
  using namespace rannc;
  const int MB_override = argc > 1 ? std::atoi(argv[1]) : 0;

  Gpt2Config gc;  // GPT-2 small
  BuiltModel gm = build_gpt2(gc);
  std::printf("GPT-2: %zu tasks, %.0fM parameters\n", gm.graph.num_tasks(),
              static_cast<double>(gm.graph.num_params()) / 1e6);

  SearchRequest req;
  req.cluster = ClusterSpec{}.single_node();
  // Shrink device memory so the partitioner must pipeline GPT-2 small.
  req.cluster.device.memory_bytes = 2LL << 30;
  req.batch_size = 64;
  PartitionResult plan = auto_partition(gm.graph, req).plan;
  if (!plan.feasible) {
    std::printf("infeasible: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }
  const int MB = MB_override > 0 ? MB_override : plan.microbatches;
  std::printf("%s\n", describe(plan).c_str());

  const std::vector<StageTimes> st = evaluate_plan(plan, req).stage_times;

  const ScheduleResult sync = simulate_gpipe(st, MB);
  std::printf("-- synchronous (GPipe, what RaNNC uses): %d microbatches --\n%s",
              MB, render_gantt(sync, static_cast<int>(st.size()), 110).c_str());
  std::printf("iteration %.1f ms, bubble %.1f%%\n\n", sync.iteration_time * 1e3,
              100 * sync.bubble_fraction);

  const ScheduleResult async_r = simulate_1f1b_async(st, MB);
  std::printf("-- asynchronous 1F1B (PipeDream-2BW) steady state --\n");
  std::printf("iteration %.1f ms, bubble %.1f%% — faster, but parameters go\n"
              "stale across in-flight microbatches (Section II-B), which no\n"
              "billion-parameter training run has survived.\n",
              async_r.iteration_time * 1e3, 100 * async_r.bubble_fraction);
  return 0;
}
