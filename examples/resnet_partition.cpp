// Partition an enlarged (Big-Transfer-style) ResNet — the paper's Fig. 5
// workload — and render the resulting pipeline schedule as an ASCII Gantt.
//
// Usage: ./examples/resnet_partition [depth] [width_factor] [batch]
//        (defaults: 152 8 128 on one 8-GPU node)
#include <cstdio>
#include <cstdlib>

#include "rannc.h"

int main(int argc, char** argv) {
  using namespace rannc;
  ResNetConfig rc;
  rc.depth = argc > 1 ? std::atoi(argv[1]) : 152;
  rc.width_factor = argc > 2 ? std::atoll(argv[2]) : 8;
  const std::int64_t BS = argc > 3 ? std::atoll(argv[3]) : 128;

  BuiltModel rm = build_resnet(rc);
  std::printf("ResNet%dx%lld: %zu tasks, %.2fB parameters\n\n", rc.depth,
              static_cast<long long>(rc.width_factor), rm.graph.num_tasks(),
              static_cast<double>(rm.graph.num_params()) / 1e9);

  SearchRequest req;
  req.cluster = ClusterSpec{}.single_node();  // torchgpipe's setting
  req.batch_size = BS;
  PartitionResult plan = auto_partition(rm.graph, req).plan;
  std::printf("== RaNNC automatic plan (1 node, 8 GPUs) ==\n%s\n",
              describe(plan).c_str());

  if (plan.feasible && plan.stages.size() > 1) {
    const ScheduleResult sched = evaluate_plan(plan, req).schedule;
    std::printf("synchronous pipeline schedule (F = forward, B = backward):\n%s",
                render_gantt(sched, static_cast<int>(plan.stages.size()), 100)
                    .c_str());
    std::printf("bubble fraction: %.1f%%\n\n", 100 * sched.bubble_fraction);
  }

  const BaselinePlan gp = plan_gpipe_model(rm, req.cluster, BS, 64);
  if (gp.feasible)
    std::printf("GPipe-Model (manual 8-stage balance, 64 microbatches): "
                "%.1f samples/s\nRaNNC:                                   "
                "                %.1f samples/s\n",
                gp.throughput(BS), plan.throughput(BS));
  else
    std::printf("GPipe-Model: %s\n", gp.reason.c_str());
  return 0;
}
