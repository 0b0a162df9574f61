// Tests for the one plan evaluator (partition/plan_eval.h): evaluate_plan
// reproduces the search's own estimate bit for bit from the plan fields
// alone, replay_plan_comm issues exactly the documented traffic, and the
// attribution report built on evaluate_plan's schedule (rannc explain)
// explains the same step time that rannc trace reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "comm/fabric.h"
#include "obs/attribution.h"
#include "partition/auto_partitioner.h"
#include "partition/plan_eval.h"
#include "partition/plan_io.h"
#include "partition/search.h"
#include "pipeline/schedule.h"
#include "serve/model_zoo.h"

namespace rannc {
namespace {

serve::ModelSpec spec(const char* model, std::int64_t layers = 0,
                      std::int64_t hidden = 0) {
  serve::ModelSpec s;
  s.model = model;
  s.layers = layers;
  s.hidden = hidden;
  return s;
}

TEST(PlanEval, MatchesSearchEstimateBitForBit) {
  serve::ModelSpec resnet = spec("resnet");
  resnet.depth = 152;
  resnet.width = 4;
  serve::ModelSpec moe = spec("moe", 2, 256);
  moe.experts = 4;
  // `ablate` adds the Section IV-C variant (coarsening off); GPT-2 48L
  // exhausts any cell budget this test can afford there, so it is left out.
  const struct {
    serve::ModelSpec spec;
    bool ablate;
  } models[] = {{spec("bert", 24, 1024), true}, {spec("gpt2", 48, 1600), false},
                {spec("bert", 4, 256), true},   {spec("mlp"), true},
                {spec("t5"), true},             {moe, true},
                {resnet, true}};
  int feasible = 0;
  for (const auto& [ms, ablate] : models) {
    const BuiltModel m = serve::build_model(ms);
    for (int nodes : {1, 2, 4})
      for (Precision prec : {Precision::FP32, Precision::Mixed})
        for (bool coarsen : {true, false}) {
          if (!coarsen && !ablate) continue;
          SearchRequest req;
          req.cluster.num_nodes = nodes;
          req.precision = prec;
          req.use_coarsening = coarsen;
          // Bounds the ablation on the larger models; an exhausted budget
          // is an infeasible plan and is skipped.
          req.budget.max_dp_cells = 2'000'000;
          req.budget.threads = 4;
          const PartitionResult plan = auto_partition(m.graph, req).plan;
          if (!plan.feasible) continue;
          ++feasible;
          const std::string where = serve::canonical_sig(ms) + " nodes=" +
                                    std::to_string(nodes) + " mixed=" +
                                    std::to_string(prec == Precision::Mixed) +
                                    " coarsen=" + std::to_string(coarsen);
          // From the plan fields alone, as deployed: the JSON copy
          // carries no graph and no search state.
          const PlanEvaluation ev =
              evaluate_plan(plan_from_json(plan_to_json(plan)), req);
          EXPECT_TRUE(ev.iteration_time == plan.est_iteration_time)
              << where << ": " << ev.iteration_time << " vs "
              << plan.est_iteration_time;
          EXPECT_TRUE(ev.iteration_time ==
                      ev.schedule.iteration_time + ev.allreduce_seconds)
              << where;
          // With coarsening the sweep profiled the very stages the plan
          // holds, so the winning candidate's estimate is the same number.
          if (coarsen) {
            bool found = false;
            for (const CandidateTrace& c : plan.stats.candidates)
              if (c.feasible && c.nodes == plan.nodes_used &&
                  c.stages == static_cast<int>(plan.stages.size()) &&
                  c.microbatches == plan.microbatches) {
                found = true;
                EXPECT_TRUE(c.est_iteration == plan.est_iteration_time)
                    << where;
              }
            EXPECT_TRUE(found) << where;
          }
        }
  }
  EXPECT_GE(feasible, 50);
}

TEST(PlanEval, ReplayPinsTransfersOfAThreeStagePlan) {
  // Devices {1, 2, 1} per replica, two replicas: stage leads are ranks
  // 0, 1 and 3 of replica 0; replica 1 occupies ranks 4..7.
  PartitionResult plan;
  plan.feasible = true;
  plan.microbatches = 3;
  plan.pipelines = 2;
  const int devices[] = {1, 2, 1};
  const std::int64_t comm_out[] = {100, 300, 0};
  const std::int64_t params[] = {1000, 4000, 600};
  for (int s = 0; s < 3; ++s) {
    StagePlan sp;
    sp.devices = devices[s];
    sp.replicas_total = devices[s] * plan.pipelines;
    sp.comm_out_bytes = comm_out[s];
    sp.param_bytes = params[s];
    plan.stages.push_back(sp);
  }
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 4;
  comm::Fabric fabric(cluster);
  fabric.set_transfer_log(true);
  replay_plan_comm(fabric, plan);
  const auto& log = fabric.transfer_log();

  // 3 microbatches x 2 boundaries x (forward + backward) p2p, then rings
  // of 2, 4 and 2 ranks with 2 (r - 1) steps of r transfers each.
  ASSERT_EQ(log.size(), 12u + 4u + 24u + 4u);
  struct Hop {
    int src, dst;
    double bytes;
  };
  const Hop boundary[] = {{0, 1, 100}, {1, 0, 100}, {1, 3, 300}, {3, 1, 300}};
  for (std::size_t i = 0; i < 12; ++i) {
    const Hop& h = boundary[i % 4];
    EXPECT_EQ(log[i].src, h.src) << i;
    EXPECT_EQ(log[i].dst, h.dst) << i;
    EXPECT_EQ(log[i].bytes, h.bytes) << i;
  }
  const struct {
    std::size_t first, count;
    std::set<int> ranks;
    double chunk;
  } rings[] = {{12, 4, {0, 4}, 500.0},
               {16, 24, {1, 2, 5, 6}, 1000.0},
               {40, 4, {3, 7}, 300.0}};
  for (const auto& r : rings)
    for (std::size_t i = r.first; i < r.first + r.count; ++i) {
      EXPECT_TRUE(r.ranks.count(log[i].src) && r.ranks.count(log[i].dst)) << i;
      EXPECT_EQ(log[i].bytes, r.chunk) << i;
    }
  double total = 0;
  for (const auto& t : log) total += t.bytes;
  EXPECT_EQ(total, 2400.0 + 2000.0 + 24000.0 + 1200.0);
}

TEST(PlanEval, ExplainStepTimeIsTheEvaluatedMakespan) {
  // rannc explain's CI geometry: a multi-stage ResNet-50 plan whose
  // boundary sends are folded into t_f / t_b by the search.
  serve::ModelSpec ms = spec("resnet");
  ms.depth = 50;
  ms.image = 64;
  const BuiltModel m = serve::build_model(ms);
  SearchRequest req;
  req.budget.threads = 1;
  const PartitionResult plan = auto_partition(m.graph, req).plan;
  ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
  ASSERT_GT(plan.stages.size(), 1u);

  const PlanEvaluation ev = evaluate_plan(plan, req);
  const int S = static_cast<int>(plan.stages.size());
  const obs::AttributionReport rep =
      obs::attribute(ev.schedule.intervals, S, plan.microbatches);
  EXPECT_TRUE(rep.step_time == ev.schedule.iteration_time);
  // Comm is counted once, inside t_f / t_b: each stage's compute bucket is
  // all of its per-microbatch time.
  for (int s = 0; s < S; ++s) {
    const StageTimes& st = ev.stage_times[static_cast<std::size_t>(s)];
    const double want = plan.microbatches * (st.t_f + st.t_b);
    EXPECT_NEAR(rep.stages[static_cast<std::size_t>(s)].compute, want,
                1e-9 * want)
        << "stage " << s;
  }
}

}  // namespace
}  // namespace rannc
