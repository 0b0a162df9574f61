// Tests for the one plan evaluator (partition/plan_eval.h): evaluate_plan
// reproduces the search's own estimate bit for bit from the plan fields
// alone, it prices the gradient all-reduce of the slowest stage, and the
// attribution report built on evaluate_plan's schedule (rannc explain)
// explains the same step time that rannc trace reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

TEST(PlanEval, AllreducePinsTheSlowestStageOfAThreeStagePlan) {
  // Devices {1, 2, 1} per replica, two replicas on 2 nodes x 4: each stage
  // all-reduces its gradients over 2, 4 and 2 ranks across the nodes, at
  // InfiniBand's 12.5 GB/s and 15 us per ring step.
  PartitionResult plan;
  plan.feasible = true;
  plan.microbatches = 3;
  plan.pipelines = 2;
  const int devices[] = {1, 2, 1};
  const std::int64_t params[] = {1000, 4000, 600};
  for (int s = 0; s < 3; ++s) {
    StagePlan sp;
    sp.devices = devices[s];
    sp.replicas_total = devices[s] * plan.pipelines;
    sp.param_bytes = params[s];
    plan.stages.push_back(sp);
  }
  SearchRequest req;
  req.cluster.num_nodes = 2;
  req.cluster.devices_per_node = 4;
  // Stage 1 is the slowest: 2 * 3/4 * 4000 / 12.5e9 + 2 * 3 * 15e-6 =
  // 4.8e-7 + 9e-5 s, against 3.008e-5 s (stage 0) and 3.0048e-5 s
  // (stage 2). Mixed precision all-reduces half the gradient bytes,
  // 2000: 2.4e-7 + 9e-5 s.
  const struct {
    Precision precision;
    double want;
  } cases[] = {{Precision::FP32, 9.048e-5}, {Precision::Mixed, 9.024e-5}};
  for (const auto& c : cases) {
    req.precision = c.precision;
    const PlanEvaluation ev = evaluate_plan(plan, req);
    EXPECT_NEAR(ev.allreduce_seconds, c.want, 1e-12 * c.want)
        << "mixed=" << (c.precision == Precision::Mixed);
  }
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
