// Experiment E5 — the paper's loss-parity validation (Section IV-B, final
// paragraph): after the same number of steps, RaNNC-partitioned pipeline
// training reaches the same loss as the unpartitioned reference (the paper
// compared RaNNC vs Megatron-LM on real BERT pre-training; here we train a
// real model on the CPU runtime, partitioned by the actual RaNNC plan, and
// compare against single-device execution). The check runs on the blocked
// kernels and again on the naive reference kernels they are tested against.
#include <cmath>
#include <cstdio>

#include "rannc.h"

int main() {
  using namespace rannc;

  MlpConfig mc;
  mc.input_dim = 24;
  mc.hidden_dims = {48, 48, 48, 48};
  mc.num_classes = 8;
  mc.batch = 8;
  BuiltModel m = build_mlp(mc);

  // Miniature cluster whose devices cannot hold the whole model, so the
  // partitioner must pipeline.
  SearchRequest cfg;
  cfg.cluster.num_nodes = 1;
  cfg.cluster.devices_per_node = 4;
  cfg.cluster.device.memory_bytes = 5 * m.graph.num_params() * 4;  // > model state, < state + activations
  cfg.batch_size = 32;
  cfg.num_blocks = 8;
  PartitionResult plan = auto_partition(m.graph, cfg).plan;
  if (!plan.feasible) {
    std::printf("partitioning infeasible: %s\n", plan.infeasible_reason.c_str());
    return 1;
  }
  std::printf("== Loss parity: RaNNC-partitioned pipeline vs single device ==\n");
  std::printf("plan: %zu stages, %d microbatches\n\n", plan.stages.size(),
              plan.microbatches);

  std::vector<std::vector<TaskId>> stage_tasks;
  for (const StagePlan& s : plan.stages) stage_tasks.push_back(s.tasks);

  bool pass = true;
  for (const bool naive : {false, true}) {
    set_naive_kernels(naive);
    std::printf("-- %s kernels --\n", naive ? "naive reference" : "blocked");
    OptimizerConfig oc;
    oc.kind = OptimizerConfig::Kind::Adam;
    oc.lr = 0.01f;
    PipelineOptions popt;
    popt.opt = oc;
    popt.seed = 42;
    popt.recompute = true;
    PipelineTrainer pipeline(*plan.graph, stage_tasks, popt);
    Trainer reference(*plan.graph, oc, /*seed=*/42);

    const ValueId xin = plan.graph->input_values()[0];
    const ValueId yin = plan.graph->input_values()[1];
    const Shape& xs = plan.graph->value(xin).shape;

    std::printf("%-6s %-12s %-12s %-10s\n", "step", "pipeline", "reference",
                "|diff|");
    float pipe_loss = 0, ref_loss = 0;
    for (int step = 0; step < 200; ++step) {
      std::vector<TensorMap> mbs;
      for (int j = 0; j < plan.microbatches; ++j) {
        TensorMap mb;
        const std::uint64_t seed = 901 + 13 * static_cast<std::uint64_t>(step) +
                                   static_cast<std::uint64_t>(j);
        mb.emplace(xin, Tensor::uniform(xs, 1.0f, seed));
        Tensor labels(Shape{xs.dims[0]});
        for (std::int64_t i = 0; i < xs.dims[0]; ++i)
          labels.at(i) = static_cast<float>((i + j + step) % 8);
        mb.emplace(yin, std::move(labels));
        mbs.push_back(std::move(mb));
      }
      pipe_loss = pipeline.step(mbs);
      ref_loss = reference.step(mbs);
      if (step % 40 == 0 || step == 199)
        std::printf("%-6d %-12.6f %-12.6f %-10.2e\n", step, pipe_loss, ref_loss,
                    std::fabs(pipe_loss - ref_loss));
    }
    const bool ok = std::fabs(pipe_loss - ref_loss) < 1e-3;
    std::printf("\nfinal |loss diff| = %.2e -> %s (paper threshold 1e-3)\n\n",
                std::fabs(pipe_loss - ref_loss), ok ? "PASS" : "FAIL");
    pass = pass && ok;
  }
  set_naive_kernels(false);
  return pass ? 0 : 1;
}
