// train-bert-tiny: PipelineTrainer::step on BERT-tiny, partitioned by the
// library into a pipeline, trained with Adam for a fixed number of steps.
//
// Kernels run on the stage threads themselves (a zero-worker kernel pool),
// so the process never has more busy threads than stages. The step count is
// fixed and runs well past the point where some gradients turn subnormal
// and backward slows down, so every run measures the same mix of steps.
//
// Inputs: one fixed token stream, whose microbatches the seed reorders
// within each step. With two microbatches the gradient sum is a single
// commutative float addition, so every seed trains the same trajectory.
// That matters because when gradients turn subnormal depends chaotically on
// the data: with seed-dependent tokens, step time after the onset differed
// by up to 40 % between seeds.
//
// Correctness: every step's loss (the warm-up included) is compared with the
// frozen reference at 1e-3. Traced runs also compare each sampled step's
// loss with a single-device Trainer step from the same parameters.
#include <cmath>
#include <cstdio>
#include <optional>

#include "common.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
/// In traced runs every kSampleEvery-th step also times the single-device
/// trainer, the interpreter per stage and the optimizer.
constexpr int kSampleEvery = 6;
constexpr std::uint64_t kDataStream = 12;
const char* const kKernelOps[] = {"matmul", "matmul_grad_a", "matmul_grad_b",
                                  "transpose"};

rannc::BertConfig bert_tiny() {
  rannc::BertConfig bc;
  bc.hidden = 384;
  bc.heads = 6;
  bc.layers = 2;
  bc.seq_len = 64;
  bc.vocab = 512;
  return bc;
}

SearchRequest train_request(const TaskGraph& g) {
  SearchRequest req;
  req.cluster.num_nodes = 1;
  req.cluster.devices_per_node = 2;
  req.cluster.device.memory_bytes = 5 * g.num_params() * 4;
  req.batch_size = 4;
  req.num_blocks = 6;
  req.budget.threads = 1;
  return req;
}

/// Token/label microbatches of the fixed stream: affine token patterns whose
/// label is a fixed affine map of the token.
class BatchGen {
 public:
  BatchGen(const TaskGraph& g, std::int64_t seq, std::int64_t vocab, int mbs)
      : seq_(seq), vocab_(vocab), mbs_(mbs) {
    for (ValueId v : g.input_values()) {
      const std::string& n = g.value(v).name;
      if (n == "input_ids") ids_ = v;
      if (n == "attention_mask") mask_ = v;
      if (n == "mlm_labels") labels_ = v;
    }
  }

  /// The microbatches of `step`, in an order drawn from `order`.
  [[nodiscard]] std::vector<rannc::TensorMap> make(int step, Rng& order) const {
    Rng rng(kDataStream);
    const auto v = static_cast<std::uint64_t>(vocab_);
    const std::uint64_t a = rng.below(v), b = 2 * rng.below(v / 2) + 1;
    const std::uint64_t c = rng.below(v), d = 2 * rng.below(v / 2) + 1;
    const auto s = static_cast<std::uint64_t>(step);
    std::vector<rannc::TensorMap> out;
    for (int j = 0; j < mbs_; ++j) {
      rannc::TensorMap mb;
      rannc::Tensor tok(rannc::Shape{seq_});
      rannc::Tensor lab(rannc::Shape{seq_});
      const auto jj = static_cast<std::uint64_t>(j);
      for (std::int64_t i = 0; i < seq_; ++i) {
        const auto ii = static_cast<std::uint64_t>(i);
        const std::uint64_t t = (a + b * ii + jj + s) % v;
        tok.at(i) = static_cast<float>(t);
        lab.at(i) = static_cast<float>((c + d * t) % v);
      }
      mb.emplace(ids_, std::move(tok));
      mb.emplace(mask_, rannc::Tensor::zeros(rannc::Shape{1, seq_, seq_}));
      mb.emplace(labels_, std::move(lab));
      out.push_back(std::move(mb));
    }
    shuffle(out, order);
    return out;
  }

 private:
  std::int64_t seq_, vocab_;
  int mbs_;
  ValueId ids_ = -1, mask_ = -1, labels_ = -1;
};

rannc::TensorMap clone_all(const rannc::TensorMap& m) {
  rannc::TensorMap out;
  for (const auto& [v, t] : m) out.emplace(v, t.clone());
  return out;
}

/// GEMM throughput at the model's shapes, single-threaded on `pool`.
struct GemmProbe {
  double matmul = 0, grad_a = 0, grad_b = 0, grad_b_subnormal = 0;  // GFLOP/s
};

GemmProbe probe_gemms(const rannc::BertConfig& bc) {
  using rannc::Shape;
  using rannc::Tensor;
  const std::int64_t s = bc.seq_len, h = bc.hidden, f = bc.ffn_dim();
  // (m, k, n) of the attention projections and the two FFN GEMMs.
  const std::int64_t shapes[][3] = {{s, h, h}, {s, h, f}, {s, f, h}};
  const auto rate = [](double flops, double ms) { return flops / ms / 1e6; };
  GemmProbe p;
  double fl = 0, t_mm = 0, t_ga = 0, t_gb = 0, t_sub = 0, fl_sub = 0;
  const int reps = 20;
  for (const auto& sh : shapes) {
    const Shape as{sh[0], sh[1]}, bs{sh[1], sh[2]}, gs{sh[0], sh[2]};
    const Tensor a = Tensor::uniform(as, 1.0f, 1), b = Tensor::uniform(bs, 1.0f, 2);
    const Tensor g = Tensor::uniform(gs, 1.0f, 3);
    const double flops = 2.0 * static_cast<double>(sh[0] * sh[1] * sh[2]);
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) (void)rannc::matmul(a, b);
    t_mm += ms_since(t0);
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) (void)rannc::matmul_grad_a(g, b);
    t_ga += ms_since(t0);
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) (void)rannc::matmul_grad_b(a, g, bs);
    t_gb += ms_since(t0);
    fl += reps * flops;
    // Upstream gradient of subnormal magnitude (below FLT_MIN), as the
    // model's gradients become late in training. One call: it is slow.
    const Tensor g_sub(gs, 1e-39f);
    t0 = Clock::now();
    (void)rannc::matmul_grad_b(a, g_sub, bs);
    t_sub += ms_since(t0);
    fl_sub += flops;
  }
  p.matmul = rate(fl, t_mm);
  p.grad_a = rate(fl, t_ga);
  p.grad_b = rate(fl, t_gb);
  p.grad_b_subnormal = rate(fl_sub, t_sub);
  return p;
}

}  // namespace

int train_steps(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds * 2.5)));
}

WorkloadResult run_train_bert_tiny(RunContext& ctx, int steps, bool probe) {
  WorkloadResult r;
  rannc::ThreadPool stage_local(0);
  rannc::set_kernel_pool(&stage_local);
  const rannc::BertConfig bc = bert_tiny();
  rannc::OptimizerConfig oc;
  oc.kind = rannc::OptimizerConfig::Kind::Adam;
  oc.lr = 0.01f;

  // Set-up, repeated: graph build, partition, trainer construction and the
  // warm-up step (step 0). The last trainer is the one measured.
  std::optional<BuiltModel> model;
  std::optional<rannc::PipelineTrainer> trainer;
  std::optional<BatchGen> gen;
  std::vector<std::vector<TaskId>> stages;
  std::vector<double> setups;
  for (int rep = 0; rep < (probe ? 1 : kSetupReps); ++rep) {
    const auto t0 = rep == 0 ? ctx.process_start : Clock::now();
    trainer.reset();
    model.emplace(rannc::build_bert(bc));
    const SearchRequest req = train_request(model->graph);
    const PartitionResult plan = rannc::auto_partition(model->graph, req).plan;
    const bool plan_ok = ctx.check->plan("train-bert-tiny/plan", plan, req);
    if (!plan.feasible || plan.stages.empty()) {
      // Nothing to train: report the failed op and stop.
      r.attempted = r.failed = r.reference_ops = 1;
      rannc::set_kernel_pool(nullptr);
      return r;
    }
    stages.clear();
    for (const rannc::StagePlan& s : plan.stages) stages.push_back(s.tasks);
    gen.emplace(model->graph, bc.seq_len, bc.vocab, std::max(1, plan.microbatches));
    rannc::PipelineOptions popt;
    popt.opt = oc;
    popt.seed = 42;
    trainer.emplace(model->graph, stages, popt);
    Rng warm_order(ctx.seed);
    const float loss0 = trainer->step(gen->make(0, warm_order));
    const bool warm_ok = ctx.check->step_loss(0, loss0);
    setups.push_back(ms_since(t0) / 1e3);
    if (rep == 0) {
      r.attempted += 2;  // the plan and the warm-up step
      r.reference_ops += 2;
      r.failed += (plan_ok ? 0 : 1) + (warm_ok ? 0 : 1);
    }
  }
  r.setup_s = median(setups);

  const TaskGraph& g = model->graph;
  const ValueId loss_value = g.output_values().front();
  const std::size_t n_stages = trainer->num_stages();
  LayerSamples ls;
  std::optional<rannc::Trainer> single;
  std::optional<rannc::Optimizer> bench_opt;
  rannc::TensorMap opt_params;
  const rannc::Interpreter interp(g);
  rannc::obs::MetricsRegistry& reg = rannc::obs::metrics();
  std::int64_t arena_allocs = 0, arena_hits = 0, arena_fresh = 0;
  std::map<std::string, double> kernel_calls, kernel_bytes;
  int traced_steps = 0;
  const int first_op = ctx.next_op;

  Rng order(ctx.seed + 1);
  const auto t_run = Clock::now();
  for (int step = 1; step <= steps; ++step) {
    const auto mbs = gen->make(step, order);
    const bool traced = ctx.trace && step % 2 == 0;
    const bool sample = traced && (probe || step % kSampleEvery == 0);
    Tracer* tr = traced ? ctx.tracer : nullptr;
    const int op = ++ctx.next_op;
    Tracer::Scope root(tr, "train.step", op);

    std::optional<rannc::TensorMap> pre;
    if (sample) pre.emplace(clone_all(trainer->gather_params()));
    std::vector<double> compute0(n_stages);
    for (std::size_t s = 0; s < n_stages; ++s)
      compute0[s] = trainer->stage_report(s).compute_seconds;
    const auto a0 = rannc::Arena::global().stats();
    std::map<std::string, std::int64_t> k0;
    for (const char* op : kKernelOps) {
      const std::string base = std::string("runtime.kernel.") + op;
      k0[base + ".calls"] = reg.counter(base + ".calls").get();
      k0[base + ".bytes"] = reg.counter(base + ".bytes").get();
    }

    float loss = 0;
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tr, "runtime.step", op);
      loss = trainer->step(mbs);
    }
    const double ms = ms_since(t0);
    (traced ? r.traced_ops : r.ops).add("step", ms);

    ++r.attempted;
    ++r.reference_ops;
    if (!ctx.check->step_loss(static_cast<std::size_t>(step), loss)) ++r.failed;
    if (!traced) continue;

    ++traced_steps;
    ls.add("runtime.step", "step", ms);
    double max_compute = 0;
    for (std::size_t s = 0; s < n_stages; ++s) {
      const double c =
          1e3 * (trainer->stage_report(s).compute_seconds - compute0[s]);
      ls.add("runtime.stage" + std::to_string(s) + ".compute", "step", c);
      max_compute = std::max(max_compute, c);
    }
    ls.add("runtime.wait_share", "step", 1 - max_compute / ms);
    const auto a1 = rannc::Arena::global().stats();
    arena_allocs += a1.allocs - a0.allocs;
    arena_hits += a1.pool_hits - a0.pool_hits;
    arena_fresh += a1.fresh_bytes - a0.fresh_bytes;
    for (const auto& [name, v0] : k0)
      (name.ends_with(".calls") ? kernel_calls : kernel_bytes)[name] +=
          static_cast<double>(reg.counter(name).get() - v0);
    if (!sample) continue;

    // Single-device baseline from the same parameters on the same batch.
    if (!single) single.emplace(g, oc, 42);
    single->params() = clone_all(*pre);
    float single_loss = 0;
    {
      Tracer::Scope s(tr, "runtime.single_device_step", op);
      single_loss = single->step(mbs);
    }
    ++r.attempted;
    if (!ctx.check->loss_parity(loss, single_loss)) ++r.failed;

    // The interpreter over each stage's tasks, one microbatch.
    rannc::TensorMap values = *pre;
    for (const auto& [v, t] : mbs.front()) values[v] = t;
    rannc::ForwardCache cache;
    for (const auto& tasks : stages) {
      Tracer::Scope s(tr, "autodiff.forward", op);
      interp.forward(tasks, values, cache);
    }
    rannc::TensorMap grads;
    grads.emplace(loss_value, rannc::Tensor::full(rannc::Shape{},
                                                  1.0f / static_cast<float>(mbs.size())));
    for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
      Tracer::Scope s(tr, "autodiff.backward", op);
      interp.backward(*it, values, cache, grads);
    }

    // One Adam update with those gradients, on the benchmark's own copy of
    // the parameters (its moments persist across samples).
    if (!bench_opt) {
      bench_opt.emplace(oc);
      opt_params = clone_all(*pre);
    }
    rannc::TensorMap param_grads;
    for (auto& [v, t] : grads)
      if (opt_params.count(v)) param_grads.emplace(v, std::move(t));
    Tracer::Scope s(tr, "runtime.optimizer", op);
    bench_opt->step(opt_params, param_grads);
  }
  r.measured_s = ms_since(t_run) / 1e3;

  if (ctx.trace) {
    // Per-sample sums (forward and backward run once per stage) -> medians.
    std::map<std::string, std::vector<double>> per_name;
    {
      std::map<std::pair<std::string, int>, double> sums;
      for (const Span& s : ctx.tracer->spans())
        if (s.op > first_op && s.parent >= 0) sums[{s.name, s.op}] += s.ms();
      for (const auto& [key, v] : sums) per_name[key.first].push_back(v);
    }
    Metrics& m = r.layers;
    m["runtime.step_ms"] = {ls.gmean_median("runtime.step"), "ms"};
    for (std::size_t s = 0; s < n_stages; ++s) {
      const std::string name = "runtime.stage" + std::to_string(s) + ".compute";
      m[name + "_ms"] = {ls.gmean_median(name), "ms"};
    }
    m["runtime.wait_share"] = {ls.gmean_median("runtime.wait_share"), "ratio"};
    m["runtime.single_device_step_ms"] = {median(per_name["runtime.single_device_step"]), "ms"};
    m["runtime.optimizer_ms"] = {median(per_name["runtime.optimizer"]), "ms"};
    m["autodiff.forward_ms"] = {median(per_name["autodiff.forward"]), "ms"};
    m["autodiff.backward_ms"] = {median(per_name["autodiff.backward"]), "ms"};
    const double n = std::max(1, traced_steps);
    m["arena.hit_rate"] = {arena_allocs > 0 ? static_cast<double>(arena_hits) /
                                                  static_cast<double>(arena_allocs)
                                            : 0,
                           "ratio"};
    m["arena.fresh_bytes_per_step"] = {static_cast<double>(arena_fresh) / n, "B"};
    for (const char* op : kKernelOps) {
      const std::string base = std::string("runtime.kernel.") + op;
      m[std::string("tensor.") + op + ".calls"] = {kernel_calls[base + ".calls"] / n,
                                                   "count"};
      m[std::string("tensor.") + op + ".bytes"] = {kernel_bytes[base + ".bytes"] / n,
                                                   "B"};
    }
    const GemmProbe gp = probe_gemms(bc);
    m["tensor.matmul_gflops"] = {gp.matmul, "GFLOP/s"};
    m["tensor.grad_a_gflops"] = {gp.grad_a, "GFLOP/s"};
    m["tensor.grad_b_gflops"] = {gp.grad_b, "GFLOP/s"};
    m["tensor.grad_b_subnormal_gflops"] = {gp.grad_b_subnormal, "GFLOP/s"};
  }
  trainer.reset();
  rannc::set_kernel_pool(nullptr);
  return r;
}

}  // namespace perfbench
