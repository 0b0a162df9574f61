// Runtime raw-speed benchmark: end-to-end training steps/sec on the same
// loss-parity models the equivalence suite trains, comparing the seed
// configuration (naive reference kernels, no arena) with the fast path
// (blocked/SIMD kernels, arena allocation). Emits BENCH_RUNTIME.json and
// gates on the tentpole claim: fast-path step throughput >= `--gate`x
// (default 5x) the naive path on every model, with blocked results
// bit-identical across thread counts and final losses matching the naive
// run within the loss-parity threshold.
//
// Usage: bench_runtime [--quick] [--out FILE] [--gate X]
//   --quick   fewer measured steps (CI smoke); gate still evaluated
//   --out     write the JSON report to FILE (default BENCH_RUNTIME.json
//             in the current directory)
//   --gate    required min speedup (0 disables the gate)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "rannc.h"
#include "tensor/kernels_blocked.h"
#include "util/arena.h"
#include "util/thread_pool.h"

namespace {

using namespace rannc;

struct RunConfig {
  bool naive = false;   // reference kernels instead of blocked
  bool arena = true;    // slab pooling on
};

struct RunResult {
  double steps_per_sec = 0;
  double ms_per_step = 0;
  double fresh_bytes_per_step = 0;  // heap bytes actually allocated
  double arena_hit_rate = 0;        // pool hits / allocs
  float final_loss = 0;
  std::vector<float> losses;
};

struct ModelCase {
  std::string name;
  BuiltModel model;
  std::vector<std::vector<TaskId>> stage_tasks;
  int microbatches = 1;
  std::function<std::vector<TensorMap>(int step)> make_batch;
};

ModelCase make_mlp_case() {
  MlpConfig mc;
  mc.input_dim = 256;
  mc.hidden_dims = {1024, 1024, 1024, 1024};
  mc.num_classes = 64;
  mc.batch = 32;
  ModelCase c{"mlp", build_mlp(mc), {}, 1, nullptr};

  SearchRequest cfg;
  cfg.cluster.num_nodes = 1;
  cfg.cluster.devices_per_node = 4;
  cfg.cluster.device.memory_bytes = 5 * c.model.graph.num_params() * 4;
  cfg.batch_size = 32;
  cfg.num_blocks = 8;
  PartitionResult plan = auto_partition(c.model.graph, cfg).plan;
  if (!plan.feasible) {
    std::fprintf(stderr, "mlp partition infeasible: %s\n",
                 plan.infeasible_reason.c_str());
    std::exit(1);
  }
  for (const StagePlan& s : plan.stages) c.stage_tasks.push_back(s.tasks);
  c.microbatches = std::max(1, plan.microbatches);

  const TaskGraph& g = c.model.graph;
  const ValueId x = g.input_values()[0];
  const ValueId y = g.input_values()[1];
  const Shape xs = g.value(x).shape;
  const int mb_count = c.microbatches;
  c.make_batch = [x, y, xs, mb_count](int step) {
    std::vector<TensorMap> mbs;
    for (int j = 0; j < mb_count; ++j) {
      TensorMap mb;
      mb.emplace(x, Tensor::uniform(
                        xs, 1.0f,
                        1000 + 31 * static_cast<std::uint64_t>(step) +
                            static_cast<std::uint64_t>(j)));
      Tensor labels(Shape{xs.dims[0]});
      for (std::int64_t i = 0; i < xs.dims[0]; ++i)
        labels.at(i) = static_cast<float>((i + j + step) % 64);
      mb.emplace(y, std::move(labels));
      mbs.push_back(std::move(mb));
    }
    return mbs;
  };
  return c;
}

ModelCase make_bert_case() {
  BertConfig bc;
  bc.hidden = 384;
  bc.heads = 6;
  bc.layers = 2;
  bc.seq_len = 64;
  bc.vocab = 512;
  ModelCase c{"bert_tiny", build_bert(bc), {}, 1, nullptr};

  SearchRequest cfg;
  cfg.cluster.num_nodes = 1;
  cfg.cluster.devices_per_node = 2;
  cfg.cluster.device.memory_bytes = 5 * c.model.graph.num_params() * 4;
  cfg.batch_size = 4;
  cfg.num_blocks = 6;
  PartitionResult plan = auto_partition(c.model.graph, cfg).plan;
  if (!plan.feasible) {
    std::fprintf(stderr, "bert partition infeasible: %s\n",
                 plan.infeasible_reason.c_str());
    std::exit(1);
  }
  for (const StagePlan& s : plan.stages) c.stage_tasks.push_back(s.tasks);
  c.microbatches = std::max(1, plan.microbatches);

  const TaskGraph& g = c.model.graph;
  ValueId ids = -1, mask = -1, labels = -1;
  for (ValueId v : g.input_values()) {
    const std::string& n = g.value(v).name;
    if (n == "input_ids") ids = v;
    if (n == "attention_mask") mask = v;
    if (n == "mlm_labels") labels = v;
  }
  const std::int64_t seq = bc.seq_len, vocab = bc.vocab;
  const int mb_count = c.microbatches;
  c.make_batch = [ids, mask, labels, seq, vocab, mb_count](int step) {
    std::vector<TensorMap> mbs;
    for (int j = 0; j < mb_count; ++j) {
      TensorMap mb;
      Tensor tok(Shape{seq});
      Tensor lab(Shape{seq});
      for (std::int64_t i = 0; i < seq; ++i) {
        tok.at(i) = static_cast<float>((3 + 7 * i + j + step) % vocab);
        lab.at(i) = static_cast<float>((5 + 11 * i + 2 * j + step) % vocab);
      }
      mb.emplace(ids, std::move(tok));
      mb.emplace(mask, Tensor::zeros(Shape{1, seq, seq}));
      mb.emplace(labels, std::move(lab));
      mbs.push_back(std::move(mb));
    }
    return mbs;
  };
  return c;
}

RunResult run_case(const ModelCase& c, const RunConfig& rc, int steps,
                   ThreadPool* pool) {
  set_naive_kernels(rc.naive);
  Arena::global().set_enabled(rc.arena);
  set_kernel_pool(pool);

  OptimizerConfig oc;
  oc.kind = OptimizerConfig::Kind::Adam;
  oc.lr = 0.01f;
  PipelineOptions popt;
  popt.opt = oc;
  popt.seed = 42;
  PipelineTrainer pipeline(c.model.graph, c.stage_tasks, popt);

  RunResult r;
  pipeline.step(c.make_batch(0));  // warmup: populate arena, lazy opt state
  const auto s0 = Arena::global().stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (int step = 1; step <= steps; ++step)
    r.losses.push_back(pipeline.step(c.make_batch(step)));
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto s1 = Arena::global().stats();

  r.steps_per_sec = steps / dt;
  r.ms_per_step = 1e3 * dt / steps;
  r.fresh_bytes_per_step =
      static_cast<double>(s1.fresh_bytes - s0.fresh_bytes) / steps;
  const double allocs = static_cast<double>(s1.allocs - s0.allocs);
  r.arena_hit_rate =
      allocs > 0 ? static_cast<double>(s1.pool_hits - s0.pool_hits) / allocs
                 : 0;
  r.final_loss = r.losses.back();

  set_naive_kernels(false);
  Arena::global().set_enabled(true);
  set_kernel_pool(nullptr);
  Arena::global().trim();
  return r;
}

void write_run(json::Writer& w, const char* name, const RunResult& r) {
  w.key(name).begin_object().field("steps_per_sec", r.steps_per_sec);
  w.field("ms_per_step", r.ms_per_step);
  w.field("fresh_bytes_per_step", r.fresh_bytes_per_step);
  w.field("arena_hit_rate", r.arena_hit_rate);
  w.field("final_loss", r.final_loss).end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double gate = 5.0;
  std::string out = "BENCH_RUNTIME.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") quick = true;
    else if (a == "--out" && i + 1 < argc) out = argv[++i];
    else if (a == "--gate" && i + 1 < argc) gate = std::atof(argv[++i]);
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE] [--gate X]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("== Runtime raw speed: naive seed path vs blocked+arena ==\n");
  std::printf("SIMD blocked kernels: %s\n\n",
              detail::blocked_kernels_simd() ? "AVX2+FMA" : "portable C");

  std::vector<ModelCase> cases;
  cases.push_back(make_mlp_case());
  cases.push_back(make_bert_case());

  const RunConfig naive_cfg{/*naive=*/true, /*arena=*/false};
  const RunConfig fast_cfg{/*naive=*/false, /*arena=*/true};

  double min_speedup = 1e30;
  bool parity_ok = true, threads_ok = true;
  json::Writer w;
  w.begin_object().field("schema", "rannc.bench_runtime.v1");
  w.field("simd", detail::blocked_kernels_simd()).field("quick", quick);
  w.key("models").begin_array();
  for (const ModelCase& c : cases) {
    const int naive_steps = quick ? 1 : 3;
    const int fast_steps = quick ? 4 : 15;
    RunResult naive = run_case(c, naive_cfg, naive_steps, nullptr);
    RunResult fast = run_case(c, fast_cfg, fast_steps, nullptr);
    const double speedup = fast.steps_per_sec / naive.steps_per_sec;
    min_speedup = std::min(min_speedup, speedup);

    // Loss parity: the fast path must train to the same loss as the seed
    // path (same threshold as bench_loss_parity).
    const int cmp = std::min(naive_steps, fast_steps);
    float loss_diff = 0;
    for (int i = 0; i < cmp; ++i)
      loss_diff = std::max(
          loss_diff, std::fabs(naive.losses[static_cast<std::size_t>(i)] -
                               fast.losses[static_cast<std::size_t>(i)]));
    parity_ok = parity_ok && loss_diff < 1e-3f;

    // Thread bit-identity: the fast path must produce byte-identical losses
    // with 1 and 4 kernel threads.
    ThreadPool solo(0), wide(3);
    RunResult t1 = run_case(c, fast_cfg, quick ? 2 : 4, &solo);
    RunResult t4 = run_case(c, fast_cfg, quick ? 2 : 4, &wide);
    const bool bit_identical =
        t1.losses.size() == t4.losses.size() &&
        std::memcmp(t1.losses.data(), t4.losses.data(),
                    t1.losses.size() * sizeof(float)) == 0;
    threads_ok = threads_ok && bit_identical;

    std::printf("%-10s stages=%zu mb=%d\n", c.name.c_str(),
                c.stage_tasks.size(), c.microbatches);
    std::printf("  naive: %8.2f ms/step  %10.0f fresh B/step\n",
                naive.ms_per_step, naive.fresh_bytes_per_step);
    std::printf("  fast:  %8.2f ms/step  %10.0f fresh B/step  hit %.1f%%\n",
                fast.ms_per_step, fast.fresh_bytes_per_step,
                100 * fast.arena_hit_rate);
    std::printf("  speedup %.2fx  loss diff %.2e  threads 1==4: %s\n\n",
                speedup, static_cast<double>(loss_diff),
                bit_identical ? "bit-identical" : "MISMATCH");

    w.begin_object().field("name", c.name);
    w.field("stages", c.stage_tasks.size());
    w.field("microbatches", c.microbatches);
    write_run(w, "naive", naive);
    write_run(w, "fast", fast);
    w.field("speedup", speedup).field("max_loss_diff", loss_diff);
    w.field("thread_bit_identical", bit_identical).end_object();
  }

  const bool gate_ok = gate <= 0 || min_speedup >= gate;
  const bool pass = gate_ok && parity_ok && threads_ok;
  w.end_array().field("min_speedup", min_speedup).field("gate", gate);
  std::ofstream f(out);
  f << w.field("pass", pass).end_object().str();
  f.close();

  std::printf("min speedup %.2fx (gate %.1fx) -> %s\n", min_speedup, gate,
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
