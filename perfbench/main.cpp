// perfbench: the repository benchmark driver.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--reference FILE] [--trace-out FILE] [--corrupt-reference]
//             [--dump-reference FILE]
//
// Runs one workload (search-moe, search-zoo, train-bert-tiny) for a fixed
// number of ops derived from --seconds, checks every output, and prints as
// its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (every layer: those the workload does not exercise come from small probe
// runs of the other workloads). See README.md for what each metric means.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

// Captured during static initialization, as close to process start as a
// program can portably get.
const Clock::time_point kProcessStart = Clock::now();

struct Workload {
  const char* name;
  std::function<WorkloadResult(RunContext&, double seconds, bool probe)> run;
};

const Workload kWorkloads[] = {
    {"search-moe",
     [](RunContext& c, double s, bool probe) {
       return run_search_moe(c, probe ? 1 : search_moe_pairs(s), probe);
     }},
    {"search-zoo",
     [](RunContext& c, double s, bool probe) {
       return run_search_zoo(c, probe ? 1 : search_zoo_passes(s), probe);
     }},
    {"train-bert-tiny",
     [](RunContext& c, double s, bool probe) {
       return run_train_bert_tiny(c, probe ? 4 : train_steps(s), probe);
     }},
};

/// Every per-layer metric a traced run reports, with its unit.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"analysis.verify_ms", "ms"},
    {"partition.atomic_ms", "ms"},
    {"profiler.init_ms", "ms"},
    {"partition.block_ms", "ms"},
    {"partition.block_share", "ratio"},
    {"partition.block_scaling_exp", "exponent"},
    {"partition.sweep_ms", "ms"},
    {"partition.stats_sweep_ms", "ms"},
    {"partition.sweep_share_max", "ratio"},
    {"partition.dp_cells", "count"},
    {"partition.profile_queries", "count"},
    {"partition.memo_hit_rate", "ratio"},
    {"plan_io.to_json_ms", "ms"},
    {"plan_io.validate_ms", "ms"},
    {"models.build_ms", "ms"},
    {"serve.fingerprint_ms", "ms"},
    {"serve.sibling_over_cold", "ratio"},
    {"serve.hit_us", "us"},
    {"runtime.step_ms", "ms"},
    {"runtime.stage0.compute_ms", "ms"},
    {"runtime.stage1.compute_ms", "ms"},
    {"runtime.wait_share", "ratio"},
    {"runtime.optimizer_ms", "ms"},
    {"runtime.single_device_step_ms", "ms"},
    {"autodiff.forward_ms", "ms"},
    {"autodiff.backward_ms", "ms"},
    {"tensor.matmul_gflops", "GFLOP/s"},
    {"tensor.grad_a_gflops", "GFLOP/s"},
    {"tensor.grad_b_gflops", "GFLOP/s"},
    {"tensor.grad_b_subnormal_gflops", "GFLOP/s"},
    {"tensor.matmul.calls", "count"},
    {"tensor.matmul.bytes", "B"},
    {"tensor.matmul_grad_a.calls", "count"},
    {"tensor.matmul_grad_a.bytes", "B"},
    {"tensor.matmul_grad_b.calls", "count"},
    {"tensor.matmul_grad_b.bytes", "B"},
    {"tensor.transpose.calls", "count"},
    {"tensor.transpose.bytes", "B"},
    {"arena.hit_rate", "ratio"},
    {"arena.fresh_bytes_per_step", "B"},
    {"trace.overhead_ms", "ms"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload search-moe|search-zoo|train-bert-tiny "
               "--seed N --seconds S --trace 0|1 [--reference FILE] "
               "[--trace-out FILE] [--corrupt-reference] [--dump-reference FILE]\n",
               argv0);
  return 2;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    os << (first ? "" : ", ") << rannc::obs::json_string(name)
       << ": {\"value\": " << rannc::obs::json_double(v.value)
       << ", \"unit\": " << rannc::obs::json_string(v.unit) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, reference = "perfbench/reference.json", trace_out,
                        dump_reference;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  bool corrupt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_val = i + 1 < argc;
    if (a == "--workload" && has_val) workload = argv[++i];
    else if (a == "--seed" && has_val) seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_val) seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has_val) trace = std::atoi(argv[++i]);
    else if (a == "--reference" && has_val) reference = argv[++i];
    else if (a == "--trace-out" && has_val) trace_out = argv[++i];
    else if (a == "--dump-reference" && has_val) dump_reference = argv[++i];
    else if (a == "--corrupt-reference") corrupt = true;
    else return usage(argv[0]);
  }
  const Workload* own = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload == w.name) own = &w;
  if (own == nullptr || (trace != 0 && trace != 1) || seconds <= 0)
    return usage(argv[0]);

  Checker check(reference, corrupt);
  Tracer tracer;
  RunContext ctx;
  ctx.workload = workload;
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.trace = trace == 1;
  ctx.check = &check;
  ctx.tracer = ctx.trace ? &tracer : nullptr;
  ctx.process_start = kProcessStart;

  WorkloadResult r = own->run(ctx, seconds, /*probe=*/false);
  std::printf("%s seed %llu: setup %.3f s, %lld ops in %.2f s\n", workload.c_str(),
              static_cast<unsigned long long>(seed), r.setup_s,
              static_cast<long long>(r.attempted), r.measured_s);
  std::printf("%s", r.ops.describe().c_str());

  const auto op_gmean = [&r](const OpLog& ops) {
    return r.best_of ? gmean(ops.mins()) : ops.gmean_of_medians();
  };
  // Best-of workloads: one op of every kind back to back at each kind's
  // fastest latency. Otherwise: ops completed over the measured wall time.
  const auto ops_per_s = [&r] {
    if (r.best_of) {
      const std::vector<double> mins = r.ops.mins();
      double sum_ms = 0;
      for (double m : mins) sum_ms += m;
      return 1e3 * static_cast<double>(mins.size()) / sum_ms;
    }
    double n = 0;
    for (const auto& [k, xs] : r.ops.samples()) n += static_cast<double>(xs.size());
    return n / r.measured_s;
  };
  Metrics metrics;
  if (!ctx.trace) {
    metrics["setup_s"] = {r.setup_s, "s"};
    metrics["op_gmean_ms"] = {op_gmean(r.ops), "ms"};
    metrics["ops_per_s"] = {ops_per_s(), "1/s"};
    metrics["plan_cost_ratio"] = {check.plan_cost_ratio(), "ratio"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    metrics["pass_share"] = {
        static_cast<double>(r.attempted - r.failed) / static_cast<double>(r.attempted),
        "ratio"};
  } else {
    std::printf("traced ops:\n%s", r.traced_ops.describe().c_str());
    metrics = r.layers;
    metrics["trace.overhead_ms"] = {op_gmean(r.traced_ops) - op_gmean(r.ops), "ms"};
    // Layers this workload does not exercise: small probe runs of the others.
    for (const Workload& w : kWorkloads) {
      if (&w == own) continue;
      const WorkloadResult p = w.run(ctx, seconds, /*probe=*/true);
      r.attempted += p.attempted;
      r.failed += p.failed;
      r.reference_ops += p.reference_ops;
      for (const auto& [name, v] : p.layers) metrics.emplace(name, v);
    }
    Metrics listed;
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = metrics.find(name);
      if (it == metrics.end()) {
        std::fprintf(stderr, "perfbench: no value for per-layer metric %s\n", name);
        return 3;
      }
      listed[name] = {it->second.value, unit};
    }
    metrics = std::move(listed);
    if (!trace_out.empty() && !tracer.write_json(trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
  }
  if (!dump_reference.empty()) {
    std::ofstream f(dump_reference);
    f << check.observed_json() << "\n";
  }

  std::printf("reference ops: %lld\n", static_cast<long long>(r.reference_ops));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              r.failed == 0 ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics_json(metrics).c_str());
  return 0;
}
