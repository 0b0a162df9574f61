// Shared pieces of the repository benchmark: the run context handed to each
// workload, the span recorder, op bookkeeping and the statistics that turn
// samples into the reported metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rannc.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rannc::BuiltModel;
using rannc::PartitionResult;
using rannc::SearchRequest;
using rannc::TaskGraph;
using rannc::TaskId;
using rannc::ValueId;

/// Milliseconds since `t0`.
double ms_since(Clock::time_point t0);

/// Deterministic 64-bit generator (splitmix64) for seed-derived inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// One span recorded from the benchmark's own code around a call into a
/// library layer. Times are microseconds since the recorder started.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for an op root
  int op = -1;      ///< op id the span belongs to
  [[nodiscard]] double ms() const { return (end_us - start_us) / 1e3; }
};

/// In-memory span recorder. Spans nest by call order on the (single)
/// benchmark thread; nothing is written until `write_json` at exit.
class Tracer {
 public:
  Tracer();
  /// RAII span; inactive (and free) when `tr` is null.
  class Scope {
   public:
    Scope(Tracer* tr, const char* name, int op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tr_;
    int idx_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// {"spans": [{"name", "start_us", "end_us", "parent", "op"}, ...]}
  bool write_json(const std::string& path) const;

 private:
  double now_us() const;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-op-kind latency samples of the measured phase.
class OpLog {
 public:
  void add(const std::string& kind, double ms) { samples_[kind].push_back(ms); }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& samples()
      const {
    return samples_;
  }
  /// Geometric mean over kinds of each kind's median.
  [[nodiscard]] double gmean_of_medians() const;
  /// Each kind's fastest sample, in kind order.
  [[nodiscard]] std::vector<double> mins() const;
  /// One line per kind: sample count, fastest sample, median and (when at
  /// least ten samples lie beyond it) the highest such percentile.
  [[nodiscard]] std::string describe() const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

double median(std::vector<double> v);
double gmean(const std::vector<double>& v);

/// Frozen reference values (perfbench/reference.json) and the outcome of
/// checking outputs against them.
class Checker {
 public:
  /// Loads `path`; `corrupt` deliberately skews every reference (plan costs
  /// halved, losses shifted by 0.01) so the self-test can prove that a wrong
  /// reference turns into failed ops.
  Checker(const std::string& path, bool corrupt);

  /// Checks one plan: feasible, `validate_plan` clean, and est_iteration_time
  /// no worse than the reference for `key`. Records the cost ratio.
  bool plan(const std::string& key, const PartitionResult& plan,
            const SearchRequest& req);
  /// Checks the training loss of step `index`: finite and within 1e-3 of
  /// the frozen reference.
  bool step_loss(std::size_t index, float value);
  /// Checks a training loss against a live single-device reference.
  bool loss_parity(float pipeline, float single);

  /// Geometric mean of est_iteration_time / reference over checked plans.
  [[nodiscard]] double plan_cost_ratio() const;
  /// Values observed this run, keyed like the reference file, for freezing a
  /// new reference.
  [[nodiscard]] std::string observed_json() const;

 private:
  bool fail(const std::string& why);
  std::map<std::string, double> plan_ref_;
  std::vector<double> losses_;
  std::vector<double> ratios_;
  std::map<std::string, double> seen_plans_;
  std::map<std::size_t, double> seen_losses_;
  int reported_ = 0;
};

/// Everything a workload needs from the command line.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< sizes the fixed op count (never a time box)
  bool trace = false;
  Checker* check = nullptr;
  Tracer* tracer = nullptr;  ///< set in traced runs
  int next_op = 0;           ///< op ids, unique across the run
  Clock::time_point process_start;
};

/// Metric name -> (value, unit), in output order.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What a workload hands back to main.
struct WorkloadResult {
  double setup_s = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Ops whose check compares with a frozen reference (the self-test expects
  /// exactly these to fail against a corrupted reference).
  std::int64_t reference_ops = 0;
  double measured_s = 0;  ///< wall time of the measured phase
  /// Search ops are deterministic, so each kind is summarized by its fastest
  /// repetition. On a shared host, other load slows whole stretches of a run
  /// (seconds at a time) by up to ~1.5x, which moves medians and means
  /// between runs but rarely the best of many short repetitions. Training
  /// keeps per-kind medians, because its step time legitimately changes
  /// mid-run (the subnormal onset).
  bool best_of = false;
  OpLog ops;              ///< untraced op latencies (all ops when untraced)
  OpLog traced_ops;       ///< latencies of traced ops (traced runs only)
  Metrics layers;         ///< per-layer metrics (traced runs only)
};

/// Per-layer aggregation helper: the samples of one span name per op kind.
/// Reports the geometric mean over kinds of per-kind medians.
class LayerSamples {
 public:
  void add(const std::string& layer, const std::string& kind, double v) {
    by_layer_[layer][kind].push_back(v);
  }
  [[nodiscard]] bool has(const std::string& layer) const {
    return by_layer_.count(layer) > 0;
  }
  [[nodiscard]] double gmean_median(const std::string& layer) const;
  [[nodiscard]] double median_of(const std::string& layer,
                                 const std::string& kind) const;
  [[nodiscard]] std::vector<std::string> kinds(const std::string& layer) const;

 private:
  std::map<std::string, std::map<std::string, std::vector<double>>> by_layer_;
};

// ---- workloads ---------------------------------------------------------------

// `probe` runs shrink set-up and inputs: traced runs use them to measure the
// layers their own workload does not exercise.
WorkloadResult run_search_moe(RunContext& ctx, int pairs, bool probe);
WorkloadResult run_search_zoo(RunContext& ctx, int passes, bool probe);
WorkloadResult run_train_bert_tiny(RunContext& ctx, int steps, bool probe);

/// Op counts for a run of `seconds` (a pure function of its argument).
int search_moe_pairs(double seconds);
int search_zoo_passes(double seconds);
int train_steps(double seconds);

}  // namespace perfbench
