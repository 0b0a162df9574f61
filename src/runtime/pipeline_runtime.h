// Multi-threaded synchronous pipeline executor.
//
// Each stage of a RaNNC partition runs on its own thread (one thread = one
// accelerator device), exchanging cut activations and gradients through
// bounded channels, with GPipe-style microbatching and a full flush before
// the optimizer step — the staleness-free discipline of Section II-B.
// Optional per-stage gradient checkpointing recomputes the stage forward
// during backward, exactly as RaNNC applies automatically when a model is
// partitioned into more than one stage (Section IV-A).
//
// Gradient accumulation across microbatches is ordered ascending, matching
// the single-device Trainer so partitioned and unpartitioned training are
// numerically identical (up to float non-associativity in kernels, which
// are themselves deterministic here).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "autodiff/interpreter.h"
#include "cluster/cluster_spec.h"
#include "runtime/channel.h"
#include "runtime/optimizer.h"

namespace rannc {

struct PipelineOptions {
  OptimizerConfig opt;
  std::uint64_t seed = 1;
  /// Gradient checkpointing: stages keep only their cut inputs per
  /// microbatch and recompute the forward during backward.
  bool recompute = false;
  /// When set, every boundary message is priced with the closed form
  /// `p2p_time(*cluster, bytes, same_node)` on both its sending and its
  /// receiving stage, and per-stage comm time and bytes are reported next
  /// to measured compute time. Stage `s` is pinned to device `s`, so an
  /// edge crosses nodes when its stages sit on different nodes.
  std::optional<ClusterSpec> cluster;
  /// Wall-clock bound on each boundary receive; a wait that expires fails
  /// the step with StageTimeoutError. 0 blocks until data or close.
  double recv_timeout_s = 0;
  /// Test seam: called as (stage, microbatch) at the start of every
  /// forward microbatch, from the stage's own thread. Lets a harness stall
  /// or fail a stage. Must be thread-safe.
  std::function<void(int, int)> stage_hook;
};

/// Cumulative per-stage execution report (across all `step` calls).
struct StageReport {
  double compute_seconds = 0;  ///< measured wall-clock in fwd/bwd kernels
  double comm_seconds = 0;     ///< closed-form boundary transfer time
  std::int64_t bytes_in = 0;   ///< boundary payload received
  std::int64_t bytes_out = 0;  ///< boundary payload sent
};

/// A stage waited longer than `PipelineOptions::recv_timeout_s` for one
/// boundary message.
class StageTimeoutError : public std::runtime_error {
 public:
  StageTimeoutError(int stage, const std::string& channel, double timeout_s)
      : std::runtime_error("stage " + std::to_string(stage) + ": receive on " +
                           channel + " timed out after " +
                           std::to_string(timeout_s) + "s"),
        stage_(stage) {}
  [[nodiscard]] int stage() const { return stage_; }

 private:
  int stage_;
};

class PipelineTrainer {
 public:
  /// `stages` are disjoint task subsets covering all tasks of `g`, each
  /// sorted ascending, topologically ordered stage-to-stage.
  PipelineTrainer(const TaskGraph& g, std::vector<std::vector<TaskId>> stages,
                  PipelineOptions options);

  /// One synchronous pipeline step over the given microbatches; returns the
  /// mean loss. If any stage throws, the remaining stages are unblocked by
  /// closing the boundary channels and the first exception is rethrown.
  /// Some stages may already have applied their optimizer step by then,
  /// so a failed step leaves the trainer unusable: every later `step`
  /// throws std::logic_error.
  float step(const std::vector<TensorMap>& microbatches);

  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }
  /// Parameter shard held by stage `s` (for equivalence testing).
  [[nodiscard]] const TensorMap& stage_params(std::size_t s) const {
    return stages_[s].params;
  }
  /// All parameters across stages, merged into one map (shallow copies).
  [[nodiscard]] TensorMap gather_params() const;
  /// Cumulative compute/comm report for stage `s`. Comm time is accrued
  /// only when `PipelineOptions::cluster` is set.
  [[nodiscard]] const StageReport& stage_report(std::size_t s) const {
    return stages_[s].report;
  }

 private:
  /// Priced traffic through one side of a channel. Written only by the
  /// thread on that side; read after the stage threads joined.
  struct Tally {
    double seconds = 0;
    std::int64_t bytes = 0;
  };
  struct Edge {
    int from = 0, to = 0;
    bool same_node = true;
    std::vector<ValueId> values;
    Channel<TensorMap> fwd{256};  ///< activations, from -> to
    Channel<TensorMap> bwd{256};  ///< gradients, to -> from
    Tally fwd_sent, fwd_recv, bwd_sent, bwd_recv;
    /// Channel names ("fwd <from>-><to>" / "bwd <to>-><from>") used in
    /// timeout diagnostics.
    std::string fwd_name, bwd_name;
  };
  struct Stage {
    int index = 0;
    std::vector<TaskId> tasks;
    TensorMap params;
    std::vector<ValueId> input_values;  ///< graph Inputs this stage consumes
    std::vector<Edge*> in_edges, out_edges;
    Optimizer opt;
    bool owns_loss = false;
    StageReport report;

    explicit Stage(OptimizerConfig cfg) : opt(cfg) {}
  };

  void run_stage(Stage& stage, const std::vector<TensorMap>& microbatches,
                 double* loss_out);
  /// Adds one message to `t` when a cluster is configured.
  void accrue(Tally& t, const TensorMap& m, bool same_node) const;
  void abort_pipeline();
  void collect_comm_reports();

  Interpreter interp_;
  PipelineOptions options_;
  std::vector<Stage> stages_;
  std::vector<std::unique_ptr<Edge>> edges_;
  ValueId loss_value_ = -1;
  /// Set when a step fails; every later step() throws.
  bool failed_ = false;
};

}  // namespace rannc
