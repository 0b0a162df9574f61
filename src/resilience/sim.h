// Virtual-time replay of a partitioned training run under a fault plan.
//
// simulate_with_faults runs auto_partition, then replays `steps` training
// iterations entirely in virtual time: the GPipe schedule supplies compute
// spans (SimSchedule trace lanes), the discrete-event fabric carries the
// boundary activations/gradients and gradient all-reduces (SimFabric
// lanes), and the fault plan injects message timeouts (absorbed by the
// retry policy as simulated backoff, or escalating to a transactional
// rollback), link degradation windows, and device fail-stops. A fail-stop
// triggers the full elastic-recovery path: cluster shrink, re-partition
// on the survivors, shard migration replayed as fabric transfers, and the
// remaining steps continue on the new plan.
//
// Determinism: the schedule, fabric, partitioner and fault plan are all
// individually deterministic in virtual time, so the whole replay — final
// plan, step timings, and the SimSchedule/SimFabric trace streams — is
// bit-identical at any RANNC_THREADS setting. The test suite and the CI
// fault-matrix step pin this by diffing runs at thread counts 1 and 4.
//
// Model simplifications (documented, deterministic): a failed step is
// charged a full iteration per retry run; fail-stops are detected at the
// failed rank's next fabric transfer; after a recovery the remaining fault
// events apply only where their names still resolve (fail-stops and link
// windows are not remapped onto the shrunk cluster).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/task_graph.h"
#include "partition/auto_partitioner.h"
#include "resilience/fault_plan.h"
#include "resilience/recovery.h"
#include "runtime/pipeline_runtime.h"

namespace rannc {
namespace resilience {

struct SimOptions {
  int steps = 4;  ///< training iterations to replay
  /// Retry discipline assumed for injected message timeouts; mirrors
  /// PipelineOptions::retry (backoff accounted in virtual time).
  RetryPolicy retry{/*max_attempts=*/3, /*backoff_base_s=*/1e-3,
                    /*backoff_factor=*/2.0, /*recv_timeout_s=*/0};
};

/// Outcome of one replayed training step.
struct SimStep {
  int step = 0;
  double start = 0, end = 0;    ///< virtual seconds
  std::int64_t retries = 0;     ///< injected timeouts absorbed by retry
  double backoff_seconds = 0;   ///< simulated backoff accrued
  int rollbacks = 0;            ///< transactional retries of the whole step
  bool device_failure = false;  ///< a fail-stop interrupted this step
  std::vector<int> failed_ranks;
  bool recovered = false;  ///< elastic recovery ran (step is then retried)
  bool completed = false;
};

struct SimResult {
  PartitionResult initial_plan;
  /// The plan training ends on — the recovery's plan after a device loss,
  /// otherwise the initial one.
  PartitionResult final_plan;
  bool recovered = false;
  double recovery_seconds = 0;  ///< virtual re-shard window
  ShardMigration migration;
  std::vector<SimStep> steps;
  double virtual_seconds = 0;  ///< whole-run makespan
  bool aborted = false;        ///< unrecoverable failure ended the run early
  std::string abort_reason;
};

/// Replays training under `faults`. Traces into the globally attached
/// recorder (obs::set_recorder) when one is present; emits resilience.*
/// metrics. Throws std::invalid_argument when no feasible initial plan
/// exists.
SimResult simulate_with_faults(const TaskGraph& model,
                               const SearchRequest& req,
                               const FaultPlan& faults,
                               const SimOptions& opts = {});

}  // namespace resilience
}  // namespace rannc
