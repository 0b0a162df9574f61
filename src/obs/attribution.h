// Causal performance attribution: conservation-checked decomposition of a
// simulated training step into compute / bubble buckets, the straggler
// ranking, and a what-if catalog answered by re-simulation.
//
// The decomposition works per stage: each stage's ops and the gaps
// between them partition the closed interval [0, step_time] exactly.
// Boundary communication is inside each stage's compute time (the
// paper's h()), so every gap is bubble. Compute is accumulated with
// compensated summation and the bubble bucket is then *fitted* so
//
//     compute + bubble == total
//
// holds bit-exactly in double arithmetic (the fit nudges by at most a few
// ulps and is cross-checked against the directly summed gap total). Reports
// are therefore conservation-checked *and* byte-stable: every input is
// deterministic virtual time, so serialized reports are identical across
// runs and RANNC_THREADS values.
//
// The headline "step decomposition" is the partition of the *anchor
// stage* — the stage whose op ends at the makespan. Its bubble matches
// the textbook pipeline-bubble fraction (e.g. (S-1)/(MB+S-1) for uniform
// GPipe), whereas the critical path itself is gapless by construction.
#pragma once

#include <string>
#include <vector>

#include "obs/critpath.h"

namespace rannc {
namespace obs {

/// One stage's exact partition of [0, total]: compute + bubble reproduces
/// `total` bit-exactly.
struct StageBuckets {
  double compute = 0;  ///< seconds the stage ran F/B ops
  double bubble = 0;   ///< fitted idle remainder (head/interior/tail gaps)
  double total = 0;    ///< the end-to-end virtual step time
};

/// A perturbation of the simulated plan, answered by callers that own the
/// simulator inputs with a re-simulation (evaluate_what_if).
struct WhatIf {
  enum class Kind {
    StageComputeScale,  ///< scale stage `index` compute time by `factor`
    Microbatches,       ///< run with `microbatches` instead
  };
  Kind kind = Kind::StageComputeScale;
  int index = -1;
  double factor = 1;
  int microbatches = 0;
};

struct WhatIfResult {
  WhatIf spec;
  std::string name;         ///< stable human-readable id
  double baseline = 0;      ///< the report's step time
  double ground_truth = 0;  ///< re-simulated step time
};

struct AttributionReport {
  std::string subject;  ///< free-form label (model/cluster), set by tools
  int num_stages = 0;
  int microbatches = 0;
  double step_time = 0;
  int anchor_stage = -1;
  StageBuckets step;                 ///< the anchor stage's partition
  std::vector<StageBuckets> stages;  ///< per-stage partitions of [0, T]
  CriticalPath path;
  std::vector<int> stragglers;  ///< stage ids, most compute-loaded first
  std::vector<WhatIfResult> what_ifs;
};

/// Builds the schedule-side report: critical path, per-stage buckets with
/// the bit-exact conservation fit, anchor decomposition, stragglers.
/// Throws std::logic_error if conservation cannot be established (fitted
/// bubble disagreeing with the directly summed gaps beyond 1e-9 * T,
/// relative at every scale).
AttributionReport attribute(const std::vector<CausalOp>& ops, int num_stages,
                            int microbatches);

/// Stable name, e.g. "stage0.compute.x0.75" or "microbatches.8".
std::string what_if_name(const WhatIf& w);

/// The default catalog used by rannc explain: anchor compute scaled by
/// 0.75 and 1.25, the top straggler's by 0.9, and the microbatch count
/// doubled and (when > 1) halved.
std::vector<WhatIf> default_what_ifs(const AttributionReport& rep);

/// Deterministic pretty-printed JSON document ("rannc.explain.v4").
std::string report_json(const AttributionReport& rep);

/// ASCII attribution table (stages, critical path, what-ifs).
std::string report_table(const AttributionReport& rep);

}  // namespace obs
}  // namespace rannc
