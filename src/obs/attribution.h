// Causal performance attribution: conservation-checked decomposition of a
// simulated training step into compute / bubble buckets, straggler and
// bottleneck rankings, first-order what-if estimators, and the per-link
// wire / contention-queuing split of a fabric replay.
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
// ulps and is cross-checked against the directly summed gap total). The
// same discipline applies to the per-link wire/queue split. Reports are
// therefore conservation-checked *and* byte-stable: every input is
// deterministic virtual time, so serialized reports are identical across
// runs and RANNC_THREADS values.
//
// The headline "step decomposition" is the partition of the *anchor
// stage* — the stage whose op ends at the makespan. Its bubble matches
// the textbook pipeline-bubble fraction (e.g. (S-1)/(MB+S-1) for uniform
// GPipe), whereas the critical path itself is gapless by construction.
#pragma once

#include <cstdint>
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

/// Per-link communication attribution (fabric transfers grouped by the
/// bottleneck link of their path). `wire + queue == active` bit-exactly.
struct LinkAttribution {
  std::string name;
  std::int64_t transfers = 0;
  double bytes = 0;
  double wire = 0;    ///< uncontended flow seconds (sum of nominals)
  double queue = 0;   ///< fitted contention excess
  double active = 0;  ///< summed actual flow seconds of these transfers
  double busy = 0;    ///< union-of-intervals busy seconds of the link
};

/// One fabric transfer, as logged by comm::Fabric (adapted there; obs
/// does not depend on the fabric).
struct FabricTransfer {
  int src = 0;
  int dst = 0;
  double bytes = 0;
  double activate = 0;  ///< flow start (post-latency), virtual seconds
  double finish = 0;
  double nominal = 0;   ///< uncontended flow seconds: bytes / min path bw
  int bottleneck_link = -1;  ///< slowest link on the path
};

/// A perturbation of the simulated plan, answered two ways: a first-order
/// estimate from the attribution report alone, and (by callers that own
/// the simulator inputs) a ground-truth re-simulation.
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
  std::string name;          ///< stable human-readable id
  double baseline = 0;       ///< the report's step time
  double estimate = 0;       ///< first-order estimate of the new step time
  double ground_truth = -1;  ///< re-simulated step time; < 0 = not computed
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
  std::vector<LinkAttribution> links;      ///< only links that carried data
  std::vector<int> bottleneck_links;       ///< indices into links, by queue
  double fabric_horizon = 0;               ///< fabric virtual makespan
  std::vector<WhatIfResult> what_ifs;
};

/// Builds the schedule-side report: critical path, per-stage buckets with
/// the bit-exact conservation fit, anchor decomposition, stragglers.
/// Throws std::logic_error if conservation cannot be established (fitted
/// bubble disagreeing with the directly summed gaps beyond 1e-9 * T,
/// relative at every scale).
AttributionReport attribute(const std::vector<CausalOp>& ops, int num_stages,
                            int microbatches);

/// Attaches the fabric side: groups `transfers` by bottleneck link,
/// splits each link's active seconds into wire + queue (bit-exact fold),
/// and ranks bottleneck links by queue seconds. `link_names` and
/// `link_busy_seconds` are indexed by link id; `horizon` is the fabric's
/// final virtual clock.
void attach_links(AttributionReport& rep,
                  const std::vector<FabricTransfer>& transfers,
                  const std::vector<std::string>& link_names,
                  const std::vector<double>& link_busy_seconds,
                  double horizon);

/// Stable name, e.g. "stage0.compute.x0.75" or "microbatches.8".
std::string what_if_name(const WhatIf& w);

/// First-order estimate of the perturbed step time from the report alone
/// (critical-path arithmetic; see docs/ALGORITHMS.md section 11).
double estimate_what_if(const AttributionReport& rep, const WhatIf& w);

/// The default catalog used by rannc explain: anchor compute scaled by
/// 0.75 and 1.25, the top straggler's by 0.9, and the microbatch count
/// doubled and (when > 1) halved.
std::vector<WhatIf> default_what_ifs(const AttributionReport& rep);

/// Deterministic pretty-printed JSON document ("rannc.explain.v2").
std::string report_json(const AttributionReport& rep);

/// ASCII attribution table (stages, critical path, links, what-ifs).
std::string report_table(const AttributionReport& rep);

}  // namespace obs
}  // namespace rannc
