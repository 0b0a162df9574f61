// Pipeline-parallel schedule simulators.
//
// Synchronous fill/drain (GPipe-style, paper Fig. 1) and asynchronous 1F1B
// (PipeDream-2BW) schedules. These produce the iteration times behind every
// throughput number in the Fig. 4 / Fig. 5 reproductions, and the ASCII
// Gantt renderer used by the pipeline_gantt example.
#pragma once

#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/trace.h"

namespace rannc {

/// Per-microbatch timing of one pipeline stage. Boundary communication is
/// part of both times, as in the paper's stage cost h() (Section III-C).
struct StageTimes {
  double t_f = 0;  ///< forward seconds per microbatch (incl. activation send)
  double t_b = 0;  ///< backward seconds per microbatch (incl. recompute and
                   ///< gradient send)
};

struct ScheduleResult {
  double iteration_time = 0;  ///< makespan of one mini-batch (all microbatches)
  double bubble_fraction = 0; ///< idle device-time fraction
  /// One record per scheduled F/B op, with the causal edges that released
  /// it (what the attribution engine in `src/obs` walks).
  std::vector<obs::CausalOp> intervals;
};

/// Simulates a synchronous GPipe schedule: each stage runs all forward
/// microbatches in order, then all backward microbatches in reverse order;
/// parameters update after the flush (staleness-free, paper Section II-B).
ScheduleResult simulate_gpipe(const std::vector<StageTimes>& stages,
                              int microbatches);

/// simulate_gpipe's makespan in closed form: the longest path through the
/// fill/flush DAG runs every stage's forward and backward once and the
/// slowest forward and backward MB - 1 more times,
///   sum_s (t_f,s + t_b,s) + (MB - 1) * (max t_f + max t_b).
/// Equal to the simulated makespan up to rounding; the search's estimate
/// floors (estimate_floor in partition/stage_dp.h) rest on this identity.
double gpipe_iteration(const std::vector<StageTimes>& stages,
                       int microbatches);

/// Asynchronous 1F1B steady state (PipeDream-2BW): no flush, so per
/// mini-batch cost is MB times the busiest stage's per-microbatch period.
ScheduleResult simulate_1f1b_async(const std::vector<StageTimes>& stages,
                                   int microbatches);

/// Converts a schedule's intervals into generic timeline spans (track =
/// stage, glyph F/B, virtual-time seconds) — the single interval walk
/// shared by the ASCII Gantt renderer and the trace recorder. Span args
/// carry the causal-edge annotations (resource_ready / data_ready /
/// dep_*), so the emitted trace is a self-contained causal DAG.
std::vector<obs::TimelineSpan> schedule_spans(const ScheduleResult& res);

/// Evaluates one what-if against the report `rep` of the GPipe schedule
/// simulated from (`stages`, `microbatches`): the report's first-order
/// estimate, and the ground truth from perturbing a copy of the simulator
/// inputs (a stage's compute times or the microbatch count) and re-running
/// simulate_gpipe.
obs::WhatIfResult evaluate_what_if(const obs::AttributionReport& rep,
                                   const std::vector<StageTimes>& stages,
                                   int microbatches, const obs::WhatIf& w);

/// Renders intervals as an ASCII Gantt chart, one row per stage.
std::string render_gantt(const ScheduleResult& res, int num_stages,
                         int width = 100);

/// Records the schedule into the recorder's virtual-time SimSchedule
/// domain: one track per stage (named "stage <s>"), one complete span per
/// interval, plus a bubble-fraction counter at t=0.
void trace_schedule(obs::TraceRecorder& rec, const ScheduleResult& res,
                    int num_stages);

}  // namespace rannc
