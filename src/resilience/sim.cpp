#include "resilience/sim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/plan_eval.h"
#include "pipeline/schedule.h"

namespace rannc {
namespace resilience {

namespace {

/// SimSchedule track carrying fault/recovery control events (instants and
/// the recovery span), clear of the per-stage lanes.
constexpr int kControlTrack = 1000;

/// First-device rank of every stage in one pipeline replica (contiguous
/// layout, stages in order — the same convention as replay_plan_comm).
std::vector<int> stage_offsets(const PartitionResult& plan) {
  std::vector<int> off(plan.stages.size() + 1, 0);
  for (std::size_t s = 0; s < plan.stages.size(); ++s)
    off[s + 1] = off[s] + plan.stages[s].devices;
  return off;
}

/// Runtime channel names of the plan's stage boundaries, matching
/// PipelineTrainer's convention.
std::vector<std::string> boundary_channels(const PartitionResult& plan) {
  std::vector<std::string> out;
  const int S = static_cast<int>(plan.stages.size());
  for (int s = 0; s + 1 < S; ++s) {
    out.push_back("fwd " + std::to_string(s) + "->" + std::to_string(s + 1));
    out.push_back("bwd " + std::to_string(s + 1) + "->" + std::to_string(s));
  }
  return out;
}

}  // namespace

SimResult simulate_with_faults(const TaskGraph& model,
                               const SearchRequest& req,
                               const FaultPlan& faults,
                               const SimOptions& opts) {
  RecoveryCoordinator coord(model, req);
  SimResult res;
  res.initial_plan = coord.partition();
  if (!res.initial_plan.feasible)
    throw std::invalid_argument("simulate_with_faults: no feasible plan (" +
                                res.initial_plan.infeasible_reason + ")");
  res.final_plan = res.initial_plan;

  obs::TraceRecorder* rec = obs::recorder();
  if (rec) rec->set_track_name(obs::Domain::SimSchedule, kControlTrack,
                               "resilience");

  auto fabric = std::make_unique<comm::Fabric>(coord.request().cluster);
  faults.apply_to(*fabric);
  if (rec) fabric->set_recorder(rec);

  const int max_attempts = std::max(1, opts.retry.max_attempts);
  std::int64_t total_retries = 0;
  double total_backoff = 0;
  std::int64_t total_rollbacks = 0;

  double t = 0;
  for (int step = 0; step < opts.steps; ++step) {
    const PartitionResult& plan = res.final_plan;
    SimStep st;
    st.step = step;
    st.start = t;

    const int S = static_cast<int>(plan.stages.size());
    const int MB = plan.microbatches;
    const ScheduleResult sched =
        evaluate_plan(plan, coord.request()).schedule;

    // Injected message timeouts of this step: the per-channel sequence
    // number advances one per microbatch, so step k covers seq
    // [k*MB, (k+1)*MB). A message timing out `times` consecutive attempts
    // burns runs of `max_attempts` each — every exhausted run is a
    // transactional rollback (the attempt counter survives it), until the
    // remaining timeouts fit one run's budget and delivery succeeds.
    for (const std::string& ch : boundary_channels(plan)) {
      for (const FaultEvent& e : faults.events) {
        if (e.kind != FaultKind::MsgTimeout || e.channel != ch) continue;
        if (e.seq < static_cast<std::int64_t>(step) * MB ||
            e.seq >= static_cast<std::int64_t>(step + 1) * MB)
          continue;
        st.retries += e.times;
        st.rollbacks = std::max(st.rollbacks, e.times / max_attempts);
        std::int64_t remaining = e.times;
        while (remaining > 0) {  // backoff restarts at base each run
          const std::int64_t k =
              std::min<std::int64_t>(remaining, max_attempts);
          double b = opts.retry.backoff_base_s;
          for (std::int64_t a = 0; a < k; ++a) {
            st.backoff_seconds += b;
            b *= opts.retry.backoff_factor;
          }
          remaining -= k;
        }
      }
    }

    const double step_compute =
        sched.iteration_time * (1 + st.rollbacks) + st.backoff_seconds;
    if (rec) {
      std::vector<obs::TimelineSpan> spans = schedule_spans(sched);
      for (obs::TimelineSpan& sp : spans) {
        sp.start += t;
        sp.end += t;
      }
      obs::record_spans(*rec, obs::Domain::SimSchedule, "sim", spans);
      for (int s = 0; s < S; ++s)
        rec->set_track_name(obs::Domain::SimSchedule, s,
                            "stage " + std::to_string(s));
      for (int r = 0; r < st.rollbacks; ++r)
        rec->instant(obs::Domain::SimSchedule, kControlTrack, "rollback",
                     "resilience",
                     (t + sched.iteration_time * (r + 1)) * 1e6);
    }

    fabric->advance_clocks(t);
    try {
      replay_plan_comm(*fabric, plan);
      st.end = std::max(t + step_compute, fabric->max_clock());
      st.completed = true;
      t = st.end;
      total_retries += st.retries;
      total_backoff += st.backoff_seconds;
      total_rollbacks += st.rollbacks;
      res.steps.push_back(st);
    } catch (const comm::DeviceFailure& f) {
      st.device_failure = true;
      // The fail-stop's doom time can predate this step (the failure is
      // only detected at the rank's next transfer); detection happens now,
      // so the recovery timeline starts no earlier than the step did.
      const double fail_t = std::max(f.time(), t);
      for (int r = 0; r < fabric->num_ranks(); ++r)
        if (fabric->rank_fail_time(r) <= f.time())
          st.failed_ranks.push_back(r);
      if (rec)
        rec->instant(obs::Domain::SimSchedule, kControlTrack,
                     "device_failure", "resilience", fail_t * 1e6);

      RecoveryCoordinator::Outcome oc = coord.recover(st.failed_ranks);
      if (!oc.ok) {
        res.aborted = true;
        res.abort_reason = oc.reason;
        st.end = fail_t;
        res.steps.push_back(st);
        break;
      }

      // Rebuild the fabric on the survivor cluster and replay the shard
      // migration between each moved parameter's old and new stage homes
      // (clamped into the new stage range).
      auto nf = std::make_unique<comm::Fabric>(oc.cluster);
      if (rec) nf->set_recorder(rec);
      nf->advance_clocks(fail_t);
      const std::vector<int> off = stage_offsets(oc.plan);
      const int S2 = static_cast<int>(oc.plan.stages.size());
      for (const ShardMove& mv : oc.migration.moves) {
        const int src = off[static_cast<std::size_t>(
            std::min(mv.from_stage, S2 - 1))];
        const int dst =
            off[static_cast<std::size_t>(std::min(mv.to_stage, S2 - 1))];
        if (src != dst && mv.bytes > 0) nf->p2p(src, dst, mv.bytes);
      }
      const double rec_end = std::max(nf->max_clock(), fail_t);
      if (rec)
        rec->complete(
            obs::Domain::SimSchedule, kControlTrack, "recover", "resilience",
            fail_t * 1e6, (rec_end - fail_t) * 1e6,
            "\"migrated_values\":" + std::to_string(oc.migration.moves.size()) +
                ",\"migrated_bytes\":" +
                std::to_string(oc.migration.total_bytes));

      st.recovered = true;
      st.end = rec_end;
      res.steps.push_back(st);
      res.recovered = true;
      res.recovery_seconds += rec_end - fail_t;
      res.migration = oc.migration;
      res.final_plan = std::move(oc.plan);
      fabric = std::move(nf);
      t = rec_end;
      --step;  // retry the interrupted step on the new plan
    }
  }
  res.virtual_seconds = t;

  obs::MetricsRegistry& m = obs::metrics();
  m.counter("resilience.injected_timeouts").add(total_retries);
  m.counter("resilience.rollbacks").add(total_rollbacks);
  m.gauge("resilience.backoff_seconds").set(total_backoff);
  m.gauge("resilience.virtual_seconds").set(res.virtual_seconds);

  if (rec) fabric->set_recorder(nullptr);
  return res;
}

}  // namespace resilience
}  // namespace rannc
