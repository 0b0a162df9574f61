#include "pipeline/schedule.h"

#include <algorithm>

namespace rannc {

ScheduleResult simulate_gpipe(const std::vector<StageTimes>& stages,
                              int microbatches) {
  const int S = static_cast<int>(stages.size());
  const int MB = microbatches;
  ScheduleResult res;
  if (S == 0 || MB == 0) return res;

  // fend[s][j]: completion time of forward microbatch j on stage s.
  std::vector<std::vector<double>> fend(
      static_cast<std::size_t>(S), std::vector<double>(static_cast<std::size_t>(MB), 0));
  std::vector<std::vector<double>> bend = fend;

  for (int s = 0; s < S; ++s) {
    for (int j = 0; j < MB; ++j) {
      obs::CausalOp iv;
      iv.stage = s;
      iv.microbatch = j;
      if (j > 0)
        iv.resource_ready =
            fend[static_cast<std::size_t>(s)][static_cast<std::size_t>(j - 1)];
      double ready = iv.resource_ready;
      if (s > 0) {
        iv.dep_stage = s - 1;
        iv.dep_microbatch = j;
        iv.data_ready =
            fend[static_cast<std::size_t>(s - 1)][static_cast<std::size_t>(j)];
        ready = std::max(ready, iv.data_ready);
      }
      iv.start = ready;
      iv.end = ready + stages[static_cast<std::size_t>(s)].t_f;
      fend[static_cast<std::size_t>(s)][static_cast<std::size_t>(j)] = iv.end;
      res.intervals.push_back(iv);
    }
  }

  // Backward: reverse stage order, reverse microbatch order within a stage.
  // A stage begins its backwards only after its own forward flush (GPipe's
  // synchronous discipline).
  for (int s = S - 1; s >= 0; --s) {
    double stage_free = fend[static_cast<std::size_t>(s)][static_cast<std::size_t>(MB - 1)];
    for (int j = MB - 1; j >= 0; --j) {
      obs::CausalOp iv;
      iv.stage = s;
      iv.microbatch = j;
      iv.backward = true;
      iv.resource_ready = stage_free;
      double ready = stage_free;
      if (s < S - 1) {
        iv.dep_stage = s + 1;
        iv.dep_microbatch = j;
        iv.dep_backward = true;
        iv.data_ready =
            bend[static_cast<std::size_t>(s + 1)][static_cast<std::size_t>(j)];
        ready = std::max(ready, iv.data_ready);
      }
      iv.start = ready;
      iv.end = ready + stages[static_cast<std::size_t>(s)].t_b;
      bend[static_cast<std::size_t>(s)][static_cast<std::size_t>(j)] = iv.end;
      stage_free = iv.end;
      res.intervals.push_back(iv);
    }
  }

  double makespan = 0;
  for (int s = 0; s < S; ++s)
    makespan = std::max(makespan, bend[static_cast<std::size_t>(s)][0]);
  res.iteration_time = makespan;

  double busy = 0;
  for (const StageTimes& st : stages) busy += (st.t_f + st.t_b) * MB;
  res.bubble_fraction = 1.0 - busy / (makespan * S);
  return res;
}

double gpipe_iteration(const std::vector<StageTimes>& stages,
                       int microbatches) {
  if (stages.empty() || microbatches == 0) return 0;
  double sum = 0, max_f = 0, max_b = 0;
  for (const StageTimes& st : stages) {
    sum += st.t_f + st.t_b;
    max_f = std::max(max_f, st.t_f);
    max_b = std::max(max_b, st.t_b);
  }
  return sum + (microbatches - 1) * (max_f + max_b);
}

ScheduleResult simulate_1f1b_async(const std::vector<StageTimes>& stages,
                                   int microbatches) {
  ScheduleResult res;
  if (stages.empty() || microbatches == 0) return res;
  double period = 0;
  for (const StageTimes& st : stages)
    period = std::max(period, st.t_f + st.t_b);
  // Steady state: fill/drain amortizes across mini-batches because there is
  // no flush; one mini-batch costs MB busiest-stage periods.
  res.iteration_time = microbatches * period;
  double busy = 0;
  for (const StageTimes& st : stages)
    busy += (st.t_f + st.t_b) * microbatches;
  res.bubble_fraction =
      1.0 - busy / (res.iteration_time * static_cast<double>(stages.size()));
  return res;
}

std::vector<obs::TimelineSpan> schedule_spans(const ScheduleResult& res) {
  std::vector<obs::TimelineSpan> spans;
  spans.reserve(res.intervals.size());
  for (const obs::CausalOp& iv : res.intervals) {
    obs::TimelineSpan sp;
    sp.track = iv.stage;
    sp.glyph = iv.backward ? 'B' : 'F';
    sp.name = (iv.backward ? "B mb " : "F mb ") + std::to_string(iv.microbatch);
    sp.start = iv.start;
    sp.end = iv.end;
    json::Writer args(json::Layout::Compact);
    args.begin_object().field("stage", iv.stage);
    args.field("microbatch", iv.microbatch).field("backward", iv.backward);
    args.field("resource_ready", iv.resource_ready);
    if (iv.dep_stage >= 0) {
      args.field("data_ready", iv.data_ready).field("dep_stage", iv.dep_stage);
      args.field("dep_microbatch", iv.dep_microbatch);
      args.field("dep_backward", iv.dep_backward);
    }
    sp.args = args.end_object().str();
    spans.push_back(std::move(sp));
  }
  return spans;
}

obs::WhatIfResult evaluate_what_if(const obs::AttributionReport& rep,
                                   const std::vector<StageTimes>& stages_in,
                                   int microbatches, const obs::WhatIf& w) {
  obs::WhatIfResult r;
  r.spec = w;
  r.name = obs::what_if_name(w);
  r.baseline = rep.step_time;
  r.estimate = obs::estimate_what_if(rep, w);
  std::vector<StageTimes> stages = stages_in;
  const int S = static_cast<int>(stages.size());
  switch (w.kind) {
    case obs::WhatIf::Kind::StageComputeScale:
      if (w.index >= 0 && w.index < S) {
        stages[static_cast<std::size_t>(w.index)].t_f *= w.factor;
        stages[static_cast<std::size_t>(w.index)].t_b *= w.factor;
      }
      break;
    case obs::WhatIf::Kind::Microbatches:
      if (w.microbatches > 0) microbatches = w.microbatches;
      break;
  }
  r.ground_truth = simulate_gpipe(stages, microbatches).iteration_time;
  return r;
}

std::string render_gantt(const ScheduleResult& res, int num_stages,
                         int width) {
  if (res.intervals.empty() || res.iteration_time <= 0) return "";
  return obs::render_ascii_timeline(schedule_spans(res), num_stages, "stage ",
                                    res.iteration_time, width);
}

void trace_schedule(obs::TraceRecorder& rec, const ScheduleResult& res,
                    int num_stages) {
  for (int s = 0; s < num_stages; ++s)
    rec.set_track_name(obs::Domain::SimSchedule, s,
                       "stage " + std::to_string(s));
  obs::record_spans(rec, obs::Domain::SimSchedule, "schedule",
                    schedule_spans(res));
  json::Writer args(json::Layout::Compact);
  args.begin_object().field("bubble_fraction", res.bubble_fraction);
  rec.counter(obs::Domain::SimSchedule, 0, "bubble_fraction", 0.0,
              args.end_object().str());
}

}  // namespace rannc
