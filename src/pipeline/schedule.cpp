#include "pipeline/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

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
      ScheduleInterval iv;
      iv.stage = s;
      iv.microbatch = j;
      if (j > 0)
        iv.resource_ready =
            fend[static_cast<std::size_t>(s)][static_cast<std::size_t>(j - 1)];
      double ready = iv.resource_ready;
      if (s > 0) {
        iv.dep_stage = s - 1;
        iv.dep_microbatch = j;
        iv.comm_delay = stages[static_cast<std::size_t>(s - 1)].comm_next;
        iv.data_ready =
            fend[static_cast<std::size_t>(s - 1)][static_cast<std::size_t>(j)] +
            iv.comm_delay;
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
      ScheduleInterval iv;
      iv.stage = s;
      iv.microbatch = j;
      iv.backward = true;
      iv.resource_ready = stage_free;
      double ready = stage_free;
      if (s < S - 1) {
        iv.dep_stage = s + 1;
        iv.dep_microbatch = j;
        iv.dep_backward = true;
        iv.comm_delay = stages[static_cast<std::size_t>(s)].comm_next;
        iv.data_ready =
            bend[static_cast<std::size_t>(s + 1)][static_cast<std::size_t>(j)] +
            iv.comm_delay;
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

double gpipe_iteration_uniform(double t_f, double t_b, int stages,
                               int microbatches) {
  return (microbatches + stages - 1) * (t_f + t_b);
}

ScheduleResult simulate_1f1b_async(const std::vector<StageTimes>& stages,
                                   int microbatches) {
  ScheduleResult res;
  if (stages.empty() || microbatches == 0) return res;
  double period = 0;
  for (const StageTimes& st : stages)
    period = std::max(period, std::max(st.t_f + st.t_b, 2.0 * st.comm_next));
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

ScheduleResult simulate_1f1b_sync(const std::vector<StageTimes>& stages,
                                  int microbatches) {
  const int S = static_cast<int>(stages.size());
  const int MB = microbatches;
  ScheduleResult res;
  if (S == 0 || MB == 0) return res;

  // Build each stage's operation order: warm-up forwards, alternating
  // 1F1B, drain backwards.
  struct Op {
    int microbatch;
    bool backward;
  };
  std::vector<std::vector<Op>> order(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    auto& ops = order[static_cast<std::size_t>(s)];
    const int warmup = std::min(S - s, MB);  // last stage: 1 warm-up forward
    int next_f = 0, next_b = 0;
    for (int i = 0; i < warmup; ++i) ops.push_back({next_f++, false});
    while (next_b < MB) {
      ops.push_back({next_b++, true});
      if (next_f < MB) ops.push_back({next_f++, false});
    }
  }

  // Schedule by repeated relaxation: run the earliest ready op per stage,
  // respecting per-stage op order and cross-stage dependencies.
  constexpr double kUnset = -1.0;
  std::vector<std::vector<double>> fend(
      static_cast<std::size_t>(S),
      std::vector<double>(static_cast<std::size_t>(MB), kUnset));
  std::vector<std::vector<double>> bend = fend;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(S), 0);
  std::vector<double> stage_free(static_cast<std::size_t>(S), 0.0);

  bool progress = true;
  while (progress) {
    progress = false;
    for (int s = 0; s < S; ++s) {
      auto& cur = cursor[static_cast<std::size_t>(s)];
      if (cur >= order[static_cast<std::size_t>(s)].size()) continue;
      const Op op = order[static_cast<std::size_t>(s)][cur];
      ScheduleInterval iv;
      iv.stage = s;
      iv.microbatch = op.microbatch;
      iv.backward = op.backward;
      iv.resource_ready = stage_free[static_cast<std::size_t>(s)];
      double ready = iv.resource_ready;
      if (!op.backward) {
        if (s > 0) {
          const double dep =
              fend[static_cast<std::size_t>(s - 1)][static_cast<std::size_t>(op.microbatch)];
          if (dep == kUnset) continue;  // upstream forward not done yet
          iv.dep_stage = s - 1;
          iv.dep_microbatch = op.microbatch;
          iv.comm_delay = stages[static_cast<std::size_t>(s - 1)].comm_next;
          iv.data_ready = dep + iv.comm_delay;
          ready = std::max(ready, iv.data_ready);
        }
        iv.start = ready;
        iv.end = ready + stages[static_cast<std::size_t>(s)].t_f;
        fend[static_cast<std::size_t>(s)][static_cast<std::size_t>(op.microbatch)] = iv.end;
        res.intervals.push_back(iv);
        stage_free[static_cast<std::size_t>(s)] = iv.end;
      } else {
        if (fend[static_cast<std::size_t>(s)][static_cast<std::size_t>(op.microbatch)] ==
            kUnset)
          continue;  // own forward pending (cannot happen with valid order)
        if (s < S - 1) {
          const double dep =
              bend[static_cast<std::size_t>(s + 1)][static_cast<std::size_t>(op.microbatch)];
          if (dep == kUnset) continue;  // downstream backward not done yet
          iv.dep_stage = s + 1;
          iv.dep_microbatch = op.microbatch;
          iv.dep_backward = true;
          iv.comm_delay = stages[static_cast<std::size_t>(s)].comm_next;
          iv.data_ready = dep + iv.comm_delay;
          ready = std::max(ready, iv.data_ready);
        }
        iv.start = ready;
        iv.end = ready + stages[static_cast<std::size_t>(s)].t_b;
        bend[static_cast<std::size_t>(s)][static_cast<std::size_t>(op.microbatch)] = iv.end;
        res.intervals.push_back(iv);
        stage_free[static_cast<std::size_t>(s)] = iv.end;
      }
      ++cur;
      progress = true;
    }
  }
  for (int s = 0; s < S; ++s) {
    if (cursor[static_cast<std::size_t>(s)] !=
        order[static_cast<std::size_t>(s)].size())
      throw std::logic_error("1F1B schedule deadlocked");
    res.iteration_time =
        std::max(res.iteration_time, stage_free[static_cast<std::size_t>(s)]);
  }
  double busy = 0;
  for (const StageTimes& st : stages) busy += (st.t_f + st.t_b) * MB;
  res.bubble_fraction = 1.0 - busy / (res.iteration_time * S);
  return res;
}

std::vector<obs::TimelineSpan> schedule_spans(const ScheduleResult& res) {
  std::vector<obs::TimelineSpan> spans;
  spans.reserve(res.intervals.size());
  for (const ScheduleInterval& iv : res.intervals) {
    obs::TimelineSpan sp;
    sp.track = iv.stage;
    sp.glyph = iv.backward ? 'B' : 'F';
    sp.name = (iv.backward ? "B mb " : "F mb ") + std::to_string(iv.microbatch);
    sp.start = iv.start;
    sp.end = iv.end;
    sp.args = "\"stage\":" + std::to_string(iv.stage) +
              ",\"microbatch\":" + std::to_string(iv.microbatch) +
              ",\"backward\":" + (iv.backward ? "true" : "false") +
              ",\"resource_ready\":" + obs::json_double(iv.resource_ready);
    if (iv.dep_stage >= 0) {
      sp.args += ",\"data_ready\":" + obs::json_double(iv.data_ready) +
                 ",\"comm_delay\":" + obs::json_double(iv.comm_delay) +
                 ",\"dep_stage\":" + std::to_string(iv.dep_stage) +
                 ",\"dep_microbatch\":" + std::to_string(iv.dep_microbatch) +
                 ",\"dep_backward\":" + (iv.dep_backward ? "true" : "false");
    }
    spans.push_back(std::move(sp));
  }
  return spans;
}

std::vector<obs::CausalOp> causal_ops(const ScheduleResult& res) {
  std::vector<obs::CausalOp> ops;
  ops.reserve(res.intervals.size());
  for (const ScheduleInterval& iv : res.intervals) {
    obs::CausalOp op;
    op.stage = iv.stage;
    op.microbatch = iv.microbatch;
    op.backward = iv.backward;
    op.start = iv.start;
    op.end = iv.end;
    op.resource_ready = iv.resource_ready;
    op.data_ready = iv.data_ready;
    op.comm_delay = iv.comm_delay;
    op.dep_stage = iv.dep_stage;
    op.dep_microbatch = iv.dep_microbatch;
    op.dep_backward = iv.dep_backward;
    ops.push_back(op);
  }
  return ops;
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
    case obs::WhatIf::Kind::EdgeCommScale:
      if (w.index >= 0 && w.index < S)
        stages[static_cast<std::size_t>(w.index)].comm_next *= w.factor;
      break;
    case obs::WhatIf::Kind::AllCommScale:
      for (StageTimes& st : stages) st.comm_next *= w.factor;
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
  rec.counter(obs::Domain::SimSchedule, 0, "bubble_fraction", 0.0,
              "\"bubble_fraction\":" + obs::json_double(res.bubble_fraction));
}

}  // namespace rannc
