// Tests for the observability layer (src/obs): trace-event JSON validity,
// bit-identical virtual-time traces across thread counts, metric
// instrument semantics, the zero-events-when-disabled gate, concurrent
// recording (exercised under TSAN in CI), the leveled logger, and the
// unified ASCII timeline renderer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster_spec.h"
#include "models/bert.h"
#include "obs/attribution.h"
#include "obs/critpath.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/auto_partitioner.h"
#include "partition/plan_eval.h"
#include "partition/plan_io.h"
#include "pipeline/schedule.h"
#include "util/json.h"

namespace rannc {
namespace {

// Detaches the global recorder (and restores the default log sink/level)
// even when a test fails mid-way, so state never leaks across tests.
struct ObsGuard {
  ~ObsGuard() {
    obs::set_recorder(nullptr);
    obs::set_log_sink(nullptr);
    obs::set_log_level(obs::LogLevel::Warn);
  }
};

// Emitted documents must parse under the repo's one strict JSON reader.
bool json_well_formed(const std::string& doc) {
  try {
    (void)json::parse(doc);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

TEST(ObsJson, CheckerAcceptsAndRejects) {
  EXPECT_TRUE(json_well_formed(R"({"a":[1,2.5e-3,"x\"y",true,null]})"));
  EXPECT_FALSE(json_well_formed(R"({"a":1,})"));
  EXPECT_FALSE(json_well_formed(R"([1,2)"));
  EXPECT_FALSE(json_well_formed(R"({"a":1} trailing)"));
}

TEST(ObsJson, HelpersEscapeAndFormat) {
  EXPECT_EQ(obs::json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::json_double(2.0), "2");
  // Non-finite values must not leak bare inf/nan into JSON documents.
  EXPECT_TRUE(json_well_formed(obs::json_double(1.0 / 0.0)));
}

// ---- trace recorder -------------------------------------------------------

TEST(ObsTrace, EmittedDocumentIsValidJson) {
  ObsGuard guard;
  obs::TraceRecorder rec;
  obs::set_recorder(&rec);
  {
    obs::Scope sc("outer");
    sc.arg("n", 3);
    sc.arg("ratio", 0.5);
    sc.arg("label", "a\"b");
    obs::Scope inner([] { return std::string("inner lazy"); }, "test");
  }
  rec.counter(obs::Domain::SimSchedule, 0, "bubble_fraction", 1.0,
              R"({"bubble_fraction":0.25})");
  rec.instant(obs::Domain::Search, 0, "marker", "test", 5.0);
  rec.set_track_name(obs::Domain::SimSchedule, 0, "stage 0");
  obs::set_recorder(nullptr);

  const std::string doc = rec.json();
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
  EXPECT_TRUE(json_well_formed(rec.events_json(obs::Domain::SimSchedule)));
  EXPECT_GE(rec.event_count(), 4u);
}

TEST(ObsTrace, ZeroEventsWhenDisabled) {
  ObsGuard guard;
  obs::TraceRecorder rec;  // never attached
  ASSERT_EQ(obs::recorder(), nullptr);
  EXPECT_FALSE(obs::enabled());
  {
    obs::Scope sc("should not record");
    EXPECT_FALSE(sc.active());
    sc.arg("n", 1);
    bool name_built = false;
    obs::Scope lazy([&] {
      name_built = true;
      return std::string("never");
    });
    EXPECT_FALSE(name_built);  // lazy name must not be built when disabled
  }
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(ObsTrace, TracedPlanBitIdenticalToUntraced) {
  ObsGuard guard;
  BertConfig bc;
  bc.hidden = 128;
  bc.layers = 4;
  bc.seq_len = 32;
  bc.vocab = 256;
  const BuiltModel m = build_bert(bc);
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.budget.threads = 2;

  const PartitionResult untraced = auto_partition(m.graph, cfg).plan;
  ASSERT_TRUE(untraced.feasible) << untraced.infeasible_reason;

  obs::TraceRecorder rec;
  obs::set_recorder(&rec);
  const PartitionResult traced = auto_partition(m.graph, cfg).plan;
  obs::set_recorder(nullptr);
  ASSERT_TRUE(traced.feasible);

  // Tracing must never feed back into the search.
  EXPECT_EQ(plan_to_json(traced), plan_to_json(untraced));
  EXPECT_GT(rec.event_count(), 0u);
}

// Runs search + the virtual-time schedule at a given thread count and
// returns the canonical JSON of the schedule domain.
std::string sim_trace_at_threads(int threads) {
  BertConfig bc;
  bc.hidden = 128;
  bc.layers = 4;
  bc.seq_len = 32;
  bc.vocab = 256;
  const BuiltModel m = build_bert(bc);
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.budget.threads = threads;

  obs::TraceRecorder rec;
  obs::set_recorder(&rec);
  const PartitionResult plan = auto_partition(m.graph, cfg).plan;
  EXPECT_TRUE(plan.feasible) << plan.infeasible_reason;
  EXPECT_EQ(plan.stats.threads_used, threads);

  trace_schedule(rec, evaluate_plan(plan, cfg).schedule,
                 static_cast<int>(plan.stages.size()));
  obs::set_recorder(nullptr);

  return rec.events_json(obs::Domain::SimSchedule);
}

TEST(ObsTrace, SimDomainsBitIdenticalAcrossThreadCounts) {
  ObsGuard guard;
  const std::string sched1 = sim_trace_at_threads(1);
  const std::string sched4 = sim_trace_at_threads(4);
  EXPECT_FALSE(sched1.empty());
  EXPECT_NE(sched1.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(sched1.find("\"ph\":\"C\""), std::string::npos);
  // The search lanes interleave differently at 4 threads, but the
  // virtual-time schedule domain serializes byte-for-byte identically.
  EXPECT_EQ(sched1, sched4);
}

TEST(ObsTrace, SearchDomainCarriesPhaseSpansAndLanes) {
  ObsGuard guard;
  BertConfig bc;
  bc.hidden = 128;
  bc.layers = 4;
  bc.seq_len = 32;
  bc.vocab = 256;
  const BuiltModel m = build_bert(bc);
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.budget.threads = 4;

  obs::TraceRecorder rec;
  obs::set_recorder(&rec);
  const PartitionResult plan = auto_partition(m.graph, cfg).plan;
  obs::set_recorder(nullptr);
  ASSERT_TRUE(plan.feasible);

  int phases = 0;
  std::vector<int> lanes;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    if (e.domain != obs::Domain::Search) continue;
    if (e.ph == 'X' && (e.name.rfind("phase", 0) == 0 ||
                        e.name.rfind("verify", 0) == 0))
      ++phases;
    if (e.ph == 'X' && e.cat == "sweep") lanes.push_back(e.tid);
  }
  EXPECT_GE(phases, 4);  // verify + phase1 + phase2 + prebuild/sweep
  // The per-(S, MB) stage-DP jobs must land on more than one thread lane.
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  EXPECT_GT(lanes.size(), 1u);
}

TEST(ObsTrace, ConcurrentRecordingIsSafe) {  // exercised under TSAN in CI
  ObsGuard guard;
  obs::TraceRecorder rec;
  obs::set_recorder(&rec);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([t] {
      obs::set_thread_name("obs-test-" + std::to_string(t));
      for (int k = 0; k < kSpansPerThread; ++k) {
        obs::Scope sc(
            [&] { return "span " + std::to_string(t * 1000 + k); }, "test");
        sc.arg("k", k);
      }
    });
  for (std::thread& th : ts) th.join();
  obs::set_recorder(nullptr);

  const std::vector<obs::TraceEvent> events = rec.snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
  // Canonical order: non-decreasing (domain, tid, ts).
  for (std::size_t i = 1; i < events.size(); ++i) {
    const auto a = std::make_tuple(static_cast<int>(events[i - 1].domain),
                                   events[i - 1].tid, events[i - 1].ts_us);
    const auto b = std::make_tuple(static_cast<int>(events[i].domain),
                                   events[i].tid, events[i].ts_us);
    EXPECT_LE(a, b) << "events out of canonical order at " << i;
  }
  EXPECT_TRUE(json_well_formed(rec.json()));
}

// ---- metrics --------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeSemantics) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  c.add();
  c.add(41);
  EXPECT_EQ(c.get(), 42);
  EXPECT_EQ(&reg.counter("c"), &c);  // stable reference, create-once
  obs::Gauge& g = reg.gauge("g");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.get(), 2.5);
  reg.reset();
  EXPECT_EQ(c.get(), 0);
  EXPECT_DOUBLE_EQ(g.get(), 0.0);
}

TEST(ObsMetrics, HistogramBucketsAreCumulative) {
  obs::Histogram h;
  h.record(0.5);
  h.record(0.5);
  h.record(3.0);
  h.record(-1.0);  // underflow bucket
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 3.0);
  EXPECT_DOUBLE_EQ(s.min, -1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  ASSERT_FALSE(s.buckets.empty());
  // Cumulative counts are non-decreasing; the final bound is +inf and its
  // count equals the total.
  for (std::size_t i = 1; i < s.buckets.size(); ++i) {
    EXPECT_LE(s.buckets[i - 1].first, s.buckets[i].first);
    EXPECT_LE(s.buckets[i - 1].second, s.buckets[i].second);
  }
  EXPECT_TRUE(std::isinf(s.buckets.back().first));
  EXPECT_EQ(s.buckets.back().second, s.count);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0);
}

TEST(ObsMetrics, RegistryJsonIsValidAndSorted) {
  obs::MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("rate").set(0.75);
  reg.histogram("lat").record(1.0 / 0.0);  // non-finite goes to underflow
  reg.histogram("lat").record(0.25);
  const std::string doc = reg.to_json();
  EXPECT_TRUE(json_well_formed(doc)) << doc;
  EXPECT_LT(doc.find("a.count"), doc.find("b.count"));  // sorted by name
  EXPECT_NE(doc.find("\"inf\""), std::string::npos);    // +inf bound quoted
}

// ---- logger ---------------------------------------------------------------

TEST(ObsLog, LevelsGateAndSinkCaptures) {
  ObsGuard guard;
  // The sink type is a plain function pointer, so capture into a
  // function-local static instead of a lambda closure.
  struct Cap {
    static std::vector<std::pair<obs::LogLevel, std::string>>& log() {
      static std::vector<std::pair<obs::LogLevel, std::string>> v;
      return v;
    }
    static void sink(obs::LogLevel lvl, const std::string& msg) {
      log().emplace_back(lvl, msg);
    }
  };
  Cap::log().clear();
  obs::set_log_sink(&Cap::sink);

  obs::set_log_level(obs::LogLevel::Info);
  RANNC_LOG_DEBUG("hidden " << 1);
  RANNC_LOG_INFO("shown " << 2);
  RANNC_LOG_ERROR("err " << 3);
  ASSERT_EQ(Cap::log().size(), 2u);
  EXPECT_EQ(Cap::log()[0].first, obs::LogLevel::Info);
  EXPECT_EQ(Cap::log()[0].second, "shown 2");
  EXPECT_EQ(Cap::log()[1].second, "err 3");

  obs::set_log_level(obs::LogLevel::Off);
  RANNC_LOG_ERROR("also hidden");
  EXPECT_EQ(Cap::log().size(), 2u);
}

TEST(ObsLog, ParseLevelAcceptsAliases) {
  using obs::LogLevel;
  using obs::parse_log_level;
  EXPECT_EQ(parse_log_level("debug", LogLevel::Warn), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::Warn), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warning", LogLevel::Error), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error", LogLevel::Warn), LogLevel::Error);
  EXPECT_EQ(parse_log_level("none", LogLevel::Warn), LogLevel::Off);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::Warn), LogLevel::Warn);
}

// ---- unified timeline renderer --------------------------------------------

TEST(ObsTimeline, AsciiRendererMatchesGantt) {
  const std::vector<StageTimes> st = {{1.0, 2.0}, {1.5, 2.5}};
  const ScheduleResult res = simulate_gpipe(st, 4);
  // render_gantt is now a thin wrapper over the shared TimelineSpan path;
  // rendering the spans directly must agree byte-for-byte.
  const std::string direct = obs::render_ascii_timeline(
      schedule_spans(res), 2, "stage ", res.iteration_time, 60);
  EXPECT_EQ(render_gantt(res, 2, 60), direct);
  EXPECT_NE(direct.find("stage 0 |"), std::string::npos);
  EXPECT_NE(direct.find('F'), std::string::npos);
  EXPECT_NE(direct.find('B'), std::string::npos);
}

TEST(ObsTimeline, EmptyAndDegenerateInputs) {
  EXPECT_EQ(obs::render_ascii_timeline({}, 2, "stage ", 1.0, 60), "");
  ScheduleResult empty;
  EXPECT_EQ(render_gantt(empty, 2, 60), "");
}

TEST(ObsTimeline, RecordSpansLandsInVirtualDomain) {
  ObsGuard guard;
  obs::TraceRecorder rec;
  std::vector<obs::TimelineSpan> spans(1);
  spans[0].track = 1;
  spans[0].name = "F mb 0";
  spans[0].start = 0.5;
  spans[0].end = 1.5;
  obs::record_spans(rec, obs::Domain::SimSchedule, "schedule", spans);
  const std::vector<obs::TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].domain, obs::Domain::SimSchedule);
  EXPECT_EQ(events[0].tid, 1);
  EXPECT_DOUBLE_EQ(events[0].ts_us, 0.5e6);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 1.0e6);
}

// ---- causal attribution (src/obs/critpath.h, src/obs/attribution.h) -------
// Fixtures small enough to verify by hand against the GPipe recurrences:
//   uniform2 (tf=tb=1, MB=4):    T = 10, each stage computes 8, bubbles 2
//   asym2 (s0 2x slower, MB=4):  T = 18, path compute s0=16 / s1=2

std::vector<StageTimes> uniform2() { return {{1, 1}, {1, 1}}; }
std::vector<StageTimes> asym2() { return {{2, 2}, {1, 1}}; }

/// The sum the attribution layer fits bit-exactly.
double fold(const obs::StageBuckets& b) { return b.compute + b.bubble; }

TEST(CritPath, UniformGpipeKnownPath) {
  const ScheduleResult res = simulate_gpipe(uniform2(), 4);
  const obs::CriticalPath path = critical_path(res.intervals, 2);
  EXPECT_DOUBLE_EQ(path.makespan, 10.0);
  EXPECT_EQ(path.terminal_stage, 0);
  // The path tiles [0, makespan] with no gaps.
  ASSERT_FALSE(path.segments.empty());
  EXPECT_DOUBLE_EQ(path.segments.front().start, 0.0);
  EXPECT_DOUBLE_EQ(path.segments.back().end, path.makespan);
  for (std::size_t i = 1; i < path.segments.size(); ++i)
    EXPECT_DOUBLE_EQ(path.segments[i].start, path.segments[i - 1].end);
  ASSERT_EQ(path.compute_by_stage.size(), 2u);
  EXPECT_DOUBLE_EQ(path.compute_by_stage[0], 5.0);
  EXPECT_DOUBLE_EQ(path.compute_by_stage[1], 5.0);
  EXPECT_DOUBLE_EQ(path.compute_total, 10.0);
}

TEST(CritPath, AsymmetricStagesPath) {
  const ScheduleResult res = simulate_gpipe(asym2(), 4);
  const obs::CriticalPath path = critical_path(res.intervals, 2);
  EXPECT_DOUBLE_EQ(path.makespan, 18.0);
  EXPECT_EQ(path.terminal_stage, 0);
  ASSERT_EQ(path.compute_by_stage.size(), 2u);
  // The slow stage dominates: all 8 of its ops are on the path, but only
  // the handoff pair (f3 and b3) of the fast stage.
  EXPECT_DOUBLE_EQ(path.compute_by_stage[0], 16.0);
  EXPECT_DOUBLE_EQ(path.compute_by_stage[1], 2.0);
}

TEST(Attribution, UniformGpipeMatchesTextbookBubble) {
  const obs::AttributionReport rep =
      obs::attribute(simulate_gpipe(uniform2(), 4).intervals, 2, 4);
  EXPECT_DOUBLE_EQ(rep.step_time, 10.0);
  EXPECT_EQ(rep.anchor_stage, 0);
  EXPECT_DOUBLE_EQ(rep.step.compute, 8.0);
  EXPECT_DOUBLE_EQ(rep.step.bubble, 2.0);
  // (S-1)/(MB+S-1) = 1/5 for S=2, MB=4.
  EXPECT_DOUBLE_EQ(rep.step.bubble / rep.step.total, 0.2);
  EXPECT_DOUBLE_EQ(rep.step.bubble / rep.step.total,
                   simulate_gpipe(uniform2(), 4).bubble_fraction);
}

TEST(Attribution, ConservationBitExactAcrossSimulators) {
  // Awkward, non-representable times so the fit actually has to work.
  const std::vector<StageTimes> st = {{0.3, 0.7}, {0.41, 0.29}, {0.5, 0.23}};
  const ScheduleResult res = simulate_gpipe(st, 7);
  const obs::AttributionReport rep = obs::attribute(res.intervals, 3, 7);
  EXPECT_DOUBLE_EQ(rep.step_time, res.iteration_time);
  for (const obs::StageBuckets& b : rep.stages) {
    // Bit-exact: == on doubles, not a tolerance.
    EXPECT_EQ(fold(b), rep.step_time);
    EXPECT_EQ(b.total, rep.step_time);
    EXPECT_GE(b.compute, 0.0);
    EXPECT_GE(b.bubble, -1e-12);
  }
  EXPECT_EQ(fold(rep.step), rep.step_time);
}

TEST(Attribution, MisfitAboveRelativeSlackThrows) {
  // Two ops of one stage overlapping by `overlap` seconds: the fitted
  // bubble (T - compute) is -overlap while the directly summed gaps are 0.
  // On a 3 ms step the slack is 1e-9 * 3 ms, so a 1e-8-relative misfit
  // throws and a 1e-10-relative one passes.
  const auto report = [](double overlap) {
    std::vector<obs::CausalOp> ops(2);
    ops[0].end = 1.5e-3;
    ops[1].microbatch = 1;
    ops[1].start = 1.5e-3 - overlap;
    ops[1].end = 3e-3;
    ops[1].resource_ready = ops[1].start;
    return obs::attribute(ops, 1, 2);
  };
  EXPECT_THROW(report(1e-8 * 3e-3), std::logic_error);
  EXPECT_NO_THROW(report(1e-10 * 3e-3));
  EXPECT_NO_THROW(report(0));
}

TEST(Attribution, StragglerRankingByCompute) {
  const obs::AttributionReport rep =
      obs::attribute(simulate_gpipe(asym2(), 4).intervals, 2, 4);
  ASSERT_EQ(rep.stragglers.size(), 2u);
  EXPECT_EQ(rep.stragglers[0], 0);  // 16 s of compute vs 8 s
  EXPECT_EQ(rep.stragglers[1], 1);
}

TEST(Attribution, WhatIfReSimulatesTheSchedule) {
  using K = obs::WhatIf::Kind;
  const obs::AttributionReport asym =
      obs::attribute(simulate_gpipe(asym2(), 4).intervals, 2, 4);
  const obs::AttributionReport unif =
      obs::attribute(simulate_gpipe(uniform2(), 4).intervals, 2, 4);

  struct Case {
    const obs::AttributionReport* rep;
    std::vector<StageTimes> st;
    int mb;
    obs::WhatIf w;
    double expect_truth;
  };
  const std::vector<Case> cases = {
      {&asym, asym2(), 4, {K::StageComputeScale, 0, 0.75, 0}, 14.0},
      {&asym, asym2(), 4, {K::StageComputeScale, 0, 1.25, 0}, 22.0},
      {&asym, asym2(), 4, {K::StageComputeScale, 1, 0.5, 0}, 17.0},
      {&asym, asym2(), 4, {K::StageComputeScale, 1, 1.5, 0}, 19.0},
      {&asym, asym2(), 4, {K::Microbatches, -1, 1.0, 8}, 34.0},
      {&unif, uniform2(), 4, {K::Microbatches, -1, 1.0, 8}, 18.0},
      {&unif, uniform2(), 4, {K::Microbatches, -1, 1.0, 2}, 6.0},
  };
  ASSERT_GE(cases.size(), 6u);  // the acceptance bar: >= 6 perturbations
  for (const Case& c : cases) {
    const obs::WhatIfResult r = evaluate_what_if(*c.rep, c.st, c.mb, c.w);
    EXPECT_DOUBLE_EQ(r.ground_truth, c.expect_truth) << r.name;
  }
}

TEST(Attribution, DefaultCatalogNamesForUniformFixture) {
  // Anchor and top straggler are both stage 0 (equal compute, lower id).
  const obs::AttributionReport rep =
      obs::attribute(simulate_gpipe(uniform2(), 4).intervals, 2, 4);
  std::vector<std::string> names;
  for (const obs::WhatIf& w : obs::default_what_ifs(rep))
    names.push_back(obs::what_if_name(w));
  const std::vector<std::string> want = {
      "stage0.compute.x0.75", "stage0.compute.x1.25", "stage0.compute.x0.9",
      "microbatches.8", "microbatches.2"};
  EXPECT_EQ(names, want);
}

TEST(Attribution, ReportJsonDeterministicAndWellFormed) {
  // Same partition searched with different thread counts must produce a
  // byte-identical attribution report (the CI re-checks this across
  // RANNC_THREADS via rannc explain; this is the in-process version).
  BertConfig bc;
  bc.hidden = 128;
  bc.layers = 2;
  bc.seq_len = 64;
  const TaskGraph g = build_bert(bc).graph;
  std::vector<std::string> docs;
  for (int threads : {1, 4}) {
    SearchRequest cfg;
    cfg.batch_size = 8;
    cfg.budget.threads = threads;
    const PartitionResult plan = auto_partition(g, cfg).plan;
    ASSERT_TRUE(plan.feasible) << plan.infeasible_reason;
    const PlanEvaluation ev = evaluate_plan(plan, cfg);
    obs::AttributionReport rep =
        obs::attribute(ev.schedule.intervals,
                       static_cast<int>(plan.stages.size()), plan.microbatches);
    for (const obs::WhatIf& w : obs::default_what_ifs(rep))
      rep.what_ifs.push_back(
          evaluate_what_if(rep, ev.stage_times, plan.microbatches, w));
    docs.push_back(obs::report_json(rep));
  }
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_TRUE(json_well_formed(docs[0]));
  // The table renderer runs on the same report without throwing.
  EXPECT_FALSE(obs::report_table(obs::attribute(
                   simulate_gpipe(uniform2(), 4).intervals, 2, 4))
                   .empty());
}

TEST(ExactMath, FitResidualLandsBitExactly) {
  obs::ExactSum partial;
  for (int i = 0; i < 1000; ++i) partial.add(0.1);
  const double p = partial.value();
  const double total = 100.0;
  const double r = obs::fit_residual(total, p);
  EXPECT_EQ(p + r, total);  // bit-exact by construction
  EXPECT_EQ(obs::fit_residual(7.0, 7.0), 0.0);
  // Inputs whose scales make the fold unreachable must throw, not return
  // a silently wrong residual.
  EXPECT_THROW(obs::fit_residual(1.0, 1e300), std::logic_error);
}

TEST(ExactMath, ExactSumCompensates) {
  obs::ExactSum s;
  s.add(1.0);
  s.add(1e100);
  s.add(1.0);
  s.add(-1e100);
  EXPECT_EQ(s.value(), 2.0);  // naive summation yields 0
}

TEST(ObsMetrics, HistogramQuantiles) {
  obs::Histogram h;
  h.record(3.0);
  obs::Histogram::Snapshot one = h.snapshot();
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 3.0);  // single sample: clamped exact
  EXPECT_DOUBLE_EQ(one.quantile(0.99), 3.0);

  obs::Histogram many;
  for (int i = 1; i <= 1000; ++i) many.record(static_cast<double>(i));
  obs::Histogram::Snapshot s = many.snapshot();
  const double p50 = s.quantile(0.50);
  const double p99 = s.quantile(0.99);
  EXPECT_GE(p50, s.min);
  EXPECT_LE(p50, s.max);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, s.max);
  // Exponential buckets: the estimates are within one bucket (2x) of truth.
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, 500.0);

  obs::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.snapshot().quantile(0.5), 0.0);
}

TEST(ObsMetrics, SnapshotJsonCarriesQuantiles) {
  obs::MetricsRegistry reg;
  reg.histogram("x").record(2.5);
  const std::string doc = reg.to_json();
  EXPECT_TRUE(json_well_formed(doc));
  EXPECT_NE(doc.find("\"p50\""), std::string::npos);
  EXPECT_NE(doc.find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace rannc
