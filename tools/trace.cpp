// rannc trace — observability command: runs a builder model through the
// partition search and a simulated execution of the winning plan, and
// writes both observability artifacts:
//
//   trace.json    Chrome trace-event timeline (open in chrome://tracing or
//                 https://ui.perfetto.dev). Two processes:
//                   pid 1  "search (wall clock)"        — partition phases,
//                          per-thread stage-DP job lanes, sweep progress
//                   pid 2  "pipeline schedule (virtual time)" — per-stage
//                          F/B intervals of the simulated GPipe schedule
//   metrics.json  counters/gauges/histograms snapshot (dp cells, profile
//                 queries, iteration time, bubble fraction, ...)
//
//   rannc trace --model bert --layers 8 --trace trace.json
//               --metrics metrics.json
//
// The virtual-time (pid 2) events are deterministic: bit-identical across
// runs and RANNC_THREADS values.
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "cli_args.h"
#include "rannc.h"

namespace rannc::cli {
namespace {

struct Options {
  std::string trace_file = "trace.json";
  std::string metrics_file = "metrics.json";
  bool quiet = false;
};

int run(const Inputs& in, const Options& o) {
  obs::set_thread_name("main");
  obs::TraceRecorder rec;
  obs::set_recorder(&rec);

  const BuiltModel m = serve::build_model(in.model);

  SearchRequest req;
  apply_search(in.search, req);
  const PartitionResult plan = auto_partition(m.graph, req).plan;
  if (!o.quiet) std::cout << describe(plan);

  if (plan.feasible) {
    // Virtual-time replay of the winning plan: the simulated GPipe
    // schedule on the SimSchedule tracks.
    obs::Scope sc("simulate_plan", "sim");
    const ScheduleResult sched = evaluate_plan(plan, req).schedule;
    trace_schedule(rec, sched, static_cast<int>(plan.stages.size()));
    obs::MetricsRegistry& mreg = obs::metrics();
    mreg.gauge("sim.iteration_time").set(sched.iteration_time);
    mreg.gauge("sim.bubble_fraction").set(sched.bubble_fraction);
  } else {
    RANNC_LOG_WARN("partition infeasible (" << plan.infeasible_reason
                                            << "); trace has search events "
                                               "only");
  }

  obs::set_recorder(nullptr);
  if (!rec.write_json_file(o.trace_file))
    throw std::runtime_error("cannot write trace file '" + o.trace_file + "'");
  if (!obs::metrics().write_json_file(o.metrics_file))
    throw std::runtime_error("cannot write metrics file '" + o.metrics_file +
                             "'");
  if (!o.quiet)
    std::cout << "wrote " << o.trace_file << " (" << rec.event_count()
              << " events) and " << o.metrics_file << "\n";
  return plan.feasible ? 0 : 1;
}

}  // namespace

Body trace_command(ArgParser& p, const Inputs& in) {
  auto o = std::make_shared<Options>();
  p.section("Outputs");
  p.opt("--trace", &o->trace_file, "FILE",
        "Chrome trace-event JSON (default trace.json)");
  p.opt("--metrics", &o->metrics_file, "FILE",
        "metrics snapshot JSON (default metrics.json)");
  p.flag("--quiet", &o->quiet, "suppress the summary on stdout");
  return [o, &in] { return run(in, *o); };
}

}  // namespace rannc::cli
