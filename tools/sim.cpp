// rannc sim — fault replay: partitions a builder model, then replays
// training steps in virtual time under a JSON fault schedule (see
// src/resilience/fault_plan.h for the format). Message timeouts are
// absorbed by the simulated retry policy, device fail-stops trigger the
// elastic-recovery path (cluster shrink, warm re-partition, shard
// migration), and the run continues on the recovered plan.
//
//   rannc sim --model bert --layers 8 --faults tools/fault_plans/smoke.json
//             --steps 4 --trace sim.json --plan-out final_plan.json
//
// All timing is virtual: the trace (pid 2 schedule lanes + the
// "resilience" control track, pid 3 fabric lanes) and the final plan are
// bit-identical across runs and RANNC_THREADS values.
//
// Exit codes: 0 = run completed (with or without recovery), 1 = aborted
// (unrecoverable failure or no feasible plan), 2 = usage error.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "cli_args.h"
#include "rannc.h"

namespace rannc::cli {
namespace {

struct Options {
  std::string faults_file;
  int steps = 4;
  int max_attempts = 3;
  std::string trace_file = "sim_trace.json";
  std::string metrics_file;
  std::string plan_file;
  bool quiet = false;
};

int run(const Inputs& in, const Options& o) {
  if (o.faults_file.empty())
    throw std::invalid_argument("--faults FILE is required (try --help)");
  obs::set_thread_name("main");
  obs::TraceRecorder rec;
  obs::set_recorder(&rec);

  const BuiltModel m = serve::build_model(in.model);
  const resilience::FaultPlan faults =
      resilience::FaultPlan::load(o.faults_file);

  SearchRequest req;
  apply_search(in.search, req);

  resilience::SimOptions so;
  so.steps = o.steps;
  so.retry.max_attempts = o.max_attempts;
  const resilience::SimResult res =
      resilience::simulate_with_faults(m.graph, req, faults, so);

  if (!o.quiet) {
    std::cout << "initial plan: " << res.initial_plan.stages.size()
              << " stages x " << res.initial_plan.pipelines << " pipeline(s), "
              << res.initial_plan.microbatches << " microbatches\n";
    for (const resilience::SimStep& st : res.steps) {
      std::cout << "step " << st.step << ": [" << st.start << ", " << st.end
                << ")";
      if (st.retries)
        std::cout << " retries=" << st.retries
                  << " backoff=" << st.backoff_seconds
                  << " rollbacks=" << st.rollbacks;
      if (st.device_failure) {
        std::cout << " DEVICE FAILURE ranks={";
        for (std::size_t i = 0; i < st.failed_ranks.size(); ++i)
          std::cout << (i ? "," : "") << st.failed_ranks[i];
        std::cout << "}" << (st.recovered ? " recovered" : " UNRECOVERED");
      }
      std::cout << '\n';
    }
    if (res.recovered)
      std::cout << "recovery: " << res.migration.moves.size()
                << " shard moves (" << res.migration.total_bytes
                << " bytes) in " << res.recovery_seconds
                << "s virtual; final plan " << res.final_plan.stages.size()
                << " stages x " << res.final_plan.pipelines << " pipeline(s)\n";
    std::cout << "virtual run time: " << res.virtual_seconds << "s\n";
    if (res.aborted) std::cout << "ABORTED: " << res.abort_reason << '\n';
  }

  obs::set_recorder(nullptr);
  if (!rec.write_json_file(o.trace_file))
    throw std::runtime_error("cannot write trace file '" + o.trace_file + "'");
  if (!o.quiet)
    std::cout << "wrote " << o.trace_file << " (" << rec.event_count()
              << " events)\n";
  if (!o.metrics_file.empty() &&
      !obs::metrics().write_json_file(o.metrics_file))
    throw std::runtime_error("cannot write metrics file '" + o.metrics_file +
                             "'");
  if (!o.plan_file.empty()) {
    std::ofstream out(o.plan_file);
    if (!out)
      throw std::runtime_error("cannot write plan file '" + o.plan_file + "'");
    out << plan_to_json(res.final_plan);
    if (!o.quiet) std::cout << "wrote " << o.plan_file << '\n';
  }
  return res.aborted ? 1 : 0;
}

}  // namespace

Body sim_command(ArgParser& p, const Inputs& in) {
  auto o = std::make_shared<Options>();
  p.section("Simulation");
  p.opt("--faults", &o->faults_file, "FILE", "fault schedule JSON (required)");
  p.opt("--steps", &o->steps, "N", "training steps to replay (default 4)");
  p.opt("--max-attempts", &o->max_attempts, "N",
        "recv attempts before a rollback (default 3)");
  p.section("Outputs");
  p.opt("--trace", &o->trace_file, "FILE",
        "Chrome trace-event JSON (default sim_trace.json)");
  p.opt("--metrics", &o->metrics_file, "FILE", "metrics snapshot JSON");
  p.opt("--plan-out", &o->plan_file, "FILE", "final (post-recovery) plan JSON");
  p.flag("--quiet", &o->quiet, "suppress the summary on stdout");
  return [o, &in] { return run(in, *o); };
}

}  // namespace rannc::cli
