// rannc lint — static analysis over the built-in model builders and
// partition plans.
//
//   rannc lint --model bert --layers 4 --hidden 256
//       builds the graph and runs the full analysis suite (structural
//       verifier, shape/dtype re-inference, dead-task detection), printing
//       every diagnostic plus a dataflow summary (liveness-based peak
//       activation bytes, cross-checked against the profiler's total).
//
//   rannc lint --model bert --layers 4 --plan plan.json
//       additionally validates a plan JSON against the model's graph,
//       atomic-rebuilt (constant-chain cloning) as auto_partition does, so
//       the plan's task ids resolve.
//
// Exit codes: 0 = clean, 1 = diagnostics with errors or plan violations,
// 2 = usage error.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "rannc.h"
#include "util/json.h"

namespace rannc::cli {
namespace {

struct Options {
  std::string plan_file;
  std::string dot_file;
  bool partition = false;
  bool liveness = false;
  bool fingerprint = false;
  bool quiet = false;
};

std::string human_bytes(std::int64_t b) {
  std::ostringstream os;
  if (b >= (1LL << 30))
    os << static_cast<double>(b) / static_cast<double>(1LL << 30) << " GiB";
  else if (b >= (1LL << 20))
    os << static_cast<double>(b) / static_cast<double>(1LL << 20) << " MiB";
  else
    os << b << " B";
  return os.str();
}

int run(const Inputs& in, const Options& o) {
  const BuiltModel m = serve::build_model(in.model);
  const TaskGraph& g = m.graph;
  // Verified once, on first use, for both the fingerprint and the search
  // (throws on a graph that fails verification).
  std::optional<VerifiedGraph> verified;
  const auto verified_graph = [&]() -> const VerifiedGraph& {
    if (!verified) verified.emplace(g);
    return *verified;
  };

  if (o.fingerprint) {
    // Cache identity for the serve layer: the canonical semantic hash,
    // invariant to names and insertion order.
    std::cout << "fingerprint: "
              << serve::fingerprint_graph(verified_graph()).hex() << '\n';
  }

  if (!o.quiet)
    std::cout << "model " << in.model.model << ": " << g.num_tasks()
              << " tasks, " << g.num_values() << " values, " << g.num_params()
              << " parameters\n";

  const std::vector<Diagnostic> ds = lint_graph(g);
  if (!ds.empty()) std::cout << render(ds);
  bool bad = has_errors(ds);

  if (!has_errors(ds) && !o.quiet) {
    // Dataflow summary: the liveness-based static activation bound must
    // never exceed the profiler's whole-graph activation total (which sums
    // every task output); report both so drifts are visible.
    const std::int64_t peak = peak_activation_bytes(g);
    GraphProfiler prof(g, DeviceSpec{});
    std::vector<TaskId> all = g.topo_order();
    const ProfileResult& p = prof.profile(all, 1);
    std::cout << "peak live activations (static bound): " << human_bytes(peak)
              << "  /  profiler activation total: " << human_bytes(p.act_bytes)
              << '\n';
    if (peak > p.act_bytes)
      std::cout << "warning: static bound exceeds profiler total "
                   "(cost-model drift)\n";
  }

  if (o.liveness && !has_errors(ds)) {
    const auto live = liveness_intervals(g);
    const auto dead = dead_tasks(g);
    std::int64_t dead_count = 0;
    for (char d : dead) dead_count += d;
    std::cout << "liveness: " << live.size() << " values, " << dead_count
              << " dead tasks\n";
    for (const Value& v : g.values())
      if (v.kind == ValueKind::Intermediate)
        std::cout << "  v" << v.id << " '" << v.name << "' ["
                  << live[static_cast<std::size_t>(v.id)].start << ", "
                  << live[static_cast<std::size_t>(v.id)].end << "] "
                  << human_bytes(v.bytes()) << '\n';
  }

  if (!o.dot_file.empty()) {
    std::ofstream out(o.dot_file);
    out << g.to_dot();
    if (!o.quiet) std::cout << "wrote " << o.dot_file << '\n';
  }

  if (!o.plan_file.empty()) {
    PartitionResult plan = plan_from_json(json::read_file(o.plan_file));
    // auto_partition's task ids refer to the atomic-rebuilt graph (constant
    // chains cloned per consumer); rebuild it the same deterministic way.
    auto ap = std::make_shared<AtomicPartition>(atomic_partition(g));
    plan.graph = std::shared_ptr<const TaskGraph>(ap, &ap->graph);
    SearchRequest req;
    apply_search(in.search, req);
    const auto violations = validate_plan(plan, req);
    for (const PlanViolation& v : violations)
      std::cout << "plan violation: " << v.what << '\n';
    if (!o.quiet)
      std::cout << "plan " << o.plan_file << ": "
                << (violations.empty() ? "valid" : "INVALID") << " ("
                << plan.stages.size() << " stages)\n";
    bad = bad || !violations.empty();
  }

  if (o.partition) {
    SearchRequest req;
    apply_search(in.search, req);
    const SearchResult sr = auto_partition(verified_graph(), req);
    const PartitionResult& r = sr.plan;
    std::cout << describe(r);
    std::cout << "search: " << r.stats.threads_used << " thread(s), "
              << r.stats.dp_invocations << " DP invocations, "
              << r.stats.dp_cells_visited << " cells, "
              << r.stats.profile_queries << " profile queries ("
              << r.stats.profile_queries_saved << " saved in-DP), "
              << r.stats.search_seconds
              << "s sweep / " << r.stats.wall_seconds << "s total\n";
    const PruneStats& pr = r.stats.prune;
    std::cout << "prune: " << pr.jobs_pruned << " jobs pruned, "
              << pr.jobs_dominated << " dominated, " << pr.ranges_pruned()
              << " ranges cut, " << pr.columns_pruned << " columns, "
              << pr.paths_pruned << " paths, " << pr.incumbent_updates
              << " incumbent updates\n";
    bad = bad || !r.feasible;
  }

  if (!o.quiet)
    std::cout << (bad ? "FAIL" : "OK") << ": " << count_errors(ds)
              << " errors, " << ds.size() - count_errors(ds)
              << " warnings\n";
  return bad ? 1 : 0;
}

}  // namespace

Body lint_command(ArgParser& p, const Inputs& in) {
  auto o = std::make_shared<Options>();
  p.section("Actions");
  p.flag("--partition", &o->partition,
         "run auto_partition and print the plan + search stats");
  p.opt("--plan", &o->plan_file, "FILE",
        "validate a plan JSON against the model graph");
  p.flag("--liveness", &o->liveness,
         "print per-value liveness & memory summary");
  p.flag("--fingerprint", &o->fingerprint,
         "print the canonical serve-cache fingerprint of the graph");
  p.opt("--dot", &o->dot_file, "FILE", "write a Graphviz rendering");
  p.flag("--quiet", &o->quiet, "print diagnostics only");
  return [o, &in] { return run(in, *o); };
}

}  // namespace rannc::cli
