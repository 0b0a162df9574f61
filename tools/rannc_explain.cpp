// rannc-explain — causal performance attribution CLI.
//
// Runs the partition search for a builder model, scores the winning plan
// with evaluate_plan — the GPipe schedule the search optimized, boundary
// comm folded into each stage's t_f / t_b as in h() (paper Section III-C)
// — and folds the schedule's causal annotations into an attribution report
// (src/obs/attribution.h):
//
//   * the exact critical path,
//   * a conservation-checked decomposition of the step time into
//     compute / comm / queue / bubble buckets per stage (the buckets sum
//     to the step time bit-exactly; the schedule-side comm bucket is 0
//     because comm is counted inside compute, exactly once),
//   * per-link wire vs contention-queuing attribution from a discrete-event
//     fabric replay of the plan's communication pattern,
//   * a what-if catalog: first-order estimates validated against
//     ground-truth re-simulation.
//
//   rannc-explain --model bert --layers 8 --out explain.json
//   rannc-explain --diff a.json b.json [--tol 1e-9]
//
// Every input is deterministic virtual time, so the JSON report is
// byte-identical across runs and RANNC_THREADS values; CI diffs it.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "rannc.h"
#include "util/json.h"

namespace {

using namespace rannc;

struct Options {
  cli::ModelOptions model;
  cli::SearchOptions search;
  std::string out_file = "explain.json";
  bool table = false;
  bool quiet = false;
};

int run(const Options& o) {
  obs::set_thread_name("main");
  const BuiltModel m = cli::build_model(o.model);

  SearchRequest req;
  cli::apply_search(o.search, req);
  const PartitionResult plan = auto_partition(m.graph, req).plan;
  if (!plan.feasible) {
    RANNC_LOG_ERROR("partition infeasible (" << plan.infeasible_reason
                                             << "); nothing to attribute");
    return 1;
  }

  const PlanEvaluation ev = evaluate_plan(plan, req);
  const int S = static_cast<int>(plan.stages.size());
  obs::AttributionReport rep =
      obs::attribute(causal_ops(ev.schedule), S, plan.microbatches);
  {
    std::ostringstream subject;
    subject << o.model.model << " S=" << S << " MB=" << plan.microbatches
            << " nodes=" << req.cluster.num_nodes << "x"
            << req.cluster.devices_per_node;
    rep.subject = subject.str();
  }

  // Per-link wire vs contention attribution of one step's traffic.
  {
    comm::Fabric fabric(req.cluster);
    fabric.set_transfer_log(true);
    replay_plan_comm(fabric, plan);
    comm::attribute_fabric(rep, fabric);
  }

  // What-if catalog: first-order estimates from the report, ground truth
  // by perturbing the simulator inputs and re-running the schedule.
  for (const obs::WhatIf& w : obs::default_what_ifs(rep))
    rep.what_ifs.push_back(
        evaluate_what_if(rep, ev.stage_times, plan.microbatches, w));

  const std::string doc = obs::report_json(rep);
  {
    std::ofstream out(o.out_file, std::ios::binary);
    out << doc;
    if (!out) {
      RANNC_LOG_ERROR("cannot write report file '" << o.out_file << "'");
      return 2;
    }
  }
  if (!o.quiet) {
    std::cout << obs::report_table(rep);
    std::cout << "\nwrote " << o.out_file << "\n";
  } else if (o.table) {
    std::cout << obs::report_table(rep);
  }
  return 0;
}

// ---- --diff: structural comparison of two reports --------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Recursively compares two parsed reports; numbers within relative
/// tolerance `tol` are equal. Appends one line per mismatch (bounded).
void diff_values(const json::Value& a, const json::Value& b,
                 const std::string& path, double tol,
                 std::vector<std::string>& out) {
  if (out.size() >= 50) return;
  if (a.type != b.type) {
    out.push_back(path + ": type mismatch");
    return;
  }
  switch (a.type) {
    case json::Value::Type::Null:
      return;
    case json::Value::Type::Bool:
      if (a.boolean != b.boolean) out.push_back(path + ": bool mismatch");
      return;
    case json::Value::Type::Number: {
      const double denom =
          std::max({std::abs(a.number), std::abs(b.number), 1.0});
      if (std::abs(a.number - b.number) > tol * denom) {
        std::ostringstream os;
        os << path << ": " << a.number << " vs " << b.number;
        out.push_back(os.str());
      }
      return;
    }
    case json::Value::Type::String:
      if (a.str != b.str)
        out.push_back(path + ": \"" + a.str + "\" vs \"" + b.str + "\"");
      return;
    case json::Value::Type::Array: {
      if (a.items.size() != b.items.size()) {
        out.push_back(path + ": length " + std::to_string(a.items.size()) +
                      " vs " + std::to_string(b.items.size()));
        return;
      }
      for (std::size_t i = 0; i < a.items.size(); ++i)
        diff_values(a.items[i], b.items[i],
                    path + "[" + std::to_string(i) + "]", tol, out);
      return;
    }
    case json::Value::Type::Object: {
      for (const auto& [k, v] : a.members) {
        const json::Value* bv = b.find(k);
        if (bv == nullptr) {
          out.push_back(path + "." + k + ": only in first");
          continue;
        }
        diff_values(v, *bv, path + "." + k, tol, out);
      }
      for (const auto& [k, v] : b.members)
        if (a.find(k) == nullptr)
          out.push_back(path + "." + k + ": only in second");
      return;
    }
  }
}

int run_diff(const std::string& file_a, const std::string& file_b, double tol) {
  const json::Value a = json::parse(read_file(file_a));
  const json::Value b = json::parse(read_file(file_b));
  std::vector<std::string> mismatches;
  diff_values(a, b, "report", tol, mismatches);
  if (mismatches.empty()) {
    std::cout << "reports match (tol " << tol << ")\n";
    return 0;
  }
  std::cout << mismatches.size() << " mismatch(es):\n";
  for (const std::string& m : mismatches) std::cout << "  " << m << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // `--diff a.json b.json [--tol X]` is a separate sub-mode with positional
  // operands the flag parser does not model; handle it up front.
  if (argc >= 2 && std::string(argv[1]) == "--diff") {
    if (argc < 4) {
      std::cerr << "usage: rannc-explain --diff A.json B.json [--tol REL]\n";
      return 2;
    }
    double tol = 0.0;  // default: exact (reports are byte-deterministic)
    if (argc >= 6 && std::string(argv[4]) == "--tol") tol = std::stod(argv[5]);
    try {
      return run_diff(argv[2], argv[3], tol);
    } catch (const std::exception& e) {
      std::cerr << "rannc-explain --diff: " << e.what() << "\n";
      return 2;
    }
  }

  Options o;
  cli::ArgParser p("rannc-explain",
                   "Runs the partition search plus a virtual-time replay and "
                   "writes a causal attribution report (critical path, "
                   "conservation-checked time buckets, per-link contention, "
                   "what-if estimates). Sub-mode: --diff A.json B.json "
                   "[--tol REL] compares two reports.");
  cli::register_model_flags(p, o.model);
  cli::register_search_flags(p, o.search);
  p.section("Outputs");
  p.opt("--out", &o.out_file, "FILE",
        "attribution report JSON (default explain.json)");
  p.flag("--table", &o.table, "print the ASCII table even with --quiet");
  p.flag("--quiet", &o.quiet, "suppress the table/summary on stdout");
  if (p.parse(argc, argv) != cli::ArgParser::Status::Ok) return 2;
  if (o.model.model.empty()) {
    p.print_usage(std::cerr);
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    RANNC_LOG_ERROR("rannc-explain: " << e.what());
    return 2;
  }
}
