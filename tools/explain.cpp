// rannc explain — causal performance attribution.
//
// Runs the partition search for a builder model, scores the winning plan
// with evaluate_plan — the GPipe schedule the search optimized, boundary
// comm folded into each stage's t_f / t_b as in h() (paper Section III-C)
// — and folds the schedule's causal op records into an attribution report
// (src/obs/attribution.h, schema "rannc.explain.v4"):
//
//   * the exact critical path of compute segments,
//   * a conservation-checked decomposition of the step time into
//     compute / bubble buckets per stage (compute + bubble == step time
//     bit-exactly; boundary comm is counted once, inside compute),
//   * a what-if catalog (stage compute scaling, microbatch count), each
//     answered by re-simulating the perturbed schedule.
//
//   rannc explain --model bert --layers 8 --out explain.json
//   rannc explain --diff a.json b.json [--tol 1e-9]
//
// Every input is deterministic virtual time, so the JSON report is
// byte-identical across runs and RANNC_THREADS values; CI diffs it.
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_args.h"
#include "rannc.h"
#include "util/json.h"

namespace rannc::cli {
namespace {

struct Options {
  std::string out_file = "explain.json";
  bool table = false;
  bool quiet = false;
};

int run(const Inputs& in, const Options& o) {
  obs::set_thread_name("main");
  const BuiltModel m = serve::build_model(in.model);

  SearchRequest req;
  apply_search(in.search, req);
  const PartitionResult plan = auto_partition(m.graph, req).plan;
  if (!plan.feasible) {
    RANNC_LOG_ERROR("partition infeasible (" << plan.infeasible_reason
                                             << "); nothing to attribute");
    return 1;
  }

  const PlanEvaluation ev = evaluate_plan(plan, req);
  const int S = static_cast<int>(plan.stages.size());
  obs::AttributionReport rep =
      obs::attribute(ev.schedule.intervals, S, plan.microbatches);
  {
    std::ostringstream subject;
    subject << in.model.model << " S=" << S << " MB=" << plan.microbatches
            << " nodes=" << req.cluster.num_nodes << "x"
            << req.cluster.devices_per_node;
    rep.subject = subject.str();
  }

  // What-if catalog: perturb the simulator inputs and re-run the schedule.
  for (const obs::WhatIf& w : obs::default_what_ifs(rep))
    rep.what_ifs.push_back(
        evaluate_what_if(rep, ev.stage_times, plan.microbatches, w));

  {
    std::ofstream out(o.out_file, std::ios::binary);
    out << obs::report_json(rep);
    if (!out)
      throw std::runtime_error("cannot write report file '" + o.out_file + "'");
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
      const double scale = std::max(std::abs(a.number), std::abs(b.number));
      if (std::abs(a.number - b.number) > tol * scale) {
        std::ostringstream os;
        os << path << ": " << a.number << " vs " << b.number;
        out.push_back(os.str());
      }
      return;
    }
    case json::Value::Type::String:
      if (a.str != b.str)
        out.push_back(path + ": " + json::quote(a.str) + " vs " +
                      json::quote(b.str));
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

struct DiffOptions {
  std::string file_a, file_b;
  double tol = 0.0;  // default: exact (reports are byte-deterministic)
};

int run_diff(const DiffOptions& o) {
  const json::Value a = json::parse(json::read_file(o.file_a));
  const json::Value b = json::parse(json::read_file(o.file_b));
  std::vector<std::string> mismatches;
  diff_values(a, b, "report", o.tol, mismatches);
  if (mismatches.empty()) {
    std::cout << "reports match (tol " << o.tol << ")\n";
    return 0;
  }
  std::cout << mismatches.size() << " mismatch(es):\n";
  for (const std::string& m : mismatches) std::cout << "  " << m << "\n";
  return 1;
}

}  // namespace

Body explain_command(ArgParser& p, const Inputs& in) {
  auto o = std::make_shared<Options>();
  p.section("Outputs");
  p.opt("--out", &o->out_file, "FILE",
        "attribution report JSON (default explain.json)");
  p.flag("--table", &o->table, "print the ASCII table even with --quiet");
  p.flag("--quiet", &o->quiet, "suppress the table/summary on stdout");
  return [o, &in] { return run(in, *o); };
}

Body diff_command(ArgParser& p, const Inputs&) {
  auto o = std::make_shared<DiffOptions>();
  p.operand(&o->file_a, "A.json");
  p.operand(&o->file_b, "B.json");
  p.section("Comparison");
  p.opt("--tol", &o->tol, "REL",
        "relative tolerance for numbers (default 0: exact)");
  return [o] { return run_diff(*o); };
}

}  // namespace rannc::cli
