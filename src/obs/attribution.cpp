#include "obs/attribution.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace rannc {
namespace obs {

namespace {

/// Conservation cross-check tolerance: the fitted bucket must agree with
/// the directly summed one to this relative slack (pure round-off).
constexpr double kConservationSlack = 1e-9;

void check_fit(double fitted, double direct, double scale, const char* what) {
  const double tol = kConservationSlack * std::abs(scale);
  if (std::abs(fitted - direct) > tol)
    throw std::logic_error(std::string("attribution: ") + what +
                           " conservation fit disagrees with direct sum");
}

/// Fixed-width "%.6f" (tables only; JSON uses json::number).
std::string fixed6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string pad_left(const std::string& s, std::size_t w) {
  return s.size() >= w ? s : std::string(w - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t w) {
  return s.size() >= w ? s : s + std::string(w - s.size(), ' ');
}

/// Human-oriented factor spelling for what-if names ("0.9", "1.25", "2").
std::string factor_str(double f) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", f);
  return buf;
}

const char* kind_name(WhatIf::Kind k) {
  switch (k) {
    case WhatIf::Kind::StageComputeScale:
      return "stage_compute_scale";
    case WhatIf::Kind::Microbatches:
      return "microbatches";
  }
  return "unknown";
}

}  // namespace

AttributionReport attribute(const std::vector<CausalOp>& ops, int num_stages,
                            int microbatches) {
  AttributionReport rep;
  rep.num_stages = std::max(0, num_stages);
  rep.microbatches = microbatches;
  rep.path = critical_path(ops, rep.num_stages);
  const double T = rep.path.makespan;
  rep.step_time = T;
  rep.anchor_stage = rep.path.terminal_stage;

  // Per-stage ops in time order (stages never overlap themselves).
  std::vector<std::vector<const CausalOp*>> by_stage(
      static_cast<std::size_t>(rep.num_stages));
  for (const CausalOp& o : ops)
    if (o.stage >= 0 && o.stage < rep.num_stages)
      by_stage[static_cast<std::size_t>(o.stage)].push_back(&o);
  for (auto& v : by_stage)
    std::sort(v.begin(), v.end(), [](const CausalOp* a, const CausalOp* b) {
      if (a->start != b->start) return a->start < b->start;
      if (a->end != b->end) return a->end < b->end;
      if (a->backward != b->backward) return !a->backward;
      return a->microbatch < b->microbatch;
    });

  rep.stages.resize(static_cast<std::size_t>(rep.num_stages));
  for (int s = 0; s < rep.num_stages; ++s) {
    ExactSum compute, bubble_direct;
    double prev_end = 0;
    for (const CausalOp* o : by_stage[static_cast<std::size_t>(s)]) {
      if (o->start > prev_end) bubble_direct.add(o->start - prev_end);
      compute.add(o->end - o->start);
      prev_end = std::max(prev_end, o->end);
    }
    if (T > prev_end) bubble_direct.add(T - prev_end);

    StageBuckets& b = rep.stages[static_cast<std::size_t>(s)];
    b.compute = compute.value();
    b.total = T;
    // Fit the bubble so compute + bubble reproduces T bit-exactly, then
    // cross-check it against the directly enumerated gaps.
    b.bubble = fit_residual(T, b.compute);
    check_fit(b.bubble, bubble_direct.value(), T, "stage bubble");
  }

  if (rep.anchor_stage >= 0 && rep.anchor_stage < rep.num_stages)
    rep.step = rep.stages[static_cast<std::size_t>(rep.anchor_stage)];
  else
    rep.step.total = rep.step.bubble = T;

  // Straggler ranking: most compute-loaded stage first.
  rep.stragglers.resize(static_cast<std::size_t>(rep.num_stages));
  for (int s = 0; s < rep.num_stages; ++s)
    rep.stragglers[static_cast<std::size_t>(s)] = s;
  std::sort(rep.stragglers.begin(), rep.stragglers.end(), [&](int a, int b) {
    const double ca = rep.stages[static_cast<std::size_t>(a)].compute;
    const double cb = rep.stages[static_cast<std::size_t>(b)].compute;
    if (ca != cb) return ca > cb;
    return a < b;
  });
  return rep;
}

void attach_links(AttributionReport& rep,
                  const std::vector<FabricTransfer>& transfers,
                  const std::vector<std::string>& link_names,
                  const std::vector<double>& link_busy_seconds,
                  double horizon) {
  struct Acc {
    std::int64_t transfers = 0;
    ExactSum bytes, wire, active, queue_direct;
  };
  std::map<int, Acc> by_link;  // ordered by link id => deterministic
  for (const FabricTransfer& t : transfers) {
    if (t.bottleneck_link < 0) continue;
    Acc& a = by_link[t.bottleneck_link];
    const double flow = t.finish - t.activate;
    const double nominal = std::min(std::max(0.0, t.nominal), flow);
    ++a.transfers;
    a.bytes.add(t.bytes);
    a.wire.add(nominal);
    a.active.add(flow);
    a.queue_direct.add(flow - nominal);
  }
  rep.links.clear();
  for (const auto& [l, a] : by_link) {
    LinkAttribution la;
    la.name = l >= 0 && static_cast<std::size_t>(l) < link_names.size()
                  ? link_names[static_cast<std::size_t>(l)]
                  : "link:" + std::to_string(l);
    la.transfers = a.transfers;
    la.bytes = a.bytes.value();
    la.wire = a.wire.value();
    la.active = a.active.value();
    la.queue = fit_residual(la.active, la.wire);  // wire + queue == active
    check_fit(la.queue, a.queue_direct.value(), la.active, "link queue");
    la.busy = l >= 0 && static_cast<std::size_t>(l) < link_busy_seconds.size()
                  ? link_busy_seconds[static_cast<std::size_t>(l)]
                  : 0.0;
    rep.links.push_back(std::move(la));
  }
  rep.bottleneck_links.resize(rep.links.size());
  for (std::size_t i = 0; i < rep.links.size(); ++i)
    rep.bottleneck_links[i] = static_cast<int>(i);
  std::sort(rep.bottleneck_links.begin(), rep.bottleneck_links.end(),
            [&](int a, int b) {
              const LinkAttribution& la = rep.links[static_cast<std::size_t>(a)];
              const LinkAttribution& lb = rep.links[static_cast<std::size_t>(b)];
              if (la.queue != lb.queue) return la.queue > lb.queue;
              return la.name < lb.name;
            });
  rep.fabric_horizon = horizon;
}

std::string what_if_name(const WhatIf& w) {
  switch (w.kind) {
    case WhatIf::Kind::StageComputeScale:
      return "stage" + std::to_string(w.index) + ".compute.x" +
             factor_str(w.factor);
    case WhatIf::Kind::Microbatches:
      return "microbatches." + std::to_string(w.microbatches);
  }
  return "unknown";
}

std::vector<WhatIf> default_what_ifs(const AttributionReport& rep) {
  std::vector<WhatIf> v;
  const int anchor =
      rep.anchor_stage >= 0 && rep.anchor_stage < rep.num_stages
          ? rep.anchor_stage
          : 0;
  v.push_back({WhatIf::Kind::StageComputeScale, anchor, 0.75, 0});
  v.push_back({WhatIf::Kind::StageComputeScale, anchor, 1.25, 0});
  const int straggler = rep.stragglers.empty() ? anchor : rep.stragglers[0];
  v.push_back({WhatIf::Kind::StageComputeScale, straggler, 0.9, 0});
  if (rep.microbatches > 0) {
    v.push_back({WhatIf::Kind::Microbatches, -1, 1.0, rep.microbatches * 2});
    if (rep.microbatches > 1)
      v.push_back({WhatIf::Kind::Microbatches, -1, 1.0, rep.microbatches / 2});
  }
  return v;
}

namespace {

void write_buckets(json::Writer& w, const StageBuckets& b) {
  w.begin_object().field("compute", b.compute).field("bubble", b.bubble);
  w.field("total", b.total).end_object();
}

}  // namespace

std::string report_json(const AttributionReport& rep) {
  json::Writer w;
  w.begin_object().field("schema", "rannc.explain.v3");
  w.field("subject", rep.subject).field("num_stages", rep.num_stages);
  w.field("microbatches", rep.microbatches).field("step_time", rep.step_time);
  w.field("anchor_stage", rep.anchor_stage).key("step");
  write_buckets(w, rep.step);
  w.key("stages").begin_array();
  for (std::size_t s = 0; s < rep.stages.size(); ++s) {
    w.begin_object().field("stage", s).key("buckets");
    write_buckets(w, rep.stages[s]);
    w.end_object();
  }
  const CriticalPath& cp = rep.path;
  w.end_array().key("critical_path").begin_object();
  w.field("makespan", cp.makespan).field("terminal_stage", cp.terminal_stage);
  w.field("compute_total", cp.compute_total);
  w.key("compute_by_stage").begin_array();
  for (const double t : cp.compute_by_stage) w.value(t);
  w.end_array().key("segments").begin_array();
  for (const PathSegment& sg : cp.segments) {
    w.begin_object().field("stage", sg.stage);
    w.field("microbatch", sg.microbatch).field("backward", sg.backward);
    w.field("start", sg.start).field("end", sg.end).end_object();
  }
  w.end_array().end_object().key("stragglers").begin_array();
  for (const int s : rep.stragglers) w.value(s);
  w.end_array().key("links").begin_array();
  for (const LinkAttribution& l : rep.links) {
    w.begin_object().field("name", l.name).field("transfers", l.transfers);
    w.field("bytes", l.bytes).field("wire", l.wire).field("queue", l.queue);
    w.field("active", l.active).field("busy", l.busy).end_object();
  }
  w.end_array().key("bottleneck_links").begin_array();
  for (const int l : rep.bottleneck_links)
    w.value(rep.links[static_cast<std::size_t>(l)].name);
  w.end_array().field("fabric_horizon", rep.fabric_horizon);
  w.key("what_if").begin_array();
  for (const WhatIfResult& wi : rep.what_ifs) {
    w.begin_object().field("name", wi.name);
    w.field("kind", kind_name(wi.spec.kind)).field("index", wi.spec.index);
    w.field("factor", wi.spec.factor);
    w.field("microbatches", wi.spec.microbatches);
    w.field("baseline", wi.baseline).field("ground_truth", wi.ground_truth);
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string report_table(const AttributionReport& rep) {
  std::ostringstream os;
  os << "== causal attribution";
  if (!rep.subject.empty()) os << ": " << rep.subject;
  os << " ==\n";
  os << "step_time " << fixed6(rep.step_time) << " s   stages "
     << rep.num_stages << "   microbatches " << rep.microbatches
     << "   anchor stage " << rep.anchor_stage << "\n\n";
  os << "stage " << pad_left("compute", 12) << pad_left("bubble", 12)
     << pad_left("busy%", 8) << "\n";
  for (std::size_t s = 0; s < rep.stages.size(); ++s) {
    const StageBuckets& b = rep.stages[s];
    const double busy_pct = b.total > 0 ? 100.0 * b.compute / b.total : 0.0;
    char pct[32];
    std::snprintf(pct, sizeof pct, "%.1f", busy_pct);
    os << pad_left(std::to_string(s), 5) << pad_left(fixed6(b.compute), 12)
       << pad_left(fixed6(b.bubble), 12) << pad_left(pct, 8) << "\n";
  }
  os << "\ncritical path: compute " << fixed6(rep.path.compute_total)
     << " s (" << rep.path.segments.size() << " segments, terminal stage "
     << rep.path.terminal_stage << ")\n";
  os << "  compute on path by stage:";
  for (std::size_t s = 0; s < rep.path.compute_by_stage.size(); ++s)
    os << "  s" << s << " " << fixed6(rep.path.compute_by_stage[s]);
  os << "\n";
  os << "  stragglers (by compute):";
  for (int s : rep.stragglers) os << " s" << s;
  os << "\n";
  if (!rep.links.empty()) {
    os << "\nlinks (grouped by bottleneck link of each transfer path):\n";
    os << "  " << pad_right("name", 14) << pad_left("transfers", 10)
       << pad_left("bytes", 14) << pad_left("wire s", 12)
       << pad_left("queue s", 12) << pad_left("busy s", 12) << "\n";
    for (int idx : rep.bottleneck_links) {
      const LinkAttribution& l = rep.links[static_cast<std::size_t>(idx)];
      char bytes[32];
      std::snprintf(bytes, sizeof bytes, "%.0f", l.bytes);
      os << "  " << pad_right(l.name, 14)
         << pad_left(std::to_string(l.transfers), 10)
         << pad_left(bytes, 14) << pad_left(fixed6(l.wire), 12)
         << pad_left(fixed6(l.queue), 12) << pad_left(fixed6(l.busy), 12)
         << "\n";
    }
    os << "  fabric horizon " << fixed6(rep.fabric_horizon) << " s\n";
  }
  if (!rep.what_ifs.empty()) {
    os << "\nwhat-if (re-simulated step time):\n";
    os << "  " << pad_right("name", 28) << pad_left("step s", 12) << "\n";
    for (const WhatIfResult& w : rep.what_ifs)
      os << "  " << pad_right(w.name, 28)
         << pad_left(fixed6(w.ground_truth), 12) << "\n";
  }
  return os.str();
}

}  // namespace obs
}  // namespace rannc
