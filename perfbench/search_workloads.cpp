// The two search workloads.
//
// search-moe  auto_partition on two sizes of the MoE decoder, called
//             directly (Phase 2 dominates and grows superlinearly).
// search-zoo  PlanServer::handle on the paper's model zoo: a cold miss at
//             4x8 and a sibling miss at 2x8 per model, fresh server per pass.
//
// Both are closed loops with one client. In traced runs every other op of
// each kind is traced: before the op, the benchmark calls each layer's public
// entry point on the same graph (verify, atomic partition, profiler, block
// partition, fingerprint, model build) under its own span; after it, plan
// serialization and validation. The sweep is what remains of the op once
// those phases are subtracted.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common.h"

namespace perfbench {
namespace {

using rannc::serve::ModelSpec;
using rannc::serve::PlanServer;
using rannc::serve::ServeOptions;
using rannc::serve::ServeRequest;
using rannc::serve::ServeResponse;

/// Set-up times of a search workload. The first set-up is counted from
/// process start; it is then repeated once after every round, so its median
/// samples the same stretch of time as the ops instead of one moment before
/// them.
class SetupTimer {
 public:
  explicit SetupTimer(const RunContext& ctx)
      : times_{ms_since(ctx.process_start) / 1e3} {}

  /// Times one more set-up (whose result is discarded).
  template <typename SetUp>
  void repeat(const SetUp& set_up) {
    const auto t0 = Clock::now();
    (void)set_up();
    times_.push_back(ms_since(t0) / 1e3);
  }
  [[nodiscard]] double median_s() const { return median(times_); }

 private:
  std::vector<double> times_;
};

/// Search-work counters the partitioner publishes to the metrics registry,
/// read before and after an op so the op's share is the difference.
struct SearchCounters {
  std::int64_t dp_cells = 0, queries = 0, memo_hits = 0, memo_misses = 0;

  static SearchCounters read() {
    rannc::obs::MetricsRegistry& m = rannc::obs::metrics();
    return {m.counter("partition.dp_cells_visited").get(),
            m.counter("partition.profile_queries").get(),
            m.counter("partition.memo_hits").get(),
            m.counter("partition.memo_misses").get()};
  }
  SearchCounters operator-(const SearchCounters& o) const {
    return {dp_cells - o.dp_cells, queries - o.queries,
            memo_hits - o.memo_hits, memo_misses - o.memo_misses};
  }
};

/// Times the phases auto_partition runs before its Phase-3 sweep by calling
/// each layer's public function on `g`, one span per layer.
void trace_search_phases(Tracer* tr, int op, const TaskGraph& g,
                         const SearchRequest& req) {
  {
    Tracer::Scope s(tr, "analysis.verify", op);
    rannc::verify_or_throw(g);
  }
  std::optional<rannc::AtomicPartition> ap;
  {
    Tracer::Scope s(tr, "partition.atomic", op);
    ap.emplace(rannc::atomic_partition(g));
  }
  std::optional<rannc::GraphProfiler> prof;
  {
    Tracer::Scope s(tr, "profiler.init", op);
    prof.emplace(ap->graph, req.cluster.device, req.precision);
  }
  rannc::BlockPartitionConfig bcfg;
  bcfg.k = req.num_blocks;
  bcfg.device_memory = req.usable_memory();
  bcfg.profile_batch = 1;
  Tracer::Scope s(tr, "partition.block", op);
  rannc::block_partition(*ap, *prof, bcfg);
}

/// Sum of a traced op's spans by name.
std::map<std::string, double> span_ms(const Tracer& tr, int op) {
  std::map<std::string, double> out;
  for (const Span& s : tr.spans())
    if (s.op == op) out[s.name] += s.ms();
  return out;
}

/// Records the per-layer samples of one traced search op. `op_name` is the
/// span of the timed call; `before` lists the spans subtracted from it to
/// leave the sweep.
void add_search_layers(LayerSamples& ls, const Tracer& tr, int op,
                       const std::string& kind, const std::string& op_name,
                       const std::vector<std::string>& before,
                       const SearchCounters& work) {
  const auto ms = span_ms(tr, op);
  const double total = ms.at(op_name);
  double phases = 0;
  for (const std::string& name : before) {
    const auto it = ms.find(name);
    if (it == ms.end()) continue;
    ls.add(name, kind, it->second);
    phases += it->second;
  }
  for (const char* name : {"plan_io.to_json", "plan_io.validate", "serve.hit"})
    if (const auto it = ms.find(name); it != ms.end())
      ls.add(name, kind, it->second);
  const double sweep = total - phases;
  ls.add("partition.sweep", kind, sweep);
  ls.add("partition.sweep_share", kind, sweep / total);
  ls.add("partition.block_share", kind, ms.at("partition.block") / total);
  ls.add("partition.stats_sweep",
         kind, 1e3 * rannc::obs::metrics().gauge("partition.search_seconds").get());
  ls.add("partition.dp_cells", kind, static_cast<double>(work.dp_cells));
  ls.add("partition.profile_queries", kind, static_cast<double>(work.queries));
  ls.add("partition.memo_hits", kind, static_cast<double>(work.memo_hits));
  ls.add("partition.memo_lookups", kind,
         static_cast<double>(work.memo_hits + work.memo_misses));
}

double max_kind_median(const LayerSamples& ls, const std::string& layer) {
  double best = 0;
  for (const std::string& k : ls.kinds(layer))
    best = std::max(best, ls.median_of(layer, k));
  return best;
}

/// The partition-layer metrics both search workloads report.
void partition_metrics(const LayerSamples& ls, Metrics& out) {
  const auto put = [&](const char* name, const char* layer, const char* unit) {
    out[name] = {ls.gmean_median(layer), unit};
  };
  put("analysis.verify_ms", "analysis.verify", "ms");
  put("partition.atomic_ms", "partition.atomic", "ms");
  put("profiler.init_ms", "profiler.init", "ms");
  put("partition.block_ms", "partition.block", "ms");
  put("partition.block_share", "partition.block_share", "ratio");
  put("partition.stats_sweep_ms", "partition.stats_sweep", "ms");
  // The derived sweep is a difference of separately timed calls, so on
  // search-moe (a few ms left out of seconds) it can come out negative: an
  // arithmetic mean over kinds keeps such values reportable.
  double sweep = 0;
  const std::vector<std::string> kinds = ls.kinds("partition.sweep");
  for (const std::string& k : kinds) sweep += ls.median_of("partition.sweep", k);
  out["partition.sweep_ms"] = {
      kinds.empty() ? 0 : sweep / static_cast<double>(kinds.size()), "ms"};
  put("partition.dp_cells", "partition.dp_cells", "count");
  put("partition.profile_queries", "partition.profile_queries", "count");
  put("plan_io.to_json_ms", "plan_io.to_json", "ms");
  put("plan_io.validate_ms", "plan_io.validate", "ms");
  out["partition.sweep_share_max"] = {
      max_kind_median(ls, "partition.sweep_share"), "ratio"};
  // Pooled over every traced op: a kind whose memo never hits must not zero
  // a geometric mean.
  double hits = 0, lookups = 0;
  for (const std::string& k : ls.kinds("partition.memo_lookups")) {
    hits += ls.median_of("partition.memo_hits", k);
    lookups += ls.median_of("partition.memo_lookups", k);
  }
  out["partition.memo_hit_rate"] = {lookups > 0 ? hits / lookups : 0, "ratio"};
}

/// Traced ops alternate with untraced ones per kind, so both halves see the
/// same mix of sizes and the same stretch of the run.
class Alternator {
 public:
  bool traced(bool trace_run, const std::string& kind) {
    return trace_run && (count_[kind]++ % 2 == 0);
  }

 private:
  std::map<std::string, int> count_;
};

// ---- search-moe --------------------------------------------------------------

struct MoeSize {
  std::string kind;
  std::int64_t experts;
};
// Two sizes so Phase 2's growth shows (block_scaling_exp), both short enough
// (~65 and ~140 ms) that a run holds about a hundred of each: on a shared
// host the fastest of many short ops is steady, while the fastest of a few
// 0.4-1.8 s ops (E16/E32 at 20 layers) still moved by up to 30 % between runs.
const MoeSize kMoeSizes[] = {{"moe-E8", 8}, {"moe-E16", 16}};

BuiltModel build_moe_size(std::int64_t experts) {
  rannc::MoeConfig c;
  c.hidden = 512;
  c.seq_len = 512;
  c.vocab = 50257;
  c.layers = 10;
  c.experts = experts;
  return rannc::build_moe(c);
}

SearchRequest moe_request() {
  SearchRequest req;  // default: pruned engine
  req.cluster.num_nodes = 8;
  req.cluster.devices_per_node = 4;
  req.batch_size = 128;
  req.budget.threads = 1;
  return req;
}

// ---- search-zoo ----------------------------------------------------------------

struct ZooModel {
  std::string name;
  ModelSpec spec;
  std::int64_t batch;
};

std::vector<ZooModel> zoo_models(bool probe) {
  const auto spec = [](const char* model) {
    ModelSpec s;
    s.model = model;
    return s;
  };
  ModelSpec r50 = spec("resnet"), r152 = spec("resnet");
  r50.depth = 50;
  r152.depth = 152;
  ModelSpec gpt2 = spec("gpt2"), bert_xl = spec("bert");
  gpt2.hidden = 1600;
  gpt2.layers = 48;
  bert_xl.hidden = 2048;
  bert_xl.layers = 64;
  std::vector<ZooModel> all = {
      {"resnet50", r50, 1024},       {"resnet152", r152, 256},
      {"t5-small", spec("t5"), 256}, {"bert-large", spec("bert"), 256},
      {"gpt2-h1600-L48", gpt2, 64},  {"bert-h2048-L64", bert_xl, 256}};
  if (probe) all.resize(1);
  return all;
}

SearchRequest zoo_request(int nodes, std::int64_t batch) {
  SearchRequest req;
  req.cluster.num_nodes = nodes;
  req.cluster.devices_per_node = 8;
  req.batch_size = batch;
  req.budget.threads = 1;
  return req;
}

}  // namespace

int search_moe_pairs(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / 0.3)));
}

int search_zoo_passes(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / 1.2)));
}

WorkloadResult run_search_moe(RunContext& ctx, int pairs, bool probe) {
  WorkloadResult r;
  const SearchRequest req = moe_request();

  // Set-up: the graph builds. The first, counted from process start, builds
  // the graphs the ops use; it is repeated after every round (see
  // SetupTimer).
  const auto set_up = [] {
    std::vector<BuiltModel> built;
    for (const MoeSize& m : kMoeSizes) built.push_back(build_moe_size(m.experts));
    return built;
  };
  const std::vector<BuiltModel> models = set_up();
  SetupTimer setup(ctx);

  // One round is one op of each size, in a seed-shuffled order.
  std::vector<int> order;
  Rng rng(ctx.seed);
  for (int p = 0; p < pairs; ++p) {
    std::vector<int> round = {0, 1};
    shuffle(round, rng);
    order.insert(order.end(), round.begin(), round.end());
  }
  r.best_of = true;

  LayerSamples ls;
  std::map<std::string, std::size_t> components;
  Alternator alt;
  const auto t_run = Clock::now();
  for (std::size_t n = 0; n < order.size(); ++n) {
    const int i = order[n];
    const MoeSize& size = kMoeSizes[i];
    const TaskGraph& g = models[static_cast<std::size_t>(i)].graph;
    const bool traced = alt.traced(ctx.trace, size.kind);
    Tracer* tr = traced ? ctx.tracer : nullptr;
    const int op = ++ctx.next_op;
    Tracer::Scope root(tr, size.kind.c_str(), op);
    if (traced) trace_search_phases(tr, op, g, req);

    const SearchCounters c0 = SearchCounters::read();
    rannc::SearchResult res;
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tr, "partition.auto_partition", op);
      res = rannc::auto_partition(g, req);
    }
    const double ms = ms_since(t0);
    const SearchCounters work = SearchCounters::read() - c0;
    (traced ? r.traced_ops : r.ops).add(size.kind, ms);

    if (traced) {
      Tracer::Scope s(tr, "plan_io.to_json", op);
      (void)rannc::plan_to_json(res.plan);
    }
    bool ok = false;
    {
      Tracer::Scope s(tr, "plan_io.validate", op);
      ok = ctx.check->plan("search-moe/" + size.kind, res.plan, req);
    }
    ++r.attempted;
    ++r.reference_ops;
    if (!ok) ++r.failed;
    if (traced) {
      components[size.kind] = res.stats().atomic_components;
      add_search_layers(ls, *ctx.tracer, op, size.kind, "partition.auto_partition",
                        {"analysis.verify", "partition.atomic", "profiler.init",
                         "partition.block"},
                        work);
    }
    if (n % 2 == 1 && !probe) setup.repeat(set_up);
  }
  r.measured_s = ms_since(t_run) / 1e3;
  r.setup_s = setup.median_s();

  if (ctx.trace) {
    partition_metrics(ls, r.layers);
    const double t8 = ls.median_of("partition.block", "moe-E8");
    const double t16 = ls.median_of("partition.block", "moe-E16");
    const double c8 = static_cast<double>(components["moe-E8"]);
    const double c16 = static_cast<double>(components["moe-E16"]);
    if (t8 > 0 && t16 > 0 && c8 > 0 && c16 > c8)
      r.layers["partition.block_scaling_exp"] = {
          std::log(t16 / t8) / std::log(c16 / c8), "exponent"};
  }
  return r;
}

WorkloadResult run_search_zoo(RunContext& ctx, int passes, bool probe) {
  WorkloadResult r;
  const std::vector<ZooModel> zoo = zoo_models(probe);

  // Set-up: the checker's copies of each model's atomic-rebuilt graph, which
  // served plans refer to. The server builds its own graphs on each pass.
  // The first set-up, counted from process start, builds the copies used; it
  // is repeated after every pass (see SetupTimer).
  const auto set_up = [&zoo] {
    std::vector<std::shared_ptr<const TaskGraph>> built;
    for (const ZooModel& m : zoo) {
      auto ap = std::make_shared<rannc::AtomicPartition>(
          rannc::atomic_partition(rannc::serve::build_model(m.spec).graph));
      built.emplace_back(ap, &ap->graph);
    }
    return built;
  };
  const std::vector<std::shared_ptr<const TaskGraph>> graphs = set_up();
  SetupTimer setup(ctx);

  r.best_of = true;

  LayerSamples ls;
  Alternator alt;
  Rng rng(ctx.seed);
  const auto t_run = Clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::size_t> order(zoo.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);

    ServeOptions so;
    so.persist = false;
    PlanServer server(so);
    for (std::size_t mi : order) {
      const ZooModel& m = zoo[mi];
      for (const int nodes : {4, 2}) {
        const bool cold = nodes == 4;
        const std::string kind = m.name + (cold ? "/cold" : "/sibling");
        const int op = ++ctx.next_op;
        ServeRequest sr;
        sr.id = op;
        sr.model = m.spec;
        sr.search = zoo_request(nodes, m.batch);
        const bool traced = alt.traced(ctx.trace, kind);
        Tracer* tr = traced ? ctx.tracer : nullptr;
        Tracer::Scope root(tr, kind.c_str(), op);
        std::vector<std::string> before = {"analysis.verify", "partition.atomic",
                                           "profiler.init", "partition.block",
                                           "plan_io.to_json"};
        if (traced) {
          if (cold) {
            std::optional<BuiltModel> built;
            {
              Tracer::Scope s(tr, "models.build", op);
              built.emplace(rannc::serve::build_model(m.spec));
            }
            {
              Tracer::Scope s(tr, "serve.fingerprint", op);
              (void)rannc::serve::fingerprint_graph(built->graph);
            }
            before.insert(before.end(), {"models.build", "serve.fingerprint"});
            trace_search_phases(tr, op, built->graph, sr.search);
          } else {
            trace_search_phases(tr, op,
                                rannc::serve::build_model(m.spec).graph,
                                sr.search);
          }
        }

        const SearchCounters c0 = SearchCounters::read();
        ServeResponse resp;
        const auto t0 = Clock::now();
        {
          Tracer::Scope s(tr, "serve.handle", op);
          resp = server.handle(sr);
        }
        const double ms = ms_since(t0);
        const SearchCounters work = SearchCounters::read() - c0;
        (traced ? r.traced_ops : r.ops).add(kind, ms);

        ++r.attempted;
        ++r.reference_ops;
        bool ok = resp.status == ServeResponse::Status::Miss;
        if (!ok) {
          std::printf("check failed: %s: status %s %s\n", kind.c_str(),
                      rannc::serve::status_name(resp.status), resp.error.c_str());
        } else if (resp.infeasible) {
          ok = false;
          std::printf("check failed: %s: infeasible: %s\n", kind.c_str(),
                      resp.infeasible_reason.c_str());
        } else {
          PartitionResult plan = rannc::plan_from_json(resp.plan_json);
          plan.graph = graphs[mi];
          if (traced) {
            Tracer::Scope s(tr, "plan_io.to_json", op);
            (void)rannc::plan_to_json(plan);
          }
          Tracer::Scope s(tr, "plan_io.validate", op);
          ok = ctx.check->plan("search-zoo/" + kind, plan, sr.search);
        }
        if (!ok) ++r.failed;

        if (traced && ok) {
          {
            Tracer::Scope s(tr, "serve.hit", op);
            resp = server.handle(sr);
          }
          if (resp.status != ServeResponse::Status::Hit) {
            std::printf("check failed: %s: repeat request was not a hit\n",
                        kind.c_str());
            ++r.failed;
          }
          ++r.attempted;
          add_search_layers(ls, *ctx.tracer, op, kind, "serve.handle", before,
                            work);
          ls.add("serve.handle", kind, span_ms(*ctx.tracer, op).at("serve.handle"));
        }
      }
    }
    if (!probe) setup.repeat(set_up);
  }
  r.measured_s = ms_since(t_run) / 1e3;
  r.setup_s = setup.median_s();

  if (ctx.trace) {
    partition_metrics(ls, r.layers);
    r.layers["models.build_ms"] = {ls.gmean_median("models.build"), "ms"};
    r.layers["serve.fingerprint_ms"] = {ls.gmean_median("serve.fingerprint"), "ms"};
    r.layers["serve.hit_us"] = {1e3 * ls.gmean_median("serve.hit"), "us"};
    std::vector<double> ratios;
    for (const ZooModel& m : zoo) {
      const double cold = ls.median_of("serve.handle", m.name + "/cold");
      const double sib = ls.median_of("serve.handle", m.name + "/sibling");
      if (cold > 0 && sib > 0) ratios.push_back(sib / cold);
    }
    r.layers["serve.sibling_over_cold"] = {gmean(ratios), "ratio"};
  }
  return r;
}

}  // namespace perfbench
