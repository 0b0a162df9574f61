#include "serve/server.h"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/plan_io.h"

namespace rannc {
namespace serve {

namespace {

/// The reply's cache identity: the store filename without its extension.
std::string key_stem(const PlanKey& key) {
  std::string f = key.filename();
  return f.substr(0, f.size() - std::string(".plan.json").size());
}

}  // namespace

const char* status_name(ServeResponse::Status s) {
  switch (s) {
    case ServeResponse::Status::Hit: return "hit";
    case ServeResponse::Status::Miss: return "miss";
    case ServeResponse::Status::Error: return "error";
  }
  return "error";
}

PlanServer::PlanServer(ServeOptions opts) : opts_(std::move(opts)) {
  if (!opts_.store_dir.empty()) store_.emplace(opts_.store_dir);
}

PlanServer::GraphEntry::GraphEntry(BuiltModel b)
    : built(std::move(b)),
      verified(built.graph),
      fp(fingerprint_graph(verified)) {}

const PlanServer::GraphEntry& PlanServer::graph_for(const ModelSpec& spec) {
  const std::string sig = canonical_sig(spec);
  if (auto it = graphs_.find(sig); it != graphs_.end()) return it->second;
  return graphs_.try_emplace(sig, build_model(spec)).first->second;
}

Fingerprint PlanServer::fingerprint_for(const ModelSpec& spec) {
  std::lock_guard<std::mutex> lk(mu_);
  return graph_for(spec).fp;
}

ServeResponse PlanServer::dispatch(const ServeRequest& req) {
  ServeResponse resp;
  const GraphEntry& ge = graph_for(req.model);
  resp.fingerprint = ge.fp.hex();
  const PlanKey key = make_plan_key(ge.fp, req.search);
  resp.key = key_stem(key);

  const auto fill_plan = [&resp](const CachedPlan& cp) {
    resp.plan_json = cp.plan_json;
    resp.infeasible = cp.infeasible;
    resp.infeasible_reason = cp.infeasible_reason;
  };

  // L1: in-memory plan cache.
  if (auto it = plans_.find(key.filename()); it != plans_.end()) {
    resp.status = ServeResponse::Status::Hit;
    fill_plan(it->second);
    ++hits_;
    return resp;
  }

  // L2: durable store.
  if (store_) {
    if (const auto e = store_->load(key)) {
      const CachedPlan& cp =
          plans_
              .try_emplace(key.filename(),
                           CachedPlan{e->plan_json, e->infeasible,
                                      e->infeasible_reason})
              .first->second;
      resp.status = ServeResponse::Status::Hit;
      resp.from_disk = true;
      fill_plan(cp);
      ++hits_;
      ++disk_hits_;
      return resp;
    }
  }

  // L3: search, then cache and persist the result. A throwing search
  // becomes Status::Error in handle.
  ++misses_;
  SearchResult sr;
  {
    obs::Scope span("serve.search", "serve");
    if (span.active()) span.arg("key", resp.key);
    sr = auto_partition(ge.verified, req.search);
  }
  CachedPlan fresh;
  if (sr.plan.feasible) {
    fresh.plan_json = plan_to_json(sr.plan);
  } else {
    fresh.infeasible = true;
    fresh.infeasible_reason = sr.plan.infeasible_reason;
  }
  const CachedPlan& cp =
      plans_.try_emplace(key.filename(), std::move(fresh)).first->second;
  if (store_ && opts_.persist) {
    StoredEntry e;
    e.plan_json = cp.plan_json;
    e.infeasible = cp.infeasible;
    e.infeasible_reason = cp.infeasible_reason;
    store_->save(key, e);
  }
  resp.status = ServeResponse::Status::Miss;
  fill_plan(cp);
  return resp;
}

ServeResponse PlanServer::handle(const ServeRequest& req) {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Scope span("serve.request", "serve");
  std::lock_guard<std::mutex> lk(mu_);
  ServeResponse resp;
  try {
    resp = dispatch(req);
  } catch (const std::exception& e) {
    resp.status = ServeResponse::Status::Error;
    resp.error = e.what();
  }
  resp.latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();

  obs::MetricsRegistry& m = obs::metrics();
  switch (resp.status) {
    case ServeResponse::Status::Hit:
      m.counter("serve.hits").add();
      if (resp.from_disk) m.counter("serve.disk_hits").add();
      m.histogram("serve.hit_latency_us").record(resp.latency_us);
      break;
    case ServeResponse::Status::Miss:
      m.counter("serve.misses").add();
      m.histogram("serve.miss_latency_us").record(resp.latency_us);
      break;
    case ServeResponse::Status::Error:
      m.counter("serve.errors").add();
      ++errors_;
      break;
  }
  if (span.active()) {
    span.arg("status", status_name(resp.status));
    if (!resp.key.empty()) span.arg("key", resp.key);
  }
  return resp;
}

PlanServer::Stats PlanServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {hits_, disk_hits_, misses_, errors_};
}

std::string PlanServer::stats_json() const {
  const Stats s = stats();
  // Latency quantiles come from the process-global serve.* histograms: the
  // registry is shared across servers in one process, but so is the serving
  // work, and operators read the snapshot per process anyway.
  const obs::Histogram::Snapshot hit =
      obs::metrics().histogram("serve.hit_latency_us").snapshot();
  const obs::Histogram::Snapshot miss =
      obs::metrics().histogram("serve.miss_latency_us").snapshot();
  json::Writer w(json::Layout::Compact);
  w.begin_object().field("hits", s.hits).field("disk_hits", s.disk_hits);
  w.field("misses", s.misses).field("errors", s.errors);
  w.key("hit_latency_us").begin_object();
  w.field("p50", hit.quantile(0.5)).field("p99", hit.quantile(0.99));
  w.end_object().key("miss_latency_us").begin_object();
  w.field("p50", miss.quantile(0.5)).field("p99", miss.quantile(0.99));
  w.end_object().end_object();
  return w.str();
}

ServeRequest request_from_json(const json::Value& v,
                               const SearchRequest& defaults) {
  // Strict schema: a misspelled or retired field must fail loudly rather
  // than search at the default it was meant to override.
  v.check_keys({"id", "cmd", "nodes", "devices_per_node", "batch_size",
                "threads", "max_dp_cells", "prune", "model", "layers",
                "hidden", "seq", "vocab", "heads", "depth", "width", "image",
                "classes", "batch", "input_dim", "experts"},
               "serve request");
  ServeRequest r;
  r.id = v.geti("id");
  r.model = spec_from_json(v);
  r.search = defaults;
  if (const int n = v.geti32("nodes")) r.search.cluster.num_nodes = n;
  if (const int n = v.geti32("devices_per_node"))
    r.search.cluster.devices_per_node = n;
  if (const std::int64_t n = v.geti("batch_size")) r.search.batch_size = n;
  r.search.budget.threads = v.geti32("threads", defaults.budget.threads);
  r.search.budget.max_dp_cells =
      v.geti("max_dp_cells", defaults.budget.max_dp_cells);
  r.search.prune = v.getb("prune", defaults.prune);
  return r;
}

PlanServer::WireResult PlanServer::serve_line(const std::string& line) {
  std::int64_t id = 0;
  try {
    const json::Value v = json::parse(line);
    json::Writer w(json::Layout::Compact);
    id = v.geti("id");
    const std::string cmd = v.gets("cmd");
    if (cmd == "shutdown") {
      w.begin_object().field("id", id).field("status", "ok").field("bye", true);
      return {w.end_object().str(), true};
    }
    if (cmd == "stats") {
      w.begin_object().field("id", id).field("status", "ok").key("stats");
      w.raw(stats_json());
      return {w.end_object().str(), false};
    }
    if (cmd == "fingerprint") {
      const Fingerprint fp = fingerprint_for(spec_from_json(v));
      w.begin_object().field("id", id).field("status", "ok");
      w.field("fingerprint", fp.hex());
      return {w.end_object().str(), false};
    }
    if (!cmd.empty())
      throw std::invalid_argument("unknown cmd '" + cmd + "'");

    const ServeRequest req = request_from_json(v, opts_.request_defaults);
    const ServeResponse resp = handle(req);
    w.begin_object().field("id", req.id);
    w.field("status", status_name(resp.status));
    if (resp.from_disk) w.field("from_disk", true);
    if (!resp.fingerprint.empty()) w.field("fingerprint", resp.fingerprint);
    if (!resp.key.empty()) w.field("key", resp.key);
    w.field("latency_us", resp.latency_us);
    if (resp.status == ServeResponse::Status::Hit ||
        resp.status == ServeResponse::Status::Miss) {
      if (resp.infeasible)
        w.field("infeasible", true).field("reason", resp.infeasible_reason);
      else
        w.key("plan").raw(resp.plan_json);
    }
    if (!resp.error.empty()) w.field("error", resp.error);
    return {w.end_object().str(), false};
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++errors_;
    }
    obs::metrics().counter("serve.errors").add();
    json::Writer w(json::Layout::Compact);
    w.begin_object().field("id", id).field("status", "error");
    return {w.field("error", e.what()).end_object().str(), false};
  }
}

}  // namespace serve
}  // namespace rannc
