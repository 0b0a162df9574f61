#include "serve/server.h"

#include <chrono>
#include <sstream>
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
    case ServeResponse::Status::Overloaded: return "overloaded";
    case ServeResponse::Status::Error: return "error";
  }
  return "error";
}

PlanServer::PlanServer(ServeOptions opts) : opts_(std::move(opts)) {
  if (!opts_.store_dir.empty()) store_.emplace(opts_.store_dir);
}

PlanServer::~PlanServer() = default;

PlanServer::GraphEntry::GraphEntry(BuiltModel b)
    : built(std::move(b)),
      verified(built.graph),
      fp(fingerprint_graph(verified)) {}

std::shared_ptr<const PlanServer::GraphEntry> PlanServer::graph_for(
    const ModelSpec& spec) {
  const std::string sig = canonical_sig(spec);
  {
    std::lock_guard<std::mutex> lk(graphs_mu_);
    if (auto it = graphs_.find(sig); it != graphs_.end()) return it->second;
  }
  // Build and verify outside the lock — both can take milliseconds and
  // must not stall concurrent hits. A racing duplicate build produces an
  // identical entry; first insert wins.
  auto ge = std::make_shared<const GraphEntry>(build_model(spec));
  std::lock_guard<std::mutex> lk(graphs_mu_);
  return graphs_.emplace(sig, std::move(ge)).first->second;
}

Fingerprint PlanServer::fingerprint_for(const ModelSpec& spec) {
  return graph_for(spec)->fp;
}

PlanServer::Outcome PlanServer::run_search(
    const std::shared_ptr<const GraphEntry>& ge, const PlanKey& key,
    const SearchRequest& req) {
  Outcome out;
  try {
    searches_.fetch_add(1, std::memory_order_relaxed);
    SearchResult sr;
    {
      obs::Scope span("serve.search", "serve");
      if (span.active()) span.arg("key", key_stem(key));
      sr = opts_.search_fn ? opts_.search_fn(ge->verified, req)
                           : auto_partition(ge->verified, req);
    }
    const PartitionResult& result = sr.plan;
    auto cp = std::make_shared<CachedPlan>();
    if (result.feasible) {
      cp->plan_json = plan_to_json(result);
    } else {
      cp->infeasible = true;
      cp->infeasible_reason = result.infeasible_reason;
    }
    {
      std::lock_guard<std::mutex> lk(plans_mu_);
      plans_[key.filename()] = cp;
    }
    if (store_ && opts_.persist) {
      StoredEntry e;
      e.plan_json = cp->plan_json;
      e.infeasible = cp->infeasible;
      e.infeasible_reason = cp->infeasible_reason;
      store_->save(key, e);
    }
    out.ok = true;
    out.plan = std::move(cp);
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

ServeResponse PlanServer::dispatch(const ServeRequest& req) {
  ServeResponse resp;
  const std::shared_ptr<const GraphEntry> ge = graph_for(req.model);
  resp.fingerprint = ge->fp.hex();
  const PlanKey key = make_plan_key(ge->fp, req.search);
  resp.key = key_stem(key);

  const auto fill_plan = [&resp](const CachedPlan& cp) {
    resp.plan_json = cp.plan_json;
    resp.infeasible = cp.infeasible;
    resp.infeasible_reason = cp.infeasible_reason;
  };

  // L1: in-memory plan cache.
  {
    std::lock_guard<std::mutex> lk(plans_mu_);
    if (auto it = plans_.find(key.filename()); it != plans_.end()) {
      resp.status = ServeResponse::Status::Hit;
      fill_plan(*it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return resp;
    }
  }

  // L2: durable store.
  if (store_) {
    if (const auto e = store_->load(key)) {
      auto loaded = std::make_shared<CachedPlan>();
      loaded->plan_json = e->plan_json;
      loaded->infeasible = e->infeasible;
      loaded->infeasible_reason = e->infeasible_reason;
      std::shared_ptr<const CachedPlan> cp = loaded;
      {
        std::lock_guard<std::mutex> lk(plans_mu_);
        cp = plans_.emplace(key.filename(), cp).first->second;
      }
      resp.status = ServeResponse::Status::Hit;
      resp.from_disk = true;
      fill_plan(*cp);
      hits_.fetch_add(1, std::memory_order_relaxed);
      disk_hits_.fetch_add(1, std::memory_order_relaxed);
      return resp;
    }
  }

  // Single-flight admission.
  bool leader = false;
  std::promise<Outcome> promise;
  std::shared_future<Outcome> future;
  {
    std::lock_guard<std::mutex> lk(inflight_mu_);
    if (auto it = inflight_.find(key.filename()); it != inflight_.end()) {
      future = it->second;
      resp.coalesced = true;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      misses_.fetch_add(1, std::memory_order_relaxed);
    } else if (leaders_ >= opts_.max_queue) {
      resp.status = ServeResponse::Status::Overloaded;
      shed_.fetch_add(1, std::memory_order_relaxed);
      return resp;
    } else {
      leader = true;
      ++leaders_;
      future = promise.get_future().share();
      inflight_.emplace(key.filename(), future);
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Outcome out;
  if (leader) {
    out = run_search(ge, key, req.search);  // never throws
    promise.set_value(out);
    std::lock_guard<std::mutex> lk(inflight_mu_);
    inflight_.erase(key.filename());
    --leaders_;
  } else {
    out = future.get();
  }

  if (!out.ok) {
    resp.status = ServeResponse::Status::Error;
    resp.error = out.error;
    return resp;
  }
  resp.status = ServeResponse::Status::Miss;
  fill_plan(*out.plan);
  return resp;
}

ServeResponse PlanServer::handle(const ServeRequest& req) {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Scope span("serve.request", "serve");
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
      if (resp.coalesced) m.counter("serve.coalesced").add();
      m.histogram("serve.miss_latency_us").record(resp.latency_us);
      break;
    case ServeResponse::Status::Overloaded:
      m.counter("serve.shed").add();
      break;
    case ServeResponse::Status::Error:
      m.counter("serve.errors").add();
      errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (span.active()) {
    span.arg("status", std::string(status_name(resp.status)));
    if (!resp.key.empty()) span.arg("key", resp.key);
  }
  return resp;
}

PlanServer::Stats PlanServer::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.searches = searches_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  return s;
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
  std::ostringstream os;
  os << "{\"hits\": " << s.hits << ", \"disk_hits\": " << s.disk_hits
     << ", \"misses\": " << s.misses << ", \"coalesced\": " << s.coalesced
     << ", \"searches\": " << s.searches << ", \"shed\": " << s.shed
     << ", \"errors\": " << s.errors
     << ", \"hit_latency_us\": {\"p50\": " << obs::json_double(hit.quantile(0.5))
     << ", \"p99\": " << obs::json_double(hit.quantile(0.99))
     << "}, \"miss_latency_us\": {\"p50\": "
     << obs::json_double(miss.quantile(0.5))
     << ", \"p99\": " << obs::json_double(miss.quantile(0.99)) << "}}";
  return os.str();
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
    id = v.geti("id");
    const std::string cmd = v.gets("cmd");
    if (cmd == "shutdown") {
      return {"{\"id\": " + std::to_string(id) +
                  ", \"status\": \"ok\", \"bye\": true}",
              true};
    }
    if (cmd == "stats") {
      return {"{\"id\": " + std::to_string(id) +
                  ", \"status\": \"ok\", \"stats\": " + stats_json() + "}",
              false};
    }
    if (cmd == "fingerprint") {
      const Fingerprint fp = fingerprint_for(spec_from_json(v));
      return {"{\"id\": " + std::to_string(id) +
                  ", \"status\": \"ok\", \"fingerprint\": \"" + fp.hex() +
                  "\"}",
              false};
    }
    if (!cmd.empty())
      throw std::invalid_argument("unknown cmd '" + cmd + "'");

    const ServeRequest req = request_from_json(v, opts_.request_defaults);
    const ServeResponse resp = handle(req);
    std::ostringstream os;
    os << "{\"id\": " << req.id << ", \"status\": \""
       << status_name(resp.status) << "\"";
    if (resp.coalesced) os << ", \"coalesced\": true";
    if (resp.from_disk) os << ", \"from_disk\": true";
    if (!resp.fingerprint.empty())
      os << ", \"fingerprint\": \"" << resp.fingerprint << "\"";
    if (!resp.key.empty()) os << ", \"key\": \"" << resp.key << "\"";
    os << ", \"latency_us\": " << obs::json_double(resp.latency_us);
    if (resp.status == ServeResponse::Status::Hit ||
        resp.status == ServeResponse::Status::Miss) {
      if (resp.infeasible) {
        os << ", \"infeasible\": true, \"reason\": "
           << obs::json_string(resp.infeasible_reason);
      } else {
        os << ", \"plan\": " << json::compact(resp.plan_json);
      }
    }
    if (!resp.error.empty())
      os << ", \"error\": " << obs::json_string(resp.error);
    os << "}";
    return {os.str(), false};
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::metrics().counter("serve.errors").add();
    return {"{\"id\": " + std::to_string(id) +
                ", \"status\": \"error\", \"error\": " +
                obs::json_string(e.what()) + "}",
            false};
  }
}

}  // namespace serve
}  // namespace rannc
