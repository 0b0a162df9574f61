// PlanServer: the partition-as-a-service core.
//
// One long-lived object answering partition requests, layered as
//
//   L0  graph cache      canonical ModelSpec sig -> built, verified graph
//                        + fingerprint (each model verified once)
//   L1  plan cache       PlanKey -> plan JSON, in memory
//   L2  plan store       PlanKey -> plan JSON, on disk
//   L3  search           auto_partition (parallel, branch-and-bound); a
//                        miss always searches cold — stage profiles are
//                        table reads, so there is nothing worth warming
//
// plus the two properties a shared cache front-end needs under load:
// *single-flight* — concurrent requests for the same key block on one
// search (one leader computes, followers reuse its result) — and *load
// shedding* — once `max_queue` leader searches are in flight, further
// misses get an immediate `overloaded` reply instead of queueing without
// bound (hits are never shed; they cost microseconds regardless of load).
//
// The transport lives in tools/rannc_serve.cpp; this class is
// transport-agnostic: `handle` is the typed API, `serve_line` the
// newline-delimited-JSON codec the daemon, the bench, and the tests share.
// Everything is instrumented through src/obs (serve.* counters and latency
// histograms, trace spans per request and per search).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "partition/auto_partitioner.h"
#include "serve/fingerprint.h"
#include "serve/model_zoo.h"
#include "serve/plan_store.h"

namespace rannc {
namespace serve {

/// One partition request: which model, and the search request (geometry,
/// batch size, budget, pruning) to solve it for.
struct ServeRequest {
  std::int64_t id = 0;
  ModelSpec model;
  SearchRequest search;
};

struct ServeOptions {
  /// Directory of the durable plan store; empty = in-memory caches only.
  std::string store_dir;
  /// Leader searches allowed in flight before misses are shed.
  int max_queue = 4;
  /// Persist search results to the store.
  bool persist = true;
  /// Baseline SearchRequest for wire requests: fields absent from the JSON
  /// inherit from here (the daemon points this at its --threads/--no-prune/
  /// ... CLI flags), fields present override it. Unknown fields are an
  /// error.
  SearchRequest request_defaults;
  /// Test seam for the miss path; defaults to auto_partition. Injected
  /// fakes let the single-flight and shedding tests hold a leader search
  /// open deterministically instead of racing real searches.
  std::function<SearchResult(const VerifiedGraph&, const SearchRequest&)>
      search_fn;
};

struct ServeResponse {
  enum class Status { Hit, Miss, Overloaded, Error };
  Status status = Status::Error;
  bool coalesced = false;   ///< waited on another request's search
  bool from_disk = false;   ///< hit came from the durable store
  bool infeasible = false;  ///< cached/solved answer: no feasible plan
  std::string plan_json;    ///< plan_io document; empty unless solvable
  std::string infeasible_reason;
  std::string key;          ///< PlanKey filename stem (cache identity)
  std::string fingerprint;  ///< canonical graph fingerprint, hex
  std::string error;        ///< non-empty for Status::Error
  double latency_us = 0;
};

const char* status_name(ServeResponse::Status s);

class PlanServer {
 public:
  explicit PlanServer(ServeOptions opts);
  ~PlanServer();
  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Answers one request. Thread-safe; blocks the calling thread for the
  /// duration of a search on the miss path (the daemon gives each
  /// connection its own thread). Never throws: failures become
  /// Status::Error replies.
  ServeResponse handle(const ServeRequest& req);

  /// Newline-delimited JSON codec: parses one request line, dispatches
  /// (partition request, or "cmd": "fingerprint" | "stats" | "shutdown"),
  /// returns the reply line (no trailing newline) and whether the caller
  /// should stop serving.
  struct WireResult {
    std::string reply;
    bool shutdown = false;
  };
  WireResult serve_line(const std::string& line);

  /// Builds (or fetches from the graph cache) the model named by `spec`
  /// and returns its canonical fingerprint. Throws on unknown models or
  /// malformed graphs.
  Fingerprint fingerprint_for(const ModelSpec& spec);

  /// Monotonic counters, observable while requests are in flight (the
  /// coalescing/shedding tests poll them to sequence threads).
  struct Stats {
    std::int64_t hits = 0;       ///< L1 + L2 (disk_hits is the L2 subset)
    std::int64_t disk_hits = 0;
    std::int64_t misses = 0;     ///< leader + coalesced requests
    std::int64_t coalesced = 0;
    std::int64_t searches = 0;   ///< leader searches actually started
    std::int64_t shed = 0;
    std::int64_t errors = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::string stats_json() const;

 private:
  /// Immovable: `verified` points into `built`.
  struct GraphEntry {
    explicit GraphEntry(BuiltModel b);
    GraphEntry(const GraphEntry&) = delete;
    GraphEntry& operator=(const GraphEntry&) = delete;

    BuiltModel built;
    VerifiedGraph verified;
    Fingerprint fp;
  };
  struct CachedPlan {
    std::string plan_json;
    bool infeasible = false;
    std::string infeasible_reason;
  };
  struct Outcome {
    bool ok = false;
    std::string error;
    std::shared_ptr<const CachedPlan> plan;
  };

  std::shared_ptr<const GraphEntry> graph_for(const ModelSpec& spec);
  ServeResponse dispatch(const ServeRequest& req);
  /// The leader's miss path: runs the search, caches and persists the
  /// result.
  Outcome run_search(const std::shared_ptr<const GraphEntry>& ge,
                     const PlanKey& key, const SearchRequest& req);

  ServeOptions opts_;
  std::optional<PlanStore> store_;

  std::mutex graphs_mu_;
  std::map<std::string, std::shared_ptr<const GraphEntry>> graphs_;

  std::mutex plans_mu_;
  std::map<std::string, std::shared_ptr<const CachedPlan>> plans_;

  std::mutex inflight_mu_;
  std::map<std::string, std::shared_future<Outcome>> inflight_;
  int leaders_ = 0;

  std::atomic<std::int64_t> hits_{0}, disk_hits_{0}, misses_{0},
      coalesced_{0}, searches_{0}, shed_{0}, errors_{0};
};

/// Parses the model + search fields of a wire request object into a
/// ServeRequest. Fields absent from the JSON inherit from `defaults`
/// (PlanServer passes ServeOptions::request_defaults). Throws
/// std::invalid_argument on mistyped fields.
ServeRequest request_from_json(const json::Value& v,
                               const SearchRequest& defaults = {});

}  // namespace serve
}  // namespace rannc
