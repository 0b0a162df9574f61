// Serve-layer benchmark: a Zipf-distributed request trace over a small
// model zoo driven through PlanServer, reporting cache hit rate and
// hit-path latency percentiles, emitted as BENCH_SERVE.json.
//
// The trace models a plan service's steady state: a handful of hot
// (model, geometry) keys dominate, with a long tail of colder requests.
// Three phases:
//   1. cold+warm  — the Zipf trace against an empty store: first touch of
//                   each key is a search (miss), every repeat a memory hit;
//   2. restart    — a fresh PlanServer over the same store directory, one
//                   request per distinct key: every answer must come back
//                   a hit served from disk, byte-identical to phase 1;
//   3. rerun      — the full Zipf trace against the restarted server:
//                   100% hits, the steady-state the daemon lives in.
//
// The acceptance gate is the warm hit path: p99 must stay at or under
// 1 ms (exit 1 otherwise). Latencies are PlanServer-measured
// (ServeResponse::latency_us), single driver thread.
//
// Usage: bench_serve [--quick] [--out FILE] [--store DIR]
//   --quick   120-request trace (CI smoke mode; default 400)
//   --out     JSON output path (default BENCH_SERVE.json)
//   --store   durable store directory (default: fresh temp dir, removed)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "rannc.h"

namespace {

using namespace rannc;

struct ZooEntry {
  std::string name;
  serve::ServeRequest req;
};

serve::ServeRequest make_req(const serve::ModelSpec& spec, int nodes, int dpn,
                             std::int64_t batch) {
  serve::ServeRequest r;
  r.model = spec;
  r.search.cluster.num_nodes = nodes;
  r.search.cluster.devices_per_node = dpn;
  r.search.batch_size = batch;
  return r;
}

/// Eight request types, hot-to-cold: mixed models and geometries, all small
/// enough that a cold search is milliseconds. Entries 1/2 and 4/5 share a
/// fingerprint across different geometries, so their keys differ only in
/// the geometry signature.
std::vector<ZooEntry> make_zoo() {
  std::vector<ZooEntry> zoo;
  serve::ModelSpec mlp;
  mlp.model = "mlp";
  zoo.push_back({"mlp-1x2-bs16", make_req(mlp, 1, 2, 16)});
  zoo.push_back({"mlp-1x4-bs32", make_req(mlp, 1, 4, 32)});
  serve::ModelSpec mlp_wide = mlp;
  mlp_wide.input_dim = 128;
  zoo.push_back({"mlp128-1x2-bs16", make_req(mlp_wide, 1, 2, 16)});
  serve::ModelSpec bert;
  bert.model = "bert";
  bert.layers = 2;
  bert.hidden = 128;
  bert.heads = 2;
  bert.seq = 32;
  bert.vocab = 512;
  zoo.push_back({"bert-tiny-1x2-bs8", make_req(bert, 1, 2, 8)});
  zoo.push_back({"bert-tiny-2x2-bs16", make_req(bert, 2, 2, 16)});
  serve::ModelSpec gpt2;
  gpt2.model = "gpt2";
  gpt2.layers = 2;
  gpt2.hidden = 128;
  gpt2.heads = 2;
  gpt2.seq = 64;
  gpt2.vocab = 512;
  zoo.push_back({"gpt2-tiny-1x2-bs8", make_req(gpt2, 1, 2, 8)});
  serve::ModelSpec resnet;
  resnet.model = "resnet";
  resnet.depth = 50;
  zoo.push_back({"resnet50-1x2-bs8", make_req(resnet, 1, 2, 8)});
  zoo.push_back({"mlp128-1x4-bs32", make_req(mlp_wide, 1, 4, 32)});
  return zoo;
}

/// Deterministic Zipf(s = 1.2) trace over `n` ranks via a fixed-seed LCG —
/// no RNG state outside this function, so every run replays the same trace.
std::vector<std::size_t> zipf_trace(std::size_t n, std::size_t len,
                                    double s = 1.2) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  std::vector<std::size_t> trace;
  trace.reserve(len);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < len; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u =
        static_cast<double>(x >> 11) / static_cast<double>(1ULL << 53);
    trace.push_back(static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
  }
  return trace;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::min(static_cast<double>(v.size() - 1),
               std::ceil(p * static_cast<double>(v.size())) - 1));
  return v[idx];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct PhaseStats {
  std::int64_t requests = 0, hits = 0, misses = 0, disk_hits = 0;
  std::vector<double> hit_us, miss_us;

  void add(const serve::ServeResponse& r) {
    ++requests;
    if (r.status == serve::ServeResponse::Status::Hit) {
      ++hits;
      if (r.from_disk) ++disk_hits;
      hit_us.push_back(r.latency_us);
    } else {
      ++misses;
      miss_us.push_back(r.latency_us);
    }
  }
  [[nodiscard]] double hit_rate() const {
    return requests > 0
               ? static_cast<double>(hits) / static_cast<double>(requests)
               : 0;
  }
};

void print_phase(const char* name, const PhaseStats& p) {
  std::printf(
      "%-10s %5lld requests  hit rate %.3f (%lld from disk)  "
      "hit p50/p99 %.1f/%.1f us  miss mean %.0f us\n",
      name, static_cast<long long>(p.requests), p.hit_rate(),
      static_cast<long long>(p.disk_hits), percentile(p.hit_us, 0.50),
      percentile(p.hit_us, 0.99), mean(p.miss_us));
}

void emit_phase(std::ofstream& os, const char* name, const PhaseStats& p,
                bool last) {
  os << "    \"" << name << "\": {\n";
  os << "      \"requests\": " << p.requests << ",\n";
  os << "      \"hits\": " << p.hits << ",\n";
  os << "      \"misses\": " << p.misses << ",\n";
  os << "      \"disk_hits\": " << p.disk_hits << ",\n";
  os << "      \"hit_rate\": " << p.hit_rate() << ",\n";
  os << "      \"hit_p50_us\": " << percentile(p.hit_us, 0.50) << ",\n";
  os << "      \"hit_p99_us\": " << percentile(p.hit_us, 0.99) << ",\n";
  os << "      \"hit_mean_us\": " << mean(p.hit_us) << ",\n";
  os << "      \"miss_mean_us\": " << mean(p.miss_us) << "\n";
  os << "    }" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_SERVE.json";
  std::string store_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out FILE] [--store DIR]\n",
                   argv[0]);
      return 2;
    }
  }

  const bool temp_store = store_dir.empty();
  if (temp_store)
    store_dir = (std::filesystem::temp_directory_path() / "bench_serve_store")
                    .string();
  std::filesystem::remove_all(store_dir);

  const std::vector<ZooEntry> zoo = make_zoo();
  const std::size_t trace_len = quick ? 120 : 400;
  const std::vector<std::size_t> trace = zipf_trace(zoo.size(), trace_len);

  std::printf("== serve bench: %zu keys, %zu-request Zipf(1.2) trace ==\n",
              zoo.size(), trace.size());

  serve::ServeOptions so;
  so.store_dir = store_dir;

  // Phase 1: cold store, mixed trace. Exactly one search per distinct key
  // touched; every other request is a memory hit.
  PhaseStats cold;
  std::vector<std::string> plans(zoo.size());
  {
    serve::PlanServer server(so);
    for (std::size_t rank : trace) {
      const serve::ServeResponse r = server.handle(zoo[rank].req);
      if (r.status != serve::ServeResponse::Status::Hit &&
          r.status != serve::ServeResponse::Status::Miss) {
        std::fprintf(stderr, "request '%s' failed: %s\n",
                     zoo[rank].name.c_str(), r.error.c_str());
        return 1;
      }
      if (plans[rank].empty()) plans[rank] = r.plan_json;
      cold.add(r);
    }
    print_phase("cold+warm", cold);
  }

  // Phase 2: daemon restart. A fresh server over the same store must answer
  // every distinct key from disk, byte-identically.
  PhaseStats restart, rerun;
  {
    serve::PlanServer server(so);
    for (std::size_t rank = 0; rank < zoo.size(); ++rank) {
      const serve::ServeResponse r = server.handle(zoo[rank].req);
      if (r.status != serve::ServeResponse::Status::Hit || !r.from_disk) {
        // Keys never touched by the trace legitimately miss; Zipf(1.2)
        // over 8 keys touches all of them at these trace lengths.
        std::fprintf(stderr, "restart: '%s' was not a disk hit\n",
                     zoo[rank].name.c_str());
        return 1;
      }
      if (r.plan_json != plans[rank]) {
        std::fprintf(stderr, "restart: '%s' plan differs from phase 1\n",
                     zoo[rank].name.c_str());
        return 1;
      }
      restart.add(r);
    }
    print_phase("restart", restart);

    // Phase 3: the steady state — the full trace, all hits.
    for (std::size_t rank : trace) rerun.add(server.handle(zoo[rank].req));
    print_phase("rerun", rerun);
  }

  if (temp_store) std::filesystem::remove_all(store_dir);

  const double warm_p99 = percentile(rerun.hit_us, 0.99);
  const bool gate_ok = rerun.hits == static_cast<std::int64_t>(trace.size()) &&
                       warm_p99 <= 1000.0;

  std::ofstream os(out_path);
  if (!os) {
    RANNC_LOG_ERROR("cannot open " << out_path << " for writing");
    return 1;
  }
  os << "{\n";
  os << "  \"bench\": \"serve\",\n";
  os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  os << "  \"zipf_s\": 1.2,\n";
  os << "  \"distinct_keys\": " << zoo.size() << ",\n";
  os << "  \"trace_len\": " << trace.size() << ",\n";
  os << "  \"phases\": {\n";
  emit_phase(os, "cold_warm", cold, false);
  emit_phase(os, "restart", restart, false);
  emit_phase(os, "rerun", rerun, true);
  os << "  },\n";
  os << "  \"warm_hit_p99_us\": " << warm_p99 << ",\n";
  os << "  \"gate_warm_p99_le_1ms\": " << (gate_ok ? "true" : "false") << "\n";
  os << "}\n";
  os.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: warm p99 %.1f us (gate 1000 us) or rerun not all hits "
                 "(%lld/%zu)\n",
                 warm_p99, static_cast<long long>(rerun.hits), trace.size());
    return 1;
  }
  std::printf("OK: warm hit p99 %.1f us <= 1000 us, rerun 100%% hits\n",
              warm_p99);
  return 0;
}
