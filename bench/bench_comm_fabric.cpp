// Communication-fabric benchmark: sweeps message size x rank count x
// node span and emits analytic-vs-simulated collective times as JSON
// (stdout and BENCH_COMM_FABRIC.json), extending the BENCH_*.json
// trajectory. The interesting column is the ratio: 1.0 where the ring is
// uncontended (the fabric degenerates to the closed form), > 1 where
// co-located ranks share a NIC — the effect the closed-form model of
// `src/cluster/cluster_spec.cpp` cannot represent.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rannc.h"

namespace {

struct Row {
  const char* op;
  std::int64_t bytes;
  int ranks;
  bool spans_nodes;
  double analytic;
  double simulated;
};

std::string to_json(const Row& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  {\"op\": \"%s\", \"bytes\": %lld, \"ranks\": %d, "
                "\"spans_nodes\": %s, \"analytic_s\": %.9g, "
                "\"simulated_s\": %.9g, \"ratio\": %.4f}",
                r.op, static_cast<long long>(r.bytes), r.ranks,
                r.spans_nodes ? "true" : "false", r.analytic, r.simulated,
                r.analytic > 0 ? r.simulated / r.analytic : 1.0);
  return buf;
}

}  // namespace

int main() {
  using namespace rannc;
  const ClusterSpec c;  // paper testbed: 4 nodes x 8 V100

  std::vector<Row> rows;
  for (std::int64_t bytes : {std::int64_t{1} << 10, std::int64_t{1} << 14,
                             std::int64_t{1} << 18, std::int64_t{1} << 22,
                             std::int64_t{1} << 26, std::int64_t{1} << 28}) {
    for (const bool spans : {false, true}) {
      rows.push_back({"p2p", bytes, 2, spans, p2p_time(c, bytes, !spans),
                      comm::simulated_p2p_time(c, bytes, !spans)});
      for (int ranks : {2, 4, 8, 16, 32})
        rows.push_back(
            {"allreduce", bytes, ranks, spans,
             allreduce_time(c, bytes, ranks, spans),
             comm::simulated_allreduce_time(c, bytes, ranks, spans)});
    }
  }

  std::string json = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += to_json(rows[i]);
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "]\n";
  std::fputs(json.c_str(), stdout);

  if (std::FILE* f = std::fopen("BENCH_COMM_FABRIC.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote BENCH_COMM_FABRIC.json (%zu rows)\n",
                 rows.size());
  }
  return 0;
}
