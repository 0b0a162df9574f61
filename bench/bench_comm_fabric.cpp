// Communication-fabric benchmark: sweeps message size x rank count x
// node span and emits analytic-vs-simulated collective times as JSON
// (stdout and BENCH_COMM_FABRIC.json), extending the BENCH_*.json
// trajectory. The interesting column is the ratio: 1.0 where the ring is
// uncontended (the fabric degenerates to the closed form), > 1 where
// co-located ranks share a NIC — the effect the closed-form model of
// `src/cluster/cluster_spec.cpp` cannot represent.
//
// Usage: bench_comm_fabric   (no arguments; the sweep is its 72 rows)
#include <cstdint>
#include <cstdio>
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

}  // namespace

int main(int argc, char** argv) {
  using namespace rannc;
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
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

  json::Writer w;
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object().field("op", r.op).field("bytes", r.bytes);
    w.field("ranks", r.ranks).field("spans_nodes", r.spans_nodes);
    w.field("analytic_s", r.analytic).field("simulated_s", r.simulated);
    w.field("ratio", r.analytic > 0 ? r.simulated / r.analytic : 1.0);
    w.end_object();
  }
  w.end_array();
  std::fputs(w.str().c_str(), stdout);

  if (std::FILE* f = std::fopen("BENCH_COMM_FABRIC.json", "w")) {
    std::fputs(w.str().c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote BENCH_COMM_FABRIC.json (%zu rows)\n",
                 rows.size());
  }
  return 0;
}
