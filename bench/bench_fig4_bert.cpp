// Experiment E2 — reproduces Fig. 4: training throughput of enlarged BERT
// models (hidden in {1024, 1536, 2048}, layers in {24..256}) on 32 V100s
// (4 nodes x 8), global batch 256, for:
//   PyTorch data parallelism, Megatron-LM (fp32 + mixed), GPipe-Hybrid,
//   PipeDream-2BW, and RaNNC (fp32 + mixed).
// Infeasible (out-of-memory) settings print "OOM" — the paper's missing
// bars. Absolute samples/s depend on the device model; the claims under
// test are the *shape*: who trains what, and who is faster.
#include <cstdio>
#include <string>

#include "rannc.h"

namespace {

std::string cell(const rannc::BaselinePlan& p, std::int64_t bs) {
  if (!p.feasible) return "OOM";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", p.throughput(bs));
  return buf;
}

std::string cell(const rannc::PartitionResult& r, std::int64_t bs) {
  if (!r.feasible) return "OOM";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f (S=%zu,MB=%d)", r.throughput(bs),
                r.stages.size(), r.microbatches);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rannc;
  // --quick limits the sweep for CI-style runs.
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";

  ClusterSpec cluster;  // paper testbed: 4 nodes x 8 V100-32GB
  const std::int64_t BS = 256;

  std::printf("== Fig. 4: enlarged BERT pre-training throughput "
              "(samples/s, batch %lld, %d GPUs) ==\n\n",
              static_cast<long long>(BS), cluster.total_devices());
  std::printf("%-6s %-6s %-8s | %-9s %-10s %-11s %-10s %-10s | %-22s %-12s\n",
              "hidden", "layers", "params", "DataPar", "Megatron",
              "Megatron+A", "GPipe-H", "PD-2BW", "RaNNC", "RaNNC+AMP");

  const std::vector<std::int64_t> hiddens =
      quick ? std::vector<std::int64_t>{1024}
            : std::vector<std::int64_t>{1024, 1536, 2048};
  const std::vector<std::int64_t> layer_counts =
      quick ? std::vector<std::int64_t>{24, 96}
            : std::vector<std::int64_t>{24, 48, 96, 144, 192, 256};

  for (std::int64_t h : hiddens) {
    for (std::int64_t L : layer_counts) {
      BertConfig bc;
      bc.hidden = h;
      bc.layers = L;
      BuiltModel bm = build_bert(bc);

      const BaselinePlan dp =
          plan_data_parallel(bm, cluster, Precision::FP32, BS);
      const BaselinePlan mg = plan_megatron(bm, cluster, Precision::FP32, BS);
      const BaselinePlan mg_amp =
          plan_megatron(bm, cluster, Precision::Mixed, BS);
      const BaselinePlan gp = plan_gpipe_hybrid(bm, cluster, BS);
      const BaselinePlan pd = plan_pipedream_2bw(bm, cluster, BS);

      SearchRequest cfg;
      cfg.cluster = cluster;
      cfg.batch_size = BS;
      const PartitionResult rn = auto_partition(bm.graph, cfg).plan;
      cfg.precision = Precision::Mixed;
      const PartitionResult rn_amp = auto_partition(bm.graph, cfg).plan;

      char params[16];
      std::snprintf(params, sizeof(params), "%.2fB",
                    static_cast<double>(bm.graph.num_params()) / 1e9);
      std::printf("%-6lld %-6lld %-8s | %-9s %-10s %-11s %-10s %-10s | %-22s %-12s\n",
                  static_cast<long long>(h), static_cast<long long>(L), params,
                  cell(dp, BS).c_str(), cell(mg, BS).c_str(),
                  cell(mg_amp, BS).c_str(), cell(gp, BS).c_str(),
                  cell(pd, BS).c_str(), cell(rn, BS).c_str(),
                  rn_amp.feasible
                      ? std::to_string(rn_amp.throughput(BS)).substr(0, 6).c_str()
                      : "OOM");
    }
    std::printf("\n");
  }

  std::printf(
      "Shape checks (paper Section IV-B):\n"
      " * Data parallelism OOMs first; Megatron-LM next (no gradient\n"
      "   accumulation + unsharded activation buffers).\n"
      " * RaNNC trains the 12.9B-parameter model (~5x Megatron's largest).\n"
      " * RaNNC >= GPipe-Hybrid everywhere; the gap narrows as models grow.\n"
      " * PipeDream-2BW sits near RaNNC (async, no bubble) but is not\n"
      "   staleness-free.\n");
  return 0;
}
