#include "serve/plan_store.h"

#include <fstream>
#include <sstream>

#include "obs/trace.h"
#include "util/json.h"

namespace rannc {
namespace serve {

namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) out[15 - i] = kHex[(v >> (4 * i)) & 0xF];
  return out;
}

std::string checksum(const StoredEntry& e) {
  return hex16(fnv1a64(e.plan_json));
}

const char* precision_name(Precision p) {
  return p == Precision::Mixed ? "mixed" : "fp32";
}

const char* optimizer_name(OptimizerKind o) {
  return o == OptimizerKind::Adam ? "adam" : "sgd";
}

}  // namespace

std::string profile_sig(const SearchRequest& req) {
  const DeviceSpec& d = req.cluster.device;
  std::ostringstream os;
  const auto f = [&os](const char* k, double v) {
    os << ',' << k << '=' << obs::json_double(v);
  };
  os << "precision=" << precision_name(req.precision)
     << ",opt=" << optimizer_name(req.optimizer)
     << ",blocks=" << req.num_blocks
     << ",coarsen=" << (req.use_coarsening ? 1 : 0);
  f("fp32", d.fp32_flops);
  f("fp16", d.fp16_flops);
  f("meff", d.matmul_eff);
  f("heff", d.fp16_eff);
  f("bw", d.mem_bw);
  f("bweff", d.mem_bw_eff);
  f("ko", d.kernel_overhead);
  f("fo", d.fused_overhead);
  f("fl", d.fused_locality);
  f("ibw", req.cluster.intra_bw);
  f("ilat", req.cluster.intra_lat);
  f("xbw", req.cluster.inter_bw);
  f("xlat", req.cluster.inter_lat);
  return os.str();
}

std::string geom_sig(const SearchRequest& req) {
  std::ostringstream os;
  os << "nodes=" << req.cluster.num_nodes
     << ",dpn=" << req.cluster.devices_per_node
     << ",bs=" << req.batch_size
     << ",mem=" << req.cluster.device.memory_bytes
     << ",margin=" << obs::json_double(req.memory_margin)
     << ",maxcells=" << req.budget.max_dp_cells;
  return os.str();
}

PlanKey make_plan_key(const Fingerprint& fp, const SearchRequest& req) {
  return PlanKey{fp, profile_sig(req), geom_sig(req)};
}

std::string PlanKey::filename() const {
  return fp.hex() + "-" + hex16(fnv1a64(profile_sig)) + "-" +
         hex16(fnv1a64(geom_sig)) + ".plan.json";
}

std::string PlanKey::str() const {
  return fp.hex() + "/" + profile_sig + "/" + geom_sig;
}

PlanStore::PlanStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::optional<StoredEntry> PlanStore::load(const PlanKey& key) const {
  try {
    std::ifstream in(dir_ / key.filename(), std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    const json::Value doc = json::parse(buf.str());
    if (doc.geti("format_version", -1) != kFormatVersion) return std::nullopt;
    if (doc.gets("fingerprint") != key.fp.hex()) return std::nullopt;
    if (doc.gets("profile_sig") != key.profile_sig) return std::nullopt;
    if (doc.gets("geom_sig") != key.geom_sig) return std::nullopt;
    StoredEntry e;
    e.plan_json = doc.gets("plan");
    e.infeasible = doc.getb("infeasible");
    e.infeasible_reason = doc.gets("infeasible_reason");
    if (doc.gets("checksum") != checksum(e)) return std::nullopt;
    return e;
  } catch (const std::exception&) {
    // Any defect — unreadable file, bad JSON, mistyped field — is a miss.
    return std::nullopt;
  }
}

bool PlanStore::save(const PlanKey& key, const StoredEntry& entry) const {
  const std::filesystem::path final_path = dir_ / key.filename();
  const std::filesystem::path tmp_path =
      dir_ / (key.filename() + ".tmp");
  try {
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      if (!out) return false;
      out << "{\n"
          << "  \"format_version\": " << kFormatVersion << ",\n"
          << "  \"fingerprint\": \"" << key.fp.hex() << "\",\n"
          << "  \"profile_sig\": " << obs::json_string(key.profile_sig)
          << ",\n"
          << "  \"geom_sig\": " << obs::json_string(key.geom_sig) << ",\n"
          << "  \"infeasible\": " << (entry.infeasible ? "true" : "false")
          << ",\n"
          << "  \"infeasible_reason\": "
          << obs::json_string(entry.infeasible_reason) << ",\n"
          << "  \"checksum\": \"" << checksum(entry) << "\",\n"
          << "  \"plan\": " << obs::json_string(entry.plan_json) << "\n"
          << "}\n";
      if (!out.good()) {
        out.close();
        std::filesystem::remove(tmp_path);
        return false;
      }
    }
    std::filesystem::rename(tmp_path, final_path);
    return true;
  } catch (const std::exception&) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
}

}  // namespace serve
}  // namespace rannc
