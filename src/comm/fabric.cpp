#include "comm/fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace rannc {
namespace comm {

namespace {
/// Residual payload below this many bytes counts as delivered. Transfers
/// carry >= 1 byte in practice, so this only absorbs float round-off from
/// the fluid rate integration.
constexpr double kByteEps = 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Fabric::Fabric(const ClusterSpec& spec) : spec_(spec) {
  if (spec_.num_nodes < 1 || spec_.devices_per_node < 1)
    throw std::invalid_argument("Fabric: cluster has no devices");
  const int R = spec_.total_devices();
  const int N = spec_.num_nodes;
  // Link layout: [0,R) per-device egress NVLink lanes, [R,2R) ingress
  // lanes, [2R,2R+N) per-node egress NICs, [2R+N,2R+2N) ingress NICs.
  links_.reserve(static_cast<std::size_t>(2 * R + 2 * N));
  for (int r = 0; r < R; ++r)
    links_.push_back({spec_.intra_bw, "nvlink-out:" + std::to_string(r)});
  for (int r = 0; r < R; ++r)
    links_.push_back({spec_.intra_bw, "nvlink-in:" + std::to_string(r)});
  for (int n = 0; n < N; ++n)
    links_.push_back({spec_.inter_bw, "nic-out:" + std::to_string(n)});
  for (int n = 0; n < N; ++n)
    links_.push_back({spec_.inter_bw, "nic-in:" + std::to_string(n)});
  clock_.assign(static_cast<std::size_t>(R), 0.0);
  sent_.assign(static_cast<std::size_t>(R), 0);
  received_.assign(static_cast<std::size_t>(R), 0);
  busy_.assign(links_.size(), 0.0);
  busy_until_.assign(links_.size(), 0.0);
}

double Fabric::max_clock() const {
  double m = 0;
  for (double c : clock_) m = std::max(m, c);
  return m;
}

void Fabric::reset() {
  std::fill(clock_.begin(), clock_.end(), 0.0);
  std::fill(sent_.begin(), sent_.end(), std::int64_t{0});
  std::fill(received_.begin(), received_.end(), std::int64_t{0});
  std::fill(busy_.begin(), busy_.end(), 0.0);
  std::fill(busy_until_.begin(), busy_until_.end(), 0.0);
  log_.clear();
}

void Fabric::advance_clocks(double t) {
  for (double& c : clock_) c = std::max(c, t);
}

void Fabric::set_recorder(obs::TraceRecorder* rec) {
  rec_ = rec;
  if (rec_ == nullptr) return;
  for (LinkId l = 0; l < num_links(); ++l)
    rec_->set_track_name(obs::Domain::SimFabric, l,
                         links_[static_cast<std::size_t>(l)].name);
}

void Fabric::check_rank(Rank r) const {
  if (r < 0 || r >= num_ranks())
    throw std::out_of_range("Fabric: rank out of range");
}

int Fabric::path_of(Rank src, Rank dst, LinkId out[4]) const {
  const int R = num_ranks();
  int n = 0;
  out[n++] = src;  // egress NVLink lane
  if (node_of(src) != node_of(dst)) {
    out[n++] = 2 * R + node_of(src);                    // egress NIC
    out[n++] = 2 * R + spec_.num_nodes + node_of(dst);  // ingress NIC
  }
  out[n++] = R + dst;  // ingress NVLink lane
  return n;
}

std::vector<double> Fabric::run_step(const std::vector<Transfer>& transfers) {
  const std::size_t n = transfers.size();
  std::vector<double> finish(n, 0.0);
  if (n == 0) return finish;

  struct St {
    double activate = 0;   ///< virtual time bytes start flowing
    double remaining = 0;  ///< bytes left
    LinkId path[4] = {0, 0, 0, 0};
    int npath = 0;
    bool done = false;
  };
  std::vector<St> st(n);
  std::size_t open = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Transfer& t = transfers[i];
    check_rank(t.src);
    check_rank(t.dst);
    if (t.src == t.dst)
      throw std::invalid_argument("Fabric: transfer to self");
    St& s = st[i];
    const bool same = node_of(t.src) == node_of(t.dst);
    const double lat = same ? spec_.intra_lat : spec_.inter_lat;
    s.activate = std::max(clock_[static_cast<std::size_t>(t.src)],
                          clock_[static_cast<std::size_t>(t.dst)]) +
                 lat;
    s.remaining = std::max(0.0, t.bytes);
    s.npath = path_of(t.src, t.dst, s.path);
    if (s.remaining <= kByteEps) {  // latency-only message
      s.done = true;
      finish[i] = s.activate;
    } else {
      ++open;
    }
  }

  double now = kInf;
  for (const St& s : st)
    if (!s.done) now = std::min(now, s.activate);

  std::vector<int> active_on(links_.size(), 0);
  std::vector<double> rate(n, 0.0);
  // Per-link bandwidth-share counter series; only materialized when a
  // recorder is attached.
  std::vector<double> last_emitted;
  if (rec_ != nullptr) last_emitted.assign(links_.size(), 0.0);
  const auto emit_share = [this, &last_emitted](LinkId l, double ts,
                                                double share) {
    if (share == last_emitted[static_cast<std::size_t>(l)]) return;
    last_emitted[static_cast<std::size_t>(l)] = share;
    rec_->counter(obs::Domain::SimFabric, l, "bw_share", ts * 1e6,
                  "\"bytes_per_s\":" + obs::json_double(share));
  };
  // Each iteration finishes >= 1 transfer or jumps to the next activation,
  // so the loop is bounded by 2n events; the cap is a pure float-pathology
  // backstop.
  for (std::size_t iter = 0; open > 0 && iter < 2 * n + 64; ++iter) {
    std::fill(active_on.begin(), active_on.end(), 0);
    bool any_active = false;
    double next_activation = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      const St& s = st[i];
      if (s.done) continue;
      if (s.activate <= now) {
        any_active = true;
        for (int k = 0; k < s.npath; ++k)
          ++active_on[static_cast<std::size_t>(s.path[k])];
      } else {
        next_activation = std::min(next_activation, s.activate);
      }
    }
    if (rec_ != nullptr) {
      for (std::size_t l = 0; l < links_.size(); ++l) {
        const double share =
            active_on[l] > 0 ? links_[l].bandwidth / active_on[l] : 0.0;
        emit_share(static_cast<LinkId>(l), now, share);
      }
    }
    if (!any_active) {
      now = next_activation;
      continue;
    }
    double next = next_activation;
    for (std::size_t i = 0; i < n; ++i) {
      const St& s = st[i];
      if (s.done || s.activate > now) continue;
      double r = kInf;
      for (int k = 0; k < s.npath; ++k) {
        const std::size_t l = static_cast<std::size_t>(s.path[k]);
        r = std::min(r, links_[l].bandwidth /
                            static_cast<double>(active_on[l]));
      }
      rate[i] = r;
      if (r > 0) next = std::min(next, now + s.remaining / r);
    }
    if (!std::isfinite(next)) break;  // defensive: zero-bandwidth links
    const double dt = next - now;
    for (std::size_t l = 0; l < links_.size(); ++l)
      if (active_on[l] > 0) {
        const double lo = std::max(now, busy_until_[l]);
        if (next > lo) {
          busy_[l] += next - lo;
          busy_until_[l] = next;
        }
      }
    for (std::size_t i = 0; i < n; ++i) {
      St& s = st[i];
      if (s.done || s.activate > now) continue;
      s.remaining -= rate[i] * dt;
      if (s.remaining <= kByteEps) {
        s.done = true;
        finish[i] = next;
        --open;
      }
    }
    now = next;
  }
  // Backstop: force-finish anything the float loop failed to close.
  for (std::size_t i = 0; i < n; ++i)
    if (!st[i].done) finish[i] = now;

  if (rec_ != nullptr || log_enabled_) {
    // Close out still-open counter series at the step's end.
    if (rec_ != nullptr)
      for (std::size_t l = 0; l < links_.size(); ++l)
        emit_share(static_cast<LinkId>(l), now, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const Transfer& t = transfers[i];
      // Uncontended flow time and the slowest path link (the
      // first on ties — deterministic): the causal baseline the
      // attribution layer charges contention queuing against.
      double min_bw = kInf;
      LinkId bottleneck = st[i].path[0];
      for (int k = 0; k < st[i].npath; ++k) {
        const double bw =
            links_[static_cast<std::size_t>(st[i].path[k])].bandwidth;
        if (bw < min_bw) {
          min_bw = bw;
          bottleneck = st[i].path[k];
        }
      }
      const double nominal =
          min_bw > 0 ? std::max(0.0, t.bytes) / min_bw : 0.0;
      if (log_enabled_)
        log_.push_back({t.src, t.dst, t.bytes, st[i].activate, finish[i],
                        nominal, bottleneck});
      if (rec_ != nullptr)
        rec_->complete(obs::Domain::SimFabric, st[i].path[0],
                       "xfer r" + std::to_string(t.src) + "->r" +
                           std::to_string(t.dst),
                       "fabric", st[i].activate * 1e6,
                       (finish[i] - st[i].activate) * 1e6,
                       "\"src\":" + std::to_string(t.src) +
                           ",\"dst\":" + std::to_string(t.dst) +
                           ",\"bytes\":" + obs::json_double(t.bytes) +
                           ",\"nominal_s\":" + obs::json_double(nominal));
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Transfer& t = transfers[i];
    auto& cs = clock_[static_cast<std::size_t>(t.src)];
    auto& cd = clock_[static_cast<std::size_t>(t.dst)];
    cs = std::max(cs, finish[i]);
    cd = std::max(cd, finish[i]);
    const auto nominal = static_cast<std::int64_t>(std::llround(t.bytes));
    sent_[static_cast<std::size_t>(t.src)] += nominal;
    received_[static_cast<std::size_t>(t.dst)] += nominal;
  }
  return finish;
}

double Fabric::finish_max(const std::vector<Rank>& ranks) const {
  double m = 0;
  for (Rank r : ranks) m = std::max(m, clock(r));
  return m;
}

double Fabric::p2p(Rank src, Rank dst, std::int64_t bytes) {
  return run_step({{src, dst, static_cast<double>(bytes)}})[0];
}

double Fabric::ring_phase(const std::vector<Rank>& ring, double chunk_bytes,
                          int steps) {
  const int r = static_cast<int>(ring.size());
  std::vector<Transfer> ts(static_cast<std::size_t>(r));
  for (int s = 0; s < steps; ++s) {
    for (int i = 0; i < r; ++i) {
      ts[static_cast<std::size_t>(i)] = {
          ring[static_cast<std::size_t>(i)],
          ring[static_cast<std::size_t>((i + 1) % r)], chunk_bytes};
    }
    run_step(ts);
  }
  return finish_max(ring);
}

double Fabric::ring_allreduce(const std::vector<Rank>& ring,
                              std::int64_t bytes) {
  const int r = static_cast<int>(ring.size());
  if (r <= 1 || bytes <= 0) return finish_max(ring);
  const double chunk = static_cast<double>(bytes) / static_cast<double>(r);
  return ring_phase(ring, chunk, 2 * (r - 1));
}

double simulated_p2p_time(const ClusterSpec& c, std::int64_t bytes,
                          bool same_node) {
  if (same_node && c.devices_per_node < 2) return p2p_time(c, bytes, true);
  if (!same_node && c.num_nodes < 2) return p2p_time(c, bytes, false);
  Fabric f(c);
  return f.p2p(0, same_node ? 1 : c.devices_per_node, bytes);
}

double simulated_allreduce_time(const ClusterSpec& c, std::int64_t bytes,
                                int ranks, bool spans_nodes) {
  if (ranks <= 1 || bytes <= 0) return 0.0;
  if (ranks > c.total_devices())
    return allreduce_time(c, bytes, ranks, spans_nodes);
  std::vector<Rank> ring(static_cast<std::size_t>(ranks));
  if (spans_nodes && c.num_nodes > 1) {
    const int nodes = std::min(c.num_nodes, ranks);
    for (int i = 0; i < ranks; ++i)
      ring[static_cast<std::size_t>(i)] =
          (i % nodes) * c.devices_per_node + i / nodes;
  } else {
    std::iota(ring.begin(), ring.end(), 0);
  }
  Fabric f(c);
  return f.ring_allreduce(ring, bytes);
}

void attribute_fabric(obs::AttributionReport& rep, const Fabric& fabric) {
  std::vector<obs::FabricTransfer> ts;
  ts.reserve(fabric.transfer_log().size());
  for (const Fabric::TransferRecord& r : fabric.transfer_log()) {
    obs::FabricTransfer t;
    t.src = r.src;
    t.dst = r.dst;
    t.bytes = r.bytes;
    t.activate = r.activate;
    t.finish = r.finish;
    t.nominal = r.nominal;
    t.bottleneck_link = r.bottleneck;
    ts.push_back(t);
  }
  std::vector<std::string> names(static_cast<std::size_t>(fabric.num_links()));
  std::vector<double> busy(static_cast<std::size_t>(fabric.num_links()));
  for (LinkId l = 0; l < fabric.num_links(); ++l) {
    names[static_cast<std::size_t>(l)] = fabric.link(l).name;
    busy[static_cast<std::size_t>(l)] = fabric.link_busy_seconds(l);
  }
  obs::attach_links(rep, ts, names, busy, fabric.max_clock());
}

}  // namespace comm
}  // namespace rannc
