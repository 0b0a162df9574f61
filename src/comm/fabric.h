// Discrete-event simulated communication fabric.
//
// Stands in for the NCCL/MPI transport of the original RaNNC middleware:
// a virtual-time event engine with per-rank clocks and explicit `Link`
// objects (one full-duplex NVLink lane pair per device, one shared
// full-duplex InfiniBand NIC pair per node, built from `ClusterSpec`).
// Concurrent transfers crossing the same link share its bandwidth, so the
// fabric reproduces the contention effects the closed-form models in
// `src/cluster/cluster_spec.cpp` ignore — NIC sharing between
// node-spanning rings, serialization of simultaneous sends — which are
// exactly what separates Megatron-LM's cross-node tensor-parallel
// all-reduces from RaNNC's mostly intra-node stage boundaries (Table 1 /
// Fig. 4 of the paper).
//
// The fabric is a simulator, not an estimator: the partitioner, the
// baseline planners and the runtime price traffic only with the closed
// forms. It replays a chosen plan's traffic (`replay_plan_comm`, behind
// `rannc trace` and `rannc explain`) and measures how far contention takes
// collectives from the closed forms (`bench_comm_fabric`).
//
// Everything here runs in *virtual* time: no wall clocks, no host-thread
// timing. Results are bit-exact deterministic regardless of host
// scheduling, which the test suite verifies by racing simulations across
// threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_spec.h"
#include "obs/attribution.h"
#include "obs/trace.h"

namespace rannc {
namespace comm {

using Rank = int;
using LinkId = int;

/// One directed physical link. Full-duplex hardware is modelled as an
/// egress/ingress pair so that a ring step (every rank sends while it
/// receives) does not contend against itself.
struct Link {
  double bandwidth = 0;  ///< bytes/s
  std::string name;
};

class Fabric {
 public:
  explicit Fabric(const ClusterSpec& spec);

  [[nodiscard]] int num_ranks() const { return static_cast<int>(clock_.size()); }
  [[nodiscard]] int num_links() const { return static_cast<int>(links_.size()); }
  [[nodiscard]] const Link& link(LinkId l) const {
    return links_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] int node_of(Rank r) const {
    return r / spec_.devices_per_node;
  }

  /// Virtual clock of one rank: the time its last transfer completed.
  [[nodiscard]] double clock(Rank r) const {
    return clock_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] double max_clock() const;

  /// Byte-conservation accounting (nominal payload bytes).
  [[nodiscard]] std::int64_t bytes_sent(Rank r) const {
    return sent_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::int64_t bytes_received(Rank r) const {
    return received_[static_cast<std::size_t>(r)];
  }

  /// Rewinds all clocks and byte counters to zero.
  void reset();

  /// Advances every rank clock to at least `t` — idle virtual time between
  /// communication batches (e.g. compute phases of a replayed schedule), so
  /// schedule time and fabric time share one axis. Transfers issued
  /// afterwards activate no earlier than `t`. Never rewinds.
  void advance_clocks(double t);

  /// Attaches a recorder: every transfer becomes a complete span on its
  /// egress link's SimFabric track, and per-link bandwidth-share counter
  /// events are emitted whenever a link's active-transfer count changes.
  /// Also names all link tracks. nullptr detaches.
  void set_recorder(obs::TraceRecorder* rec);

  /// Virtual seconds link `l` spent with at least one transfer in flight
  /// (accumulated whether or not a recorder is attached).
  [[nodiscard]] double link_busy_seconds(LinkId l) const {
    return busy_[static_cast<std::size_t>(l)];
  }

  /// One completed transfer, as appended to the transfer log. `activate`
  /// is the flow start (after link latency), `nominal` the uncontended
  /// flow seconds (bytes / slowest-path-link bandwidth); the
  /// difference between the actual flow time and `nominal` is contention
  /// queuing, attributed to `bottleneck`.
  struct TransferRecord {
    Rank src = 0;
    Rank dst = 0;
    double bytes = 0;
    double activate = 0;
    double finish = 0;
    double nominal = 0;
    LinkId bottleneck = -1;
  };
  /// Enables the per-transfer log consumed by the attribution layer (off
  /// by default; appended in deterministic issue order).
  void set_transfer_log(bool on) { log_enabled_ = on; }
  [[nodiscard]] const std::vector<TransferRecord>& transfer_log() const {
    return log_;
  }
  void clear_transfer_log() { log_.clear(); }

  struct Transfer {
    Rank src = 0;
    Rank dst = 0;
    double bytes = 0;  ///< payload; fractional chunks from collectives are ok
  };

  /// Runs one batch of concurrent transfers. Each transfer activates at
  /// max(clock[src], clock[dst]) plus the link latency, then its bytes flow
  /// at the bottleneck rate min over its path of bandwidth / (number of
  /// transfers concurrently active on that link) — a fluid fair-share model.
  /// On return the clocks of every participating rank have advanced to the
  /// finish time of their transfer. Returns per-transfer finish times.
  std::vector<double> run_step(const std::vector<Transfer>& transfers);

  // -- collectives: step sequences over links, accruing virtual time ------
  /// Single point-to-point send; returns its completion time.
  double p2p(Rank src, Rank dst, std::int64_t bytes);
  /// Ring all-reduce: 2*(r-1) steps of bytes/r chunks around `ring`.
  double ring_allreduce(const std::vector<Rank>& ring, std::int64_t bytes);

 private:
  /// Writes the link path src -> dst into `out[4]`; returns its length.
  int path_of(Rank src, Rank dst, LinkId out[4]) const;
  double ring_phase(const std::vector<Rank>& ring, double chunk_bytes,
                    int steps);
  [[nodiscard]] double finish_max(const std::vector<Rank>& ranks) const;
  void check_rank(Rank r) const;

  ClusterSpec spec_;
  std::vector<Link> links_;
  std::vector<double> clock_;
  std::vector<std::int64_t> sent_, received_;
  /// Per-link busy accounting as a union of active intervals: `busy_` is
  /// the accumulated measure, `busy_until_` the high-water mark, so
  /// batches whose virtual intervals overlap (per-rank clocks allow that
  /// across run_step calls) are not double-counted.
  std::vector<double> busy_, busy_until_;
  obs::TraceRecorder* rec_ = nullptr;
  bool log_enabled_ = false;
  std::vector<TransferRecord> log_;
};

/// Simulated time of one `bytes` send on a fresh fabric of `c`: device 0
/// to device 1 (`same_node`) or to the first device of node 1. A topology
/// that cannot express the request (one device per node, or one node)
/// returns the closed form `p2p_time`.
double simulated_p2p_time(const ClusterSpec& c, std::int64_t bytes,
                          bool same_node);

/// Simulated ring all-reduce of `bytes` across `ranks` devices on a fresh
/// fabric of `c`. A node-spanning group places members round-robin across
/// nodes (data-parallel replicas live on different nodes), so co-located
/// members share their node's NIC — the contention the closed form cannot
/// see. A non-spanning group is consecutive devices from rank 0. More
/// ranks than the cluster holds returns the closed form `allreduce_time`.
double simulated_allreduce_time(const ClusterSpec& c, std::int64_t bytes,
                                int ranks, bool spans_nodes);

/// Folds the fabric's transfer log and per-link busy accounting into an
/// attribution report (adapter over obs::attach_links; enable the log
/// with set_transfer_log before replaying the communication pattern).
void attribute_fabric(obs::AttributionReport& rep, const Fabric& fabric);

}  // namespace comm
}  // namespace rannc
