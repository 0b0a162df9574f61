// Cluster topology and communication cost models.
//
// Models the paper's testbed (Section IV-A): 4 compute nodes, each with
// 8 V100s connected by NVLink (25-50 GB/s between GPU pairs), nodes
// connected by 100 Gb/s InfiniBand.
//
// The closed forms below are the only communication model: the
// partitioner, plan evaluation, the baseline planners, the pipeline runtime
// and `rannc explain` all call them. They model no link contention, as the
// paper's own estimate does (footnote 3); docs/ALGORITHMS.md §5 records
// why no contention simulator is kept beside them.
#pragma once

#include <cstdint>

#include "profiler/device_spec.h"

namespace rannc {

struct ClusterSpec {
  int num_nodes = 4;
  int devices_per_node = 8;
  DeviceSpec device;
  double intra_bw = 25.0e9;    ///< NVLink bytes/s (paper: 25 or 50 GB/s)
  double intra_lat = 5.0e-6;   ///< seconds
  double inter_bw = 12.5e9;    ///< InfiniBand 100 Gb/s = 12.5 GB/s
  double inter_lat = 15.0e-6;

  [[nodiscard]] int total_devices() const {
    return num_nodes * devices_per_node;
  }

  /// A single-node slice of this cluster (used by GPipe-Model which only
  /// runs on one node, Section IV-B).
  [[nodiscard]] ClusterSpec single_node() const {
    ClusterSpec s = *this;
    s.num_nodes = 1;
    return s;
  }
};

/// Point-to-point transfer time of `bytes` between two devices.
double p2p_time(const ClusterSpec& c, std::int64_t bytes, bool same_node);

/// Ring all-reduce across `ranks` devices. `spans_nodes` selects the
/// bottleneck link. Cost model: 2*(r-1)/r * bytes / bw + per-step latency.
double allreduce_time(const ClusterSpec& c, std::int64_t bytes, int ranks,
                      bool spans_nodes);

/// Communication-time estimate used by the partitioner. Per the paper's
/// footnote 3, the partitioner estimates with the *intra-node* bandwidth
/// because device allocation keeps adjacent stages within a node when
/// possible.
double partitioner_comm_time(const ClusterSpec& c, std::int64_t bytes);

}  // namespace rannc
