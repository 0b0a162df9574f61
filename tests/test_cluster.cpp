// Unit tests for the cluster topology and communication cost models.
#include <gtest/gtest.h>

#include "cluster/cluster_spec.h"

namespace rannc {
namespace {

TEST(ClusterSpec, PaperTestbedDefaults) {
  ClusterSpec c;
  EXPECT_EQ(c.total_devices(), 32);  // 4 nodes x 8 V100
  EXPECT_EQ(c.device.memory_bytes, 32LL << 30);
  EXPECT_GT(c.intra_bw, c.inter_bw);  // NVLink beats InfiniBand
}

TEST(ClusterSpec, SingleNodeSlice) {
  ClusterSpec c;
  ClusterSpec one = c.single_node();
  EXPECT_EQ(one.total_devices(), 8);
  EXPECT_EQ(one.devices_per_node, c.devices_per_node);
}

// The closed forms are the only communication model, so the tests below pin
// them to values worked by hand from the paper-testbed defaults: NVLink
// 25 GB/s and 5 us, InfiniBand 12.5 GB/s and 15 us.
void expect_pinned(double got, double want) {
  EXPECT_NEAR(got, want, 1e-12 * want);
}

TEST(ClosedFormComm, P2pLatencyPlusBandwidth) {
  ClusterSpec c;
  const double t = p2p_time(c, 25'000'000'000LL, true);
  EXPECT_NEAR(t, c.intra_lat + 1.0, 1e-9);  // 25 GB over 25 GB/s
  EXPECT_GT(p2p_time(c, 1 << 20, false), p2p_time(c, 1 << 20, true));
  // 50 MB: 5 us + 50e6 / 25e9 s within a node, 15 us + 50e6 / 12.5e9 s
  // across nodes.
  expect_pinned(p2p_time(c, 50'000'000, true), 0.002005);
  expect_pinned(p2p_time(c, 50'000'000, false), 0.004015);
}

TEST(ClosedFormComm, AllreduceZeroForTrivialCases) {
  ClusterSpec c;
  for (bool spans_nodes : {false, true}) {
    EXPECT_EQ(allreduce_time(c, 1 << 20, 1, spans_nodes), 0.0);
    EXPECT_EQ(allreduce_time(c, 0, 8, spans_nodes), 0.0);
    EXPECT_EQ(allreduce_time(c, 0, 32, spans_nodes), 0.0);
  }
}

TEST(ClosedFormComm, AllreducePinnedToHandComputedValues) {
  ClusterSpec c;
  // 400 MB ring over the 8 devices of one node:
  // 2 * 7/8 * 400e6 / 25e9 + 2 * 7 * 5e-6 = 0.028 + 0.00007 s.
  expect_pinned(allreduce_time(c, 400'000'000, 8, false), 0.02807);
  // 400 MB ring over all 32 devices, spanning the 4 nodes:
  // 2 * 31/32 * 400e6 / 12.5e9 + 2 * 31 * 15e-6 = 0.062 + 0.00093 s.
  expect_pinned(allreduce_time(c, 400'000'000, 32, true), 0.06293);
}

TEST(ClosedFormComm, AllreduceScalesWithRanksFactor) {
  ClusterSpec c;
  const std::int64_t bytes = 100 << 20;
  const double t2 = allreduce_time(c, bytes, 2, false);
  const double t8 = allreduce_time(c, bytes, 8, false);
  // Ring term 2(r-1)/r: grows from 1x to 1.75x of bytes/bw.
  EXPECT_GT(t8, t2);
  EXPECT_LT(t8, 2.0 * t2);
}

TEST(ClosedFormComm, InterNodeAllreduceSlower) {
  ClusterSpec c;
  const std::int64_t bytes = 100 << 20;
  EXPECT_GT(allreduce_time(c, bytes, 8, true), allreduce_time(c, bytes, 8, false));
}

TEST(ClosedFormComm, PartitionerEstimateUsesIntraNodeBandwidth) {
  // Paper footnote 3: the partitioner estimates with intra-node bandwidth.
  ClusterSpec c;
  EXPECT_DOUBLE_EQ(partitioner_comm_time(c, 1 << 20),
                   p2p_time(c, 1 << 20, true));
}

}  // namespace
}  // namespace rannc
