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

TEST(ClosedFormComm, P2pLatencyPlusBandwidth) {
  ClusterSpec c;
  const double t = p2p_time(c, 25'000'000'000LL, true);
  EXPECT_NEAR(t, c.intra_lat + 1.0, 1e-9);  // 25 GB over 25 GB/s
  EXPECT_GT(p2p_time(c, 1 << 20, false), p2p_time(c, 1 << 20, true));
}

TEST(ClosedFormComm, AllreduceZeroForTrivialCases) {
  ClusterSpec c;
  EXPECT_DOUBLE_EQ(allreduce_time(c, 1 << 20, 1, false), 0.0);
  EXPECT_DOUBLE_EQ(allreduce_time(c, 0, 8, false), 0.0);
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
