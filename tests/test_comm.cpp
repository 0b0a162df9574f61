// Tests for the discrete-event communication fabric (`src/comm`): parity
// with the closed-form cost models when uncontended, contention
// monotonicity on shared links, byte conservation, bit-exact determinism
// under host-thread races, and the closable channel the pipeline runtime
// rides on.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "cluster/cluster_spec.h"
#include "comm/fabric.h"
#include "runtime/channel.h"

namespace rannc {
namespace {

using comm::Fabric;

TEST(Fabric, TopologyFromClusterSpec) {
  ClusterSpec c;  // 4 nodes x 8 devices
  Fabric f(c);
  EXPECT_EQ(f.num_ranks(), 32);
  // 2 NVLink lanes per device + 2 NIC directions per node.
  EXPECT_EQ(f.num_links(), 2 * 32 + 2 * 4);
  EXPECT_EQ(f.node_of(0), 0);
  EXPECT_EQ(f.node_of(7), 0);
  EXPECT_EQ(f.node_of(8), 1);
  EXPECT_EQ(f.node_of(31), 3);
}

TEST(Fabric, UncontendedP2pMatchesClosedForm) {
  ClusterSpec c;
  const std::int64_t bytes = 16 << 20;
  {
    Fabric f(c);
    EXPECT_DOUBLE_EQ(f.p2p(0, 1, bytes), p2p_time(c, bytes, true));
  }
  {
    // Cross-node: the NIC is the bottleneck (inter_bw < intra_bw).
    Fabric f(c);
    EXPECT_DOUBLE_EQ(f.p2p(0, 8, bytes), p2p_time(c, bytes, false));
  }
  {
    // Zero-byte message costs exactly one latency.
    Fabric f(c);
    EXPECT_DOUBLE_EQ(f.p2p(0, 1, 0), c.intra_lat);
  }
}

TEST(Fabric, UncontendedRingAllreduceWithin5PercentOfClosedForm) {
  ClusterSpec c;
  const std::int64_t bytes = 64 << 20;
  {
    // All ranks on one node: every ring step uses distinct full-duplex
    // NVLink lanes, so the fabric should land on the analytic model.
    Fabric f(c);
    const double sim = f.ring_allreduce({0, 1, 2, 3, 4, 5, 6, 7}, bytes);
    const double ana = allreduce_time(c, bytes, 8, false);
    EXPECT_NEAR(sim, ana, 0.05 * ana);
  }
  {
    // One rank per node: each NIC carries one transfer per step, so the
    // inter-node closed form applies.
    Fabric f(c);
    const double sim = f.ring_allreduce({0, 8, 16, 24}, bytes);
    const double ana = allreduce_time(c, bytes, 4, true);
    EXPECT_NEAR(sim, ana, 0.05 * ana);
  }
}

TEST(Fabric, NicContentionIsMonotone) {
  ClusterSpec c;
  const double bytes = 32e6;
  Fabric alone(c);
  const double t_alone = alone.run_step({{0, 8, bytes}})[0];
  // Two concurrent cross-node transfers out of node 0 share its egress
  // NIC: each must take at least as long as either alone (here ~2x).
  Fabric both(c);
  const auto t = both.run_step({{0, 8, bytes}, {1, 16, bytes}});
  EXPECT_GE(t[0], t_alone);
  EXPECT_GE(t[1], t_alone);
  EXPECT_GT(t[0], 1.5 * t_alone);
}

TEST(Fabric, NvlinkLaneContentionIsMonotone) {
  ClusterSpec c;
  const double bytes = 8e6;
  Fabric alone(c);
  const double t_alone = alone.run_step({{0, 1, bytes}})[0];
  // Two sends out of the same device share its egress lane.
  Fabric both(c);
  const auto t = both.run_step({{0, 1, bytes}, {0, 2, bytes}});
  EXPECT_GE(t[0], t_alone);
  EXPECT_GE(t[1], t_alone);
}

TEST(Fabric, P2pConservesBytes) {
  ClusterSpec c;
  Fabric f(c);
  f.p2p(0, 5, 1000);
  f.p2p(5, 0, 500);
  f.p2p(2, 5, 250);
  EXPECT_EQ(f.bytes_sent(0), 1000);
  EXPECT_EQ(f.bytes_sent(5), 500);
  EXPECT_EQ(f.bytes_sent(2), 250);
  EXPECT_EQ(f.bytes_received(5), 1250);
  EXPECT_EQ(f.bytes_received(0), 500);
  std::int64_t sent = 0, received = 0;
  for (int r = 0; r < f.num_ranks(); ++r) {
    sent += f.bytes_sent(r);
    received += f.bytes_received(r);
  }
  EXPECT_EQ(sent, received);
}

TEST(Fabric, RejectsInvalidTransfers) {
  ClusterSpec c;
  Fabric f(c);
  EXPECT_THROW(f.p2p(0, 0, 100), std::invalid_argument);
  EXPECT_THROW(f.p2p(0, 99, 100), std::out_of_range);
  EXPECT_THROW(f.p2p(-1, 0, 100), std::out_of_range);
}

/// A mixed workload whose result signature covers collectives, contended
/// steps and per-rank clocks.
std::vector<double> workload_signature() {
  ClusterSpec c;
  Fabric f(c);
  std::vector<double> sig;
  sig.push_back(f.ring_allreduce({0, 1, 2, 3, 4, 5, 6, 7}, 123457));
  for (double x : f.run_step(
           {{0, 8, 1e6}, {1, 16, 2e6}, {2, 8, 3.5e5}, {9, 1, 7e5}}))
    sig.push_back(x);
  sig.push_back(f.ring_allreduce({9, 0, 3, 17, 25}, 1 << 20));
  for (int r = 0; r < f.num_ranks(); ++r) sig.push_back(f.clock(r));
  return sig;
}

TEST(Fabric, BitExactDeterminismAcrossThreadInterleavings) {
  const std::vector<double> expected = workload_signature();
  // Race many simulations across host threads: virtual time must not
  // observe host scheduling.
  const ClusterSpec c;
  const double sim_expected =
      comm::simulated_allreduce_time(c, 1 << 22, 16, true);
  std::vector<std::vector<double>> got(8);
  std::vector<double> sim_got(8);
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i)
    threads.emplace_back([&, i] {
      for (int rep = 0; rep < 5; ++rep) {
        got[static_cast<std::size_t>(i)] = workload_signature();
        sim_got[static_cast<std::size_t>(i)] =
            comm::simulated_allreduce_time(c, 1 << 22, 16, true);
      }
    });
  for (auto& t : threads) t.join();
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)].size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k)
      EXPECT_EQ(got[static_cast<std::size_t>(i)][k], expected[k])
          << "thread " << i << " slot " << k;
    EXPECT_EQ(sim_got[static_cast<std::size_t>(i)], sim_expected);
  }
}

// ---- simulated collective times -----------------------------------------

TEST(SimulatedComm, UncontendedParity) {
  ClusterSpec c;
  const std::int64_t bytes = 64 << 20;
  // 8 consecutive ranks = one node = uncontended ring.
  const double sim = comm::simulated_allreduce_time(c, bytes, 8, false);
  const double ana = allreduce_time(c, bytes, 8, false);
  EXPECT_NEAR(sim, ana, 0.05 * ana);
  EXPECT_DOUBLE_EQ(comm::simulated_p2p_time(c, bytes, true),
                   p2p_time(c, bytes, true));
  EXPECT_DOUBLE_EQ(comm::simulated_p2p_time(c, bytes, false),
                   p2p_time(c, bytes, false));
}

TEST(SimulatedComm, PenalizesSharedNicOnSpanningAllreduce) {
  ClusterSpec c;
  const std::int64_t bytes = 64 << 20;
  // 32 ranks round-robin over 4 nodes: 8 ring transfers share each NIC
  // per step, which the closed form cannot see.
  const double sim = comm::simulated_allreduce_time(c, bytes, 32, true);
  const double ana = allreduce_time(c, bytes, 32, true);
  EXPECT_GT(sim, ana);
  // More co-located ranks per node -> more NIC sharing -> slower than a
  // one-rank-per-node ring of the same span.
  const double spread = comm::simulated_allreduce_time(c, bytes, 4, true);
  EXPECT_GT(sim, spread);
}

TEST(SimulatedComm, DegenerateTopologiesFallBackToClosedForms) {
  ClusterSpec one_per_node;
  one_per_node.devices_per_node = 1;
  EXPECT_EQ(comm::simulated_p2p_time(one_per_node, 1 << 20, true),
            p2p_time(one_per_node, 1 << 20, true));
  const ClusterSpec one_node = ClusterSpec{}.single_node();
  EXPECT_EQ(comm::simulated_p2p_time(one_node, 1 << 20, false),
            p2p_time(one_node, 1 << 20, false));
  // More ranks than devices: no placement exists.
  EXPECT_EQ(comm::simulated_allreduce_time(one_node, 1 << 20, 16, false),
            allreduce_time(one_node, 1 << 20, 16, false));
  EXPECT_EQ(comm::simulated_allreduce_time(one_node, 1 << 20, 1, false), 0.0);
  EXPECT_EQ(comm::simulated_allreduce_time(one_node, 0, 8, false), 0.0);
}

// ---- closable channel ----------------------------------------------------

TEST(Channel, CloseUnblocksReceiverWithNullopt) {
  Channel<int> ch(4);
  std::optional<int> got = 0;
  std::thread receiver([&] { got = ch.recv(); });
  ch.close();
  receiver.join();
  EXPECT_FALSE(got.has_value());
}

TEST(Channel, CloseUnblocksFullSender) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.send(1));
  bool sent = true;
  std::thread sender([&] { sent = ch.send(2); });  // blocks: channel full
  ch.close();
  sender.join();
  EXPECT_FALSE(sent);
  EXPECT_FALSE(ch.send(3));  // closed channels reject immediately
}

TEST(Channel, DrainsQueuedItemsAfterClose) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.send(1));
  ASSERT_TRUE(ch.send(2));
  ch.close();
  EXPECT_EQ(ch.recv(), 1);
  EXPECT_EQ(ch.recv(), 2);
  EXPECT_EQ(ch.recv(), std::nullopt);
}

}  // namespace
}  // namespace rannc
