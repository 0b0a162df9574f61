// Tests for the fault-injection & elastic-recovery subsystem: fault-plan
// JSON round-trips, deterministic fabric faults, cluster shrinking, shard
// remapping, the virtual-time fault simulator's thread-count bit-identity,
// and the hardened pipeline runtime (retry/backoff, transactional
// rollback, step deadline, elastic resume).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "comm/fabric.h"
#include "comm/fault.h"
#include "models/bert.h"
#include "models/mlp.h"
#include "obs/trace.h"
#include "partition/auto_partitioner.h"
#include "partition/plan_io.h"
#include "partition/search.h"
#include "resilience/fault_plan.h"
#include "resilience/recovery.h"
#include "resilience/sim.h"
#include "runtime/pipeline_runtime.h"
#include "runtime/trainer.h"

namespace rannc {
namespace {

using resilience::FaultEvent;
using resilience::FaultKind;
using resilience::FaultPlan;

// ---- shared fixtures -------------------------------------------------------

MlpConfig test_mlp() {
  MlpConfig c;
  c.input_dim = 12;
  c.hidden_dims = {16, 16, 16};
  c.num_classes = 10;
  c.batch = 4;
  return c;
}

/// Deterministic synthetic classification microbatches for an MLP.
std::vector<TensorMap> make_microbatches(const TaskGraph& g, int count,
                                         std::uint64_t seed) {
  const ValueId x = g.input_values()[0];
  const ValueId y = g.input_values()[1];
  const Shape& xs = g.value(x).shape;
  const std::int64_t b = xs.dims[0];
  std::vector<TensorMap> mbs;
  for (int j = 0; j < count; ++j) {
    TensorMap m;
    m.emplace(x,
              Tensor::uniform(xs, 1.0f, seed + static_cast<std::uint64_t>(j)));
    Tensor labels(Shape{b});
    for (std::int64_t i = 0; i < b; ++i)
      labels.at(i) = static_cast<float>((i + j) % 10);
    m.emplace(y, std::move(labels));
    mbs.push_back(std::move(m));
  }
  return mbs;
}

/// Splits tasks into `S` contiguous chunks (valid stages for a chain MLP).
std::vector<std::vector<TaskId>> chunk_stages(const TaskGraph& g, int S) {
  std::vector<std::vector<TaskId>> stages(static_cast<std::size_t>(S));
  const auto n = static_cast<int>(g.num_tasks());
  for (int t = 0; t < n; ++t)
    stages[static_cast<std::size_t>(std::min(S - 1, t * S / n))].push_back(t);
  return stages;
}

/// Times out delivery attempts below `times` of one (channel, seq).
class OneMessageInjector : public comm::MessageFaultInjector {
 public:
  OneMessageInjector(std::string channel, std::int64_t seq, int times)
      : channel_(std::move(channel)), seq_(seq), times_(times) {}
  bool should_timeout(const std::string& channel, std::int64_t seq,
                      int attempt) const override {
    return channel == channel_ && seq == seq_ && attempt < times_;
  }

 private:
  std::string channel_;
  std::int64_t seq_;
  int times_;
};

// ---- fault-plan JSON -------------------------------------------------------

FaultPlan sample_plan() {
  FaultPlan p;
  FaultEvent fail;
  fail.kind = FaultKind::RankFail;
  fail.rank = 3;
  fail.time = 0.25;
  p.events.push_back(fail);
  FaultEvent degrade;
  degrade.kind = FaultKind::LinkDegrade;
  degrade.link = "nic-out:0";
  degrade.start = 0.1;
  degrade.end = 0.5;
  degrade.factor = 0.25;
  p.events.push_back(degrade);
  FaultEvent outage;
  outage.kind = FaultKind::LinkOutage;
  outage.link = "nic-in:1";
  outage.start = 0.0;
  outage.end = 0.01;
  p.events.push_back(outage);
  FaultEvent timeout;
  timeout.kind = FaultKind::MsgTimeout;
  timeout.channel = "fwd 0->1";
  timeout.seq = 4;
  timeout.times = 2;
  p.events.push_back(timeout);
  return p;
}

TEST(FaultPlanJson, RoundTripIsExact) {
  const FaultPlan p = sample_plan();
  const std::string json = p.to_json();
  const FaultPlan q = FaultPlan::from_json(json);
  ASSERT_EQ(q.events.size(), p.events.size());
  for (std::size_t i = 0; i < p.events.size(); ++i) {
    EXPECT_EQ(q.events[i].kind, p.events[i].kind) << i;
    EXPECT_EQ(q.events[i].rank, p.events[i].rank) << i;
    EXPECT_EQ(q.events[i].link, p.events[i].link) << i;
    EXPECT_EQ(q.events[i].channel, p.events[i].channel) << i;
    EXPECT_EQ(q.events[i].seq, p.events[i].seq) << i;
    EXPECT_EQ(q.events[i].times, p.events[i].times) << i;
  }
  EXPECT_EQ(q.to_json(), json);  // serialization is a fixed point
  // A link outage is a degrade forced to factor 0.
  EXPECT_DOUBLE_EQ(q.events[2].factor, 0.0);
}

TEST(FaultPlanJson, RejectsMalformed) {
  EXPECT_THROW(FaultPlan::from_json("{"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::from_json(
                   R"({"events": [{"kind": "meteor_strike"}]})"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::from_json(
                   R"({"events": [{"kind": "rank_fail", "rank": -1}]})"),
               std::invalid_argument);
  EXPECT_THROW(
      FaultPlan::from_json(
          R"({"events": [{"kind": "link_degrade", "link": "nic-out:0",
                          "start": 0.5, "end": 0.1, "factor": 0.5}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      FaultPlan::from_json(
          R"({"events": [{"kind": "link_degrade", "link": "nic-out:0",
                          "start": 0, "end": 1, "factor": 1.0}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      FaultPlan::from_json(
          R"({"events": [{"kind": "msg_timeout", "channel": "fwd 0->1",
                          "seq": 0, "times": 0}]})"),
      std::invalid_argument);
}

TEST(FaultPlanJson, InjectorAndQueries) {
  const FaultPlan p = sample_plan();
  const auto inj = p.message_faults();
  ASSERT_NE(inj, nullptr);
  EXPECT_TRUE(inj->should_timeout("fwd 0->1", 4, 0));
  EXPECT_TRUE(inj->should_timeout("fwd 0->1", 4, 1));
  EXPECT_FALSE(inj->should_timeout("fwd 0->1", 4, 2));  // times exhausted
  EXPECT_FALSE(inj->should_timeout("fwd 0->1", 5, 0));  // other message
  EXPECT_FALSE(inj->should_timeout("bwd 1->0", 4, 0));  // other channel
}

// ---- fabric fault mechanisms -----------------------------------------------

ClusterSpec two_node_cluster() {
  ClusterSpec c;
  c.num_nodes = 2;
  c.devices_per_node = 1;
  return c;
}

TEST(FabricFaults, DegradeWindowSlowsTransfers) {
  const ClusterSpec c = two_node_cluster();
  comm::Fabric clean(c);
  clean.p2p(0, 1, 100 << 20);
  const double base = clean.max_clock();
  ASSERT_GT(base, 0);

  comm::Fabric faulty(c);
  FaultPlan p;
  FaultEvent e;
  e.kind = FaultKind::LinkDegrade;
  e.link = "nic-out:0";
  e.start = 0;
  e.end = base * 10;
  e.factor = 0.5;
  p.events.push_back(e);
  p.apply_to(faulty);
  faulty.p2p(0, 1, 100 << 20);
  EXPECT_GT(faulty.max_clock(), base * 1.5);
}

TEST(FabricFaults, OutageWindowStallsUntilItEnds) {
  const ClusterSpec c = two_node_cluster();
  comm::Fabric clean(c);
  clean.p2p(0, 1, 1 << 10);
  ASSERT_LT(clean.max_clock(), 0.01);  // tiny transfer, far below the window

  comm::Fabric faulty(c);
  FaultPlan p;
  FaultEvent e;
  e.kind = FaultKind::LinkOutage;
  e.link = "nic-out:0";
  e.start = 0;
  e.end = 0.02;
  p.events.push_back(e);
  p.apply_to(faulty);
  faulty.p2p(0, 1, 1 << 10);
  EXPECT_GE(faulty.max_clock(), 0.02);
}

TEST(FabricFaults, RankFailStopThrowsOnNextTransfer) {
  comm::Fabric fabric(two_node_cluster());
  FaultPlan p;
  FaultEvent e;
  e.kind = FaultKind::RankFail;
  e.rank = 1;
  e.time = 0;
  p.events.push_back(e);
  p.apply_to(fabric);
  try {
    fabric.p2p(0, 1, 1 << 20);
    FAIL() << "expected DeviceFailure";
  } catch (const comm::DeviceFailure& f) {
    EXPECT_EQ(f.rank(), 1);
    EXPECT_GE(f.time(), 0);
  }
}

TEST(FabricFaults, UnknownLinkNameIsRejected) {
  comm::Fabric fabric(two_node_cluster());
  FaultPlan p;
  FaultEvent e;
  e.kind = FaultKind::LinkOutage;
  e.link = "warp-core:0";
  e.start = 0;
  e.end = 1;
  p.events.push_back(e);
  EXPECT_THROW(p.apply_to(fabric), std::invalid_argument);
}

// ---- cluster shrinking -----------------------------------------------------

TEST(ShrinkCluster, FullNodeLossDropsTheNode) {
  ClusterSpec c;
  c.num_nodes = 2;
  c.devices_per_node = 4;
  const ClusterSpec s = resilience::shrink_cluster(c, {4, 5, 6, 7});
  EXPECT_EQ(s.num_nodes, 1);
  EXPECT_EQ(s.devices_per_node, 4);
}

TEST(ShrinkCluster, PartialLossPicksLargestUniformSubCluster) {
  ClusterSpec c;
  c.num_nodes = 2;
  c.devices_per_node = 4;
  // Node 1 keeps 3 devices: 2 nodes x 3 (6 devices) beats 1 node x 4.
  const ClusterSpec s = resilience::shrink_cluster(c, {5});
  EXPECT_EQ(s.num_nodes, 2);
  EXPECT_EQ(s.devices_per_node, 3);
}

TEST(ShrinkCluster, TieBreaksTowardLargerPerNodeCount) {
  ClusterSpec c;
  c.num_nodes = 2;
  c.devices_per_node = 4;
  // Survivors: node 0 has 2, node 1 has 4. 2x2 and 1x4 both keep 4
  // devices; prefer the deeper node (intra-node bandwidth).
  const ClusterSpec s = resilience::shrink_cluster(c, {2, 3});
  EXPECT_EQ(s.num_nodes, 1);
  EXPECT_EQ(s.devices_per_node, 4);
}

TEST(ShrinkCluster, RejectsTotalLossAndBadRanks) {
  ClusterSpec c;
  c.num_nodes = 1;
  c.devices_per_node = 2;
  EXPECT_THROW(resilience::shrink_cluster(c, {0, 1}), std::invalid_argument);
  EXPECT_THROW(resilience::shrink_cluster(c, {2}), std::invalid_argument);
  EXPECT_THROW(resilience::shrink_cluster(c, {-1}), std::invalid_argument);
}

// ---- recovery coordinator --------------------------------------------------

TEST(RecoveryCoordinator, RecoversFromDeviceLossLikeAColdSearch) {
  const BuiltModel m = build_mlp(test_mlp());
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.cluster.num_nodes = 1;
  cfg.cluster.devices_per_node = 4;
  resilience::RecoveryCoordinator coord(m.graph, cfg);
  const PartitionResult& before = coord.partition();
  ASSERT_TRUE(before.feasible);

  const auto oc = coord.recover({3});
  ASSERT_TRUE(oc.ok) << oc.reason;
  EXPECT_EQ(oc.cluster.num_nodes, 1);
  EXPECT_EQ(oc.cluster.devices_per_node, 3);
  ASSERT_TRUE(oc.plan.feasible);
  // The recovered plan is exactly what a cold search on the surviving
  // cluster returns.
  SearchRequest cold = cfg;
  cold.cluster = oc.cluster;
  EXPECT_EQ(plan_to_json(oc.plan),
            plan_to_json(auto_partition(m.graph, cold).plan));

  // Migration bookkeeping: every parameter is either moved or unchanged,
  // moves are strictly ascending by ValueId, and bytes add up.
  ASSERT_NE(oc.plan.graph, nullptr);
  std::int64_t params = 0;
  for (const Value& v : oc.plan.graph->values())
    if (v.kind == ValueKind::Param) ++params;
  EXPECT_EQ(static_cast<std::int64_t>(oc.migration.moves.size()) +
                oc.migration.unchanged,
            params);
  std::int64_t bytes = 0;
  for (std::size_t i = 0; i < oc.migration.moves.size(); ++i) {
    bytes += oc.migration.moves[i].bytes;
    if (i > 0) {
      EXPECT_LT(oc.migration.moves[i - 1].value, oc.migration.moves[i].value);
    }
  }
  EXPECT_EQ(bytes, oc.migration.total_bytes);

  // The coordinator's active state advanced, so failures chain.
  EXPECT_EQ(coord.request().cluster.devices_per_node, 3);
  EXPECT_EQ(coord.plan().stages.size(), oc.plan.stages.size());
}

TEST(RecoveryCoordinator, RecoverBeforePartitionIsAnError) {
  const BuiltModel m = build_mlp(test_mlp());
  SearchRequest cfg;
  cfg.batch_size = 64;
  resilience::RecoveryCoordinator coord(m.graph, cfg);
  EXPECT_THROW(coord.recover({0}), std::logic_error);
}

// ---- SearchRequest::validate ------------------------------------------------
// (BadCellBudget: SearchPrune.ValidateRejectsBadShardAndCellBudget)

TEST(PartitionConfigValidate, CleanConfigHasNoDiagnostics) {
  EXPECT_TRUE(SearchRequest{}.validate().empty());
}

TEST(PartitionConfigValidate, BadBatchSize) {
  SearchRequest req;
  req.batch_size = 0;
  const auto ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::BadBatchSize);
  EXPECT_EQ(ds[0].severity, Severity::Error);
}

TEST(PartitionConfigValidate, BadMemoryMargin) {
  SearchRequest req;
  req.memory_margin = 0.0;
  auto ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::BadMemoryMargin);
  req.memory_margin = 1.5;
  ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::BadMemoryMargin);
}

TEST(PartitionConfigValidate, BadThreadCount) {
  // Above the cap too: the pool starts every worker eagerly, so an
  // unbounded count from a flag or a wire request must be refused here.
  for (const int threads : {-1, kMaxThreads + 1,
                            std::numeric_limits<int>::max()}) {
    SearchRequest req;
    req.budget.threads = threads;
    const auto ds = req.validate();
    ASSERT_EQ(ds.size(), 1u) << threads;
    EXPECT_EQ(ds[0].code, DiagCode::BadThreadCount) << threads;
  }
  SearchRequest at_cap;
  at_cap.budget.threads = kMaxThreads;
  EXPECT_TRUE(at_cap.validate().empty());
}

TEST(PartitionConfigValidate, BadBlockCount) {
  SearchRequest req;
  req.num_blocks = 0;
  const auto ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::BadBlockCount);
}

TEST(PartitionConfigValidate, EmptyCluster) {
  SearchRequest req;
  req.cluster.num_nodes = 0;
  const auto ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::EmptyCluster);
}

TEST(PartitionConfigValidate, GatesAutoPartition) {
  const BuiltModel m = build_mlp(test_mlp());
  SearchRequest req;
  req.batch_size = -4;
  EXPECT_THROW(auto_partition(m.graph, req), std::invalid_argument);
}

// ---- virtual-time fault simulator ------------------------------------------

TEST(FaultSim, MessageTimeoutsAreAbsorbedAndAccounted) {
  BertConfig bc;
  bc.layers = 4;
  bc.hidden = 128;
  const BuiltModel m = build_bert(bc);
  SearchRequest cfg;
  cfg.budget.threads = 1;

  FaultPlan faults;
  FaultEvent e;
  e.kind = FaultKind::MsgTimeout;
  e.channel = "fwd 0->1";
  e.seq = 0;
  e.times = 2;  // below max_attempts: absorbed by retry, no rollback
  faults.events.push_back(e);

  resilience::SimOptions so;
  so.steps = 2;
  so.retry.max_attempts = 3;
  so.retry.backoff_base_s = 1e-3;
  so.retry.backoff_factor = 2.0;
  const auto res = resilience::simulate_with_faults(m.graph, cfg, faults, so);
  ASSERT_FALSE(res.aborted);
  ASSERT_GE(res.initial_plan.stages.size(), 2u)
      << "fault channel 'fwd 0->1' needs a multi-stage plan";
  ASSERT_EQ(res.steps.size(), 2u);
  EXPECT_EQ(res.steps[0].retries, 2);
  EXPECT_EQ(res.steps[0].rollbacks, 0);
  EXPECT_DOUBLE_EQ(res.steps[0].backoff_seconds, 1e-3 + 2e-3);
  EXPECT_EQ(res.steps[1].retries, 0);
  // Step 0 pays for its backoff.
  EXPECT_GT(res.steps[0].end - res.steps[0].start,
            res.steps[1].end - res.steps[1].start);
}

TEST(FaultSim, RollbackWhenTimeoutsExhaustRetryBudget) {
  BertConfig bc;
  bc.layers = 4;
  bc.hidden = 128;
  const BuiltModel m = build_bert(bc);
  SearchRequest cfg;
  cfg.budget.threads = 1;

  FaultPlan faults;
  FaultEvent e;
  e.kind = FaultKind::MsgTimeout;
  e.channel = "fwd 0->1";
  e.seq = 0;
  e.times = 5;  // one exhausted run of 3 + a successful run absorbing 2
  faults.events.push_back(e);

  resilience::SimOptions so;
  so.steps = 1;
  so.retry.max_attempts = 3;
  const auto res = resilience::simulate_with_faults(m.graph, cfg, faults, so);
  ASSERT_FALSE(res.aborted);
  ASSERT_EQ(res.steps.size(), 1u);
  EXPECT_EQ(res.steps[0].retries, 5);
  EXPECT_EQ(res.steps[0].rollbacks, 1);
  EXPECT_TRUE(res.steps[0].completed);
}

SearchRequest failover_request(int threads) {
  SearchRequest cfg;
  cfg.batch_size = 64;
  cfg.budget.threads = threads;
  return cfg;
}

resilience::SimResult run_failover_sim(int threads, std::string* schedule,
                                       std::string* fabric,
                                       std::string* plan_json) {
  const BuiltModel m = build_mlp(test_mlp());
  const SearchRequest cfg = failover_request(threads);

  FaultPlan faults;
  FaultEvent e;
  e.kind = FaultKind::RankFail;
  e.rank = 0;
  e.time = 0;  // fails on the first transfer it touches
  faults.events.push_back(e);

  obs::TraceRecorder rec;
  obs::set_recorder(&rec);
  resilience::SimOptions so;
  so.steps = 3;
  auto res = resilience::simulate_with_faults(m.graph, cfg, faults, so);
  obs::set_recorder(nullptr);
  *schedule = rec.events_json(obs::Domain::SimSchedule);
  *fabric = rec.events_json(obs::Domain::SimFabric);
  *plan_json = plan_to_json(res.final_plan);
  return res;
}

TEST(FaultSim, RecoveryIsBitIdenticalAcrossThreadCounts) {
  std::string sched1, fab1, plan1, sched4, fab4, plan4;
  const auto r1 = run_failover_sim(1, &sched1, &fab1, &plan1);
  const auto r4 = run_failover_sim(4, &sched4, &fab4, &plan4);

  ASSERT_TRUE(r1.recovered);
  ASSERT_FALSE(r1.aborted);
  EXPECT_TRUE(r1.final_plan.feasible);
  // The recovered plan is a cold search's plan on the surviving cluster
  // (rank 0 failed).
  SearchRequest cold = failover_request(1);
  cold.cluster = resilience::shrink_cluster(cold.cluster, {0});
  EXPECT_EQ(plan1,
            plan_to_json(auto_partition(build_mlp(test_mlp()).graph, cold).plan));
  // Every completed step after the failure, plus the interrupted one.
  EXPECT_GE(r1.steps.size(), 3u);

  // Same fault plan => bit-identical recovered plan, virtual timings, and
  // sim-domain trace streams, regardless of search thread count.
  EXPECT_EQ(plan1, plan4);
  EXPECT_EQ(sched1, sched4);
  EXPECT_EQ(fab1, fab4);
  EXPECT_DOUBLE_EQ(r1.virtual_seconds, r4.virtual_seconds);
}

// ---- hardened pipeline runtime ---------------------------------------------

PipelineOptions adam_options(std::uint64_t seed) {
  PipelineOptions o;
  o.opt.kind = OptimizerConfig::Kind::Adam;
  o.opt.lr = 0.01f;
  o.seed = seed;
  return o;
}

TEST(PipelineResilience, RetriesAbsorbInjectedTimeouts) {
  const BuiltModel m = build_mlp(test_mlp());
  const auto mbs = make_microbatches(m.graph, 2, 42);

  PipelineOptions plain = adam_options(7);
  PipelineTrainer baseline(m.graph, chunk_stages(m.graph, 2), plain);

  PipelineOptions faulty = adam_options(7);
  faulty.retry = RetryPolicy{3, 1e-3, 2.0, 0};
  faulty.fault_injector =
      std::make_shared<OneMessageInjector>("fwd 0->1", 0, 2);
  PipelineTrainer pipeline(m.graph, chunk_stages(m.graph, 2), faulty);

  // Two timeouts fit the 3-attempt budget: the step succeeds and the
  // numbers are untouched — retries only show up in the report.
  EXPECT_FLOAT_EQ(pipeline.step(mbs), baseline.step(mbs));
  EXPECT_EQ(pipeline.stage_report(1).retries, 2);
  EXPECT_DOUBLE_EQ(pipeline.stage_report(1).backoff_seconds, 1e-3 + 2e-3);
  EXPECT_EQ(pipeline.stage_report(0).retries, 0);
}

TEST(PipelineResilience, RollbackRestoresPreStepStateExactly) {
  const BuiltModel m = build_mlp(test_mlp());
  const auto mbs = make_microbatches(m.graph, 2, 42);

  PipelineOptions faulty = adam_options(7);
  faulty.retry = RetryPolicy{3, 1e-3, 2.0, 0};
  // Exactly max_attempts timeouts: the first step() exhausts its budget
  // and fails; the attempt counter survives the rollback, so the retried
  // step delivers.
  faulty.fault_injector =
      std::make_shared<OneMessageInjector>("fwd 0->1", 0, 3);
  PipelineTrainer pipeline(m.graph, chunk_stages(m.graph, 2), faulty);

  TensorMap before;
  for (const auto& [v, t] : pipeline.gather_params())
    before.emplace(v, t.clone());

  EXPECT_THROW(pipeline.step(mbs), StageTimeoutError);

  // Bit-exact rollback of parameters and optimizer progress.
  const TensorMap after = pipeline.gather_params();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [v, t] : after)
    EXPECT_FLOAT_EQ(max_abs_diff(t, before.at(v)), 0.0f)
        << m.graph.value(v).name;
  EXPECT_EQ(pipeline.opt_step_count(), 0);

  // The retried step runs clean and matches an uninjected trainer.
  PipelineTrainer baseline(m.graph, chunk_stages(m.graph, 2),
                           adam_options(7));
  EXPECT_FLOAT_EQ(pipeline.step(mbs), baseline.step(mbs));
  EXPECT_EQ(pipeline.opt_step_count(), 1);
}

TEST(PipelineResilience, StepDeadlineAbortsAndRollsBack) {
  const BuiltModel m = build_mlp(test_mlp());
  const auto mbs = make_microbatches(m.graph, 2, 42);

  auto stall = std::make_shared<std::atomic<bool>>(true);
  PipelineOptions opts = adam_options(7);
  opts.step_deadline_s = 0.1;
  opts.stage_hook = [stall](int stage, int) {
    if (stage == 1 && stall->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
  };
  PipelineTrainer pipeline(m.graph, chunk_stages(m.graph, 2), opts);

  EXPECT_THROW(pipeline.step(mbs), StepDeadlineError);
  EXPECT_EQ(pipeline.opt_step_count(), 0);  // rolled back

  // With the stall lifted the same trainer recovers on the next step.
  stall->store(false);
  PipelineTrainer baseline(m.graph, chunk_stages(m.graph, 2),
                           adam_options(7));
  EXPECT_FLOAT_EQ(pipeline.step(mbs), baseline.step(mbs));
  EXPECT_EQ(pipeline.opt_step_count(), 1);
}

TEST(PipelineResilience, ElasticHandoffPreservesTraining) {
  const BuiltModel m = build_mlp(test_mlp());
  PipelineOptions opts = adam_options(11);
  PipelineTrainer a(m.graph, chunk_stages(m.graph, 3), opts);

  for (int s = 0; s < 3; ++s)
    a.step(make_microbatches(m.graph, 2, 100 + 17 * static_cast<std::uint64_t>(s)));

  // Hand the training state to a successor with a different stage layout —
  // the elastic-recovery path after device loss.
  auto params = std::make_shared<TensorMap>(a.gather_params());
  auto opt_state = std::make_shared<OptStateMap>(a.gather_opt_state());
  PipelineOptions resumed = adam_options(999);  // seed must not matter
  resumed.initial_params = params;
  resumed.initial_opt_state = opt_state;
  resumed.initial_opt_step = a.opt_step_count();
  PipelineTrainer b(m.graph, chunk_stages(m.graph, 2), resumed);
  EXPECT_EQ(b.opt_step_count(), 3);

  // Both continue identically (up to float noise from the re-bucketed
  // gradient accumulation, same bound as the equivalence suite).
  for (int s = 3; s < 8; ++s) {
    const auto mbs =
        make_microbatches(m.graph, 2, 100 + 17 * static_cast<std::uint64_t>(s));
    EXPECT_NEAR(a.step(mbs), b.step(mbs), 1e-5f) << "step " << s;
  }
  const TensorMap pa = a.gather_params();
  for (const auto& [v, t] : b.gather_params())
    EXPECT_LE(max_abs_diff(t, pa.at(v)), 1e-4f) << m.graph.value(v).name;
}

}  // namespace
}  // namespace rannc
