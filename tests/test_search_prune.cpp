// Tests for the branch-and-bound partition search: the pruned engine must
// return plans bit-identical to the exhaustive sweep at every thread count,
// and the stage-DP bound hooks must be provably admissibility-sensitive (an
// inadmissible bound visibly loses the optimum — the negative control that
// keeps the identity tests honest).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "models/bert.h"
#include "models/mlp.h"
#include "models/moe.h"
#include "partition/auto_partitioner.h"
#include "partition/plan_io.h"
#include "partition/search.h"
#include "partition/stage_dp.h"
#include "pipeline/schedule.h"
#include "serve/fingerprint.h"
#include "serve/model_zoo.h"
#include "serve/plan_store.h"

namespace rannc {
namespace {

// ---- the small-geometry model zoo ----------------------------------------

BertConfig tiny_bert() {
  BertConfig c;
  c.hidden = 128;
  c.layers = 4;
  c.seq_len = 32;
  c.vocab = 256;
  return c;
}

MlpConfig deep_mlp() {
  MlpConfig c;
  c.input_dim = 64;
  c.hidden_dims = {128, 128, 128, 128};
  c.num_classes = 16;
  return c;
}

MoeConfig tiny_moe() {
  MoeConfig c;
  c.hidden = 64;
  c.layers = 2;
  c.seq_len = 16;
  c.vocab = 128;
  c.experts = 4;
  c.ffn_mult = 2;
  return c;
}

struct ZooModel {
  const char* name;
  BuiltModel built;
};

std::vector<ZooModel> zoo() {
  std::vector<ZooModel> z;
  z.push_back({"bert", build_bert(tiny_bert())});
  z.push_back({"mlp", build_mlp(deep_mlp())});
  z.push_back({"moe", build_moe(tiny_moe())});
  return z;
}

SearchRequest base_request(std::int64_t batch = 64) {
  SearchRequest req;
  req.cluster.num_nodes = 2;
  req.cluster.devices_per_node = 2;
  req.batch_size = batch;
  req.budget.threads = 1;
  return req;
}

SearchRequest exhaustive(const SearchRequest& req) {
  SearchRequest e = req;
  e.prune = false;
  return e;
}

// ---- plan identity: exhaustive vs pruned ---------------------------------

TEST(SearchPrune, PlanIdentityMatrixAcrossThreadsAndShards) {
  for (const ZooModel& m : zoo()) {
    const SearchRequest base = base_request();
    const PartitionResult ex = auto_partition(m.built.graph, exhaustive(base)).plan;
    ASSERT_TRUE(ex.feasible) << m.name << ": " << ex.infeasible_reason;
    const std::string want = plan_to_json(ex);

    for (int threads : {1, 4}) {
      SearchRequest req = base;
      req.budget.threads = threads;
      const SearchResult sr = auto_partition(m.built.graph, req);
      ASSERT_TRUE(sr.feasible()) << m.name << " threads=" << threads;
      EXPECT_EQ(plan_to_json(sr.plan), want)
          << m.name << " threads=" << threads;
      EXPECT_EQ(sr.stats().threads_used, threads);
    }
  }
}

TEST(SearchPrune, PrunedSearchVisitsNoMoreCellsAndActuallyCuts) {
  const BuiltModel m = build_bert(tiny_bert());
  const SearchRequest base = base_request();

  const SearchResult ex = auto_partition(m.graph, exhaustive(base));
  SearchRequest pr = base;  // defaults: prune on, threads 1
  const SearchResult bb = auto_partition(m.graph, pr);

  ASSERT_TRUE(ex.feasible());
  ASSERT_TRUE(bb.feasible());
  EXPECT_EQ(plan_to_json(bb.plan), plan_to_json(ex.plan));
  // Cuts only ever remove work from the sweep.
  EXPECT_LE(bb.stats().dp_cells_visited, ex.stats().dp_cells_visited);
  // The exhaustive engine reports no prune activity at all.
  EXPECT_EQ(ex.prune().jobs_pruned, 0);
  EXPECT_EQ(ex.prune().ranges_pruned(), 0);
  EXPECT_EQ(ex.prune().columns_pruned, 0);
  EXPECT_EQ(ex.prune().paths_pruned, 0);
  EXPECT_EQ(ex.prune().incumbent_updates, 0);
  // The pruned engine demonstrably did cut something on this geometry.
  const PruneStats& ps = bb.prune();
  EXPECT_GT(ps.jobs_pruned + ps.jobs_dominated + ps.ranges_pruned() +
                ps.columns_pruned + ps.paths_pruned,
            0);
  EXPECT_GT(ps.incumbent_updates, 0);
}

TEST(SearchPrune, WinnerCandidateIsNeverPrunedAndKeepsItsEstimate) {
  const BuiltModel m = build_bert(tiny_bert());
  const SearchRequest base = base_request();
  const SearchResult ex = auto_partition(m.graph, exhaustive(base));
  const SearchResult bb = auto_partition(m.graph, base);
  ASSERT_TRUE(ex.feasible());
  ASSERT_TRUE(bb.feasible());

  EXPECT_DOUBLE_EQ(bb.plan.est_iteration_time, ex.plan.est_iteration_time);

  const auto winner = [&](const SearchResult& r) -> const CandidateTrace* {
    for (const CandidateTrace& c : r.stats().candidates)
      if (c.nodes == r.plan.nodes_used &&
          c.stages == static_cast<int>(r.plan.stages.size()) &&
          c.microbatches == r.plan.microbatches)
        return &c;
    return nullptr;
  };
  const CandidateTrace* wex = winner(ex);
  const CandidateTrace* wbb = winner(bb);
  ASSERT_NE(wex, nullptr);
  ASSERT_NE(wbb, nullptr);
  EXPECT_FALSE(wbb->pruned);
  EXPECT_TRUE(wbb->feasible);
  // The winner's estimate survives pruning bit-exactly.
  EXPECT_DOUBLE_EQ(wbb->est_iteration, wex->est_iteration);
  // Every pruned trace carries no estimate (it never finished its DP)...
  for (const CandidateTrace& c : bb.stats().candidates) {
    if (c.pruned) {
      EXPECT_FALSE(c.feasible);
    }
  }
  // ...and the exhaustive engine marks nothing pruned.
  for (const CandidateTrace& c : ex.stats().candidates)
    EXPECT_FALSE(c.pruned);
}

// ---- memory floor x clipped microbatches ----------------------------------

/// Regression: a memory-pruned range must still mark its microbatch-clipped
/// candidates (bsize_clipped), or d_min advances where the exhaustive DP's
/// does not and the optimum is lost for every later column and layer. The
/// GPT-2 / BERT-h2048 geometries lost it by 1-11 % (and BERT @ 2x8 returned
/// three different plans across engine configurations) before that fix.
/// The matrix is the perfbench search-zoo (its models at its batches),
/// where the GPipe-makespan, all-reduce and remaining-load floors fire
/// hardest.
TEST(SearchPrune, MemoryFloorKeepsTheOptimumOnLargeModels) {
  const auto named = [](const char* model) {
    serve::ModelSpec s;
    s.model = model;
    return s;
  };
  serve::ModelSpec r50 = named("resnet"), r152 = named("resnet");
  r50.depth = 50;
  r152.depth = 152;
  serve::ModelSpec gpt2 = named("gpt2"), bert_xl = named("bert");
  gpt2.hidden = 1600;
  gpt2.layers = 48;
  bert_xl.hidden = 2048;
  bert_xl.layers = 64;
  const std::pair<serve::ModelSpec, std::int64_t> cases[] = {
      {r50, 1024},          {r152, 256}, {named("t5"), 256},
      {named("bert"), 256}, {gpt2, 64},  {bert_xl, 256}};
  for (const auto& [spec, batch] : cases) {
    const BuiltModel m = serve::build_model(spec);
    for (int nodes : {4, 2}) {
      SearchRequest base;
      base.cluster.num_nodes = nodes;
      base.cluster.devices_per_node = 8;
      base.batch_size = batch;
      base.budget.threads = 1;
      const SearchResult ex = auto_partition(m.graph, exhaustive(base));
      ASSERT_TRUE(ex.feasible()) << ex.plan.infeasible_reason;
      const std::string want = plan_to_json(ex.plan);
      const std::string where = serve::canonical_sig(spec) + " " +
                                std::to_string(nodes) + "x8";
      for (int threads : {1, 4}) {
        SearchRequest req = base;
        req.budget.threads = threads;
        const SearchResult pr = auto_partition(m.graph, req);
        EXPECT_EQ(plan_to_json(pr.plan), want)
            << where << " threads=" << threads;
        EXPECT_LE(pr.stats().dp_cells_visited, ex.stats().dp_cells_visited)
            << where << " threads=" << threads;
      }
    }
  }
}

// ---- budget interplay ----------------------------------------------------

TEST(SearchPrune, PrunedSearchFinishesInsideTheExhaustiveCellDemand) {
  const BuiltModel m = build_bert(tiny_bert());
  const SearchRequest base = base_request();
  const SearchResult ex = auto_partition(m.graph, exhaustive(base));
  ASSERT_TRUE(ex.feasible());

  // A budget equal to the exhaustive demand can never abort the pruned
  // engine (cuts only shrink the visit count), and the plan is unchanged.
  SearchRequest capped = base;
  capped.budget.max_dp_cells = ex.stats().dp_cells_visited;
  const SearchResult bb = auto_partition(m.graph, capped);
  ASSERT_TRUE(bb.feasible()) << bb.plan.infeasible_reason;
  EXPECT_EQ(plan_to_json(bb.plan), plan_to_json(ex.plan));
}

// ---- request validation ---------------------------------------------------

TEST(SearchPrune, ValidateRejectsBadShardAndCellBudget) {
  SearchRequest req = base_request();
  req.budget.max_dp_cells = -1;
  const std::vector<Diagnostic> diags = req.validate();
  bool cells = false;
  for (const Diagnostic& d : diags)
    if (d.code == DiagCode::BadCellBudget) cells = true;
  EXPECT_TRUE(cells);
  const BuiltModel m = build_mlp(deep_mlp());
  EXPECT_THROW(auto_partition(m.graph, req), std::invalid_argument);
}

TEST(SearchRequestValidate, CleanConfigHasNoDiagnostics) {
  EXPECT_TRUE(SearchRequest{}.validate().empty());
}

TEST(SearchRequestValidate, BadBatchSize) {
  SearchRequest req;
  req.batch_size = 0;
  const auto ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::BadBatchSize);
  EXPECT_EQ(ds[0].severity, Severity::Error);
}

TEST(SearchRequestValidate, BadMemoryMargin) {
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

TEST(SearchRequestValidate, BadThreadCount) {
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

TEST(SearchRequestValidate, BadBlockCount) {
  SearchRequest req;
  req.num_blocks = 0;
  const auto ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::BadBlockCount);
}

TEST(SearchRequestValidate, EmptyCluster) {
  SearchRequest req;
  req.cluster.num_nodes = 0;
  const auto ds = req.validate();
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].code, DiagCode::EmptyCluster);
}

TEST(SearchRequestValidate, GatesAutoPartition) {
  const BuiltModel m = build_mlp(deep_mlp());
  SearchRequest req;
  req.batch_size = -4;
  EXPECT_THROW(auto_partition(m.graph, req), std::invalid_argument);
}

// ---- stage-DP bound hooks: admissibility sensitivity ----------------------

/// Synthetic ramp workload for direct form_stage_dp probing.
struct SyntheticUnits {
  std::vector<double> w;
  std::vector<double> mem;

  [[nodiscard]] RangeProfileFn fn() const {
    return [this](int lo, int hi, std::int64_t bsize, int, int) {
      StageProfile p;
      double tw = 0, tm = 0;
      for (int i = lo; i < hi; ++i) {
        tw += w[static_cast<std::size_t>(i)];
        tm += mem[static_cast<std::size_t>(i)];
      }
      p.t_f = tw * static_cast<double>(bsize);
      p.t_b = 2 * p.t_f;
      p.mem = static_cast<std::int64_t>(tm * static_cast<double>(bsize));
      return p;
    };
  }
};

SyntheticUnits ramp_units(int n) {
  SyntheticUnits u;
  for (int i = 0; i < n; ++i) {
    u.w.push_back(1.0 + 0.1 * i);
    u.mem.push_back(8.0);
  }
  return u;
}

StageDpInput dp_input(const SyntheticUnits& u, int S, int D) {
  StageDpInput in;
  in.num_units = static_cast<int>(u.w.size());
  in.num_stages = S;
  in.num_devices = D;
  in.batch_size = 256;
  in.replica_factor = 1;
  in.microbatches = 4;
  in.device_memory = 1 << 30;
  in.profile = u.fn();
  return in;
}

/// The exact admissible range bound for the synthetic profile: its value at
/// the smallest reachable per-replica microbatch (most devices assigned).
RangeBoundFn admissible_bound(const SyntheticUnits& u,
                              const StageDpInput& in) {
  const RangeProfileFn profile = u.fn();
  const std::int64_t bs = in.batch_size;
  const int R = in.replica_factor, MB = in.microbatches, D = in.num_devices;
  const int S = in.num_stages;
  return [profile, bs, R, MB, D, S](int lo, int hi) {
    std::int64_t bsize = bs / R / MB / (D - S + 1);
    if (bsize < 1) bsize = 1;
    const StageProfile p = profile(lo, hi, bsize, MB, S);
    StageBound b;
    b.time = p.t_f + p.t_b;
    b.mem = p.mem;
    return b;
  };
}

TEST(StageDpBounds, AdmissibleBoundKeepsTheOptimum) {
  const SyntheticUnits u = ramp_units(16);
  StageDpInput in = dp_input(u, 3, 6);
  const StageDpSolution plain = form_stage_dp(in);
  ASSERT_TRUE(plain.feasible);

  // Arm every hook with a finished incumbent exactly at the optimum: all
  // cuts are strict, so even the tightest admissible setup keeps the
  // winning solution bit-identical.
  StageDpInput armed = in;
  armed.bound = admissible_bound(u, in);
  armed.prune = true;
  std::vector<double> suffix(static_cast<std::size_t>(in.num_units) + 1, 0.0);
  const RangeProfileFn profile = u.fn();
  for (int b = in.num_units - 1; b >= 0; --b) {
    const StageProfile p = profile(b, b + 1, 1, in.microbatches, in.num_stages);
    suffix[static_cast<std::size_t>(b)] =
        std::max(suffix[static_cast<std::size_t>(b) + 1], p.t_f + p.t_b);
  }
  armed.suffix_bound = suffix.data();
  armed.job_bound = suffix[0];
  armed.est_scale = static_cast<double>(in.microbatches);
  const std::atomic<std::uint64_t> incumbent{
      std::bit_cast<std::uint64_t>(armed.est_scale * plain.value())};
  armed.incumbent = &incumbent;

  const StageDpSolution pruned = form_stage_dp(armed);
  ASSERT_TRUE(pruned.feasible);
  EXPECT_FALSE(pruned.dominated);
  EXPECT_EQ(pruned.stage_end, plain.stage_end);
  EXPECT_EQ(pruned.stage_devices, plain.stage_devices);
  EXPECT_DOUBLE_EQ(pruned.max_tf, plain.max_tf);
  EXPECT_DOUBLE_EQ(pruned.max_tb, plain.max_tb);
  EXPECT_LE(pruned.dp_cells_visited, plain.dp_cells_visited);
}

TEST(StageDpBounds, InadmissibleTimeBoundLosesTheOptimum) {
  // Negative control: inflate the range bound 10x (an OVERestimate, hence
  // inadmissible) and hand the DP the true optimum as incumbent. The cuts
  // now fire on winner ranges, so the returned solution is strictly worse
  // or gone — proof that the identity tests above genuinely depend on
  // admissibility rather than on the hooks being ignored.
  const SyntheticUnits u = ramp_units(16);
  StageDpInput in = dp_input(u, 3, 6);
  const StageDpSolution plain = form_stage_dp(in);
  ASSERT_TRUE(plain.feasible);

  StageDpInput bad = in;
  const RangeBoundFn good = admissible_bound(u, in);
  bad.bound = [good](int lo, int hi) {
    StageBound b = good(lo, hi);
    b.time *= 10.0;
    return b;
  };
  bad.est_scale = static_cast<double>(in.microbatches);
  const std::atomic<std::uint64_t> incumbent{
      std::bit_cast<std::uint64_t>(bad.est_scale * plain.value())};
  bad.incumbent = &incumbent;

  const StageDpSolution wrong = form_stage_dp(bad);
  EXPECT_GT(wrong.ranges_bound_pruned, 0);
  const bool lost_optimum =
      !wrong.feasible || wrong.value() > plain.value() ||
      wrong.stage_end != plain.stage_end;
  EXPECT_TRUE(lost_optimum);
}

TEST(StageDpBounds, InadmissibleMemoryFloorLosesFeasibility) {
  // Same control for the memory floor: an inflated floor marks every range
  // infeasible and the DP finds nothing, while the admissible floor keeps
  // the exact solution (checked in AdmissibleBoundKeepsTheOptimum).
  const SyntheticUnits u = ramp_units(12);
  StageDpInput in = dp_input(u, 3, 6);
  ASSERT_TRUE(form_stage_dp(in).feasible);

  StageDpInput bad = in;
  bad.prune = true;
  bad.bound = [&](int, int) {
    StageBound b;
    b.time = 0;
    b.mem = std::numeric_limits<std::int64_t>::max();
    return b;
  };
  const StageDpSolution wrong = form_stage_dp(bad);
  EXPECT_FALSE(wrong.feasible);
  EXPECT_GT(wrong.ranges_mem_pruned, 0);
}

/// The stage times `sol` selects, profiled as the DP profiled them.
std::vector<StageTimes> synthetic_stages(const SyntheticUnits& u,
                                         const StageDpInput& in,
                                         const StageDpSolution& sol) {
  std::vector<StageTimes> st;
  int lo = 0;
  for (std::size_t i = 0; i < sol.stage_end.size(); ++i) {
    const std::int64_t bsize = in.batch_size / in.replica_factor /
                               in.microbatches / sol.stage_devices[i];
    const StageProfile p = u.fn()(lo, sol.stage_end[i], bsize,
                                  in.microbatches, in.num_stages);
    st.push_back({p.t_f, p.t_b});
    lo = sol.stage_end[i];
  }
  return st;
}

/// The GPipe makespan of `sol`: the concrete estimate the floors of every
/// cell on its path must stay under.
double synthetic_makespan(const SyntheticUnits& u, const StageDpInput& in,
                          const StageDpSolution& sol) {
  return simulate_gpipe(synthetic_stages(u, in, sol), in.microbatches)
      .iteration_time;
}

/// Arms every incumbent hook with the admissible floors of the synthetic
/// profile (per-unit t_f + t_b at the smallest reachable microbatch):
/// range bound, suffix bound, remaining load and total load.
struct ArmedFloors {
  std::vector<double> suffix, rem;

  StageDpInput arm(const SyntheticUnits& u, const StageDpInput& in) {
    StageDpInput armed = in;
    armed.bound = admissible_bound(u, in);
    armed.prune = true;
    const std::int64_t bsize_min = std::max<std::int64_t>(
        1, in.batch_size / in.replica_factor / in.microbatches /
               (in.num_devices - in.num_stages + 1));
    const std::size_t n = static_cast<std::size_t>(in.num_units);
    suffix.assign(n + 1, 0.0);
    rem.assign(n + 1, 0.0);
    const RangeProfileFn profile = u.fn();
    for (int b = in.num_units - 1; b >= 0; --b) {
      const StageProfile p =
          profile(b, b + 1, bsize_min, in.microbatches, in.num_stages);
      const std::size_t k = static_cast<std::size_t>(b);
      suffix[k] = std::max(suffix[k + 1], p.t_f + p.t_b);
      rem[k] = rem[k + 1] + p.t_f + p.t_b;
    }
    armed.suffix_bound = suffix.data();
    armed.remaining_load = rem.data();
    armed.total_load = rem[0];
    armed.job_bound =
        std::max(suffix[0], rem[0] / static_cast<double>(in.num_stages));
    armed.est_scale = static_cast<double>(in.microbatches);
    return armed;
  }
};

TEST(StageDpBounds, EstimateFloorBoundsTheSimulatedMakespan) {
  // estimate_floor at the exact V and summed stage time equals the GPipe
  // closed form in real arithmetic: it must stay at or below the simulated
  // makespan (the slack absorbs rounding) and be tight within the slack.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> expo(-6.0, -1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const int S = 1 + static_cast<int>(rng() % 12);
    const int MB = 1 << (rng() % 7);
    std::vector<StageTimes> st(static_cast<std::size_t>(S));
    double sum = 0, mf = 0, mb = 0;
    for (StageTimes& t : st) {
      t.t_f = std::pow(10.0, expo(rng));
      t.t_b = std::pow(10.0, expo(rng));
      sum += t.t_f + t.t_b;
      mf = std::max(mf, t.t_f);
      mb = std::max(mb, t.t_b);
    }
    const double sim = simulate_gpipe(st, MB).iteration_time;
    const double allreduce = 1e-3 * sim;
    const double floor = estimate_floor(mf + mb, MB, sum, allreduce);
    EXPECT_LE(floor, sim + allreduce) << "trial " << trial;
    EXPECT_GE(floor, (sim + allreduce) * (1 - 2e-9)) << "trial " << trial;
    // Any smaller V floor or load floor gives a smaller estimate floor.
    EXPECT_LE(estimate_floor(0.5 * (mf + mb), MB, sum, allreduce), floor);
    EXPECT_LE(estimate_floor(mf + mb, MB, 0.5 * sum, allreduce), floor);
  }
}

TEST(StageDpBounds, AdmissibleLoadFloorsKeepTheOptimum) {
  // Incumbent = the exact GPipe makespan of the optimum: every floor on
  // the optimum's path is at most that, and the cuts are strict.
  const SyntheticUnits u = ramp_units(16);
  const StageDpInput in = dp_input(u, 3, 6);
  const StageDpSolution plain = form_stage_dp(in);
  ASSERT_TRUE(plain.feasible);

  ArmedFloors floors;
  StageDpInput armed = floors.arm(u, in);
  const std::atomic<std::uint64_t> incumbent{
      std::bit_cast<std::uint64_t>(synthetic_makespan(u, in, plain))};
  armed.incumbent = &incumbent;

  const StageDpSolution pruned = form_stage_dp(armed);
  ASSERT_TRUE(pruned.feasible);
  EXPECT_FALSE(pruned.dominated);
  EXPECT_EQ(pruned.stage_end, plain.stage_end);
  EXPECT_EQ(pruned.stage_devices, plain.stage_devices);
  EXPECT_DOUBLE_EQ(pruned.max_tf, plain.max_tf);
  EXPECT_DOUBLE_EQ(pruned.max_tb, plain.max_tb);
  EXPECT_LT(pruned.dp_cells_visited, plain.dp_cells_visited);
}

TEST(StageDpBounds, InflatedLoadFloorLosesTheOptimum) {
  // Negative control for the load term: the same armed DP with the total
  // load set 1.5x over the optimum's own summed stage time (an
  // overestimate, hence inadmissible) cuts the optimum's path.
  const SyntheticUnits u = ramp_units(16);
  const StageDpInput in = dp_input(u, 3, 6);
  const StageDpSolution plain = form_stage_dp(in);
  ASSERT_TRUE(plain.feasible);

  ArmedFloors floors;
  StageDpInput bad = floors.arm(u, in);
  double sum = 0;
  for (const StageTimes& t : synthetic_stages(u, in, plain))
    sum += t.t_f + t.t_b;
  ASSERT_LT(bad.total_load, sum);  // the admissible load is below it
  bad.total_load = 1.5 * sum;
  const std::atomic<std::uint64_t> incumbent{
      std::bit_cast<std::uint64_t>(synthetic_makespan(u, in, plain))};
  bad.incumbent = &incumbent;

  const StageDpSolution wrong = form_stage_dp(bad);
  EXPECT_GT(wrong.paths_pruned + wrong.columns_pruned +
                wrong.ranges_bound_pruned,
            0);
  const bool lost_optimum = !wrong.feasible || wrong.dominated ||
                            wrong.value() > plain.value() ||
                            wrong.stage_end != plain.stage_end;
  EXPECT_TRUE(lost_optimum);
}

// ---- plan-store keys across engine modes ----------------------------------

TEST(SearchPrune, PlanStoreKeyIgnoresPruneAndThreads) {
  const serve::Fingerprint fp =
      serve::fingerprint_graph(build_mlp(deep_mlp()).graph);
  const SearchRequest a = base_request();

  SearchRequest b = exhaustive(a);
  b.budget.threads = 8;

  // Plans are bit-identical across these knobs, so a pruned served search
  // must hit the entry an exhaustive search wrote — which requires the
  // keys to collide exactly.
  EXPECT_EQ(serve::make_plan_key(fp, a), serve::make_plan_key(fp, b));

  // A genuinely different geometry still splits the key.
  SearchRequest d = a;
  d.batch_size = 2 * a.batch_size;
  EXPECT_NE(serve::make_plan_key(fp, a), serve::make_plan_key(fp, d));
}

}  // namespace
}  // namespace rannc
