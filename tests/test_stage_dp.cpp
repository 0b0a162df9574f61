// Tests for the stage-level DP (Algorithm 1): optimality against brute
// force on synthetic unit sequences, memory feasibility, the d_min prune
// and the search-budget abort.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "partition/stage_dp.h"

namespace rannc {
namespace {

/// Synthetic profile: unit i costs w[i] seconds per sample; a stage's
/// per-microbatch time is (sum of unit weights) * bsize; memory is
/// (sum of unit mems) * bsize.
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

StageDpInput base_input(const SyntheticUnits& u, int S, int D,
                        std::int64_t BS, int R, int MB, std::int64_t M) {
  StageDpInput in;
  in.num_units = static_cast<int>(u.w.size());
  in.num_stages = S;
  in.num_devices = D;
  in.batch_size = BS;
  in.replica_factor = R;
  in.microbatches = MB;
  in.device_memory = M;
  in.profile = u.fn();
  return in;
}

/// Brute-force reference: enumerate all stage boundaries and device
/// assignments, return the minimal V = max t_f + max t_b.
double brute_force(const StageDpInput& in) {
  const int N = in.num_units, S = in.num_stages, D = in.num_devices;
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> ends(static_cast<std::size_t>(S));
  std::vector<int> devs(static_cast<std::size_t>(S));
  std::function<void(int, int, int)> rec_dev;
  std::function<void(int, int)> rec_end;
  auto evaluate = [&] {
    double mf = 0, mb = 0;
    int lo = 0;
    for (int s = 0; s < S; ++s) {
      const std::int64_t bsize = in.batch_size / in.replica_factor /
                                 in.microbatches /
                                 devs[static_cast<std::size_t>(s)];
      if (bsize < 1) return;
      const StageProfile p = in.profile(lo, ends[static_cast<std::size_t>(s)],
                                        bsize, in.microbatches, S);
      if (in.device_memory > 0 && p.mem > in.device_memory) return;
      mf = std::max(mf, p.t_f);
      mb = std::max(mb, p.t_b);
      lo = ends[static_cast<std::size_t>(s)];
    }
    best = std::min(best, mf + mb);
  };
  rec_dev = [&](int s, int used, int) {
    if (s == S) {
      if (used == D) evaluate();
      return;
    }
    for (int d = 1; used + d + (S - s - 1) <= D; ++d) {
      devs[static_cast<std::size_t>(s)] = d;
      rec_dev(s + 1, used + d, 0);
    }
  };
  rec_end = [&](int s, int start) {
    if (s == S - 1) {
      ends[static_cast<std::size_t>(s)] = N;
      rec_dev(0, 0, 0);
      return;
    }
    for (int e = start + 1; e <= N - (S - 1 - s); ++e) {
      ends[static_cast<std::size_t>(s)] = e;
      rec_end(s + 1, e);
    }
  };
  rec_end(0, 0);
  return best;
}

class DpVsBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DpVsBruteForce, MatchesExhaustiveSearch) {
  const auto [N, S, D] = GetParam();
  if (S > N || S > D) GTEST_SKIP();
  SyntheticUnits u;
  // Deterministic pseudo-random weights.
  for (int i = 0; i < N; ++i) {
    u.w.push_back(1.0 + 0.7 * std::fmod(i * 2.639, 3.0));
    u.mem.push_back(10.0 + std::fmod(i * 1.93, 5.0));
  }
  StageDpInput in = base_input(u, S, D, /*BS=*/64, /*R=*/1, /*MB=*/2,
                               /*M=*/1 << 28);
  StageDpSolution sol = form_stage_dp(in);
  const double ref = brute_force(in);
  ASSERT_TRUE(sol.feasible);
  EXPECT_NEAR(sol.value(), ref, 1e-9 * std::abs(ref));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpVsBruteForce,
    ::testing::Combine(::testing::Values(3, 5, 8), ::testing::Values(1, 2, 3),
                       ::testing::Values(2, 4, 6)));

TEST(StageDp, SolutionStructureIsConsistent) {
  SyntheticUnits u;
  u.w = {1, 2, 3, 4, 5, 6};
  u.mem = {1, 1, 1, 1, 1, 1};
  StageDpInput in = base_input(u, 3, 6, 48, 1, 2, 1 << 20);
  StageDpSolution sol = form_stage_dp(in);
  ASSERT_TRUE(sol.feasible);
  ASSERT_EQ(sol.stage_end.size(), 3u);
  EXPECT_EQ(sol.stage_end.back(), 6);
  int total_dev = 0;
  for (std::size_t i = 0; i < sol.stage_end.size(); ++i) {
    if (i) {
      EXPECT_GT(sol.stage_end[i], sol.stage_end[i - 1]);
    }
    EXPECT_GE(sol.stage_devices[i], 1);
    total_dev += sol.stage_devices[i];
  }
  EXPECT_EQ(total_dev, 6);
}

TEST(StageDp, GivesHeavyStagesMoreDevices) {
  SyntheticUnits u;
  u.w = {1, 1, 10, 10};  // second half is 10x heavier
  u.mem = {1, 1, 1, 1};
  StageDpInput in = base_input(u, 2, 8, 64, 1, 1, 1 << 30);
  StageDpSolution sol = form_stage_dp(in);
  ASSERT_TRUE(sol.feasible);
  // The heavier back stage must receive more devices than the front.
  EXPECT_GT(sol.stage_devices.back(), sol.stage_devices.front());
}

TEST(StageDp, InfeasibleWhenMemoryTooSmall) {
  SyntheticUnits u;
  u.w = {1, 1};
  u.mem = {100, 100};
  StageDpInput in = base_input(u, 2, 2, 8, 1, 1, /*M=*/10);
  StageDpSolution sol = form_stage_dp(in);
  EXPECT_FALSE(sol.feasible);
  EXPECT_FALSE(sol.aborted);
}

TEST(StageDp, MoreMicrobatchesReduceMemoryPressure) {
  SyntheticUnits u;
  u.w = {1, 1};
  u.mem = {10, 10};
  // With MB=1: bsize=8 -> mem 80/stage > 50. With MB=4: bsize=2 -> 20 fits.
  StageDpInput tight = base_input(u, 2, 2, 16, 1, 1, 50);
  EXPECT_FALSE(form_stage_dp(tight).feasible);
  StageDpInput ok = base_input(u, 2, 2, 16, 1, 4, 50);
  EXPECT_TRUE(form_stage_dp(ok).feasible);
}

TEST(StageDp, BsizeZeroDoesNotPoisonSmallerDeviceCounts) {
  // Regression test: with more devices than per-replica samples, bsize
  // clips to 0; the d_min prune must not conclude that smaller d fail too.
  SyntheticUnits u;
  u.w = {1, 1, 1, 1};
  u.mem = {1, 1, 1, 1};
  // BS/R/MB = 2: a stage with >2 devices clips bsize to 0. The descending
  // d loop hits those configurations first; the prune must not take them
  // as evidence that 2-device stages fail too.
  StageDpInput in = base_input(u, 2, 4, 16, 1, 8, 1 << 30);
  StageDpSolution sol = form_stage_dp(in);
  EXPECT_TRUE(sol.feasible);
}

TEST(StageDp, AbortsOnCellBudget) {
  SyntheticUnits u;
  for (int i = 0; i < 30; ++i) {
    u.w.push_back(1);
    u.mem.push_back(1);
  }
  StageDpInput in = base_input(u, 4, 8, 64, 1, 1, 1 << 30);
  in.max_cells = 10;
  StageDpSolution sol = form_stage_dp(in);
  EXPECT_TRUE(sol.aborted);
  EXPECT_FALSE(sol.feasible);
}

TEST(StageDp, RejectsDegenerateInputs) {
  SyntheticUnits u;
  u.w = {1};
  u.mem = {1};
  EXPECT_FALSE(form_stage_dp(base_input(u, 2, 2, 8, 1, 1, 100)).feasible);
  EXPECT_FALSE(form_stage_dp(base_input(u, 0, 2, 8, 1, 1, 100)).feasible);
  StageDpInput no_fn = base_input(u, 1, 1, 8, 1, 1, 100);
  no_fn.profile = nullptr;
  EXPECT_FALSE(form_stage_dp(no_fn).feasible);
}

TEST(StageDp, CountsDiagnostics) {
  SyntheticUnits u;
  u.w = {1, 2, 3, 4};
  u.mem = {1, 1, 1, 1};
  StageDpSolution sol = form_stage_dp(base_input(u, 2, 4, 16, 1, 1, 1 << 30));
  EXPECT_GT(sol.dp_cells_visited, 0);
  EXPECT_GT(sol.profile_queries, 0);
  EXPECT_GE(sol.dp_cells_visited, sol.profile_queries);
}

}  // namespace
}  // namespace rannc
