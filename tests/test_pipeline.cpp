// Tests for the pipeline schedule simulators: GPipe fill/drain against the
// closed form, async 1F1B steady state, bubble fractions and Gantt output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "pipeline/schedule.h"

namespace rannc {
namespace {

std::vector<StageTimes> uniform(int S, double tf, double tb) {
  return std::vector<StageTimes>(static_cast<std::size_t>(S), {tf, tb});
}

TEST(GPipeSchedule, MatchesClosedFormForUniformStages) {
  for (int S : {1, 2, 4, 8}) {
    for (int MB : {1, 2, 8, 32}) {
      const ScheduleResult r = simulate_gpipe(uniform(S, 1.0, 2.0), MB);
      // Uniform stages: (MB + S - 1) * (t_f + t_b).
      EXPECT_NEAR(r.iteration_time, (MB + S - 1) * 3.0, 1e-9)
          << "S=" << S << " MB=" << MB;
      EXPECT_NEAR(gpipe_iteration(uniform(S, 1.0, 2.0), MB), (MB + S - 1) * 3.0,
                  1e-9)
          << "S=" << S << " MB=" << MB;
    }
  }
}

TEST(GPipeSchedule, MatchesClosedFormForHeterogeneousStages) {
  // Random stage times over five orders of magnitude: the simulated
  // makespan is sum_s (t_f + t_b) + (MB - 1) * (max t_f + max t_b).
  std::mt19937_64 rng(20211);
  std::uniform_real_distribution<double> expo(-6.0, -1.0);
  for (int trial = 0; trial < 200; ++trial) {
    const int S = 1 + static_cast<int>(rng() % 12);
    const int MB = 1 << (rng() % 7);
    std::vector<StageTimes> st(static_cast<std::size_t>(S));
    for (StageTimes& t : st) {
      t.t_f = std::pow(10.0, expo(rng));
      t.t_b = std::pow(10.0, expo(rng));
    }
    const double sim = simulate_gpipe(st, MB).iteration_time;
    EXPECT_NEAR(gpipe_iteration(st, MB), sim, 1e-12 * sim)
        << "trial " << trial << " S=" << S << " MB=" << MB;
  }
}

TEST(GPipeSchedule, SingleStageHasNoBubble) {
  const ScheduleResult r = simulate_gpipe(uniform(1, 1.0, 2.0), 4);
  EXPECT_NEAR(r.bubble_fraction, 0.0, 1e-9);
  EXPECT_NEAR(r.iteration_time, 4 * 3.0, 1e-9);
}

TEST(GPipeSchedule, BubbleShrinksWithMoreMicrobatches) {
  const double b4 = simulate_gpipe(uniform(4, 1, 1), 4).bubble_fraction;
  const double b32 = simulate_gpipe(uniform(4, 1, 1), 32).bubble_fraction;
  EXPECT_GT(b4, b32);
  EXPECT_GT(b4, 0.0);
}

TEST(GPipeSchedule, BottleneckStageDominates) {
  // One slow stage: iteration ~ MB * slow + drain.
  std::vector<StageTimes> st = uniform(3, 1.0, 1.0);
  st[1].t_f = 5.0;
  st[1].t_b = 5.0;
  const ScheduleResult r = simulate_gpipe(st, 16);
  EXPECT_GE(r.iteration_time, 16 * 10.0);
  EXPECT_LE(r.iteration_time, 16 * 10.0 + 3 * 12.0);
}

TEST(GPipeSchedule, IntervalsRespectDependencies) {
  const ScheduleResult r = simulate_gpipe(uniform(3, 1, 2), 4);
  // Forward of (s, j) must end before forward of (s+1, j) ends.
  auto find = [&](int s, int j, bool bwd) {
    for (const obs::CausalOp& iv : r.intervals)
      if (iv.stage == s && iv.microbatch == j && iv.backward == bwd) return iv;
    ADD_FAILURE() << "missing interval";
    return obs::CausalOp{};
  };
  for (int j = 0; j < 4; ++j) {
    EXPECT_LE(find(0, j, false).end, find(1, j, false).start + 1e-12);
    EXPECT_LE(find(2, j, true).end, find(1, j, true).start + 1e-12);
    EXPECT_LE(find(1, j, false).end, find(1, j, true).start + 1e-12);
  }
}

TEST(AsyncSchedule, NoFlushNoBubbleForUniformStages) {
  const ScheduleResult r = simulate_1f1b_async(uniform(4, 1, 2), 8);
  EXPECT_NEAR(r.iteration_time, 8 * 3.0, 1e-9);
  EXPECT_NEAR(r.bubble_fraction, 0.0, 1e-9);
}

TEST(AsyncSchedule, FasterThanGPipeForSameStages) {
  const auto st = uniform(4, 1, 2);
  EXPECT_LT(simulate_1f1b_async(st, 8).iteration_time,
            simulate_gpipe(st, 8).iteration_time);
}

TEST(AsyncSchedule, BottleneckStagePeriodDominates) {
  std::vector<StageTimes> st = uniform(3, 1, 1);
  st[2].t_f = 4;
  st[2].t_b = 4;
  EXPECT_NEAR(simulate_1f1b_async(st, 10).iteration_time, 80.0, 1e-9);
}

TEST(Gantt, RendersOneRowPerStage) {
  const ScheduleResult r = simulate_gpipe(uniform(3, 1, 2), 4);
  const std::string gantt = render_gantt(r, 3, 60);
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 3);
  EXPECT_NE(gantt.find('F'), std::string::npos);
  EXPECT_NE(gantt.find('B'), std::string::npos);
}

TEST(Gantt, EmptyScheduleRendersEmpty) {
  EXPECT_TRUE(render_gantt(ScheduleResult{}, 0).empty());
}

class MicrobatchSweep : public ::testing::TestWithParam<int> {};

TEST_P(MicrobatchSweep, GPipeNeverFasterThanWorkLowerBound) {
  const int MB = GetParam();
  const auto st = uniform(4, 1.5, 2.5);
  const ScheduleResult r = simulate_gpipe(st, MB);
  EXPECT_GE(r.iteration_time, MB * (1.5 + 2.5) - 1e-9);
  EXPECT_GE(r.bubble_fraction, -1e-12);
  EXPECT_LT(r.bubble_fraction, 1.0);
}

INSTANTIATE_TEST_SUITE_P(MBs, MicrobatchSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

}  // namespace
}  // namespace rannc
