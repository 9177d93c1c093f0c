#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "apps/common.h"
#include "apps/fig1_example.h"
#include "check/validator.h"
#include "dvfs/algorithms.h"
#include "dvfs/paths.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg::dvfs {
namespace {

struct Pipeline {
  tgff::RandomCase rc;
  ctg::ActivationAnalysis analysis;
  ctg::BranchProbabilities probs;

  Pipeline(std::uint64_t seed, tgff::Category category,
           double deadline_factor, double p0 = 0.5)
      : rc([&] {
          tgff::RandomCtgParams params;
          params.task_count = 20;
          params.fork_count = 2;
          params.pe_count = 3;
          params.category = category;
          params.seed = seed;
          auto generated = tgff::MakeRandomCtg(params).value();
          apps::AssignDeadline(generated.graph, generated.platform,
                               deadline_factor);
          return generated;
        }()),
        analysis(rc.graph),
        probs(rc.graph.task_count()) {
    for (TaskId f : rc.graph.ForkIds()) probs.Set(f, {p0, 1.0 - p0});
  }

  sched::Schedule Dls() const {
    return sched::RunDls(rc.graph, analysis, rc.platform, probs);
  }
};

// ---------------------------------------------------------------------------
// Core invariants, swept over seeds / categories / stretchers.

using StretchParam = std::tuple<int, tgff::Category, int>;

class StretchSweep : public ::testing::TestWithParam<StretchParam> {
 protected:
  StretchStats RunStretcher(sched::Schedule& s,
                            const ctg::BranchProbabilities& probs,
                            int which) {
    switch (which) {
      case 0:
        return StretchOnline(s, probs);
      case 1:
        return StretchProportional(s);
      default: {
        NlpOptions options;
        options.iterations = 400;  // keep the sweep fast
        return StretchNlp(s, probs, options);
      }
    }
  }
};

TEST_P(StretchSweep, DeadlineHoldsInEveryScenario) {
  const auto [seed, category, which] = GetParam();
  Pipeline pipe(static_cast<std::uint64_t>(seed), category, 1.4);
  sched::Schedule s = pipe.Dls();
  RunStretcher(s, pipe.probs, which);
  s.Validate();
  check::Expectations expect;
  expect.deadline_feasible = true;  // deadline_factor 1.4 > 1
  check::Validate(s, expect);
  EXPECT_LE(sim::MaxScenarioMakespan(s),
            pipe.rc.graph.deadline_ms() + 1e-6);
}

TEST_P(StretchSweep, NeverIncreasesExpectedEnergy) {
  const auto [seed, category, which] = GetParam();
  Pipeline pipe(static_cast<std::uint64_t>(seed), category, 1.4);
  sched::Schedule s = pipe.Dls();
  const double before = sim::ExpectedEnergy(s, pipe.probs);
  RunStretcher(s, pipe.probs, which);
  EXPECT_LE(sim::ExpectedEnergy(s, pipe.probs), before + 1e-9);
}

TEST_P(StretchSweep, SpeedRatiosRespectPeFloor) {
  const auto [seed, category, which] = GetParam();
  Pipeline pipe(static_cast<std::uint64_t>(seed), category, 2.5);
  sched::Schedule s = pipe.Dls();
  RunStretcher(s, pipe.probs, which);
  check::Validate(s);
  for (TaskId t : pipe.rc.graph.TaskIds()) {
    const auto& placement = s.placement(t);
    EXPECT_GE(placement.speed_ratio,
              pipe.rc.platform.pe(placement.pe).min_speed_ratio - 1e-9);
    EXPECT_LE(placement.speed_ratio, 1.0 + 1e-9);
  }
}

TEST_P(StretchSweep, TightDeadlineMeansNoStretch) {
  const auto [seed, category, which] = GetParam();
  Pipeline pipe(static_cast<std::uint64_t>(seed), category, 1.4);
  // Rebuild with deadline equal to the nominal makespan: zero slack.
  sched::Schedule nominal = pipe.Dls();
  pipe.rc.graph.SetDeadline(nominal.Makespan());
  sched::Schedule s = pipe.Dls();
  const StretchStats stats = RunStretcher(s, pipe.probs, which);
  // The critical path cannot stretch; energy change must be small (only
  // off-critical tasks may still find slack).
  EXPECT_LE(stats.max_path_delay_ms, nominal.Makespan() + 1e-6);
  EXPECT_LE(sim::MaxScenarioMakespan(s), nominal.Makespan() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StretchSweep,
    ::testing::Combine(::testing::Range(1, 7),
                       ::testing::Values(tgff::Category::kForkJoin,
                                         tgff::Category::kFlat),
                       ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------------
// Ordering properties between the algorithms (the paper's Table 1 shape).

TEST(AlgorithmOrdering, NlpBeatsOnlineHeuristicOnAverage) {
  double online_total = 0.0, nlp_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Pipeline pipe(seed, tgff::Category::kForkJoin, 1.3, 0.3);
    sched::Schedule online = pipe.Dls();
    StretchOnline(online, pipe.probs);
    sched::Schedule nlp = pipe.Dls();
    StretchNlp(nlp, pipe.probs);
    online_total += sim::ExpectedEnergy(online, pipe.probs);
    nlp_total += sim::ExpectedEnergy(nlp, pipe.probs);
  }
  EXPECT_LT(nlp_total, online_total);
  // Paper Table 1: reference algorithm 2 saves roughly 3-13%.
  EXPECT_GT(nlp_total, 0.6 * online_total);
}

TEST(AlgorithmOrdering, OnlineBeatsReference1Clearly) {
  double online_total = 0.0, ref1_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Pipeline pipe(seed, tgff::Category::kForkJoin, 1.3, 0.3);
    const sched::Schedule online =
        RunWithPolicy(StretchPolicy::kOnline, pipe.rc.graph, pipe.analysis,
                      pipe.rc.platform, pipe.probs);
    const sched::Schedule ref1 = RunReference1(
        pipe.rc.graph, pipe.analysis, pipe.rc.platform, pipe.probs);
    online_total += sim::ExpectedEnergy(online, pipe.probs);
    ref1_total += sim::ExpectedEnergy(ref1, pipe.probs);
  }
  // Paper Table 1: reference algorithm 1 costs ~1.3-2.9x the online
  // algorithm's energy.
  EXPECT_GT(ref1_total, 1.2 * online_total);
}

TEST(AlgorithmOrdering, Reference1StillMeetsItsDeadlines) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Pipeline pipe(seed, tgff::Category::kForkJoin, 1.3, 0.3);
    const sched::Schedule ref1 = RunReference1(
        pipe.rc.graph, pipe.analysis, pipe.rc.platform, pipe.probs);
    ref1.Validate();
    EXPECT_LE(sim::MaxScenarioMakespan(ref1),
              pipe.rc.graph.deadline_ms() + 1e-6);
  }
}

TEST(AlgorithmOrdering, LooserDeadlineNeverHurtsOnline) {
  Pipeline tight(3, tgff::Category::kForkJoin, 1.2, 0.4);
  const double deadline = tight.rc.graph.deadline_ms();
  sched::Schedule s1 = tight.Dls();
  StretchOnline(s1, tight.probs);
  const double e_tight = sim::ExpectedEnergy(s1, tight.probs);
  tight.rc.graph.SetDeadline(deadline * 2.0);
  sched::Schedule s2 = tight.Dls();
  StretchOnline(s2, tight.probs);
  EXPECT_LE(sim::ExpectedEnergy(s2, tight.probs), e_tight + 1e-9);
}

// ---------------------------------------------------------------------------
// Fig. 1-scale hand-checkable behaviour.

TEST(StretchFig1, AllStretchersKeepDeadlineAndReduceEnergy) {
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  for (int which = 0; which < 3; ++which) {
    sched::Schedule s =
        sched::RunDls(ex.graph, analysis, ex.platform, ex.probs);
    const double before = sim::ExpectedEnergy(s, ex.probs);
    switch (which) {
      case 0:
        StretchOnline(s, ex.probs);
        break;
      case 1:
        StretchProportional(s);
        break;
      default:
        StretchNlp(s, ex.probs);
    }
    s.Validate();
    EXPECT_LT(sim::ExpectedEnergy(s, ex.probs), before);
    EXPECT_LE(sim::MaxScenarioMakespan(s),
              ex.graph.deadline_ms() + 1e-6);
  }
}

TEST(StretchFig1, StatsAreCoherent) {
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  sched::Schedule s =
      sched::RunDls(ex.graph, analysis, ex.platform, ex.probs);
  const StretchStats stats = StretchOnline(s, ex.probs);
  EXPECT_GT(stats.path_count, 0u);
  EXPECT_GT(stats.total_extension_ms, 0.0);
  EXPECT_LE(stats.max_path_delay_ms, ex.graph.deadline_ms() + 1e-6);
}

TEST(StretchFig1, RequiresPositiveDeadline) {
  apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  // Rebuild the graph without a deadline by zeroing via a fresh builder
  // is impossible (deadline is validated); instead check the stretcher
  // guard using a graph that never had one.
  ctg::CtgBuilder b;
  const TaskId x = b.AddTask("x");
  const TaskId y = b.AddTask("y");
  b.AddEdge(x, y);
  const ctg::Ctg g = std::move(b).Build();
  arch::PlatformBuilder pb(2, 1);
  pb.SetTaskCost(TaskId{0}, PeId{0}, 1.0, 1.0);
  pb.SetTaskCost(TaskId{1}, PeId{0}, 1.0, 1.0);
  const arch::Platform platform = std::move(pb).Build();
  const ctg::ActivationAnalysis analysis2(g);
  ctg::BranchProbabilities probs(2);
  sched::Schedule s = sched::RunDls(g, analysis2, platform, probs);
  EXPECT_THROW(StretchOnline(s, probs), InvalidArgument);
  EXPECT_THROW(StretchProportional(s), InvalidArgument);
  EXPECT_THROW(StretchNlp(s, probs), InvalidArgument);
}

TEST(StretchFig1, EqualRatioTieGoesToFirstEnumeratedPath) {
  // Pins StretchOnline's tie rule: under one Γ(τ) minterm, the critical
  // uncertain path is the first one in enumeration order among those
  // with the lowest slack ratio. Here the entry task src is spanned by
  // src-fork-left-sink and src-fork-right-sink: equal delays (one PE,
  // equal WCETs, no communication), so equal ratios, but prob(p, src)
  // is 0.3 on one and 0.7 on the other. The implied fork -> sink
  // dependency adds a third, certain path src-fork-sink.
  ctg::CtgBuilder b;
  const TaskId src = b.AddTask("src");
  const TaskId fork = b.AddTask("fork");
  const TaskId left = b.AddTask("left");
  const TaskId right = b.AddTask("right");
  const TaskId sink = b.AddOrTask("sink");
  b.AddEdge(src, fork);
  b.AddConditionalEdge(fork, left, 0);
  b.AddConditionalEdge(fork, right, 1);
  b.AddEdge(left, sink);
  b.AddEdge(right, sink);
  b.SetDeadline(100.0);
  const ctg::Ctg g = std::move(b).Build();
  arch::PlatformBuilder pb(g.task_count(), 1);
  for (TaskId t : g.TaskIds()) pb.SetTaskCost(t, PeId{0}, 10.0, 10.0);
  pb.SetMinSpeedRatio(PeId{0}, 0.1);
  const arch::Platform platform = std::move(pb).Build();
  const ctg::ActivationAnalysis analysis(g);
  ctg::BranchProbabilities probs(g.task_count());
  probs.Set(fork, {0.3, 0.7});

  sched::Schedule s = sched::RunDls(g, analysis, platform, probs);
  ASSERT_EQ(s.placement(src).order_index, 0);  // committed first
  ASSERT_EQ(analysis.Gamma(src).size(), 1u);
  const double deadline = g.deadline_ms();
  const double wcet = s.NominalWcet(src);
  const PathSet paths(s);
  std::vector<std::size_t> uncertain;  // in enumeration order
  double slk2 = std::numeric_limits<double>::infinity();
  for (std::size_t i : paths.Spanning(src)) {
    if (paths.ProbAfter(i, src, probs) < 1.0) {
      uncertain.push_back(i);
    } else {
      slk2 = std::min(slk2, wcet * paths.path(i).SlackRatio(deadline));
    }
  }
  ASSERT_EQ(uncertain.size(), 2u);
  const double ratio = paths.path(uncertain[0]).SlackRatio(deadline);
  ASSERT_EQ(paths.path(uncertain[1]).SlackRatio(deadline), ratio);
  const double first_prob = paths.ProbAfter(uncertain[0], src, probs);
  const double second_prob = paths.ProbAfter(uncertain[1], src, probs);
  ASSERT_NE(first_prob, second_prob);
  // Both candidate slk1 values stay below slk2, so the tie decides.
  ASSERT_LT(std::max(first_prob, second_prob) * wcet * ratio, slk2);

  StretchOnline(s, probs);
  const double slack = first_prob * wcet * ratio;  // p_task = 1
  EXPECT_DOUBLE_EQ(s.placement(src).speed_ratio, wcet / (wcet + slack));
  EXPECT_NE(s.placement(src).speed_ratio,
            wcet / (wcet + second_prob * wcet * ratio));
}

TEST(StretchNlpConfig, MoreIterationsNeverWorse) {
  Pipeline pipe(5, tgff::Category::kForkJoin, 1.5, 0.3);
  NlpOptions few;
  few.iterations = 10;
  NlpOptions many;
  many.iterations = 3000;
  sched::Schedule s_few = pipe.Dls();
  StretchNlp(s_few, pipe.probs, few);
  sched::Schedule s_many = pipe.Dls();
  StretchNlp(s_many, pipe.probs, many);
  EXPECT_LE(sim::ExpectedEnergy(s_many, pipe.probs),
            sim::ExpectedEnergy(s_few, pipe.probs) + 1e-6);
}

}  // namespace
}  // namespace actg::dvfs
