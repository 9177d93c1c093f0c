/// \file test_path_engine.cpp
/// Equivalence tests of the reusable dvfs::PathEngine against the
/// from-scratch PathSet enumeration, over generated Category-1 and
/// Category-2 CTGs: same paths in the same order, same delays and
/// probabilities, same guard predicates — on a graph wider than 256
/// outcome bits too — and identical results whether an engine is fresh
/// or reused across enumerations and stretch calls. PathSet keeps its
/// guards in the DNF algebra, so it is the engine's independent
/// reference for the compiled bitset guards.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/common.h"
#include "apps/fig1_example.h"
#include "arch/platform.h"
#include "ctg/activation.h"
#include "dvfs/path_engine.h"
#include "dvfs/paths.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg {
namespace {

struct Case {
  tgff::RandomCase rc;
  ctg::ActivationAnalysis analysis;
  ctg::BranchProbabilities probs;

  Case(tgff::Category category, std::uint64_t seed)
      : rc([&] {
          tgff::RandomCtgParams params;
          params.task_count = 18;
          params.pe_count = 3;
          params.fork_count = 2;
          params.category = category;
          params.seed = seed;
          auto generated = tgff::MakeRandomCtg(params).value();
          apps::AssignDeadline(generated.graph, generated.platform, 1.3);
          return generated;
        }()),
        analysis(rc.graph),
        probs(apps::UniformProbabilities(rc.graph)) {}
};

/// Runs \p fn on each generated case. Cases are constructed in place
/// (never moved): the analysis and schedules reference the graph by
/// address.
template <typename Fn>
void ForEachCase(Fn&& fn) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    for (tgff::Category category :
         {tgff::Category::kForkJoin, tgff::Category::kFlat}) {
      const Case c(category, seed);
      fn(c);
    }
  }
}

/// Asserts that an engine's enumeration matches a PathSet of the same
/// schedule element for element.
void ExpectMatchesPathSet(const dvfs::PathEngine& engine,
                          const dvfs::PathSet& expected,
                          const ctg::ActivationAnalysis& analysis,
                          const ctg::BranchProbabilities& probs) {
  ASSERT_EQ(engine.size(), expected.size());
  const std::vector<ctg::Minterm> scenarios =
      analysis.EnumerateScenarioAssignments();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const dvfs::Path& path = expected.path(i);
    const auto tasks = engine.TasksOf(i);
    ASSERT_EQ(tasks.size(), path.tasks.size()) << "path " << i;
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      EXPECT_EQ(tasks[k], path.tasks[k]) << "path " << i;
    }
    const auto edges = engine.EdgesOf(i);
    ASSERT_EQ(edges.size(), path.edges.size());
    for (std::size_t k = 0; k < edges.size(); ++k) {
      EXPECT_EQ(edges[k], path.edges[k]);
    }
    EXPECT_EQ(engine.comm_ms(i), path.comm_ms);
    EXPECT_EQ(engine.delay_ms(i), path.delay_ms);
    EXPECT_EQ(engine.unlocked_ms(i), path.unlocked_ms);

    // Guard predicates agree for every scenario minterm and for every
    // Γ(τ) minterm of the tasks on the path.
    for (const ctg::Minterm& scenario : scenarios) {
      EXPECT_EQ(engine.GuardCompatibleWith(i, scenario),
                path.guard.CompatibleWith(scenario));
    }
    for (TaskId task : path.tasks) {
      for (const ctg::Minterm& m : analysis.Gamma(task)) {
        EXPECT_EQ(engine.GuardCompatibleWith(i, m),
                  path.guard.CompatibleWith(m));
      }
      EXPECT_EQ(engine.ProbAfter(i, task, probs),
                expected.ProbAfter(i, task, probs));
    }
  }
  EXPECT_EQ(engine.MaxDelay(), expected.MaxDelay());
  for (TaskId task : analysis.graph().TaskIds()) {
    EXPECT_EQ(engine.Spanning(task), expected.Spanning(task));
  }
}

TEST(PathEngine, MatchesPathSetOnGeneratedCtgs) {
  ForEachCase([&](const Case& c) {
    const sched::Schedule schedule =
        sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);
    for (bool drop_unrealizable : {true, false}) {
      const dvfs::PathSet expected(schedule, 1 << 20, drop_unrealizable);
      dvfs::PathEngine engine(c.rc.graph, c.analysis, c.rc.platform);
      engine.Enumerate(schedule, drop_unrealizable);
      ExpectMatchesPathSet(engine, expected, c.analysis, c.probs);
    }
  });
}

TEST(PathEngine, MatchesPathSetOnWideGraph) {
  // One 257-outcome fork: 257 outcome bits, five words per minterm
  // half, the last outcome alone in the last word. The compiled guards
  // must enumerate and answer exactly like PathSet's DNF guards. The
  // branches end the graph (no 257-way or-join), which keeps the DNF
  // activation analysis cheap.
  ctg::CtgBuilder builder;
  const TaskId source = builder.AddTask("src");
  const TaskId fork = builder.AddTask("fork");
  builder.AddEdge(source, fork, 2.0);
  for (int o = 0; o < 257; ++o) {
    const TaskId branch =
        builder.AddTask(std::string("b").append(std::to_string(o)));
    builder.AddConditionalEdge(fork, branch, o, 1.0);
  }
  builder.SetDeadline(1000.0);
  const ctg::Ctg graph = std::move(builder).Build();
  arch::PlatformBuilder pb(graph.task_count(), 2);
  for (TaskId t : graph.TaskIds()) {
    pb.SetTaskCost(t, PeId{0}, 1.0 + static_cast<double>(t.index() % 7),
                   2.0);
    pb.SetTaskCost(t, PeId{1}, 1.5 + static_cast<double>(t.index() % 5),
                   1.5);
  }
  const arch::Platform platform = std::move(pb).Build();
  const ctg::ActivationAnalysis analysis(graph);
  ASSERT_EQ(analysis.space().bit_count(), 257u);
  ASSERT_EQ(analysis.space().words(), 5u);
  const ctg::BranchProbabilities probs = apps::UniformProbabilities(graph);

  const sched::Schedule schedule =
      sched::RunDls(graph, analysis, platform, probs);
  dvfs::PathEngine engine(graph, analysis, platform);
  for (bool drop_unrealizable : {true, false}) {
    const dvfs::PathSet expected(schedule, 1 << 20, drop_unrealizable);
    engine.Enumerate(schedule, drop_unrealizable);
    ASSERT_GE(engine.size(), 257u);
    ExpectMatchesPathSet(engine, expected, analysis, probs);
  }
}

TEST(PathEngine, ReuseAcrossEnumerationsMatchesFreshEngine) {
  ForEachCase([&](const Case& c) {
    sched::Schedule stretched =
        sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);
    dvfs::StretchOnline(stretched, c.probs);
    const sched::Schedule nominal =
        sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);

    // One engine enumerates nominal, then stretched, then nominal
    // again; each enumeration must equal a fresh PathSet of the same
    // schedule (reuse leaves no residue in the pooled storage).
    dvfs::PathEngine engine(c.rc.graph, c.analysis, c.rc.platform);
    engine.Enumerate(nominal);
    ExpectMatchesPathSet(engine, dvfs::PathSet(nominal), c.analysis, c.probs);
    engine.Enumerate(stretched);
    ExpectMatchesPathSet(engine, dvfs::PathSet(stretched), c.analysis,
                         c.probs);
    engine.Enumerate(nominal);
    ExpectMatchesPathSet(engine, dvfs::PathSet(nominal), c.analysis, c.probs);
  });
}

TEST(PathEngine, CommitTaskMatchesPathSet) {
  ForEachCase([&](const Case& c) {
    const sched::Schedule schedule =
        sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);
    dvfs::PathSet expected(schedule);
    dvfs::PathEngine engine(c.rc.graph, c.analysis, c.rc.platform);
    engine.Enumerate(schedule);

    // Commit every task once, in schedule order, with a synthetic
    // extension; the running delays must track exactly.
    for (TaskId task : c.rc.graph.TaskIds()) {
      const double nominal = schedule.placement(task).finish_ms -
                             schedule.placement(task).start_ms;
      expected.CommitTask(task, 0.25, nominal);
      engine.CommitTask(task, 0.25, nominal);
    }
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(engine.delay_ms(i), expected.path(i).delay_ms);
      EXPECT_EQ(engine.unlocked_ms(i), expected.path(i).unlocked_ms);
    }
    EXPECT_EQ(engine.MaxDelay(), expected.MaxDelay());
  });
}

TEST(PathEngine, StretchResultsBitIdenticalAcrossModes) {
  // The two configurations the stretchers support — transient engine
  // (no engine argument) and persistent engine — must produce
  // bit-identical schedules.
  ForEachCase([&](const Case& c) {
    auto stretch = [&](dvfs::PathEngine* engine) {
      sched::Schedule s =
          sched::RunDls(c.rc.graph, c.analysis, c.rc.platform, c.probs);
      const dvfs::StretchStats stats =
          dvfs::StretchOnline(s, c.probs, engine);
      EXPECT_GT(stats.path_count, 0u);
      return s;
    };

    const sched::Schedule baseline = stretch(nullptr);
    dvfs::PathEngine engine(c.rc.graph, c.analysis, c.rc.platform);
    // Two rounds through the persistent engine: the second round runs
    // on warmed pools and must not drift.
    for (int round = 0; round < 2; ++round) {
      const sched::Schedule candidate = stretch(&engine);
      for (TaskId task : c.rc.graph.TaskIds()) {
        const auto& a = baseline.placement(task);
        const auto& b = candidate.placement(task);
        EXPECT_EQ(a.speed_ratio, b.speed_ratio);
        EXPECT_EQ(a.start_ms, b.start_ms);
        EXPECT_EQ(a.finish_ms, b.finish_ms);
        EXPECT_EQ(a.pe, b.pe);
      }
    }
  });
}

TEST(PathEngine, MaxPathsEnforced) {
  // PathEngineOptions::max_paths is the one path-count bound every
  // stretcher runs under; enumeration past it must throw and name the
  // bound.
  const apps::Fig1Example ex = apps::MakeFig1Example();
  const ctg::ActivationAnalysis analysis(ex.graph);
  const sched::Schedule s =
      sched::RunDls(ex.graph, analysis, ex.platform, ex.probs);
  dvfs::PathEngine bounded(ex.graph, analysis, ex.platform,
                           dvfs::PathEngineOptions{.max_paths = 1});
  try {
    bounded.Enumerate(s);
    FAIL() << "enumeration past max_paths = 1 should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("max_paths"), std::string::npos)
        << e.what();
  }

  dvfs::PathEngine unbounded(ex.graph, analysis, ex.platform);
  unbounded.Enumerate(s);
  EXPECT_GT(unbounded.size(), 1u);
}

}  // namespace
}  // namespace actg
