#include <gtest/gtest.h>

#include <utility>

#include "apps/common.h"
#include "apps/fig1_example.h"
#include "check/validator.h"
#include "ctg/activation.h"
#include "dvfs/policy.h"
#include "sched/dls.h"
#include "sim/executor.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg::check {
namespace {

// Known-good pipeline output the mutation tests corrupt: the paper's
// Figure 1 example scheduled by the modified DLS and stretched by the
// online algorithm.
class CheckTest : public ::testing::Test {
 protected:
  CheckTest()
      : ex_(apps::MakeFig1Example()),
        analysis_(ex_.graph),
        schedule_(sched::RunDls(ex_.graph, analysis_, ex_.platform,
                                ex_.probs)) {}

  void Stretch() {
    dvfs::Stretch(dvfs::StretchPolicy::kOnline, schedule_, ex_.probs);
  }

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
  sched::Schedule schedule_;
};

TEST_F(CheckTest, GoodScheduleIsClean) {
  const Report nominal = CheckSchedule(schedule_);
  EXPECT_TRUE(nominal.ok()) << nominal.ToString();
  EXPECT_EQ(nominal.ToString(), "ok");

  Expectations expect;
  expect.deadline_feasible =
      sim::MaxScenarioMakespan(schedule_) <= ex_.graph.deadline_ms();
  Stretch();
  const Report stretched = CheckSchedule(schedule_, expect);
  EXPECT_TRUE(stretched.ok()) << stretched.ToString();
}

TEST_F(CheckTest, GoodInstancesAreClean) {
  Stretch();
  for (const ctg::Minterm& scenario :
       analysis_.EnumerateScenarioAssignments()) {
    const ctg::BranchAssignment assignment =
        sim::AssignmentFromScenario(ex_.graph, scenario);
    const Report report = CheckInstance(
        schedule_, assignment, sim::ExecuteInstance(schedule_, assignment));
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

TEST_F(CheckTest, ValidateThrowsWithReportText) {
  schedule_.placement(TaskId{0}).speed_ratio = 1.5;
  try {
    Validate(schedule_);
    FAIL() << "Validate accepted a corrupt schedule";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("speed.range"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Mutation self-test: ten distinct corruptions of the known-good
// schedule, each of which the oracle must flag with its specific rule.
// Proves the validator is not vacuously accepting.

TEST_F(CheckTest, Mutation01InvalidPe) {
  schedule_.placement(TaskId{2}).pe = PeId{9};
  EXPECT_TRUE(CheckSchedule(schedule_).Has("placement.pe"));
}

TEST_F(CheckTest, Mutation02MaskedPe) {
  Expectations expect;
  expect.available_pes =
      arch::PeMask().Without(schedule_.placement(TaskId{0}).pe);
  EXPECT_TRUE(CheckSchedule(schedule_, expect).Has("pe-mask"));
}

TEST_F(CheckTest, Mutation03NegativeStart) {
  sched::TaskPlacement& p = schedule_.placement(TaskId{0});
  const double wcet = schedule_.ScaledWcet(TaskId{0});
  p.start_ms = -3.0;
  p.finish_ms = p.start_ms + wcet;
  EXPECT_TRUE(CheckSchedule(schedule_).Has("placement.start"));
}

TEST_F(CheckTest, Mutation04FinishMismatch) {
  schedule_.placement(TaskId{1}).finish_ms += 2.5;
  EXPECT_TRUE(CheckSchedule(schedule_).Has("placement.finish"));
}

TEST_F(CheckTest, Mutation05SpeedAboveNominal) {
  schedule_.placement(TaskId{3}).speed_ratio = 1.5;
  EXPECT_TRUE(CheckSchedule(schedule_).Has("speed.range"));
}

TEST_F(CheckTest, Mutation06SpeedBelowPeMinimum) {
  const TaskId t{4};
  const PeId pe = schedule_.placement(t).pe;
  const double min = schedule_.platform().pe(pe).min_speed_ratio;
  ASSERT_GT(min, 0.0);
  sched::TaskPlacement& p = schedule_.placement(t);
  p.speed_ratio = min * 0.5;
  p.finish_ms = p.start_ms + schedule_.NominalWcet(t) / p.speed_ratio;
  EXPECT_TRUE(CheckSchedule(schedule_).Has("speed.pe-min"));
}

TEST_F(CheckTest, Mutation07SpeedBelowImposedFloor) {
  // A degraded reschedule must respect the ladder's floor; a ratio
  // under it is a broken promise even though the PE allows it.
  const TaskId t{5};
  sched::TaskPlacement& p = schedule_.placement(t);
  p.speed_ratio = 0.5;
  p.finish_ms = p.start_ms + schedule_.NominalWcet(t) / p.speed_ratio;
  Expectations expect;
  expect.speed_floor = 0.9;
  const Report report = CheckSchedule(schedule_, expect);
  EXPECT_TRUE(report.Has("speed.floor")) << report.ToString();
}

TEST_F(CheckTest, Mutation08DuplicateOrderIndex) {
  schedule_.placement(TaskId{1}).order_index =
      schedule_.placement(TaskId{0}).order_index;
  EXPECT_TRUE(CheckSchedule(schedule_).Has("order.permutation"));
}

TEST_F(CheckTest, Mutation09PrecedenceViolated) {
  // Pull a same-PE consumer in front of its producer (times stay
  // internally consistent, so only the precedence rule can catch it).
  bool found = false;
  for (EdgeId eid : ex_.graph.EdgeIds()) {
    const ctg::Edge& e = ex_.graph.edge(eid);
    const sched::TaskPlacement& src = schedule_.placement(e.src);
    if (schedule_.placement(e.dst).pe != src.pe || src.finish_ms <= 0.5) {
      continue;
    }
    sched::TaskPlacement& dst = schedule_.placement(e.dst);
    dst.start_ms = src.finish_ms - 0.5;
    dst.finish_ms = dst.start_ms + schedule_.ScaledWcet(e.dst);
    found = true;
    break;
  }
  ASSERT_TRUE(found) << "Fig. 1 schedule has no same-PE edge to corrupt";
  EXPECT_TRUE(CheckSchedule(schedule_).Has("precedence.edge"));
}

TEST_F(CheckTest, Mutation10CommWindowBelowBandwidth) {
  bool found = false;
  for (EdgeId eid : ex_.graph.EdgeIds()) {
    const ctg::Edge& e = ex_.graph.edge(eid);
    if (schedule_.placement(e.src).pe == schedule_.placement(e.dst).pe ||
        e.comm_kbytes <= 0.0) {
      continue;
    }
    sched::CommPlacement& comm = schedule_.comm(eid);
    comm.finish_ms = comm.start_ms;  // zero-length window, bytes > 0
    found = true;
    break;
  }
  ASSERT_TRUE(found) << "Fig. 1 schedule has no cross-PE edge to corrupt";
  EXPECT_TRUE(CheckSchedule(schedule_).Has("comm.bandwidth"));
}

TEST_F(CheckTest, Mutation11OverlapOfCompatibleTasks) {
  // Find two guard-compatible tasks on one PE and slide the later one
  // into the earlier one's execution window.
  bool found = false;
  for (TaskId a : ex_.graph.TaskIds()) {
    for (TaskId b : ex_.graph.TaskIds()) {
      if (a.index() >= b.index()) continue;
      if (schedule_.placement(a).pe != schedule_.placement(b).pe) continue;
      if (analysis_.MutuallyExclusive(a, b)) continue;
      const sched::TaskPlacement& pa = schedule_.placement(a);
      sched::TaskPlacement& pb = schedule_.placement(b);
      const double mid = pa.start_ms + 0.5 * schedule_.ScaledWcet(a);
      pb.start_ms = mid;
      pb.finish_ms = mid + schedule_.ScaledWcet(b);
      found = true;
      break;
    }
    if (found) break;
  }
  ASSERT_TRUE(found) << "no guard-compatible same-PE pair to overlap";
  EXPECT_TRUE(CheckSchedule(schedule_).Has("exclusion.overlap"));
}

TEST_F(CheckTest, Mutation12InfeasibleFeasibilityClaim) {
  Expectations expect;
  expect.deadline_feasible = true;
  expect.deadline_ms = 1.0;  // far below any scenario's completion time
  EXPECT_TRUE(CheckSchedule(schedule_, expect).Has("deadline.feasible"));
}

TEST_F(CheckTest, Mutation13InflatedEnergy) {
  const ctg::BranchAssignment assignment = sim::AssignmentFromScenario(
      ex_.graph, analysis_.EnumerateScenarioAssignments().front());
  sim::InstanceResult result =
      sim::ExecuteInstance(schedule_, assignment);
  result.energy_mj *= 1.1;
  EXPECT_TRUE(
      CheckInstance(schedule_, assignment, result).Has("instance.energy"));
}

TEST_F(CheckTest, Mutation14ShiftedMakespan) {
  const ctg::BranchAssignment assignment = sim::AssignmentFromScenario(
      ex_.graph, analysis_.EnumerateScenarioAssignments().front());
  sim::InstanceResult result =
      sim::ExecuteInstance(schedule_, assignment);
  result.makespan_ms += 4.0;
  result.deadline_met =
      result.makespan_ms <= ex_.graph.deadline_ms() + 1e-6;
  EXPECT_TRUE(CheckInstance(schedule_, assignment, result)
                  .Has("instance.makespan"));
}

TEST_F(CheckTest, Mutation15WrongActiveCount) {
  const ctg::BranchAssignment assignment = sim::AssignmentFromScenario(
      ex_.graph, analysis_.EnumerateScenarioAssignments().front());
  sim::InstanceResult result =
      sim::ExecuteInstance(schedule_, assignment);
  result.active_tasks += 1;
  EXPECT_TRUE(
      CheckInstance(schedule_, assignment, result).Has("instance.active"));
}

TEST_F(CheckTest, Mutation16FlippedDeadlineFlag) {
  const ctg::BranchAssignment assignment = sim::AssignmentFromScenario(
      ex_.graph, analysis_.EnumerateScenarioAssignments().front());
  sim::InstanceResult result =
      sim::ExecuteInstance(schedule_, assignment);
  ASSERT_GT(std::abs(result.makespan_ms - ex_.graph.deadline_ms()), 1e-3)
      << "boundary instance, flag flip would be suppressed";
  result.deadline_met = !result.deadline_met;
  EXPECT_TRUE(CheckInstance(schedule_, assignment, result)
                  .Has("instance.deadline-flag"));
}

// ---------------------------------------------------------------------------
// Report mechanics

TEST(CheckReport, MergeAndHas) {
  Report a;
  a.Add("rule.one", "first");
  Report b;
  b.Add("rule.two", "second");
  a.Merge(b);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.violations().size(), 2u);
  EXPECT_TRUE(a.Has("rule.one"));
  EXPECT_TRUE(a.Has("rule.two"));
  EXPECT_FALSE(a.Has("rule.three"));
  EXPECT_NE(a.ToString().find("rule.two"), std::string::npos);
}

// The oracle accepts mutex-aware schedules that overlap guard-exclusive
// tasks (the legal slot sharing the modified DLS exploits), across
// random conditional graphs.
TEST(CheckRandom, MutexAwareSchedulesStayClean) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    tgff::RandomCtgParams params;
    params.task_count = 14;
    params.fork_count = 2;
    params.pe_count = 2;
    params.seed = seed;
    tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
    apps::AssignDeadline(rc.graph, rc.platform, 2.0);
    const ctg::ActivationAnalysis analysis(rc.graph);
    const ctg::BranchProbabilities probs =
        apps::UniformProbabilities(rc.graph);
    sched::Schedule schedule =
        sched::RunDls(rc.graph, analysis, rc.platform, probs);
    const Report report = CheckSchedule(schedule);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.ToString();
  }
}

}  // namespace
}  // namespace actg::check
