#include <gtest/gtest.h>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/cruise.h"
#include "check/validator.h"
#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "dvfs/algorithms.h"
#include "experiments.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/session.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "util/rng.h"

// End-to-end checks that the full pipelines reproduce the *shape* of the
// paper's evaluation (Section IV). These are scaled-down versions of the
// bench harnesses so regressions in any stage (condition algebra, DLS,
// stretching, profiling, adaptation) surface as failed orderings here.

namespace actg {
namespace {

TEST(Table1Shape, OnlineBeatsRef1AndRef2BeatsOnline) {
  int ref1_wins = 0;
  int ref2_wins = 0;
  int cases = 0;
  for (bench::TestCase& test : bench::MakeTable1Cases()) {
    ++cases;
    const ctg::ActivationAnalysis analysis(test.rc.graph);
    util::Random rng(99 + static_cast<std::uint64_t>(cases));
    ctg::BranchProbabilities probs(test.rc.graph.task_count());
    for (TaskId fork : test.rc.graph.ForkIds()) {
      const double p = rng.Uniform(0.1, 0.9);
      probs.Set(fork, {p, 1.0 - p});
    }
    const double online = sim::ExpectedEnergy(
        dvfs::RunWithPolicy(dvfs::StretchPolicy::kOnline, test.rc.graph,
                            analysis, test.rc.platform, probs),
        probs);
    const double ref1 = sim::ExpectedEnergy(
        dvfs::RunReference1(test.rc.graph, analysis, test.rc.platform,
                            probs),
        probs);
    const double ref2 = sim::ExpectedEnergy(
        dvfs::RunReference2(test.rc.graph, analysis, test.rc.platform,
                            probs),
        probs);
    if (ref1 > online) ++ref1_wins;
    if (ref2 < online) ++ref2_wins;
    // Paper band: Ref1 in [130, 290] normalized; we accept > 120.
    EXPECT_GT(ref1 / online, 1.2) << "case " << cases;
    // Ref2 in [87, 97]; we accept [0.6, 1.0].
    EXPECT_LT(ref2 / online, 1.0) << "case " << cases;
    EXPECT_GT(ref2 / online, 0.6) << "case " << cases;
  }
  EXPECT_EQ(ref1_wins, cases);
  EXPECT_EQ(ref2_wins, cases);
}

TEST(Table4Shape, AdaptiveBeatsMisprofiledOnlineOverall) {
  double online_total = 0.0, t05_total = 0.0, t01_total = 0.0;
  int index = 0;
  for (bench::TestCase& test : bench::MakeTable45Cases()) {
    ++index;
    if (index > 4) break;  // subset keeps the test fast
    const ctg::ActivationAnalysis analysis(test.rc.graph);
    const trace::BranchTrace vectors = bench::MakeFluctuatingVectors(
        test.rc.graph, 400, 777 + static_cast<std::uint64_t>(index));
    const auto profile = bench::BiasedProfile(
        test.rc.graph, analysis, test.rc.platform, /*lowest=*/true);
    bench::ExperimentSpec spec(test.rc.graph, analysis, test.rc.platform);
    spec.WithProfile(profile).WithWindow(20).WithScheduleCache();
    const auto cmp = bench::CompareAdaptive(spec, vectors);
    online_total += cmp.online_energy;
    t05_total += cmp.adaptive_energy_t05;
    t01_total += cmp.adaptive_energy_t01;
    // Lower threshold => at least as many calls.
    EXPECT_GE(cmp.calls_t01, cmp.calls_t05);
  }
  EXPECT_LT(t05_total, online_total);
  EXPECT_LT(t01_total, online_total);
}

TEST(Table5Shape, HighBiasSavingsSmallerThanLowBias) {
  double low_online = 0.0, low_adaptive = 0.0;
  double high_online = 0.0, high_adaptive = 0.0;
  int index = 0;
  for (bench::TestCase& test : bench::MakeTable45Cases()) {
    ++index;
    if (index > 3) break;
    const ctg::ActivationAnalysis analysis(test.rc.graph);
    const trace::BranchTrace vectors = bench::MakeFluctuatingVectors(
        test.rc.graph, 400, 777 + static_cast<std::uint64_t>(index));
    for (bool lowest : {true, false}) {
      const auto profile = bench::BiasedProfile(
          test.rc.graph, analysis, test.rc.platform, lowest);
      bench::ExperimentSpec spec(test.rc.graph, analysis,
                                 test.rc.platform);
      spec.WithProfile(profile).WithWindow(20).WithScheduleCache();
      const auto cmp = bench::CompareAdaptive(spec, vectors);
      if (lowest) {
        low_online += cmp.online_energy;
        low_adaptive += cmp.adaptive_energy_t01;
      } else {
        high_online += cmp.online_energy;
        high_adaptive += cmp.adaptive_energy_t01;
      }
    }
  }
  const double low_saving = 1.0 - low_adaptive / low_online;
  const double high_saving = 1.0 - high_adaptive / high_online;
  // Paper: ~23% (low bias) vs ~5% (high bias): misprofiling toward the
  // cheap scenario is much worse than toward the expensive one.
  EXPECT_GT(low_saving, high_saving);
  EXPECT_GT(low_saving, 0.0);
}

TEST(BiasedProfiles, ExtremeScenariosDiffer) {
  for (bench::TestCase& test : bench::MakeTable1Cases()) {
    const ctg::ActivationAnalysis analysis(test.rc.graph);
    const auto low = bench::BiasedProfile(test.rc.graph, analysis,
                                          test.rc.platform, true);
    const auto high = bench::BiasedProfile(test.rc.graph, analysis,
                                           test.rc.platform, false);
    bool differs = false;
    for (TaskId fork : test.rc.graph.ForkIds()) {
      if (std::abs(low.Outcome(fork, 0) - high.Outcome(fork, 0)) >
          1e-9) {
        differs = true;
      }
      // Biased entries are 0.95/0.05 or uniform.
      const double p = low.Outcome(fork, 0);
      EXPECT_TRUE(std::abs(p - 0.95) < 1e-9 ||
                  std::abs(p - 0.05) < 1e-9 || std::abs(p - 0.5) < 1e-9);
    }
    EXPECT_TRUE(differs);
    break;  // one case suffices
  }
}

TEST(FluctuatingVectors, EqualAveragesWithLargeSwings) {
  bench::TestCase test = std::move(bench::MakeTable45Cases()[0]);
  const trace::BranchTrace vectors =
      bench::MakeFluctuatingVectors(test.rc.graph, 2000, 5);
  for (TaskId fork : test.rc.graph.ForkIds()) {
    // Long-run average near 0.5 ("average probabilities ... equal").
    EXPECT_NEAR(vectors.EmpiricalProbability(fork, 0), 0.5, 0.08);
    // Local windows swing far from it (fluctuation 0.4-0.5).
    double lo = 1.0, hi = 0.0;
    for (std::size_t begin = 0; begin + 50 <= vectors.size();
         begin += 50) {
      const double p =
          vectors.EmpiricalProbability(fork, 0, begin, begin + 50);
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    EXPECT_GT(hi - lo, 0.4);
  }
}

TEST(MpegPipeline, FullProtocolRunsCleanly) {
  const apps::MpegModel model = apps::MakeMpegModel();
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto movie = apps::MpegMovieProfiles()[0];
  const trace::BranchTrace full =
      apps::GenerateMovieTrace(model, movie, 600);
  const auto profile =
      full.Slice(0, 300).ProfiledProbabilities(model.graph);

  adaptive::AdaptiveOptions options;
  options.window_length = 20;
  options.threshold = 0.1;
  // Oracle-check every reschedule the controller performs on the fly.
  options.validate_schedules = true;
  adaptive::AdaptiveController controller(model.graph, analysis,
                                          model.platform, profile,
                                          options);
  const sim::RunSummary run =
      adaptive::RunAdaptive(controller, full.Slice(300, 600));
  EXPECT_EQ(run.instances, 300u);
  EXPECT_EQ(run.deadline_misses, 0u);
  EXPECT_GT(run.total_energy_mj, 0.0);
  controller.current_schedule().Validate();
  check::Validate(controller.current_schedule());
}

TEST(CruisePipeline, AdaptiveNeverMissesDeadlines) {
  const apps::CruiseModel model = apps::MakeCruiseModel();
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto training = apps::GenerateRoadTrace(model, 1, 300, 11);
  const auto profile = training.ProfiledProbabilities(model.graph);
  for (int sequence = 1; sequence <= 3; ++sequence) {
    const auto vectors =
        apps::GenerateRoadTrace(model, sequence, 300, 100 + sequence);
    adaptive::AdaptiveOptions options;
    options.window_length = 20;
    options.threshold = 0.1;
    options.validate_schedules = true;
    adaptive::AdaptiveController controller(model.graph, analysis,
                                            model.platform, profile,
                                            options);
    const sim::RunSummary run = adaptive::RunAdaptive(controller, vectors);
    EXPECT_EQ(run.deadline_misses, 0u) << "sequence " << sequence;
    check::Validate(controller.current_schedule());
  }
}

TEST(Determinism, WholeExperimentReproducesExactly) {
  // The entire Table 4 column for one CTG must be bit-identical across
  // runs — the recorded experiment outputs depend on it.
  auto run_once = [] {
    bench::TestCase test = std::move(bench::MakeTable45Cases()[2]);
    const ctg::ActivationAnalysis analysis(test.rc.graph);
    const auto vectors =
        bench::MakeFluctuatingVectors(test.rc.graph, 300, 780);
    const auto profile = bench::BiasedProfile(test.rc.graph, analysis,
                                              test.rc.platform, true);
    bench::ExperimentSpec spec(test.rc.graph, analysis, test.rc.platform);
    spec.WithProfile(profile).WithWindow(20).WithScheduleCache();
    return bench::CompareAdaptive(spec, vectors);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.online_energy, b.online_energy);
  EXPECT_DOUBLE_EQ(a.adaptive_energy_t05, b.adaptive_energy_t05);
  EXPECT_DOUBLE_EQ(a.adaptive_energy_t01, b.adaptive_energy_t01);
  EXPECT_EQ(a.calls_t05, b.calls_t05);
  EXPECT_EQ(a.calls_t01, b.calls_t01);
}

TEST(ServeFleet, OracleValidatesSampledInstancesOfEveryTenant) {
  // Replay a mixed-SLA fleet with the oracle enabled (validate=true
  // checks every freshly computed schedule inside the controllers),
  // then independently re-validate at least one instance per tenant:
  // re-execute it against the tenant's final schedule and hand the
  // result to check::ValidateInstance (fresh ASAP pass + energy
  // re-integration).
  serve::FleetRequest fleet = serve::SyntheticFleet(9, 5, 13);
  fleet.config.validate = true;
  serve::ServerOptions options;
  options.jobs = 4;
  serve::Server server(std::move(fleet), options);
  const serve::FleetReport& report = server.Run();
  EXPECT_EQ(report.shed_tenants, 0u) << "fleet sized to admit everyone";

  std::size_t sampled = 0;
  for (const auto& session : server.sessions()) {
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->state(), serve::SessionState::kShutdown);
    const sched::Schedule& schedule =
        session->controller().current_schedule();
    check::Validate(schedule);
    // Sample the first and last instance of the tenant's trace.
    for (const std::size_t index :
         {std::size_t{0}, session->request().instances - 1}) {
      const sim::InstanceResult replay =
          sim::ExecuteInstance(schedule, session->assignment(index));
      check::ValidateInstance(schedule, session->assignment(index),
                              replay);
      ++sampled;
    }
  }
  EXPECT_EQ(sampled, 2 * report.tenants.size());
}

}  // namespace
}  // namespace actg
