#include <gtest/gtest.h>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/fig1_example.h"
#include "ctg/activation.h"
#include "dvfs/algorithms.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"
#include "util/error.h"

namespace actg::dvfs {
namespace {

struct PolicyFixture : public ::testing::Test {
 protected:
  PolicyFixture()
      : ex_(apps::MakeFig1Example()),
        analysis_(ex_.graph),
        probs_(apps::UniformProbabilities(ex_.graph)) {}

  sched::Schedule Scheduled() const {
    return sched::RunDls(ex_.graph, analysis_, ex_.platform, probs_);
  }

  apps::Fig1Example ex_;
  ctg::ActivationAnalysis analysis_;
  ctg::BranchProbabilities probs_;
};

void ExpectSameStretch(const sched::Schedule& a, const sched::Schedule& b) {
  ASSERT_EQ(a.graph().task_count(), b.graph().task_count());
  for (TaskId task : a.graph().TaskIds()) {
    EXPECT_EQ(a.placement(task).pe, b.placement(task).pe);
    EXPECT_DOUBLE_EQ(a.placement(task).speed_ratio,
                     b.placement(task).speed_ratio);
  }
  EXPECT_DOUBLE_EQ(a.Makespan(), b.Makespan());
}

TEST(StretchPolicyName, RoundTripsThroughParse) {
  for (const StretchPolicy policy :
       {StretchPolicy::kOnline, StretchPolicy::kProportional,
        StretchPolicy::kNlp}) {
    EXPECT_EQ(ParseStretchPolicy(StretchPolicyName(policy)), policy);
  }
  // The names are what text formats and option structs carry.
  EXPECT_STREQ(StretchPolicyName(StretchPolicy::kOnline), "online");
  EXPECT_STREQ(StretchPolicyName(StretchPolicy::kProportional),
               "proportional");
  EXPECT_STREQ(StretchPolicyName(StretchPolicy::kNlp), "nlp");
  EXPECT_FALSE(ParseStretchPolicy("simulated-annealing").has_value());
}

TEST_F(PolicyFixture, UnknownPolicyIsReported) {
  // A name outside the closed set is reported by name where it enters.
  adaptive::AdaptiveOptions options;
  options.policy = "simulated-annealing";
  const util::Error err = options.Validate();
  ASSERT_TRUE(static_cast<bool>(err));
  EXPECT_NE(err.message().find("'simulated-annealing'"), std::string::npos)
      << err.message();
  // An out-of-range value has no name that parses back, and Stretch
  // refuses it instead of leaving the schedule unstretched.
  const auto bogus = static_cast<StretchPolicy>(99);
  EXPECT_FALSE(ParseStretchPolicy(StretchPolicyName(bogus)).has_value());
  sched::Schedule s = Scheduled();
  EXPECT_THROW(Stretch(bogus, s, probs_), InvalidArgument);
}

TEST_F(PolicyFixture, PoliciesMatchLegacyFreeFunctions) {
  // Stretch() is a dispatch, not a re-implementation: each policy must
  // stretch bit-identically to the free function it selects.
  struct Pair {
    StretchPolicy policy;
    StretchStats (*legacy)(sched::Schedule&,
                           const ctg::BranchProbabilities&);
  };
  const Pair pairs[] = {
      {StretchPolicy::kOnline,
       [](sched::Schedule& s, const ctg::BranchProbabilities& p) {
         return StretchOnline(s, p);
       }},
      {StretchPolicy::kProportional,
       [](sched::Schedule& s, const ctg::BranchProbabilities&) {
         return StretchProportional(s);
       }},
      {StretchPolicy::kNlp,
       [](sched::Schedule& s, const ctg::BranchProbabilities& p) {
         return StretchNlp(s, p);
       }},
  };
  for (const Pair& pair : pairs) {
    SCOPED_TRACE(StretchPolicyName(pair.policy));
    sched::Schedule via_policy = Scheduled();
    sched::Schedule via_legacy = Scheduled();
    const StretchStats policy_stats =
        Stretch(pair.policy, via_policy, probs_);
    const StretchStats legacy_stats = pair.legacy(via_legacy, probs_);
    ExpectSameStretch(via_policy, via_legacy);
    EXPECT_EQ(policy_stats.path_count, legacy_stats.path_count);
    EXPECT_DOUBLE_EQ(policy_stats.total_extension_ms,
                     legacy_stats.total_extension_ms);
    EXPECT_DOUBLE_EQ(policy_stats.max_path_delay_ms,
                     legacy_stats.max_path_delay_ms);
  }
}

TEST_F(PolicyFixture, StretchWithExplicitEngineMatchesTransient) {
  PathEngine engine(ex_.graph, analysis_, ex_.platform);
  sched::Schedule pooled = Scheduled();
  sched::Schedule transient = Scheduled();
  Stretch(StretchPolicy::kOnline, pooled, probs_, 0.0, nullptr, {}, &engine);
  Stretch(StretchPolicy::kOnline, transient, probs_);
  ExpectSameStretch(pooled, transient);
}

TEST_F(PolicyFixture, RunWithPolicyMatchesNamedWrappers) {
  // Reference Algorithm 2 is the modified DLS followed by kNlp.
  ExpectSameStretch(
      RunWithPolicy(StretchPolicy::kNlp, ex_.graph, analysis_, ex_.platform,
                    probs_),
      RunReference2(ex_.graph, analysis_, ex_.platform, probs_));
}

TEST_F(PolicyFixture, AdaptiveControllerRejectsUnknownPolicy) {
  adaptive::AdaptiveOptions options;
  options.policy = "nope";
  EXPECT_TRUE(static_cast<bool>(options.Validate()));
  EXPECT_THROW(adaptive::AdaptiveController(ex_.graph, analysis_,
                                            ex_.platform, probs_, options),
               InvalidArgument);
}

TEST_F(PolicyFixture, AdaptiveControllerHonorsSelectedPolicy) {
  // A proportional-policy controller must produce the proportional
  // stretch on its initial schedule.
  adaptive::AdaptiveOptions options;
  options.policy = "proportional";
  adaptive::AdaptiveController controller(ex_.graph, analysis_,
                                          ex_.platform, probs_, options);
  sched::Schedule expected = Scheduled();
  StretchProportional(expected);
  ExpectSameStretch(controller.current_schedule(), expected);
}

}  // namespace
}  // namespace actg::dvfs
