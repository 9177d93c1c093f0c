/// \file test_options.cpp
/// Validate() contracts of the options structs (DlsOptions,
/// NlpOptions, AdaptiveOptions) and the adaptive
/// controller's up-front rejection of invalid options: construction
/// must throw before any scheduling work happens.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "ctg/activation.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"
#include "tgff/random_ctg.h"
#include "util/error.h"

namespace actg {
namespace {

TEST(DlsOptionsValidate, DefaultsOkFixedMappingChecked) {
  sched::DlsOptions options;
  EXPECT_FALSE(options.Validate());  // false == ok

  std::vector<PeId> empty;
  options.fixed_mapping = &empty;
  EXPECT_TRUE(options.Validate());

  std::vector<PeId> mapping{PeId{0}, PeId{1}};
  options.fixed_mapping = &mapping;
  EXPECT_FALSE(options.Validate());
}

TEST(NlpOptionsValidate, IterationsMustBePositive) {
  dvfs::NlpOptions options;
  EXPECT_FALSE(options.Validate());

  options.iterations = 0;
  EXPECT_TRUE(options.Validate());
  options.iterations = -1;
  EXPECT_TRUE(options.Validate());
}

TEST(AdaptiveOptionsValidate, ChecksWindowThresholdAndNested) {
  adaptive::AdaptiveOptions options;
  EXPECT_FALSE(options.Validate());

  options.window_length = 0;
  EXPECT_TRUE(options.Validate());
  options.window_length = 20;

  for (double bad : {0.0, -0.5, 1.5}) {
    options.threshold = bad;
    EXPECT_TRUE(options.Validate()) << "threshold " << bad;
  }
  options.threshold = 1.0;  // closed upper bound is allowed
  EXPECT_FALSE(options.Validate());

  std::vector<PeId> empty;
  options.dls.fixed_mapping = &empty;  // nested dls failure propagates
  const util::Error err = options.Validate();
  EXPECT_TRUE(err);
  EXPECT_NE(err.message().find("fixed_mapping"), std::string::npos)
      << err.message();
}

TEST(AdaptiveController, RejectsInvalidOptionsUpFront) {
  tgff::RandomCtgParams params;
  params.task_count = 12;
  params.pe_count = 2;
  params.fork_count = 1;
  params.seed = 5;
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(rc.graph, rc.platform, 1.3);
  const ctg::ActivationAnalysis analysis(rc.graph);
  const auto probs = apps::UniformProbabilities(rc.graph);

  adaptive::AdaptiveOptions bad;
  bad.window_length = 0;
  EXPECT_THROW(adaptive::AdaptiveController(rc.graph, analysis,
                                            rc.platform, probs, bad),
               actg::InvalidArgument);

  bad = {};
  bad.threshold = 2.0;
  EXPECT_THROW(adaptive::AdaptiveController(rc.graph, analysis,
                                            rc.platform, probs, bad),
               actg::InvalidArgument);

  // ThrowIfError surfaces the message of the failed validation.
  bad = {};
  std::vector<PeId> empty;
  bad.dls.fixed_mapping = &empty;
  try {
    adaptive::AdaptiveController controller(rc.graph, analysis,
                                            rc.platform, probs, bad);
    FAIL() << "construction should have thrown";
  } catch (const actg::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("fixed_mapping"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace actg
