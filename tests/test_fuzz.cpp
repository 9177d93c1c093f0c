#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/common.h"
#include "check/fuzz.h"
#include "check/validator.h"
#include "ctg/activation.h"
#include "sched/dls.h"
#include "sim/executor.h"
#include "tgff/random_ctg.h"
#include "util/rng.h"

namespace actg::check {
namespace {

// ---------------------------------------------------------------------------
// Differential test: the modified DLS against brute-force enumeration of
// every task->PE mapping (DLS still does the ordering on each fixed
// mapping). On <= 7-task, 2-PE graphs the 2^n mapping space is
// exhaustive, so the minimum over it bounds what any mapping heuristic
// can reach with this ordering rule.

struct DiffCase {
  tgff::RandomCase rc;
  ctg::ActivationAnalysis analysis;
  ctg::BranchProbabilities probs;

  explicit DiffCase(tgff::RandomCase c)
      : rc(std::move(c)),
        analysis(rc.graph),
        probs(apps::UniformProbabilities(rc.graph)) {}
};

DiffCase MakeDiffCase(std::uint64_t seed) {
  tgff::RandomCtgParams params;
  params.pe_count = 2;
  params.task_count = 4 + static_cast<int>(seed % 4);  // 4..7
  params.fork_count = params.task_count >= 5 ? static_cast<int>(seed % 2)
                                             : 0;
  params.category = tgff::Category::kFlat;
  params.seed = seed;
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(rc.graph, rc.platform, 2.0);
  return DiffCase(std::move(rc));
}

TEST(Differential, DlsWithinExhaustiveMappingEnvelope) {
  // The pinned heuristic gap: across the 100 seeds below the worst
  // DLS-over-best-mapping ratio observed is ~1.22 (greedy mapping pays
  // for communication it cannot foresee). 1.5 leaves headroom for
  // platform-dependent FP rounding while still catching a real mapping
  // regression, which lands far above it.
  constexpr double kMaxGap = 1.5;
  double worst_gap = 0.0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const DiffCase d = MakeDiffCase(seed);
    const std::size_t n = d.rc.graph.task_count();
    ASSERT_LE(n, 7u);

    sched::Schedule dls = sched::RunDls(d.rc.graph, d.analysis,
                                        d.rc.platform, d.probs);
    Expectations expect;
    expect.deadline_feasible = true;  // deadline = 2x this very makespan
    const Report report = CheckSchedule(dls, expect);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << ": " << report.ToString();

    double best = dls.Makespan();
    for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits) {
      std::vector<PeId> mapping(n);
      for (std::size_t t = 0; t < n; ++t) {
        mapping[t] = PeId{static_cast<int>((bits >> t) & 1)};
      }
      sched::DlsOptions fixed;
      fixed.fixed_mapping = &mapping;
      sched::Schedule candidate = sched::RunDls(
          d.rc.graph, d.analysis, d.rc.platform, d.probs, fixed);
      const Report fixed_report = CheckSchedule(candidate);
      ASSERT_TRUE(fixed_report.ok()) << "seed " << seed << " mapping "
                                     << bits << ": "
                                     << fixed_report.ToString();
      best = std::min(best, candidate.Makespan());
    }
    ASSERT_GT(best, 0.0);
    const double gap = dls.Makespan() / best;
    worst_gap = std::max(worst_gap, gap);
    // DLS's own mapping is inside the enumerated space, so it can never
    // beat the envelope.
    EXPECT_GE(gap, 1.0 - 1e-9) << "seed " << seed;
    EXPECT_LE(gap, kMaxGap) << "seed " << seed << ": DLS makespan "
                            << dls.Makespan() << " vs best mapping "
                            << best;
  }
  std::cout << "worst DLS/best-mapping gap over 100 seeds: " << worst_gap
            << "\n";
}

// ---------------------------------------------------------------------------
// Generator + repro format

TEST(FuzzGenerator, SpecsAreDeterministicAndDiverse) {
  const util::Random root(7);
  bool saw_faults = false, saw_adaptive = false, saw_mask = false;
  bool saw_flat = false, saw_forkjoin = false;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const FuzzCaseSpec a = RandomSpec(root, i);
    const FuzzCaseSpec b = RandomSpec(root, i);
    EXPECT_EQ(a.params.seed, b.params.seed);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.trace_instances, b.trace_instances);
    EXPECT_TRUE(a.params.Validate().ok()) << a.params.Validate().message();
    saw_faults |= a.with_faults;
    saw_adaptive |= a.adaptive;
    saw_mask |= a.masked_pes != 0;
    saw_flat |= a.params.category == tgff::Category::kFlat;
    saw_forkjoin |= a.params.category == tgff::Category::kForkJoin;
  }
  EXPECT_TRUE(saw_faults);
  EXPECT_TRUE(saw_adaptive);
  EXPECT_TRUE(saw_mask);
  EXPECT_TRUE(saw_flat);
  EXPECT_TRUE(saw_forkjoin);
}

TEST(FuzzRepro, RoundTripPreservesTheCase) {
  const util::Random root(11);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const FuzzCase original = Materialize(RandomSpec(root, i));
    std::stringstream ss;
    WriteRepro(ss, original);
    util::Expected<FuzzCase> parsed = ParseRepro(ss);
    ASSERT_TRUE(parsed.ok()) << parsed.error().message();
    const FuzzCase& back = parsed.value();
    EXPECT_EQ(back.graph.task_count(), original.graph.task_count());
    EXPECT_EQ(back.graph.edge_count(), original.graph.edge_count());
    EXPECT_NEAR(back.graph.deadline_ms(), original.graph.deadline_ms(),
                1e-6);
    EXPECT_EQ(back.platform.pe_count(), original.platform.pe_count());
    EXPECT_EQ(back.policy, original.policy);
    EXPECT_EQ(back.mutex_aware, original.mutex_aware);
    EXPECT_EQ(back.prob_weighted, original.prob_weighted);
    EXPECT_EQ(back.masked_pes, original.masked_pes);
    EXPECT_EQ(back.prob_seed, original.prob_seed);
    EXPECT_EQ(back.trace_instances, original.trace_instances);
    EXPECT_EQ(back.adaptive, original.adaptive);
    EXPECT_EQ(back.with_faults, original.with_faults);
    // The replayed case must reproduce the original's verdict.
    EXPECT_EQ(RunCase(back).ok(), RunCase(original).ok());
  }
}

TEST(FuzzRepro, MalformedInputIsAnErrorNotACrash) {
  const auto expect_fail = [](const std::string& text) {
    std::istringstream is(text);
    util::Expected<FuzzCase> parsed = ParseRepro(is);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_NE(parsed.error().message().find("fuzzcase line "),
              std::string::npos)
        << parsed.error().message();
  };
  expect_fail("");
  expect_fail("not a fuzzcase\n");
  expect_fail("fuzzcase v1\nend\n");                    // no graph
  expect_fail("fuzzcase v1\nbogus directive\nend\n");
  expect_fail("fuzzcase v1\npolicy\nend\n");            // missing operand

  // A valid repro with one knob line broken: every value is strict.
  std::stringstream valid;
  WriteRepro(valid, Materialize(RandomSpec(util::Random(11), 0)));
  ASSERT_TRUE(ParseRepro(valid).ok());
  const std::string text = valid.str();
  const auto with_line = [&](const std::string& directive,
                             const std::string& line) {
    const std::size_t at = text.find("\n" + directive + " ") + 1;
    return text.substr(0, at) + line + text.substr(text.find('\n', at));
  };
  expect_fail(with_line("trace_instances", "trace_instances -1"));
  expect_fail(with_line("prob_seed", "prob_seed -3"));
  expect_fail(with_line("mutex_aware", "mutex_aware 1x"));
  expect_fail(with_line("adaptive", "adaptive 7"));
  expect_fail(with_line("policy", "policy online extra"));
  expect_fail(with_line("policy", "policy bogus"));
}

// ---------------------------------------------------------------------------
// Shrinker

TEST(FuzzShrink, ReachesTheMinimalCaseForASyntheticPredicate) {
  FuzzCaseSpec spec = RandomSpec(util::Random(5), 0);
  // Fork-free flat graph so every task is individually droppable and
  // the shrinker cannot stall on fork-outcome structure.
  spec.params.task_count = 14;
  spec.params.fork_count = 0;
  spec.params.pe_count = 3;
  spec.params.category = tgff::Category::kFlat;
  spec.params.seed = 5;
  spec.with_faults = true;
  spec.adaptive = true;
  FuzzCase c = Materialize(spec);
  ASSERT_GE(c.graph.task_count(), 3u);

  // "Fails" whenever at least 3 tasks remain: the shrinker must strip
  // the case to exactly 3 tasks and strip every optional knob.
  const FuzzCase shrunk = Shrink(c, [](const FuzzCase& cand) {
    return cand.graph.task_count() >= 3;
  });
  EXPECT_EQ(shrunk.graph.task_count(), 3u);
  EXPECT_FALSE(shrunk.adaptive);
  EXPECT_FALSE(shrunk.with_faults);
  EXPECT_EQ(shrunk.masked_pes, 0u);
  EXPECT_EQ(shrunk.trace_instances, 1u);
  EXPECT_EQ(shrunk.platform.pe_count(), 1u);
  EXPECT_EQ(shrunk.platform.task_count(), shrunk.graph.task_count());
}

TEST(FuzzShrink, KeepsTheCaseRunnable) {
  const FuzzCase c = Materialize(RandomSpec(util::Random(13), 3));
  const FuzzCase shrunk = Shrink(c, [](const FuzzCase& cand) {
    return cand.graph.edge_count() >= 1;
  });
  EXPECT_GE(shrunk.graph.edge_count(), 1u);
  // Whatever the shrinker produced still goes through the pipeline.
  const Report report = RunCase(shrunk);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// ---------------------------------------------------------------------------
// End-to-end smoke + committed corpus replay

TEST(FuzzSmoke, SixtyRandomCasesProduceNoViolation) {
  const util::Random root(42);
  for (std::uint64_t i = 0; i < 60; ++i) {
    const FuzzCase c = Materialize(RandomSpec(root, i));
    const Report report = RunCase(c);
    EXPECT_TRUE(report.ok())
        << "seed 42 index " << i << ": " << report.ToString();
  }
}

TEST(FuzzCorpus, CommittedReprosReplayClean) {
  const std::filesystem::path dir =
      std::filesystem::path(ACTG_TEST_CORPUS_DIR) / "check";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".fuzzcase") continue;
    std::ifstream is(entry.path());
    ASSERT_TRUE(is.good()) << entry.path();
    util::Expected<FuzzCase> c = ParseRepro(is);
    ASSERT_TRUE(c.ok()) << entry.path() << ": " << c.error().message();
    const Report report = RunCase(c.value());
    EXPECT_TRUE(report.ok())
        << entry.path() << ": " << report.ToString();
    ++replayed;
  }
  EXPECT_GE(replayed, 3u) << "corpus unexpectedly empty: " << dir;
}

// Malformed corpus: every tests/corpus/fuzzcase file must be rejected
// with the diagnostic pinned in its '# expect: <substring>' first line.
// The directory sits outside corpus/check, so the replay above and the
// replay globs never see these files.
TEST(FuzzMalformedCorpus, EveryFileIsRejectedWithItsPinnedDiagnostic) {
  const std::filesystem::path dir =
      std::filesystem::path(ACTG_TEST_CORPUS_DIR) / "fuzzcase";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t cases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".fuzzcase") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream is(entry.path());
    std::string first;
    std::getline(is, first);
    const std::string marker = "# expect: ";
    ASSERT_EQ(first.rfind(marker, 0), 0u)
        << "corpus file lacks a '# expect: <substring>' first line";
    is.seekg(0);
    const util::Expected<FuzzCase> parsed = ParseRepro(is);
    ASSERT_FALSE(parsed.ok()) << "malformed input parsed successfully";
    EXPECT_NE(parsed.error().message().find(first.substr(marker.size())),
              std::string::npos)
        << "diagnostic was: " << parsed.error().message();
    ++cases;
  }
  EXPECT_GE(cases, 1u) << "corpus went missing: " << dir;
}

}  // namespace
}  // namespace actg::check
