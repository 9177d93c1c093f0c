/// \file test_condition_bitset.cpp
/// Differential tests of the bitset condition algebra against the DNF
/// algebra and against brute-force ground truth (enumeration of the
/// assignment space). The bitset layer only ever answers
/// form-independent predicates — evaluation, satisfiability,
/// compatibility — so those must agree with the DNF algebra on every
/// input; the randomized sweeps below check ~10k seeded cases, a
/// quarter of them over multi-word spaces wider than 256 bits.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/condition_bitset.h"
#include "ctg/graph.h"
#include "util/error.h"

namespace actg::ctg {
namespace {

/// Forks above this arity are "wide": the ground-truth sweep tries only
/// a representative subset of their outcomes (see Universe::Choices).
constexpr int kNarrowArity = 4;

/// Small universe: 1..4 forks of arity 2..4, so the full assignment
/// space stays enumerable (<= 256 assignments).
std::vector<int> SmallArities(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> fork_count(1, 4);
  std::uniform_int_distribution<int> arity(2, kNarrowArity);
  std::vector<int> arities(static_cast<std::size_t>(fork_count(rng)));
  for (int& a : arities) a = arity(rng);
  return arities;
}

/// Wide universe: a fork of 58..66 outcomes, then a narrow fork whose
/// field often straddles the first 64-bit word boundary, then wide forks
/// until the packed width exceeds 256 bits (>= 5 words).
std::vector<int> WideArities(std::mt19937_64& rng) {
  std::vector<int> arities{
      std::uniform_int_distribution<int>(58, 66)(rng),
      std::uniform_int_distribution<int>(2, kNarrowArity)(rng)};
  int width = arities[0] + arities[1];
  while (width <= 256) {
    arities.push_back(std::uniform_int_distribution<int>(100, 200)(rng));
    width += arities.back();
  }
  return arities;
}

std::vector<TaskId> ForksOf(std::size_t count) {
  std::vector<TaskId> forks;
  for (std::size_t i = 0; i < count; ++i) {
    forks.push_back(TaskId{static_cast<int>(i)});
  }
  return forks;
}

struct Universe {
  std::vector<TaskId> forks;
  std::vector<int> arities;
  ConditionSpace space;

  explicit Universe(std::vector<int> a)
      : forks(ForksOf(a.size())), arities(std::move(a)),
        space(forks, arities) {}

  Guard::ForkArity ArityFn() const {
    return [this](TaskId fork) {
      return fork.index() < arities.size()
                 ? arities[fork.index()]
                 : 0;
    };
  }

  /// True when some fork's field crosses a 64-bit word boundary, or
  /// (with \p narrow_only) some narrow fork's field does.
  bool Straddles(bool narrow_only) const {
    int offset = 0;
    for (int width : arities) {
      if ((!narrow_only || width <= kNarrowArity) &&
          offset / 64 != (offset + width - 1) / 64) {
        return true;
      }
      offset += width;
    }
    return false;
  }

  /// Outcomes the ground-truth sweep tries per fork: all of them for
  /// narrow forks; for wide forks the outcomes \p used mentions plus one
  /// it does not. Every guard built from \p used sees the unmentioned
  /// outcomes of a fork as one class, so the sweep stays exact.
  std::vector<std::vector<int>> Choices(
      const std::vector<Minterm>& used) const {
    std::vector<std::vector<int>> choices(forks.size());
    for (std::size_t f = 0; f < forks.size(); ++f) {
      if (arities[f] <= kNarrowArity) {
        for (int o = 0; o < arities[f]; ++o) choices[f].push_back(o);
        continue;
      }
      for (const Minterm& m : used) {
        for (const Condition& c : m.conditions()) {
          if (c.fork == forks[f]) choices[f].push_back(c.outcome);
        }
      }
      std::sort(choices[f].begin(), choices[f].end());
      choices[f].erase(std::unique(choices[f].begin(), choices[f].end()),
                       choices[f].end());
      for (int o = 0; o < arities[f]; ++o) {
        if (!std::binary_search(choices[f].begin(), choices[f].end(), o)) {
          choices[f].push_back(o);
          break;
        }
      }
    }
    return choices;
  }

  /// Every full branch assignment drawing fork f's outcome from
  /// choices[f].
  std::vector<BranchAssignment> Assignments(
      const std::vector<std::vector<int>>& choices) const {
    std::vector<BranchAssignment> all;
    std::vector<std::size_t> pick(forks.size(), 0);
    for (;;) {
      BranchAssignment a(forks.size());
      for (std::size_t f = 0; f < forks.size(); ++f) {
        a.Set(forks[f], choices[f][pick[f]]);
      }
      all.push_back(std::move(a));
      std::size_t f = 0;
      for (; f < forks.size(); ++f) {
        if (++pick[f] < choices[f].size()) break;
        pick[f] = 0;
      }
      if (f == forks.size()) break;
    }
    return all;
  }

  Minterm RandomMinterm(std::mt19937_64& rng) const {
    std::vector<Condition> conditions;
    for (std::size_t f = 0; f < forks.size(); ++f) {
      if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) continue;
      const int outcome =
          std::uniform_int_distribution<int>(0, arities[f] - 1)(rng);
      conditions.push_back(Condition{forks[f], outcome});
    }
    return *Minterm::FromConditions(std::move(conditions));
  }

  Guard RandomGuard(std::mt19937_64& rng) const {
    Guard g;
    const int terms = std::uniform_int_distribution<int>(0, 3)(rng);
    for (int t = 0; t < terms; ++t) {
      g = g.Or(Guard::Of(RandomMinterm(rng)), ArityFn());
    }
    return g;
  }
};

/// Every fourth draw of a sweep is a wide multi-word universe.
Universe DrawUniverse(std::mt19937_64& rng, int iter) {
  return Universe(iter % 4 == 3 ? WideArities(rng) : SmallArities(rng));
}

std::vector<std::uint64_t> EncodeM(const ConditionSpace& space,
                                   const Minterm& m) {
  std::vector<std::uint64_t> out;
  EXPECT_TRUE(space.Encode(m, out));
  return out;
}

BitGuard EncodeG(const ConditionSpace& space, const Guard& g) {
  BitGuard out;
  EXPECT_TRUE(space.Encode(g, out));
  return out;
}

/// Evaluates a bit guard under a full assignment: with every fork
/// constrained, "compatible" collapses to "holds".
bool EvalBit(const ConditionSpace& space, const BitGuard& g,
             const BranchAssignment& a) {
  std::vector<std::uint64_t> full;
  EXPECT_TRUE(space.EncodeAssignment(a, full));
  return g.CompatibleWith(BitMinterm(full));
}

TEST(BitsetDifferential, MintermOpsMatchDnfAcross10kCases) {
  std::mt19937_64 rng(20240807);
  int wide = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    const Universe u = DrawUniverse(rng, iter);
    const std::size_t bits = static_cast<std::size_t>(
        std::accumulate(u.arities.begin(), u.arities.end(), 0));
    ASSERT_EQ(u.space.bit_count(), bits);
    ASSERT_EQ(u.space.words(), (bits + 63) / 64);
    if (bits > 256) ++wide;
    const Minterm m1 = u.RandomMinterm(rng);
    const Minterm m2 = u.RandomMinterm(rng);
    const std::vector<std::uint64_t> w1 = EncodeM(u.space, m1);
    const std::vector<std::uint64_t> w2 = EncodeM(u.space, m2);
    const BitMinterm b1(w1);
    const BitMinterm b2(w2);

    EXPECT_EQ(b1.CompatibleWith(b2), m1.CompatibleWith(m2));
    EXPECT_EQ(b1.Implies(b2), m1.Implies(m2));
    EXPECT_EQ(b2.Implies(b1), m2.Implies(m1));
    EXPECT_EQ(b1.IsTrue(), m1.IsTrue());

    if (m1.CompatibleWith(m2)) {
      BitGuard conjoined = EncodeG(u.space, Guard::Of(m1));
      conjoined.AndWithMinterm(b2);
      ASSERT_EQ(conjoined.minterm_count(), 1u);
      EXPECT_EQ(conjoined.minterm(0),
                BitMinterm(EncodeM(u.space, *m1.Conjoin(m2))));
    }
  }
  EXPECT_EQ(wide, 2500);
}

TEST(BitsetDifferential, GuardPredicatesMatchDnfAndGroundTruth) {
  std::mt19937_64 rng(424242);
  int wide = 0, narrow_straddles = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const Universe u = DrawUniverse(rng, iter);
    if (u.space.bit_count() > 256) {
      ++wide;
      EXPECT_TRUE(u.Straddles(/*narrow_only=*/false));
      narrow_straddles += u.Straddles(/*narrow_only=*/true) ? 1 : 0;
    }
    const auto arity = u.ArityFn();
    const Guard g1 = u.RandomGuard(rng);
    const Guard g2 = u.RandomGuard(rng);
    const Minterm m = u.RandomMinterm(rng);
    std::vector<Minterm> used = g1.minterms();
    used.insert(used.end(), g2.minterms().begin(), g2.minterms().end());
    used.push_back(m);
    const auto assignments = u.Assignments(u.Choices(used));
    const BitGuard bg1 = EncodeG(u.space, g1);
    const BitGuard bg2 = EncodeG(u.space, g2);
    const std::vector<std::uint64_t> wm = EncodeM(u.space, m);
    const BitMinterm bm(wm);

    // Point-wise evaluation must agree everywhere.
    bool any1 = false, any2 = false, both = false, with_m = false;
    bool implies_semantically = true;
    for (const BranchAssignment& a : assignments) {
      const bool e1 = g1.Evaluate(a);
      const bool e2 = g2.Evaluate(a);
      EXPECT_EQ(EvalBit(u.space, bg1, a), e1);
      EXPECT_EQ(EvalBit(u.space, bg2, a), e2);
      any1 |= e1;
      any2 |= e2;
      both |= e1 && e2;
      with_m |= e1 && m.Evaluate(a);
      implies_semantically &= !e1 || e2;
    }

    // Emptiness == unsatisfiability (both representations drop
    // contradictory minterms).
    EXPECT_EQ(bg1.IsFalse(), !any1);
    EXPECT_EQ(g1.IsFalse(), !any1);

    // Compatibility == joint satisfiability.
    EXPECT_EQ(bg1.CompatibleWith(bg2), both);
    EXPECT_EQ(g1.CompatibleWith(g2), both);
    EXPECT_EQ(bg1.CompatibleWith(bm), with_m);
    EXPECT_EQ(g1.CompatibleWith(m), with_m);

    // Syntactic implication is sound in both representations.
    if (bg1.Implies(bg2)) {
      EXPECT_TRUE(implies_semantically);
    }
    if (g1.Implies(g2)) {
      EXPECT_TRUE(implies_semantically);
    }

    // Conjunction and disjunction, rebuilt both ways, must evaluate
    // identically to the DNF results.
    BitGuard band = bg1;
    BitGuard scratch;
    band.AndWith(bg2, scratch);
    BitGuard bor = bg1;
    bor.OrWith(bg2);
    BitGuard bandm = bg1;
    bandm.AndWithMinterm(bm);
    const Guard gand = g1.And(g2, arity);
    const Guard gor = g1.Or(g2, arity);
    for (const BranchAssignment& a : assignments) {
      const bool e1 = g1.Evaluate(a);
      EXPECT_EQ(EvalBit(u.space, band, a), gand.Evaluate(a));
      EXPECT_EQ(EvalBit(u.space, band, a), e1 && g2.Evaluate(a));
      EXPECT_EQ(EvalBit(u.space, bor, a), gor.Evaluate(a));
      EXPECT_EQ(EvalBit(u.space, bandm, a), e1 && m.Evaluate(a));
    }
  }
  EXPECT_EQ(wide, 500);
  EXPECT_GT(narrow_straddles, 0);
}

TEST(ConditionSpace, SingleWideForkSpansWords) {
  // One fork with more outcomes than four words hold: the space sizes
  // itself to five words and encodes the last outcome in the last word.
  const std::vector<TaskId> forks{TaskId{0}};
  const std::vector<int> arities{300};
  const ConditionSpace space(forks, arities);
  EXPECT_EQ(space.bit_count(), 300u);
  EXPECT_EQ(space.words(), 5u);
  std::vector<std::uint64_t> out(2 * space.words(), 0);
  ASSERT_TRUE(space.Encode(Condition{TaskId{0}, 299}, out));
  // Words 0..4 are the bits, words 5..9 the mask.
  EXPECT_EQ(out[4], std::uint64_t{1} << (299 - 256));
  EXPECT_EQ(out[5], ~std::uint64_t{0});
  EXPECT_EQ(out[9], (std::uint64_t{1} << (300 - 256)) - 1);

  // Garbage input still fails and leaves the output untouched.
  const std::vector<std::uint64_t> before = out;
  EXPECT_FALSE(space.Encode(Condition{TaskId{0}, 300}, out));
  EXPECT_FALSE(space.Encode(Condition{TaskId{1}, 0}, out));
  EXPECT_EQ(out, before);
}

TEST(ConditionSpace, WordCountFollowsPackedWidth) {
  // Four 64-outcome forks exactly fill four words; a fifth needs a
  // fifth word, and a graph without forks still gets one word.
  std::vector<TaskId> forks;
  std::vector<int> arities;
  EXPECT_EQ(ConditionSpace(forks, arities).words(), 1u);
  for (int f = 0; f < 4; ++f) {
    forks.push_back(TaskId{f});
    arities.push_back(64);
  }
  const ConditionSpace fits(forks, arities);
  EXPECT_EQ(fits.bit_count(), 256u);
  EXPECT_EQ(fits.words(), 4u);
  std::vector<std::uint64_t> out(2 * fits.words(), 0);
  EXPECT_TRUE(fits.Encode(Condition{TaskId{3}, 63}, out));
  EXPECT_EQ(out[3], 1ull << 63);

  forks.push_back(TaskId{4});
  arities.push_back(64);
  const ConditionSpace wider(forks, arities);
  EXPECT_EQ(wider.bit_count(), 320u);
  EXPECT_EQ(wider.words(), 5u);
}

TEST(ConditionSpace, RejectsMalformedLayouts) {
  // The layout preconditions CtgBuilder guarantees are checked, not
  // turned into a fallback.
  EXPECT_THROW(ConditionSpace({TaskId{0}}, {1}), InvalidArgument);
  EXPECT_THROW(ConditionSpace({TaskId{0}, TaskId{0}}, {2, 2}),
               InvalidArgument);
  EXPECT_THROW(ConditionSpace({TaskId{0}}, {2, 3}), InvalidArgument);
}

TEST(ConditionSpace, ActivationAnalysisCompilesWideGraph) {
  // End-to-end: a graph whose forks need more than four words compiles
  // to bit guards, and the analysis' mutex matrix equals the DNF
  // algebra's answer on every pair.
  CtgBuilder builder;
  const TaskId source = builder.AddTask("src");
  TaskId prev = source;
  constexpr int kForks = 3;
  constexpr int kOutcomes = 100;  // 3 * 100 = 300 bits > 256
  std::vector<TaskId> first_branches;  // branch 0 and 1 of each fork
  std::vector<TaskId> second_branches;
  for (int f = 0; f < kForks; ++f) {
    const TaskId fork = builder.AddOrTask("fork" + std::to_string(f));
    builder.AddEdge(prev, fork);
    const TaskId join = builder.AddOrTask("join" + std::to_string(f));
    for (int o = 0; o < kOutcomes; ++o) {
      const TaskId branch = builder.AddTask(
          "b" + std::to_string(f) + "_" + std::to_string(o));
      builder.AddConditionalEdge(fork, branch, o);
      builder.AddEdge(branch, join);
      if (o == 0) first_branches.push_back(branch);
      if (o == 1) second_branches.push_back(branch);
    }
    prev = join;
  }
  builder.SetDeadline(1000.0);
  const Ctg graph = std::move(builder).Build();

  const ActivationAnalysis analysis(graph);
  EXPECT_EQ(analysis.space().bit_count(), 300u);
  EXPECT_EQ(analysis.space().words(), 5u);
  for (TaskId a : graph.TaskIds()) {
    for (TaskId b : graph.TaskIds()) {
      if (a == b) continue;
      EXPECT_EQ(analysis.MutuallyExclusive(a, b),
                !analysis.ActivationGuard(a).CompatibleWith(
                    analysis.ActivationGuard(b)))
          << graph.task(a).name << " / " << graph.task(b).name;
    }
  }
  // Two branches of one fork are mutually exclusive, branches of
  // different forks are not.
  EXPECT_TRUE(
      analysis.MutuallyExclusive(first_branches[0], second_branches[0]));
  EXPECT_FALSE(
      analysis.MutuallyExclusive(first_branches[0], first_branches[1]));
}

}  // namespace
}  // namespace actg::ctg
