/// \file activation.h
/// Activation analysis of a CTG (paper Section II).
///
/// Computes, for every task τ, the activation condition X(τ) as a guard
/// (DNF of minterms), the associated minterm set Γ(τ), the pairwise
/// mutual-exclusion relation, the implied dependencies between or-nodes
/// and the branch fork nodes that decide their activating alternative
/// (paper Example 1), and the set of execution *scenarios* (maximal
/// consistent fork-outcome assignments, e.g. {a1, a2b1, a2b2} for the
/// paper's Figure 1).

#ifndef ACTG_CTG_ACTIVATION_H
#define ACTG_CTG_ACTIVATION_H

#include <vector>

#include "ctg/condition.h"
#include "ctg/condition_bitset.h"
#include "ctg/graph.h"

namespace actg::ctg {

/// A maximal consistent assignment of outcomes to the forks that are
/// active under that assignment, with its probability under a given
/// branch distribution.
struct Scenario {
  Minterm assignment;
  double probability = 0.0;
};

/// Immutable analysis result bound to one Ctg. The Ctg must outlive the
/// analysis.
class ActivationAnalysis {
 public:
  /// Runs the analysis (single topological pass plus pairwise mutex
  /// computation).
  explicit ActivationAnalysis(const Ctg& graph);

  const Ctg& graph() const { return *graph_; }

  /// Activation condition X(τ).
  const Guard& ActivationGuard(TaskId task) const {
    return guards_.at(task.index());
  }

  /// Γ(τ): the minterms of X(τ).
  const std::vector<Minterm>& Gamma(TaskId task) const {
    return ActivationGuard(task).minterms();
  }

  /// Bit layout over the graph's forks, sized to the graph.
  const ConditionSpace& space() const { return space_; }

  /// Compiled form of X(τ) over space(). The compiled guards answer
  /// exactly the form-independent predicates (satisfiability,
  /// emptiness, evaluation) of the DNF guard.
  const BitGuard& BitActivationGuard(TaskId task) const {
    return bit_guards_.at(task.index());
  }

  /// True when the two tasks can never be active in the same instance
  /// (X(τi) ∧ X(τj) = 0).
  bool MutuallyExclusive(TaskId a, TaskId b) const;

  /// Probability that \p task is activated, P(X(τ)), under \p probs.
  double ActivationProbability(TaskId task,
                               const BranchProbabilities& probs) const;

  /// True when \p task is activated by the given full branch assignment.
  bool IsActive(TaskId task, const BranchAssignment& assignment) const;

  /// True when \p task is active under a scenario minterm: some minterm
  /// of Γ(τ) is implied by the scenario assignment.
  bool IsActive(TaskId task, const Minterm& scenario) const;

  /// Implied control dependencies: pairs (fork, or_node) meaning the
  /// or-node cannot start before the fork resolves, even along
  /// alternatives that do not pass through the fork (paper Example 1:
  /// τ8 must wait for τ3 in every case). Direct unconditional edges
  /// fork -> or_node are omitted (the dependency already exists).
  const std::vector<std::pair<TaskId, TaskId>>& ImpliedForkDependencies()
      const {
    return implied_deps_;
  }

  /// Enumerates all execution scenarios with their probabilities under
  /// \p probs. Probabilities sum to 1.
  std::vector<Scenario> EnumerateScenarios(
      const BranchProbabilities& probs) const;

  /// Enumerates scenario assignments only (no probabilities).
  std::vector<Minterm> EnumerateScenarioAssignments() const;

  /// The set M of all distinct minterms appearing in any Γ(τ),
  /// including the constant-true minterm when some task is unconditional.
  std::vector<Minterm> AllMinterms() const;

 private:
  void ComputeGuards();
  void CompileBitGuards();
  void ComputeMutex();
  void ComputeImpliedDeps();
  void EnumerateScenariosRec(const Minterm& current, double prob,
                             std::size_t fork_pos,
                             const BranchProbabilities* probs,
                             std::vector<Scenario>& out) const;

  const Ctg* graph_;
  std::vector<Guard> guards_;
  ConditionSpace space_;
  std::vector<BitGuard> bit_guards_;
  std::vector<std::vector<bool>> mutex_;
  std::vector<std::pair<TaskId, TaskId>> implied_deps_;
};

}  // namespace actg::ctg

#endif  // ACTG_CTG_ACTIVATION_H
