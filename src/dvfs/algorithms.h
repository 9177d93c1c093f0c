/// \file algorithms.h
/// The three end-to-end scheduling + DVFS pipelines compared in the
/// paper's Table 1, packaged behind one call each.
///
/// * Online algorithm (this paper): modified DLS — probability-weighted
///   static levels, mutual-exclusion-aware PE sharing, communication-
///   aware mapping — followed by the online stretching heuristic.
/// * Reference Algorithm 1 ([10], Shin & Kim): ordering and stretching
///   on a *given* naive mapping (round-robin over the PEs), worst-case
///   static levels, no mutual-exclusion awareness (exclusive tasks
///   serialize and the slack analysis budgets for impossible
///   both-branches chains), probability-blind slack distribution.
/// * Reference Algorithm 2 ([17]): the same modified DLS mapping, with
///   convex (NLP) task stretching instead of the heuristic — slightly
///   lower energy at orders-of-magnitude higher runtime.

#ifndef ACTG_DVFS_ALGORITHMS_H
#define ACTG_DVFS_ALGORITHMS_H

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"

namespace actg::dvfs {

/// Knobs of RunWithPolicy: the scheduler configuration plus the solver
/// options of StretchPolicy::kNlp.
struct PolicyRunOptions {
  sched::DlsOptions dls;
  /// Consumed by StretchPolicy::kNlp only.
  NlpOptions nlp;
};

/// Generic pipeline: modified DLS followed by \p policy's stretcher
/// (see policy.h). The paper's online algorithm is
/// RunWithPolicy(StretchPolicy::kOnline, ...); the two reference
/// wrappers below pin the reference algorithms' scheduler
/// configurations.
sched::Schedule RunWithPolicy(StretchPolicy policy,
                              const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const PolicyRunOptions& options = {});

/// Reference Algorithm 1 [10]: ordering-only on a round-robin mapping,
/// probability- and mutual-exclusion-blind throughout.
sched::Schedule RunReference1(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs);

/// Reference Algorithm 2 [17]: modified DLS + convex (NLP) stretching.
sched::Schedule RunReference2(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const NlpOptions& options = {});

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_ALGORITHMS_H
