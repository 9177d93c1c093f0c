#include "dvfs/algorithms.h"

namespace actg::dvfs {

sched::Schedule RunWithPolicy(StretchPolicy policy,
                              const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const PolicyRunOptions& options) {
  sched::Schedule schedule =
      sched::RunDls(graph, analysis, platform, probs, options.dls);
  PathEngine engine(graph, analysis, platform);
  Stretch(policy, schedule, probs, 0.0, nullptr, options.nlp, &engine);
  return schedule;
}

sched::Schedule RunReference1(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs) {
  const std::vector<PeId> mapping = sched::RoundRobinMapping(graph, platform);
  PolicyRunOptions options;
  options.dls.level_policy = sched::LevelPolicy::kWorstCase;
  options.dls.mutex_aware = false;
  options.dls.fixed_mapping = &mapping;
  return RunWithPolicy(StretchPolicy::kProportional, graph, analysis,
                       platform, probs, options);
}

sched::Schedule RunReference2(const ctg::Ctg& graph,
                              const ctg::ActivationAnalysis& analysis,
                              const arch::Platform& platform,
                              const ctg::BranchProbabilities& probs,
                              const NlpOptions& options) {
  PolicyRunOptions run_options;
  run_options.nlp = options;
  return RunWithPolicy(StretchPolicy::kNlp, graph, analysis, platform,
                       probs, run_options);
}

}  // namespace actg::dvfs
