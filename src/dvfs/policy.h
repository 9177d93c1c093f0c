/// \file policy.h
/// The closed set of stretch policies and their one entry point.
///
/// The paper's Table 1 compares exactly three stretchers (stretch.h):
/// the Fig. 2 online heuristic, the probability-blind Reference
/// Algorithm 1 [10] and the NLP stage of Reference Algorithm 2 [17].
/// StretchPolicy names them; Stretch() dispatches to the matching free
/// function, so every consumer that selects a stretcher at run time
/// (the ablation bench, the CLI, the experiment builder, the adaptive
/// controller) goes through one call. Text formats and option structs
/// that carry a policy *name* parse it once with ParseStretchPolicy.
///
/// Every Stretch() records a "dvfs.stretch" span on the current trace
/// session (obs/trace.h) with the policy name and resulting path count.

#ifndef ACTG_DVFS_POLICY_H
#define ACTG_DVFS_POLICY_H

#include <optional>
#include <string_view>

#include "ctg/condition.h"
#include "dvfs/path_engine.h"
#include "dvfs/stretch.h"
#include "sched/schedule.h"

namespace actg::dvfs {

/// Which stretcher Stretch() runs.
enum class StretchPolicy {
  kOnline,        ///< StretchOnline, the paper's heuristic (Fig. 2)
  kProportional,  ///< StretchProportional, Reference Algorithm 1 [10]
  kNlp,           ///< StretchNlp, Reference Algorithm 2 [17]
};

/// Stable lowercase name ("online", "proportional", "nlp"); "unknown",
/// which does not parse back, for a value outside the enum.
const char* StretchPolicyName(StretchPolicy policy);

/// Inverse of StretchPolicyName; nullopt on an unknown name.
std::optional<StretchPolicy> ParseStretchPolicy(std::string_view name);

/// Stretches \p schedule in place with \p policy, recording the
/// "dvfs.stretch" trace span around the stretcher. \p probs is ignored
/// by kProportional; \p nlp applies to kNlp only. \p warm is an
/// optional warm-start seed (see StretchWarmStart), honored by kOnline
/// and kProportional; kNlp ignores it, which is always correct — it
/// only trades speed for recomputation.
///
/// \p speed_floor > 0 clamps *after* the stretcher: every task's speed
/// ratio is raised to at least this value (then quantized by the PE)
/// and the schedule times are recomputed. The degradation ladder sets
/// 1.0 ("panic to nominal") so a reschedule during an overrun burst
/// never voltage-scales into the deadline it is trying to save; raising
/// speeds only shortens paths, so a feasible stretch stays feasible.
///
/// A null \p engine makes the stretcher build a transient PathEngine;
/// results are identical either way (the engine only pools storage).
StretchStats Stretch(StretchPolicy policy, sched::Schedule& schedule,
                     const ctg::BranchProbabilities& probs,
                     double speed_floor = 0.0,
                     const StretchWarmStart* warm = nullptr,
                     const NlpOptions& nlp = {},
                     PathEngine* engine = nullptr);

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_POLICY_H
