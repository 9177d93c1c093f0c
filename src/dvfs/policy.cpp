#include "dvfs/policy.h"

#include <algorithm>
#include <string>

#include "obs/trace.h"
#include "util/error.h"

namespace actg::dvfs {

namespace {

StretchStats Dispatch(StretchPolicy policy, sched::Schedule& schedule,
                      const ctg::BranchProbabilities& probs,
                      const StretchWarmStart* warm, const NlpOptions& nlp,
                      PathEngine* engine) {
  switch (policy) {
    case StretchPolicy::kOnline:
      return StretchOnline(schedule, probs, engine, warm);
    case StretchPolicy::kProportional:
      return StretchProportional(schedule, engine, warm);
    case StretchPolicy::kNlp:
      return StretchNlp(schedule, probs, nlp, engine);
  }
  throw InvalidArgument("unknown stretch policy " +
                        std::to_string(static_cast<int>(policy)));
}

}  // namespace

const char* StretchPolicyName(StretchPolicy policy) {
  switch (policy) {
    case StretchPolicy::kOnline:
      return "online";
    case StretchPolicy::kProportional:
      return "proportional";
    case StretchPolicy::kNlp:
      return "nlp";
  }
  return "unknown";
}

std::optional<StretchPolicy> ParseStretchPolicy(std::string_view name) {
  if (name == "online") return StretchPolicy::kOnline;
  if (name == "proportional") return StretchPolicy::kProportional;
  if (name == "nlp") return StretchPolicy::kNlp;
  return std::nullopt;
}

StretchStats Stretch(StretchPolicy policy, sched::Schedule& schedule,
                     const ctg::BranchProbabilities& probs,
                     double speed_floor,
                     const StretchWarmStart* warm, const NlpOptions& nlp,
                     PathEngine* engine) {
  obs::ScopedSpan span(obs::TraceSession::Current(), "dvfs.stretch",
                       "dvfs");
  if (span.enabled()) {
    span.AddArg(obs::StrArg("policy", StretchPolicyName(policy)));
  }
  const StretchStats stats =
      Dispatch(policy, schedule, probs, warm, nlp, engine);
  if (speed_floor > 0.0) {
    // Raise every ratio to the floor. Faster-only, so the deadline
    // guarantee of the stretcher is preserved by construction.
    bool changed = false;
    for (TaskId task : schedule.graph().TaskIds()) {
      sched::TaskPlacement& placement = schedule.placement(task);
      const double clamped = schedule.platform().QuantizeSpeed(
          placement.pe, std::max(placement.speed_ratio, speed_floor));
      if (clamped != placement.speed_ratio) {
        placement.speed_ratio = clamped;
        changed = true;
      }
    }
    if (changed) schedule.RecomputeTimes();
  }
  if (span.enabled()) {
    if (speed_floor > 0.0) {
      span.AddArg(obs::NumArg("speed_floor", speed_floor));
    }
    span.AddArg(obs::IntArg(
        "paths", static_cast<std::int64_t>(stats.path_count)));
  }
  return stats;
}

}  // namespace actg::dvfs
