#include "faults/plan.h"

#include <string>
#include <vector>

namespace actg::faults {

namespace {

bool ProbabilityOk(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

util::Error FaultPlan::Validate() const {
  if (!(intensity >= 0.0)) {
    return util::Error::Invalid("FaultPlan: intensity must be >= 0");
  }
  if (!ProbabilityOk(overrun.probability)) {
    return util::Error::Invalid(
        "FaultPlan: overrun.probability must lie in [0, 1]");
  }
  if (!(overrun.min_factor >= 1.0) ||
      !(overrun.max_factor >= overrun.min_factor)) {
    return util::Error::Invalid(
        "FaultPlan: overrun factors need 1 <= min_factor <= max_factor");
  }
  if (!ProbabilityOk(dropout.probability)) {
    return util::Error::Invalid(
        "FaultPlan: dropout.probability must lie in [0, 1]");
  }
  if (dropout.duration == 0) {
    return util::Error::Invalid("FaultPlan: dropout.duration must be > 0");
  }
  if (!(dropout.rerun_penalty >= 1.0)) {
    return util::Error::Invalid(
        "FaultPlan: dropout.rerun_penalty must be >= 1");
  }
  if (!ProbabilityOk(link.probability)) {
    return util::Error::Invalid(
        "FaultPlan: link.probability must lie in [0, 1]");
  }
  if (!(link.bandwidth_factor > 0.0) || link.bandwidth_factor > 1.0) {
    return util::Error::Invalid(
        "FaultPlan: link.bandwidth_factor must lie in (0, 1]");
  }
  if (link.duration == 0) {
    return util::Error::Invalid("FaultPlan: link.duration must be > 0");
  }
  if (!ProbabilityOk(drift.max_flip_probability)) {
    return util::Error::Invalid(
        "FaultPlan: drift.max_flip_probability must lie in [0, 1]");
  }
  if (drift.ramp_instances == 0) {
    return util::Error::Invalid(
        "FaultPlan: drift.ramp_instances must be > 0");
  }
  return {};
}

bool FaultPlan::Empty() const {
  if (intensity <= 0.0) return true;
  return overrun.probability <= 0.0 && dropout.probability <= 0.0 &&
         link.probability <= 0.0 && drift.max_flip_probability <= 0.0;
}

namespace {

FaultPlan ParseFaultPlanImpl(util::TextReader& reader) {
  std::vector<std::string> tokens;
  reader.Header("faults v1", tokens);
  FaultPlan plan;
  while (reader.Next(tokens)) {
    const std::string& directive = tokens[0];
    if (directive == "end") {
      plan.Validate().ThrowIfError();
      return plan;
    }
    if (directive == "intensity") {
      if (tokens.size() != 2) reader.Fail("intensity needs <scale>");
      plan.intensity = reader.Number(tokens[1]);
    } else if (directive == "seed") {
      if (tokens.size() != 2) reader.Fail("seed needs <uint64>");
      plan.seed = reader.Count(tokens[1]);
    } else if (directive == "overrun") {
      if (tokens.size() != 4) {
        reader.Fail("overrun needs <prob> <min_factor> <max_factor>");
      }
      plan.overrun.probability = reader.Number(tokens[1]);
      plan.overrun.min_factor = reader.Number(tokens[2]);
      plan.overrun.max_factor = reader.Number(tokens[3]);
    } else if (directive == "dropout") {
      if (tokens.size() != 4) {
        reader.Fail("dropout needs <prob> <duration> <rerun_penalty>");
      }
      plan.dropout.probability = reader.Number(tokens[1]);
      plan.dropout.duration = reader.Count(tokens[2]);
      plan.dropout.rerun_penalty = reader.Number(tokens[3]);
    } else if (directive == "link") {
      if (tokens.size() != 4) {
        reader.Fail("link needs <prob> <bandwidth_factor> <duration>");
      }
      plan.link.probability = reader.Number(tokens[1]);
      plan.link.bandwidth_factor = reader.Number(tokens[2]);
      plan.link.duration = reader.Count(tokens[3]);
    } else if (directive == "drift") {
      if (tokens.size() != 3) {
        reader.Fail("drift needs <max_flip_prob> <ramp_instances>");
      }
      plan.drift.max_flip_probability = reader.Number(tokens[1]);
      plan.drift.ramp_instances = reader.Count(tokens[2]);
    } else {
      reader.Fail("unknown directive '" + directive + "'");
    }
  }
  reader.Fail("missing 'end'");
}

}  // namespace

util::Expected<FaultPlan> ParseFaultPlan(std::istream& is) {
  util::TextReader reader(is, "fault_plan");
  return ParseFaultPlan(reader);
}

util::Expected<FaultPlan> ParseFaultPlan(util::TextReader& reader) {
  return util::TryParse([&] { return ParseFaultPlanImpl(reader); });
}

void WriteFaultPlan(std::ostream& os, const FaultPlan& plan) {
  os << "faults v1\n";
  os << "intensity " << plan.intensity << "\n";
  if (plan.seed != 0) os << "seed " << plan.seed << "\n";
  os << "overrun " << plan.overrun.probability << " "
     << plan.overrun.min_factor << " " << plan.overrun.max_factor << "\n";
  os << "dropout " << plan.dropout.probability << " "
     << plan.dropout.duration << " " << plan.dropout.rerun_penalty << "\n";
  os << "link " << plan.link.probability << " "
     << plan.link.bandwidth_factor << " " << plan.link.duration << "\n";
  os << "drift " << plan.drift.max_flip_probability << " "
     << plan.drift.ramp_instances << "\n";
  os << "end\n";
}

}  // namespace actg::faults
