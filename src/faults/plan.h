/// \file plan.h
/// Fault-injection scenario configuration (the FaultPlan).
///
/// The paper's premise is workloads that deviate from the profile a
/// schedule was built with, but the rest of the library only models
/// *benign* non-determinism (branch outcomes). A FaultPlan describes the
/// malign deviations a production deployment must survive:
///
///   * execution-time overruns past WCET (bounded uniform factor),
///   * transient PE dropouts (tasks stranded on a failed PE re-run at a
///     penalty until the controller migrates them away),
///   * link degradation (bandwidth cut, so communication inflates),
///   * branch-profile drift ramps (decisions flip with a probability
///     that ramps up over the run, pulling the real distribution away
///     from anything the profiler has seen).
///
/// Like every other options struct, a plan Validates() up front; the
/// Injector (injector.h) turns a validated plan into deterministic
/// per-instance perturbations. `intensity` is the sweep knob: it scales
/// every event probability, so bench_faults can dial one plan from
/// "nothing ever fires" (0) to "full configured rate" (1).

#ifndef ACTG_FAULTS_PLAN_H
#define ACTG_FAULTS_PLAN_H

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/error.h"
#include "util/text_reader.h"

namespace actg::faults {

/// Per-task execution-time overrun beyond WCET. Each active task of each
/// instance independently overruns with `probability`, multiplying its
/// execution time (and, at fixed voltage, its energy) by a uniform draw
/// from [min_factor, max_factor].
struct OverrunFault {
  double probability = 0.0;
  double min_factor = 1.0;
  double max_factor = 1.0;
};

/// Transient PE dropout. Each instance, each PE independently starts a
/// dropout with `probability`; a dropout lasts `duration` instances.
/// Tasks scheduled on a failed PE re-run at `rerun_penalty` times their
/// execution time and energy (checkpoint-restart on the dead PE) until
/// the degradation ladder reschedules them onto live PEs.
struct PeDropoutFault {
  double probability = 0.0;
  std::size_t duration = 1;
  double rerun_penalty = 2.0;
};

/// Link degradation: with `probability` per instance a degradation
/// window of `duration` instances opens during which every link's
/// bandwidth is cut to `bandwidth_factor` of nominal, inflating all
/// cross-PE communication times by 1/bandwidth_factor (transfer energy
/// is unchanged — the same bytes move, just slower).
struct LinkDegradationFault {
  double probability = 0.0;
  double bandwidth_factor = 1.0;
  std::size_t duration = 1;
};

/// Branch-profile drift ramp: each resolved fork decision of instance i
/// flips to a uniformly random other outcome with probability
/// max_flip_probability * min(1, (i+1)/ramp_instances). Unlike the
/// sinusoid test vectors this drift is invisible to the trace profile
/// the schedules were built from.
struct DriftRamp {
  double max_flip_probability = 0.0;
  std::size_t ramp_instances = 1;
};

/// A complete injection scenario. Default-constructed plans are empty
/// (nothing can ever fire), and an empty plan through the injector is
/// bit-identical to not injecting at all.
struct FaultPlan {
  /// Global scale on every event probability, the sweep knob. 0 turns
  /// the plan off without touching the per-fault configuration.
  double intensity = 1.0;
  /// Injector seed; 0 means "use the seed the caller supplies".
  std::uint64_t seed = 0;
  OverrunFault overrun;
  PeDropoutFault dropout;
  LinkDegradationFault link;
  DriftRamp drift;

  /// Ok when every knob is usable: probabilities in [0, 1], intensity
  /// >= 0, factor bounds ordered with min_factor >= 1, rerun_penalty
  /// >= 1, bandwidth_factor in (0, 1], durations and the ramp length
  /// positive.
  util::Error Validate() const;

  /// True when no fault can ever fire (zero intensity or every event
  /// probability zero).
  bool Empty() const;
};

/// Parses a plan from the library's line-oriented text format, in the
/// shared grammar of util/text_reader.h (durations and the seed are
/// decimal counts):
///
///   faults v1
///   intensity <scale>               # optional, default 1
///   seed <uint64>                   # optional, default 0
///   overrun <prob> <min_factor> <max_factor>
///   dropout <prob> <duration> <rerun_penalty>
///   link <prob> <bandwidth_factor> <duration>
///   drift <max_flip_prob> <ramp_instances>
///   end
///
/// Every directive is optional; malformed input is reported as a
/// util::Error with a "fault_plan line N: ..." diagnostic.
util::Expected<FaultPlan> ParseFaultPlan(std::istream& is);

/// Parses a plan embedded in an enclosing format, off its reader.
util::Expected<FaultPlan> ParseFaultPlan(util::TextReader& reader);

/// Serializes \p plan in the ParseFaultPlan format.
void WriteFaultPlan(std::ostream& os, const FaultPlan& plan);

}  // namespace actg::faults

#endif  // ACTG_FAULTS_PLAN_H
