/// \file fleet_stats.h
/// The one fleet-aggregate vocabulary every subsystem speaks.
///
/// Three layers of the library aggregate execution outcomes: the
/// trace simulator (sim::RunSummary), the serve daemon's fleet report
/// (serve::SlaReport) and the Monte-Carlo campaign runner
/// (campaign::CellStats). Before this header each of them carried its
/// own copy of the same fields with subtly different names
/// (energy_mj vs total_energy_mj) and re-implemented miss-rate and
/// average-energy arithmetic. FleetStats is the shared base: the
/// field names, the derived metrics and the merge rule are defined
/// exactly once, so a "miss rate" printed by any subsystem is the
/// same quantity computed the same way.
///
/// LatencyStats is the matching wall-clock percentile summary (serve
/// slice latencies, campaign reschedule latencies). Wall-clock data
/// never feeds deterministic reports — both consumers surface it via
/// metrics registries and bench JSON only.

#ifndef ACTG_REPORT_FLEET_STATS_H
#define ACTG_REPORT_FLEET_STATS_H

#include <cstddef>

namespace actg::report {

/// Deterministic aggregate of executed CTG instances. Every field is a
/// pure function of the per-instance results folded in, so two
/// FleetStats built from the same population are identical regardless
/// of which subsystem (simulator, daemon, campaign shard) folded them.
struct FleetStats {
  /// Instances executed.
  std::size_t instances = 0;
  /// Instances whose completion time exceeded the graph deadline.
  std::size_t deadline_misses = 0;
  /// Energy consumed by all instances, mJ.
  double total_energy_mj = 0.0;
  /// Worst completion time seen, ms.
  double max_makespan_ms = 0.0;
  /// Threshold-triggered online scheduling + DVFS invocations (the
  /// paper's "# of calls" columns). Out-of-band degradation-ladder
  /// reschedules are not included.
  std::size_t reschedules = 0;

  /// deadline_misses / instances; 0 on an empty aggregate.
  double MissRate() const {
    return instances == 0 ? 0.0
                          : static_cast<double>(deadline_misses) /
                                static_cast<double>(instances);
  }

  /// total_energy_mj / instances; 0 on an empty aggregate.
  double AverageEnergy() const {
    return instances == 0
               ? 0.0
               : total_energy_mj / static_cast<double>(instances);
  }

  /// Folds \p other in: counts and energy add, max_makespan_ms takes
  /// the max. Associative and commutative up to floating-point energy
  /// summation order; campaign shards that need bit-exact merge laws
  /// accumulate energy in fixed point (util::Moments) and project
  /// into FleetStats only at report time.
  void Merge(const FleetStats& other) {
    instances += other.instances;
    deadline_misses += other.deadline_misses;
    total_energy_mj += other.total_energy_mj;
    if (other.max_makespan_ms > max_makespan_ms) {
      max_makespan_ms = other.max_makespan_ms;
    }
    reschedules += other.reschedules;
  }
};

/// Wall-clock percentile summary of one latency distribution (serve
/// per-SLA slice latencies, campaign reschedule latencies). Not
/// deterministic; reported via metrics registries and bench JSON only.
struct LatencyStats {
  /// Samples observed (serve calls these slices).
  std::size_t samples = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Samples that exceeded the configured budget (0 when no budget).
  std::size_t budget_overruns = 0;
};

}  // namespace actg::report

#endif  // ACTG_REPORT_FLEET_STATS_H
