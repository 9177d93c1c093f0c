/// \file metrics.h
/// Lightweight run-metrics registry for the runtime layer.
///
/// A Metrics instance holds named monotonic counters (cache hits,
/// re-schedule calls, simulated instances, ...) and named sample
/// distributions (latencies). All operations are thread-safe so pool
/// workers can report without coordination; the registry is
/// intentionally mutex-based rather than sharded — it sits outside the
/// hot inner loops (stage granularity, not per-task granularity).
///
/// Counter values are deterministic for a fixed workload regardless of
/// worker count; distributions hold wall-clock data and therefore do
/// not. Reports that must be bit-identical across runs (the bench stdout
/// tables) print counters only. Per-stage wall-clock time is not kept
/// here: each pipeline stage records an obs span (obs/trace.h) instead.

#ifndef ACTG_RUNTIME_METRICS_H
#define ACTG_RUNTIME_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace actg::runtime {

/// Thread-safe registry of named counters and distributions.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Process-wide registry: the default for every component that takes
  /// an optional registry, and the target of the few always-present
  /// counters (sim.deadline_misses, sim.overrun_instances, ...).
  static Metrics& Global();

  /// Adds \p delta to the named counter (creating it at zero).
  void Increment(const std::string& name, std::uint64_t delta = 1);

  /// Current value of a counter; zero when never incremented.
  std::uint64_t counter(const std::string& name) const;

  /// Records one sample into the named distribution (creating it
  /// empty). Distributions power the per-SLA latency percentiles of the
  /// serve daemon; they hold wall-clock data, so they never feed
  /// deterministic reports.
  void Observe(const std::string& name, double value);

  /// Number of samples observed for a distribution; zero when absent.
  std::size_t samples(const std::string& name) const;

  /// Nearest-rank quantile (q in [0, 1]) of a distribution; 0 when the
  /// distribution is empty or absent.
  double quantile(const std::string& name, double q) const;

  /// Snapshot of all counters (name -> value).
  std::map<std::string, std::uint64_t> Counters() const;

  /// Folds \p other into this registry: counters add, distribution
  /// samples concatenate. The campaign runner gives every shard a
  /// private registry and merges them in shard order, so shard workers
  /// never contend on one mutex. Merging a registry into itself
  /// throws; \p other is left untouched.
  void MergeFrom(const Metrics& other);

  /// Clears every counter and distribution (tests and per-phase
  /// reporting).
  void Reset();

  /// Plain-text dump: one "name value" line per counter and
  /// "name_count / name_p50 / name_p99" lines per distribution.
  void WriteText(std::ostream& os) const;

  /// CSV dump with header "metric,kind,value".
  void WriteCsv(std::ostream& os) const;

 private:
  /// Unlocked quantile over a sample vector (helper for quantile()).
  static double QuantileOf(const std::vector<double>& samples, double q);

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::vector<double>> observations_;
};

}  // namespace actg::runtime

#endif  // ACTG_RUNTIME_METRICS_H
