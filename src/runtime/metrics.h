/// \file metrics.h
/// Lightweight run-metrics registry for the runtime layer.
///
/// A Metrics instance holds named monotonic counters (cache hits,
/// re-schedule calls, simulated instances, ...) and named distributions
/// (latencies). All operations are thread-safe so pool workers can
/// report without coordination; the registry is intentionally
/// mutex-based rather than sharded — it sits outside the hot inner
/// loops (stage granularity, not per-task granularity). There is no
/// process-wide registry: a component given none owns a private one;
/// each host owns and dumps the registry it wires into its components.
///
/// Each distribution is a util::Histogram in its fixed log layout:
/// memory is bounded by the touched bin span (a few KB), not by the
/// sample count, MergeFrom is integer addition, and a quantile is the
/// nearest-rank sample to within 1/128 (< 1%) relative error (samples
/// <= 0 report as 0).
///
/// Counter values are deterministic for a fixed workload regardless of
/// worker count; distributions hold wall-clock data and therefore do
/// not. Reports that must be bit-identical across runs (bench stdout,
/// the stderr counter tables) print counters only. Per-stage wall-clock
/// time is not kept here: each stage records an obs span instead.

#ifndef ACTG_RUNTIME_METRICS_H
#define ACTG_RUNTIME_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "util/accumulator.h"

namespace actg::runtime {

/// Thread-safe registry of named counters and distributions.
class Metrics {
 public:
  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Adds \p delta to the named counter (creating it at zero).
  void Increment(const std::string& name, std::uint64_t delta = 1);

  /// Current value of a counter; zero when never incremented.
  std::uint64_t counter(const std::string& name) const;

  /// Records one sample into the named distribution (creating it
  /// empty). Distributions hold wall-clock data (reschedule and serve
  /// slice latencies), so they never feed deterministic reports.
  void Observe(const std::string& name, double value);

  /// Number of samples observed for a distribution; zero when absent.
  std::size_t samples(const std::string& name) const;

  /// Nearest-rank quantile (q in [0, 1]) of a distribution, within 1%
  /// relative error; 0 when the distribution is empty or absent.
  double quantile(const std::string& name, double q) const;

  /// Copy of a distribution's exact state; an empty log histogram when
  /// absent.
  util::Histogram distribution(const std::string& name) const;

  /// Snapshot of all counters (name -> value).
  std::map<std::string, std::uint64_t> Counters() const;

  /// Folds \p other into this registry: counters and distribution bin
  /// counts add, so any merge order yields identical state. The
  /// campaign runner gives every shard a private registry and merges
  /// them, so shard workers never contend on one mutex. Merging a
  /// registry into itself throws; \p other is left untouched.
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
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, util::Histogram> distributions_;
};

}  // namespace actg::runtime

#endif  // ACTG_RUNTIME_METRICS_H
