/// \file common.h
/// Shared vocabulary of the benchmark program: run options, the result
/// record every workload fills, sample statistics and a minimal JSON
/// writer for the single result line.

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point begin, Clock::time_point end);

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// CLOCK_MONOTONIC nanoseconds taken by the launcher just before it
  /// started this process (steady_clock shares that clock on Linux), so
  /// set-up time includes process start. 0 = measure from main().
  std::int64_t t0_ns = 0;
  /// Stop after set-up (the launcher repeats set-up in fresh processes
  /// and reports the median).
  bool setup_only = false;
  /// Work-size multiplier; the self-test runs at a small fraction.
  double scale = 1.0;
  /// Pool concurrency of the fleet workloads, part of their definition.
  std::size_t jobs = 4;
  /// campaign_mixed only: run the single synthetic campaign of this
  /// many instances and shards instead of the benchmark units (the
  /// consistency check against the committed CI baseline). 0 = off.
  std::size_t baseline_instances = 0;
  std::size_t baseline_shards = 0;
};

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. The launcher turns it into the contract
/// JSON line; the deterministic `counts` are what the reference and
/// self-test compare.
struct RunResult {
  double setup_s = 0.0;
  /// Gated end-to-end metrics (untraced runs).
  std::vector<Metric> end_to_end;
  /// The workload's own headline figures under their long names,
  /// printed for people, never gated.
  std::vector<Metric> report;
  /// Per-layer ledger (traced runs).
  std::vector<Metric> per_layer;
  /// Deterministic work counts: equal for equal (workload, seed, scale)
  /// whatever the speed of the program.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures; any entry makes the run fail.
  std::vector<std::string> errors;
  /// Free-form lines for the human-readable summary.
  std::vector<std::string> notes;

  void Count(const std::string& name, std::uint64_t value) {
    counts.emplace_back(name, value);
  }
  void Error(const std::string& what) { errors.push_back(what); }
};

/// util::Quantile of \p samples (q in [0, 1]), but 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// above it (falls back to p50), as "p99" style label plus value.
struct Tail {
  std::string label;
  double value = 0.0;
};
Tail HighestResolvedTail(const std::vector<double>& samples);

/// "median X unit, p99 Y unit (n = N)" — how every timing is printed.
std::string DescribeTiming(const std::vector<double>& samples,
                           const std::string& unit);

/// The process's peak RSS so far, MB.
double PeakRssMb();

/// Deterministic 64-bit sub-seed k of \p seed (one per work unit).
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t k);

/// Ordered flat JSON object writer (numbers printed with full
/// precision).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, std::uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H
