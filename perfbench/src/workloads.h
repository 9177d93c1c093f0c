/// \file workloads.h
/// The four benchmark workloads. Each one builds its inputs from the
/// seed in Prepare() (the set-up the launcher times), warms up, then either
/// measures them untraced (Measure: end-to-end metrics) or drives a
/// deterministic sample of the same inputs through the layers' public
/// entry points under the span ledger (Trace: per-layer metrics).

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input generation and construction; everything before the first
  /// timed operation.
  virtual void Prepare() = 0;
  /// Untimed warm-up after set-up, before the first timed operation
  /// (thread start-up, first-touch page faults, allocator growth).
  virtual void Warm() {}
  /// Untraced timed run: fills end_to_end, report, counts, attempted,
  /// failed and errors.
  virtual void Measure(RunResult& out) = 0;
  /// Traced run: fills per_layer (plus counts, attempted, failed and
  /// errors for the traced sample).
  virtual void Trace(RunResult& out) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);

/// One factory per workload family, each in its own source file.
std::unique_ptr<Workload> MakeCampaignWorkload(const Options& options,
                                               bool light);
std::unique_ptr<Workload> MakeServeWorkload(const Options& options);
std::unique_ptr<Workload> MakeDriftWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
