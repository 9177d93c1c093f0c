/// \file layers.h
/// What the four workloads share: work sizing, reschedule-tier
/// bookkeeping, pool statistics and the per-layer metrics a traced run
/// derives from its span ledger.

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "adaptive/rescheduler.h"
#include "common.h"
#include "ledger.h"

namespace perfbench {

/// Work units of a run: scales with --seconds so a run lasts about that
/// long at the reference speed, and with --scale for the self-test.
std::size_t Units(const Options& o, double per_10s);
std::size_t Scaled(const Options& o, std::size_t base, std::size_t floor);

double Share(double part, double whole);

void AddTiers(actg::adaptive::TierCounts& into,
              const actg::adaptive::TierCounts& from);
void CountTiers(RunResult& out, const actg::adaptive::TierCounts& t);

/// Thread CPU time, for the pool's busy accounting.
double ThreadCpuMs();

/// One pool job as the benchmark saw it (wall clock, running thread).
struct JobTiming {
  double begin_ms = 0.0;
  double end_ms = 0.0;
  std::thread::id thread;
  double duration_ms() const { return end_ms - begin_ms; }
};

/// Pool health from the job timings of parallel batches run back to
/// back: busy share of jobs x batch wall, slowest-over-mean job, and
/// the mean idle time of a worker after its last job of a batch.
struct PoolStats {
  double busy_share = 0.0;
  double imbalance = 0.0;
  double tail_idle_ms = 0.0;
};

PoolStats PoolStatsOf(const std::vector<std::vector<JobTiming>>& batches,
                      const std::vector<double>& batch_wall_ms,
                      std::size_t jobs);

/// Per-layer metrics every traced workload derives from its span tree.
/// Counts the benchmark knows better than the spans (tiers, cache
/// counters, pool timings) are filled by the workload.
struct LayerInputs {
  actg::adaptive::TierCounts tiers;
  std::uint64_t reschedule_calls = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t near_hits = 0;
  std::uint64_t near_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t validations = 0;
  std::uint64_t violations = 0;
  PoolStats pool;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
};

/// Appends the per-layer metrics every traced workload derives from its
/// span tree, plus the ledger's consistency counts.
void AddLayerMetrics(const SpanTree& tree, const LayerInputs& in,
                     RunResult& out);

/// Per-layer metrics of operations only some workloads have; the others
/// report them as 0, so every traced run prints the full list.
void AddAbsentLayerMetrics(RunResult& out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H
