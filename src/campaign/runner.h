/// \file runner.h
/// The sharded Monte-Carlo campaign runner (the sim::Campaign of
/// DESIGN.md §14).
///
/// A Campaign replays one CampaignSpec: the population is partitioned
/// into `shards` contiguous balanced ranges, each shard simulates its
/// instances serially through per-instance adaptive controllers (its
/// own schedule cache and metrics registry, so shards never contend),
/// and the shards run concurrently on a runtime::Pool. Results stream
/// into mergeable accumulators (util/accumulator.h) — memory is
/// O(shards x cells x bins), independent of the population size.
///
/// Determinism contract, in two strengths:
///  * The whole report is byte-identical for any --jobs count: a shard
///    is one pool job, its body depends only on the shard index and the
///    spec, and shard results land in index-addressed slots merged in
///    shard order.
///  * With per-instance cache keys (share_cache 0) the *population*
///    section is additionally invariant to the shard count itself:
///    every per-instance observation is then a pure function of
///    (spec, i) — the model from the instance's cell and model-seed
///    group, the trace from Random(seed).Fork(i).Fork(0), the oracle
///    draw from Fork(i).Fork(1), the fault stream from Fork(i).Fork(2)
///    — and the accumulators merge bit-exactly under any grouping.
///    share_cache 1 trades that away: an instance may be served a
///    schedule another instance of its shard computed (that sharing is
///    the throughput feature being measured), so which instances pay a
///    full compute depends on the shard grouping. The *execution*
///    section (cache tier hits, forced per-shard oracle checks) is a
///    function of the sharding in every mode and is reported
///    separately.
///
/// Wall-clock data (reschedule latency percentiles) goes through the
/// metrics registry / bench JSON only, never the deterministic report —
/// the same split the serve daemon uses.

#ifndef ACTG_CAMPAIGN_RUNNER_H
#define ACTG_CAMPAIGN_RUNNER_H

#include <cstddef>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "adaptive/rescheduler.h"
#include "campaign/spec.h"
#include "report/fleet_stats.h"
#include "runtime/metrics.h"
#include "util/accumulator.h"
#include "util/error.h"

namespace actg::campaign {

/// Identity of one population cell (one point of the axis cross
/// product).
struct CellKey {
  apps::TenantWorkload workload = apps::TenantWorkload::kMpeg;
  std::string policy;
  adaptive::RescheduleMode mode = adaptive::RescheduleMode::kFull;
  std::string storm;

  /// "workload/policy/mode/storm", the report row label.
  std::string Label() const;
};

/// Streaming aggregate of one population cell. Every field is either an
/// exact integer/max or an exact-merge accumulator, so Merge() is
/// bit-exactly associative and commutative (the shard-split law
/// test_campaign fuzzes).
struct CellStats {
  /// Histograms sized from the spec's bins/edges knobs.
  explicit CellStats(const CampaignSpec& spec);

  /// Application instances simulated in this cell.
  std::size_t app_instances = 0;
  /// CTG instances executed (app_instances x trace_instances).
  std::size_t executions = 0;
  std::size_t deadline_misses = 0;
  /// Threshold-triggered reschedules summed over controllers.
  std::size_t reschedules = 0;
  /// Degradation-ladder traffic summed over controllers.
  std::size_t escalations = 0;
  std::size_t oob_reschedules = 0;
  std::size_t recoveries = 0;
  /// Fault-detection aggregates (zero in storm-free cells).
  std::size_t overrun_instances = 0;
  std::size_t faulted_instances = 0;
  std::size_t failed_pe_hits = 0;
  /// Oracle validations drawn from the instance substream (the
  /// split-invariant sample; forced per-shard checks are execution
  /// data, not population data).
  std::size_t oracle_sampled = 0;
  double max_makespan_ms = 0.0;

  /// Per-app-instance total energy, mJ.
  util::Moments energy;
  util::Histogram energy_hist;
  /// Per-execution makespan, ms.
  util::Moments makespan;
  util::Histogram makespan_hist;
  /// Per-app-instance threshold reschedule count.
  util::Moments resched_per_app;

  void Merge(const CellStats& other);

  /// Projection into the shared fleet vocabulary (instances =
  /// executions, as in sim::RunSummary).
  report::FleetStats ToFleetStats() const;

  bool operator==(const CellStats& other) const;
};

/// One quarantined poison instance: enough to count it, label it and
/// reproduce it. (spec.seed, index) are the repro coordinates — the
/// instance's whole substream tree forks from Random(seed).Fork(index),
/// so the pair pins the exact trace, oracle draw and fault stream; the
/// emitted .fuzzcase repro (CampaignOptions::quarantine_dir) carries
/// them as comment headers and replays through `actg_fuzz --replay`.
struct QuarantineRecord {
  std::size_t index = 0;    ///< population index
  std::size_t cell = 0;     ///< population cell index
  /// Failure class: "poison" (injected test poison), "thrown" (pipeline
  /// exception), "oracle" (check:: validation failed), "overbudget"
  /// (reschedule_budget exceeded).
  std::string reason;
  std::size_t attempts = 1;  ///< executions before giving up
  std::string detail;        ///< single-line sanitized exception text
  bool operator==(const QuarantineRecord&) const = default;
};

/// Execution-section record of one shard: data that is deterministic
/// for a fixed spec at any --jobs, but a function of the sharding.
struct ShardExecution {
  std::size_t begin = 0;  ///< first population index (inclusive)
  std::size_t end = 0;    ///< last population index (exclusive)
  /// Oracle validations run in this shard (sampled + the forced first
  /// instance; always >= 1 on a non-empty shard).
  std::size_t oracle_validations = 0;
  /// Reschedule-tier outcomes summed over the shard's controllers
  /// (exact hits measure cross-instance schedule sharing).
  adaptive::TierCounts tiers;
  /// Quarantined instances of this shard, population-index order (empty
  /// unless spec.quarantine_cap > 0).
  std::vector<QuarantineRecord> quarantine;
};

/// Per-shard accumulation slot. Shards accumulate independently and the
/// runner merges the slots in shard order. A checkpoint serializes
/// exactly this state (minus the metrics registry — wall-clock data is
/// not part of the deterministic contract and is not restored; a
/// restored shard's metrics stays null).
struct ShardOutput {
  std::vector<CellStats> cells;
  ShardExecution exec;
  std::unique_ptr<runtime::Metrics> metrics;
};

/// The outcome of one campaign run.
struct CampaignResult {
  CampaignSpec spec;
  /// Cell keys in index order. Instance i belongs to cell i % cells;
  /// the cell index decomposes workload-fastest: c = workload +
  /// workloads * (policy + policies * (mode + modes * storm)).
  std::vector<CellKey> keys;
  std::vector<CellStats> cells;
  /// Fleet-wide aggregate over every cell.
  report::FleetStats fleet;
  /// Population-sampled oracle validations fleet-wide.
  std::size_t oracle_sampled = 0;
  /// Per-shard execution records, shard order.
  std::vector<ShardExecution> shards;
  /// Tier totals over every shard.
  adaptive::TierCounts tiers;

  /// Writes the population section only — invariant to the worker
  /// count always, and to the shard count too when share_cache is off
  /// (the artifact the shard-split tests byte-compare).
  void WritePopulation(std::ostream& os) const;

  /// Quarantined instances over every shard, shard order.
  std::size_t quarantined = 0;

  /// Writes the full deterministic report: header, population section,
  /// execution section, and — only when spec.quarantine_cap > 0 — the
  /// quarantine section (legacy reports stay byte-identical).
  /// Byte-identical for any --jobs at a fixed spec.
  void Write(std::ostream& os) const;
};

struct CampaignOptions {
  /// Pool concurrency (--jobs); 1 = serial. Shards above jobs queue.
  std::size_t jobs = 1;
  /// Metrics registry the merged per-shard registries fold into; null =
  /// a campaign-private registry.
  runtime::Metrics* metrics = nullptr;
  /// Durable checkpointing: when non-empty, completed shards are
  /// checkpointed to <checkpoint_dir>/campaign.ckpt (atomic
  /// write-to-temp + rename) and Resume() restores them, so a killed
  /// campaign re-runs only its unfinished shards. The resumed report is
  /// byte-identical to an uninterrupted run at any --jobs: a shard is
  /// the atomic unit and every shard output is a pure function of
  /// (spec, shard).
  std::string checkpoint_dir;
  /// Checkpoint after every N shard completions (>= 1; the final state
  /// after Run() is always written).
  std::size_t checkpoint_every = 1;
  /// When non-empty, every quarantined instance emits a replayable
  /// repro to <quarantine_dir>/quarantine-<seed>-<index>.fuzzcase
  /// (actg_fuzz --replay compatible).
  std::string quarantine_dir;
  /// Test hook: throw (after checkpointing) once this many shards have
  /// completed in this run — a deterministic stand-in for SIGKILL at a
  /// shard boundary (0 = never). The interrupted Campaign is spent;
  /// resume with a fresh one.
  std::size_t stop_after_shards = 0;
};

/// The runner. Mirrors serve::Server: validate up front, Run() once,
/// read the result.
class Campaign {
 public:
  /// Validates \p spec up front (throws InvalidArgument when broken).
  Campaign(CampaignSpec spec, CampaignOptions options = {});

  /// Restores completed shards from the checkpoint at
  /// <checkpoint_dir>/campaign.ckpt; Run() then re-runs only the rest.
  /// Returns the number of restored shards — 0 when no checkpointing is
  /// configured or the file does not exist (a fresh start, not an
  /// error). A malformed or mismatched checkpoint (wrong spec
  /// fingerprint, truncation, version skew) throws InvalidArgument with
  /// the parser's diagnostic. Must precede Run().
  std::size_t Resume();

  /// Simulates the whole population and returns the result. Valid once.
  const CampaignResult& Run();

  /// Writes the current completed-shard state to the configured
  /// checkpoint file (no-op without a checkpoint_dir). Run() calls this
  /// as shards complete; it is public so a driver can force a final
  /// checkpoint after an exception.
  void Checkpoint();

  const CampaignResult& result() const { return result_; }
  runtime::Metrics& metrics() { return *metrics_; }

  /// Wall-clock reschedule-latency percentiles over the completed run
  /// (from the merged "reschedule.latency_us" distribution; not
  /// deterministic, never part of the report text).
  report::LatencyStats RescheduleLatency() const;

  /// Population index range of shard \p shard (contiguous, balanced).
  static std::pair<std::size_t, std::size_t> ShardRange(
      std::size_t instances, std::size_t shards, std::size_t shard);

 private:
  std::string CheckpointPath() const;

  CampaignSpec spec_;
  CampaignOptions options_;
  std::unique_ptr<runtime::Metrics> own_metrics_;
  runtime::Metrics* metrics_;
  CampaignResult result_;
  /// Per-shard slots; restored by Resume(), filled by Run(). Slot s is
  /// final once done_[s] is set.
  std::vector<ShardOutput> outputs_;
  std::vector<char> done_;
  bool ran_ = false;
};

/// Convenience: parse + run \p is with \p jobs workers, writing the
/// deterministic report to \p report_os. Returns the campaign (result,
/// latency, metrics) for callers that want more than the text.
util::Expected<std::unique_ptr<Campaign>> RunCampaignFile(
    std::istream& is, std::size_t jobs, std::ostream& report_os);

}  // namespace actg::campaign

#endif  // ACTG_CAMPAIGN_RUNNER_H
