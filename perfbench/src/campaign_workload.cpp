#include "workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/tenants.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "check/validator.h"
#include "faults/injector.h"
#include "layers.h"
#include "ledger.h"
#include "runtime/metrics.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "sim/executor.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace actg;

/// Campaign workload families: the fleet's real mix, or only the
/// families with few paths per stretch.
enum class CampaignMix { kMixed, kLight };

campaign::CampaignSpec MakeCampaignSpec(CampaignMix mix,
                                        std::size_t instances,
                                        std::uint64_t seed) {
  campaign::CampaignSpec spec =
      campaign::SyntheticCampaign(instances, seed);
  if (mix == CampaignMix::kLight) {
    spec.workloads = {apps::TenantWorkload::kCruise,
                      apps::TenantWorkload::kRandomForkJoin};
  }
  // A non-zero cap makes a failing instance a counted quarantine rather
  // than an aborted run; at the instance count no failure is fatal.
  spec.quarantine_cap = instances;
  spec.Validate().ThrowIfError();
  return spec;
}

/// Root seed of campaign_mixed's fixed panel (the default run seed).
constexpr std::uint64_t kMixedPanelSeed = 7;

/// The runner's per-decision wall-clock distribution (runtime::Metrics).
constexpr const char* kDecisionLatency = "reschedule.latency_us";

/// Per-unit totals of one campaign run, from the runner's result.
struct CampaignTotals {
  std::uint64_t app_instances = 0;
  std::uint64_t executions = 0;
  std::uint64_t misses = 0;
  std::uint64_t reschedules = 0;
  std::uint64_t oracle_validations = 0;
  std::uint64_t quarantined = 0;
  double energy_mj = 0.0;
  adaptive::TierCounts tiers;
};

CampaignTotals TotalsOf(const campaign::CampaignResult& r,
                        RunResult& out) {
  CampaignTotals t;
  t.app_instances = r.spec.instances;
  t.executions = r.fleet.instances;
  t.misses = r.fleet.deadline_misses;
  t.reschedules = r.fleet.reschedules;
  t.energy_mj = r.fleet.total_energy_mj;
  t.tiers = r.tiers;
  t.quarantined = r.quarantined;
  for (const campaign::ShardExecution& shard : r.shards) {
    t.oracle_validations += shard.oracle_validations;
    for (const campaign::QuarantineRecord& rec : shard.quarantine) {
      if (rec.reason == "oracle") {
        out.Error("campaign seed " + std::to_string(r.spec.seed) +
                  " instance " + std::to_string(rec.index) +
                  ": check:: oracle violation: " + rec.detail);
      }
    }
  }
  const std::uint64_t expected =
      (t.app_instances - t.quarantined) * r.spec.trace_instances;
  if (t.executions != expected) {
    out.Error("campaign seed " + std::to_string(r.spec.seed) + ": " +
              std::to_string(t.executions) + " executions, expected " +
              std::to_string(expected));
  }
  return t;
}

/// Replays shard \p shard of \p spec through the layers' public entry
/// points exactly as campaign::Campaign does (same substreams, same
/// per-shard cache and model memo), under benchmark spans.
struct ShardReplay {
  campaign::ShardExecution exec;
  CampaignTotals totals;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t near_hits = 0;
  std::uint64_t near_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t validations = 0;
  std::uint64_t violations = 0;
  /// Instances that threw, as the runner quarantines them.
  std::uint64_t failed = 0;
};

void ReplayShard(const campaign::CampaignSpec& spec, std::size_t shard,
                 ShardReplay& out) {
  const auto [begin, end] =
      campaign::Campaign::ShardRange(spec.instances, spec.shards, shard);
  out.exec.begin = begin;
  out.exec.end = end;
  const std::size_t cells = spec.CellCount();
  const std::size_t per_storm =
      spec.workloads.size() * spec.policies.size() * spec.modes.size();

  Ledger::Span shard_span("campaign.shard");
  runtime::Metrics metrics;
  runtime::ScheduleCacheOptions cache_options;
  cache_options.capacity = spec.cache_capacity;
  runtime::ScheduleCache shared_cache(cache_options, &metrics);
  std::map<std::pair<int, std::uint64_t>,
           std::unique_ptr<apps::TenantModel>>
      models;
  const util::Random root(spec.seed);

  for (std::size_t i = begin; i < end; ++i) {
    const auto id = static_cast<std::int64_t>(i);
    Ledger::Span instance_span("campaign.instance", id);
    const std::size_t c = i % cells;
    const apps::TenantWorkload workload =
        spec.workloads[c % spec.workloads.size()];
    const std::size_t rest = c / spec.workloads.size();
    const std::string& policy =
        spec.policies[rest % spec.policies.size()];
    const adaptive::RescheduleMode mode =
        spec.modes[(rest / spec.policies.size()) % spec.modes.size()];
    const std::size_t group = (i / cells) % spec.model_seeds;
    const std::uint64_t model_seed =
        spec.seed + static_cast<std::uint64_t>(group);
    auto& model = models[{static_cast<int>(workload), model_seed}];
    if (model == nullptr) {
      Ledger::Span span("apps.model_build", id);
      model = std::make_unique<apps::TenantModel>(workload, model_seed);
    }
    const util::Random rng = root.Fork(i);
    const faults::FaultPlan plan = spec.storms[c / per_storm].Plan();
    try {
      trace::BranchTrace trace;
      {
        Ledger::Span span("trace.make_trace", id);
        trace = model->MakeTrace(spec.trace_instances, rng.Fork(0));
      }
      const bool sampled = rng.Fork(1).Bernoulli(spec.oracle_rate);
      const bool oracle = sampled || i == begin;

      adaptive::AdaptiveOptions aopts;
      aopts.window_length = spec.window;
      aopts.threshold = spec.threshold;
      aopts.policy = policy;
      aopts.reschedule.mode = mode;
      std::optional<runtime::ScheduleCache> private_cache;
      if (!spec.share_cache) private_cache.emplace(cache_options, &metrics);
      aopts.cache = runtime::CacheBinding{
          spec.share_cache ? &shared_cache : &*private_cache,
          spec.share_cache ? 0 : static_cast<std::uint64_t>(i) + 1};
      aopts.metrics = &metrics;
      aopts.degrade.enabled = spec.degrade;
      aopts.validate_schedules = oracle;
      std::optional<adaptive::AdaptiveController> controller;
      {
        Ledger::Span span("adaptive.controller_init", id);
        controller.emplace(model->graph(), model->analysis(),
                           model->platform(),
                           apps::UniformProbabilities(model->graph()),
                           aopts);
      }
      std::optional<faults::Injector> injector;
      if (!plan.Empty()) {
        injector.emplace(plan, model->graph(), model->platform(),
                         rng.Fork(2).engine().Next());
      }
      // Accumulated per instance and kept only if the whole instance
      // succeeds, as the runner's transactional accumulation does.
      CampaignTotals scratch;
      for (std::size_t t = 0; t < trace.size(); ++t) {
        ctg::BranchAssignment assignment = trace.At(t);
        faults::InstanceFaults instance_faults;
        const faults::InstanceFaults* f = nullptr;
        if (injector.has_value()) {
          instance_faults = injector->ForInstance(t);
          injector->ApplyDrift(t, assignment);
          f = &instance_faults;
        }
        std::optional<sched::Schedule> executed;
        if (oracle) executed = controller->current_schedule();
        sim::InstanceResult result;
        {
          Ledger::Span span("adaptive.process_instance", id);
          result = controller->ProcessInstance(assignment, f);
        }
        if (oracle) {
          Ledger::Span span("check.validate", id);
          const check::Report report =
              check::CheckInstance(*executed, assignment, result, f);
          ++out.validations;
          out.violations += report.violations().size();
        }
        ++scratch.executions;
        if (!result.deadline_met) ++scratch.misses;
      }
      out.totals.executions += scratch.executions;
      out.totals.misses += scratch.misses;
      ++out.totals.app_instances;
      out.totals.reschedules += controller->reschedule_count();
      if (oracle) ++out.exec.oracle_validations;
      AddTiers(out.exec.tiers, controller->rescheduler().tier_counts());
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
  out.cache_hits = shared_cache.hits();
  out.cache_misses = shared_cache.misses();
  out.near_hits = shared_cache.near_hits();
  out.near_misses = shared_cache.near_misses();
  out.evictions = shared_cache.evictions();
}

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const Options& options, CampaignMix mix)
      : options_(options), mix_(mix) {}

  void Prepare() override {
    const bool light = mix_ == CampaignMix::kLight;
    const std::size_t units = Units(options_, light ? 160 : 32);
    const std::size_t size = Scaled(options_, light ? 1024 : 128, 32);
    if (options_.baseline_instances > 0) {
      // bench_campaign's spec, unmodified.
      specs_.push_back(campaign::SyntheticCampaign(
          options_.baseline_instances, options_.seed));
      specs_.back().shards = options_.baseline_shards;
      return;
    }
    // The mixed fleet's cost sits in a few path-explosion decisions
    // whose number per population is Poisson-noisy, so a drawn
    // population cannot be compared across seeds: campaign_mixed runs a
    // fixed panel of campaigns, and the run seed only sets their order.
    const std::uint64_t root = light ? options_.seed : kMixedPanelSeed;
    for (std::size_t k = 0; k < units; ++k) {
      specs_.push_back(MakeCampaignSpec(mix_, size, SubSeed(root, k)));
    }
    if (!light) {
      std::vector<campaign::CampaignSpec> ordered;
      for (const std::size_t k :
           util::Random(options_.seed).Permutation(units)) {
        ordered.push_back(specs_[k]);
      }
      specs_ = std::move(ordered);
    }
  }

  void Warm() override {
    if (options_.baseline_instances > 0) return;
    // One small fixed campaign, so thread start-up, first-touch page
    // faults and allocator growth happen before timing.
    campaign::CampaignOptions warm;
    warm.jobs = options_.jobs;
    campaign::Campaign(MakeCampaignSpec(mix_, Scaled(options_, 128, 16), 1),
                       warm)
        .Run();
  }

  void Measure(RunResult& out) override {
    runtime::Metrics pooled;
    std::uint64_t calls = 0;
    CampaignTotals sum;
    double wall_s = 0.0;
    for (const campaign::CampaignSpec& spec : specs_) {
      campaign::CampaignOptions copts;
      copts.jobs = options_.jobs;
      campaign::Campaign run(spec, copts);
      const Clock::time_point begin = Clock::now();
      const campaign::CampaignResult& result = run.Run();
      wall_s += SecondsBetween(begin, Clock::now());
      const CampaignTotals t = TotalsOf(result, out);
      calls += run.metrics().counter("adaptive.reschedule_calls");
      pooled.MergeFrom(run.metrics());
      sum.app_instances += t.app_instances;
      sum.executions += t.executions;
      sum.misses += t.misses;
      sum.reschedules += t.reschedules;
      sum.oracle_validations += t.oracle_validations;
      sum.quarantined += t.quarantined;
      sum.energy_mj += t.energy_mj;
      AddTiers(sum.tiers, t.tiers);
    }
    if (sum.quarantined == 0 && calls != sum.reschedules) {
      out.Error("reschedule counter " + std::to_string(calls) +
                " disagrees with the report's " +
                std::to_string(sum.reschedules));
    }
    if (sum.oracle_validations == 0) out.Error("no oracle validation ran");

    // Pooled over every campaign of the run: executions over the summed
    // wall time of Campaign::Run, and the runner's own per-decision
    // latency distribution, heavy tail included.
    const double rate = static_cast<double>(sum.executions) / wall_s;
    const double p50 = pooled.quantile(kDecisionLatency, 0.5);
    const double p90 = pooled.quantile(kDecisionLatency, 0.9);
    const double p99 = pooled.quantile(kDecisionLatency, 0.99);
    const double energy =
        sum.energy_mj / static_cast<double>(std::max<std::uint64_t>(
                            sum.executions, 1));
    const double miss_share = Share(static_cast<double>(sum.misses),
                                    static_cast<double>(sum.executions));
    out.end_to_end = {
        {"throughput_per_s", rate, "1/s"},
        {"latency_p50_us", p50, "us"},
        {"latency_p90_us", p90, "us"},
        {"energy_mj_per_execution", energy, "mJ"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    out.report = {
        {"executions_per_s", rate, "1/s"},
        {"energy_mj_per_execution", energy, "mJ"},
        {"deadline_miss_share", miss_share, "ratio"},
        {"failed_share",
         Share(static_cast<double>(sum.quarantined),
               static_cast<double>(sum.app_instances)),
         "ratio"},
        {"reschedule_p50_us", p50, "us"},
        {"reschedule_p99_us", p99, "us"},
        {"reschedule_p99.9_us", pooled.quantile(kDecisionLatency, 0.999),
         "us"},
        {"reschedule_max_us", pooled.quantile(kDecisionLatency, 1.0), "us"},
    };
    out.attempted = sum.app_instances;
    out.failed = sum.quarantined;
    out.Count("units", specs_.size());
    out.Count("app_instances", sum.app_instances);
    out.Count("executions", sum.executions);
    out.Count("reschedule_calls", sum.reschedules);
    out.Count("deadline_misses", sum.misses);
    out.Count("oracle_validations", sum.oracle_validations);
    out.Count("quarantined", sum.quarantined);
    CountTiers(out, sum.tiers);
    std::ostringstream os;
    os << specs_.size() << " campaigns x " << specs_.front().instances
       << " app instances (" << specs_.front().CellCount() << " cells, "
       << specs_.front().shards << " shards, trace_instances "
       << specs_.front().trace_instances << ", --jobs " << options_.jobs
       << "); executions/s " << rate << " over " << wall_s
       << " s; reschedule latency p50 " << p50 << " us, p90 " << p90
       << " us, p99 " << p99 << " us, p99.9 "
       << pooled.quantile(kDecisionLatency, 0.999) << " us, max "
       << pooled.quantile(kDecisionLatency, 1.0) << " us ("
       << pooled.samples(kDecisionLatency) << " decisions)";
    out.notes.push_back(os.str());
  }

  void Trace(RunResult& out) override {
    // The traced sample is the run's first campaigns: each is timed
    // untraced through campaign::Campaign, then replayed shard by shard
    // under the ledger, and the replay must reproduce the runner's
    // execution section exactly.
    const std::size_t units = std::min<std::size_t>(specs_.size(), 8);
    std::vector<campaign::CampaignResult> references;
    double untraced_s = 0.0;
    for (std::size_t u = 0; u < units; ++u) {
      campaign::CampaignOptions copts;
      copts.jobs = options_.jobs;
      campaign::Campaign run(specs_[u], copts);
      const Clock::time_point begin = Clock::now();
      references.push_back(run.Run());
      untraced_s += SecondsBetween(begin, Clock::now());
    }

    std::vector<std::vector<ShardReplay>> replays(units);
    std::vector<std::vector<JobTiming>> batches(units);
    std::vector<double> batch_wall_ms;
    double traced_s = 0.0;
    double cpu_ms = 0.0;
    std::mutex cpu_mu;
    Ledger ledger;
    runtime::Pool pool(options_.jobs);
    for (std::size_t u = 0; u < units; ++u) {
      const campaign::CampaignSpec& spec = specs_[u];
      replays[u].resize(spec.shards);
      batches[u].resize(spec.shards);
      const Clock::time_point begin = Clock::now();
      pool.ParallelFor(spec.shards, [&](std::size_t s) {
        Ledger::Span glue("perfbench.job");
        const double cpu0 = ThreadCpuMs();
        JobTiming& job = batches[u][s];
        job.begin_ms = SecondsBetween(begin, Clock::now()) * 1e3;
        ReplayShard(spec, s, replays[u][s]);
        job.end_ms = SecondsBetween(begin, Clock::now()) * 1e3;
        job.thread = std::this_thread::get_id();
        const double cpu = ThreadCpuMs() - cpu0;
        const std::lock_guard<std::mutex> lock(cpu_mu);
        cpu_ms += cpu;
      });
      batch_wall_ms.push_back(SecondsBetween(begin, Clock::now()) * 1e3);
      traced_s += batch_wall_ms.back() / 1e3;
    }
    const SpanTree tree = ledger.Finish();

    LayerInputs in;
    CampaignTotals sum;
    std::uint64_t failed = 0;
    std::vector<double> shard_ms;
    for (std::size_t u = 0; u < units; ++u) {
      const campaign::CampaignResult& reference = references[u];
      CampaignTotals unit;
      for (std::size_t s = 0; s < replays[u].size(); ++s) {
        const ShardReplay& r = replays[u][s];
        const adaptive::TierCounts& a = r.exec.tiers;
        const adaptive::TierCounts& b = reference.shards[s].tiers;
        failed += r.failed;
        if (r.failed != reference.shards[s].quarantine.size() ||
            r.exec.oracle_validations !=
                reference.shards[s].oracle_validations ||
            a.exact != b.exact || a.warm_prior != b.warm_prior ||
            a.warm_cache != b.warm_cache || a.table != b.table ||
            a.full != b.full ||
            a.incremental_fallbacks != b.incremental_fallbacks) {
          out.Error("traced replay of campaign seed " +
                    std::to_string(reference.spec.seed) + " shard " +
                    std::to_string(s) +
                    " diverges from campaign::Campaign's execution section");
        }
        AddTiers(in.tiers, a);
        unit.app_instances += r.totals.app_instances;
        unit.executions += r.totals.executions;
        unit.misses += r.totals.misses;
        unit.reschedules += r.totals.reschedules;
        in.cache_hits += r.cache_hits;
        in.cache_misses += r.cache_misses;
        in.near_hits += r.near_hits;
        in.near_misses += r.near_misses;
        in.cache_evictions += r.evictions;
        in.validations += r.validations;
        in.violations += r.violations;
        shard_ms.push_back(batches[u][s].duration_ms());
      }
      if (unit.executions != reference.fleet.instances ||
          unit.misses != reference.fleet.deadline_misses ||
          unit.reschedules != reference.fleet.reschedules) {
        out.Error("traced replay of campaign seed " +
                  std::to_string(reference.spec.seed) +
                  ": population differs from the runner's");
      }
      sum.app_instances += unit.app_instances;
      sum.executions += unit.executions;
      sum.reschedules += unit.reschedules;
    }
    if (in.violations > 0) {
      out.Error(std::to_string(in.violations) +
                " check:: violations in the traced sample");
    }
    in.reschedule_calls = sum.reschedules;
    in.pool = PoolStatsOf(batches, batch_wall_ms, options_.jobs);
    in.traced_wall_s = traced_s;
    in.untraced_wall_s = untraced_s;
    AddLayerMetrics(tree, in, out);

    double shard_span_ms = 0.0;
    for (const double d : tree.Durations("campaign.shard")) {
      shard_span_ms += d / 1000.0;
    }
    out.per_layer.push_back({"campaign.shard_p50_ms", Median(shard_ms), "ms"});
    out.per_layer.push_back(
        {"campaign.shard_max_ms", Quantile(shard_ms, 1.0), "ms"});
    // The runner's own share of shard time: what no deeper layer's span
    // covers (accumulation, fault injection, trace indexing).
    out.per_layer.push_back(
        {"campaign.unattributed_share",
         Share(tree.SelfMs("campaign.shard") +
                   tree.SelfMs("campaign.instance"),
               shard_span_ms),
         "ratio"});
    AddAbsentLayerMetrics(out);

    out.attempted = sum.app_instances + failed;
    out.failed = failed;
    out.Count("traced.app_instances", sum.app_instances);
    out.Count("traced.executions", sum.executions);
    out.Count("traced.reschedule_calls", sum.reschedules);
    out.Count("traced.validations", in.validations);
    out.Count("traced.violations", in.violations);
    out.Count("traced.cache_hits", in.cache_hits);
    CountTiers(out, in.tiers);
    std::ostringstream os;
    os << "traced sample: the first " << units << " campaigns ("
       << sum.app_instances << " app instances, " << specs_.front().shards
       << " shards each); worker CPU " << cpu_ms << " ms; untraced "
       << untraced_s << " s, traced " << traced_s << " s";
    out.notes.push_back(os.str());
  }

 private:
  Options options_;
  CampaignMix mix_;
  std::vector<campaign::CampaignSpec> specs_;
};

}  // namespace

std::unique_ptr<Workload> MakeCampaignWorkload(const Options& options,
                                               bool light) {
  return std::make_unique<CampaignWorkload>(
      options, light ? CampaignMix::kLight : CampaignMix::kMixed);
}

}  // namespace perfbench
