#include "workloads.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/controller.h"
#include "apps/common.h"
#include "apps/tenants.h"
#include "check/validator.h"
#include "layers.h"
#include "ledger.h"
#include "runtime/metrics.h"
#include "runtime/pool.h"
#include "runtime/schedule_cache.h"
#include "serve/admission.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sim/executor.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace actg;

std::string SliceMetric(serve::SlaClass sla) {
  return "serve." + std::string(serve::SlaLabel(sla)) + ".slice_latency_ms";
}

constexpr std::size_t kTenants = 1000;
constexpr std::size_t kTenantInstances = 20;

serve::FleetRequest MakeFleet(std::size_t tenants, std::uint64_t seed) {
  serve::FleetRequest fleet =
      serve::SyntheticFleet(tenants, kTenantInstances, seed);
  // Admission depths as bench_serve sets them.
  fleet.config.defer_depth = tenants * kTenantInstances / 4;
  fleet.config.shed_depth = tenants * kTenantInstances / 2;
  fleet.Validate().ThrowIfError();
  return fleet;
}

/// One tenant of the traced serve replay: the state serve::Session
/// keeps, driven through the same public entry points.
struct ReplayTenant {
  bool arrived = false;
  bool admitted = false;
  bool built = false;
  bool retired = false;
  std::unique_ptr<apps::TenantModel> model;
  trace::BranchTrace trace;
  std::unique_ptr<adaptive::AdaptiveController> controller;
  std::size_t next = 0;
  sim::RunSummary summary;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Options& options) : options_(options) {}

  void Prepare() override {
    const std::size_t units = Units(options_, 12);
    tenants_ = Scaled(options_, kTenants, 16);
    for (std::size_t k = 0; k < units; ++k) {
      fleets_.push_back(MakeFleet(tenants_, SubSeed(options_.seed, k)));
    }
  }

  void Warm() override {
    serve::ServerOptions warm;
    warm.jobs = options_.jobs;
    serve::Server(MakeFleet(Scaled(options_, 64, 8), 1), warm).Run();
  }

  void Measure(RunResult& out) override {
    std::vector<double> unit_rate;
    // [class][p50, p90, p99] per fleet, us.
    std::vector<double> unit_latency[serve::kSlaClassCount][3];
    std::size_t sla0_slices = 0;
    std::uint64_t tenants = 0, failed = 0, executions = 0, misses = 0,
                  reschedules = 0, validations = 0, cache_hits = 0;
    double energy = 0.0;
    double wall_s = 0.0;
    for (const serve::FleetRequest& request : fleets_) {
      runtime::Metrics metrics;
      serve::ServerOptions sopts;
      sopts.jobs = options_.jobs;
      sopts.metrics = &metrics;
      serve::Server server(request, sopts);
      const Clock::time_point begin = Clock::now();
      const serve::FleetReport& report = server.Run();
      const double s = SecondsBetween(begin, Clock::now());
      wall_s += s;
      for (std::size_t cls = 0; cls < serve::kSlaClassCount; ++cls) {
        const std::string name =
            SliceMetric(static_cast<serve::SlaClass>(cls));
        const double qs[] = {0.5, 0.9, 0.99};
        for (std::size_t q = 0; q < 3; ++q) {
          unit_latency[cls][q].push_back(metrics.quantile(name, qs[q]) *
                                         1000.0);
        }
      }
      sla0_slices += metrics.samples(
          SliceMetric(serve::SlaClass::kLatencyCritical));
      std::uint64_t unit_exec = 0;
      for (const serve::SlaReport& sla : report.sla) {
        unit_exec += sla.instances;
        misses += sla.deadline_misses;
        reschedules += sla.reschedules;
        energy += sla.total_energy_mj;
      }
      executions += unit_exec;
      unit_rate.push_back(static_cast<double>(unit_exec) / s);
      tenants += request.tenants.size();
      failed += report.shed_tenants + report.quarantined_tenants;
      cache_hits += server.cache().hits();
      std::uint64_t requested = 0;
      for (const serve::TenantReport& row : report.tenants) {
        if (!row.shed && !row.quarantined) requested += row.requested;
      }
      if (requested != unit_exec) {
        out.Error("serve fleet seed " + std::to_string(request.config.seed) +
                  ": " + std::to_string(unit_exec) +
                  " executions, admitted tenants requested " +
                  std::to_string(requested));
      }
      validations += Validate(server, out);
    }
    // Per fleet percentiles of the dispatch-slice latency (index 0..2 =
    // p50, p90, p99); the run reports the median fleet.
    const auto slice_us = [&](serve::SlaClass sla, std::size_t q) {
      return Median(unit_latency[static_cast<std::size_t>(sla)][q]);
    };
    const double rate = Median(unit_rate);
    const double per_exec =
        energy / static_cast<double>(std::max<std::uint64_t>(executions, 1));
    const double p50 = slice_us(serve::SlaClass::kLatencyCritical, 0);
    const double p90 = slice_us(serve::SlaClass::kLatencyCritical, 1);
    const double p99 = slice_us(serve::SlaClass::kLatencyCritical, 2);
    out.end_to_end = {
        {"throughput_per_s", rate, "1/s"},
        {"latency_p50_us", p50, "us"},
        {"latency_p90_us", p90, "us"},
        {"energy_mj_per_execution", per_exec, "mJ"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    out.report = {
        {"executions_per_s", rate, "1/s"},
        {"executions_per_s_pooled",
         static_cast<double>(executions) / wall_s, "1/s"},
        {"energy_mj_per_execution", per_exec, "mJ"},
        {"deadline_miss_share",
         Share(static_cast<double>(misses), static_cast<double>(executions)),
         "ratio"},
        {"failed_share",
         Share(static_cast<double>(failed), static_cast<double>(tenants)),
         "ratio"},
        {"sla0_slice_p50_ms", p50 / 1000.0, "ms"},
        {"sla0_slice_p99_ms", p99 / 1000.0, "ms"},
        {"sla2_slice_p99_ms",
         slice_us(serve::SlaClass::kBackground, 2) / 1000.0, "ms"},
    };
    out.attempted = tenants;
    out.failed = failed;
    out.Count("units", fleets_.size());
    out.Count("tenants", tenants);
    out.Count("executions", executions);
    out.Count("reschedule_calls", reschedules);
    out.Count("deadline_misses", misses);
    out.Count("oracle_validations", validations);
    out.Count("shed_or_quarantined", failed);
    out.Count("cache_hits", cache_hits);
    std::ostringstream os;
    os << fleets_.size() << " fleets x " << tenants_ << " tenants x "
       << kTenantInstances
       << " instances (closed-loop round dispatch, --jobs " << options_.jobs
       << "); executions/s: median fleet " << rate
       << "; SLA0 slice per fleet: median of p50s " << p50
       << " us, of p90s " << p90 << " us, of p99s " << p99 << " us ("
       << sla0_slices
       << " slices)";
    out.notes.push_back(os.str());
  }

  /// Oracle pass over every 16th admitted tenant of a finished fleet:
  /// its final schedule, and its first and last instance re-executed on
  /// that schedule.
  std::uint64_t Validate(const serve::Server& server, RunResult& out) {
    std::uint64_t validations = 0;
    const auto& sessions = server.sessions();
    for (std::size_t i = 0; i < sessions.size(); i += 16) {
      const serve::Session* session = sessions[i].get();
      if (session == nullptr || !session->app_built()) continue;
      const sched::Schedule& schedule =
          session->controller().current_schedule();
      check::Report report = check::CheckSchedule(schedule);
      for (const std::size_t index :
           {std::size_t{0}, session->request().instances - 1}) {
        const ctg::BranchAssignment& a = session->assignment(index);
        report.Merge(check::CheckInstance(
            schedule, a, sim::ExecuteInstance(schedule, a)));
      }
      ++validations;
      if (!report.ok()) {
        out.Error("serve tenant " + session->name() +
                  ": check:: oracle violation: " + report.ToString());
      }
    }
    return validations;
  }

  void Trace(RunResult& out) override {
    const serve::FleetRequest& fleet = fleets_.front();
    serve::ServerOptions sopts;
    sopts.jobs = options_.jobs;
    serve::Server server(fleet, sopts);
    Clock::time_point begin = Clock::now();
    const serve::FleetReport& reference = server.Run();
    const double untraced_s = SecondsBetween(begin, Clock::now());

    // Traced replay of the same fleet: serve::Server's round loop over
    // the public admission, cache, pool and controller entry points.
    const serve::ServeConfig& config = fleet.config;
    const std::size_t n = fleet.tenants.size();
    std::vector<ReplayTenant> tenants(n);
    runtime::Metrics metrics;
    runtime::ShardedScheduleCacheOptions cache_options;
    cache_options.shards = config.cache_shards;
    cache_options.shard_capacity = config.shard_capacity;
    runtime::ShardedScheduleCache cache(cache_options, &metrics);
    serve::AdmissionController admission(config);
    runtime::Pool pool(options_.jobs);
    const util::Random root(config.seed);
    std::size_t max_arrival = 0;
    for (const serve::TenantRequest& t : fleet.tenants) {
      max_arrival = std::max(max_arrival, t.arrival);
    }
    const auto tenant_id = [](std::size_t i) {
      return static_cast<std::uint64_t>(i) + 1;
    };

    std::vector<std::vector<JobTiming>> batches;
    std::vector<double> batch_wall_ms;
    std::uint64_t failed = 0;
    std::string first_failure;
    std::mutex failure_mu;
    std::size_t rounds = 0;
    Ledger ledger;
    begin = Clock::now();
    for (std::size_t round = 0;; ++round) {
      std::vector<std::size_t> dispatch;
      {
        Ledger::Span span("serve.admit");
        for (std::size_t i = 0; i < n; ++i) {
          ReplayTenant& t = tenants[i];
          if (t.arrived || fleet.tenants[i].arrival > round) continue;
          t.arrived = true;
          t.admitted = admission.Admit(fleet.tenants[i].sla);
        }
        std::size_t foreground = 0;
        for (std::size_t cls = 0; cls < serve::kSlaClassCount; ++cls) {
          const auto sla = static_cast<serve::SlaClass>(cls);
          for (std::size_t i = 0; i < n; ++i) {
            const ReplayTenant& t = tenants[i];
            if (!t.admitted || t.retired || fleet.tenants[i].sla != sla) {
              continue;
            }
            if (sla == serve::SlaClass::kBackground &&
                !admission.DispatchAllowed(sla) && foreground > 0) {
              continue;
            }
            dispatch.push_back(i);
            if (sla != serve::SlaClass::kBackground) ++foreground;
          }
        }
      }
      std::vector<JobTiming> jobs(dispatch.size());
      const Clock::time_point round_begin = Clock::now();
      pool.ParallelFor(dispatch.size(), [&](std::size_t k) {
        Ledger::Span glue("perfbench.job");
        const std::size_t i = dispatch[k];
        const auto id = static_cast<std::int64_t>(i);
        jobs[k].begin_ms = SecondsBetween(round_begin, Clock::now()) * 1e3;
        {
          Ledger::Span slice("serve.slice", id);
          try {
            SliceOf(fleet, root, cache, metrics, i, tenant_id(i),
                    tenants[i]);
          } catch (const std::exception& e) {
            const std::lock_guard<std::mutex> lock(failure_mu);
            ++failed;
            if (first_failure.empty()) first_failure = e.what();
          }
        }
        jobs[k].end_ms = SecondsBetween(round_begin, Clock::now()) * 1e3;
        jobs[k].thread = std::this_thread::get_id();
      });
      batch_wall_ms.push_back(SecondsBetween(round_begin, Clock::now()) *
                              1e3);
      std::size_t depth = 0;
      {
        Ledger::Span span("serve.dispatch");
        for (std::size_t i = 0; i < n; ++i) {
          ReplayTenant& t = tenants[i];
          if (!t.admitted) continue;
          const std::size_t remaining =
              fleet.tenants[i].instances - t.summary.instances;
          if (remaining == 0 && !t.retired) {
            t.retired = true;
            if (!config.share_cache) cache.Purge(tenant_id(i));
          }
          depth += remaining;
        }
        admission.Update(round, depth);
      }
      batches.push_back(std::move(jobs));
      if (depth == 0 && round >= max_arrival) {
        rounds = round + 1;
        break;
      }
    }
    const double traced_s = SecondsBetween(begin, Clock::now());
    const SpanTree tree = ledger.Finish();

    if (failed > 0) out.Error("traced serve replay failed: " + first_failure);
    bool same = rounds == reference.rounds &&
                admission.shed_count() == reference.shed_tenants &&
                admission.deferred_rounds() == reference.deferred_rounds;
    LayerInputs in;
    std::uint64_t executions = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const ReplayTenant& t = tenants[i];
      const serve::TenantReport& row = reference.tenants[i];
      const std::size_t resched =
          t.controller != nullptr ? t.controller->reschedule_count() : 0;
      same = same && row.completed == t.summary.instances &&
             row.deadline_misses == t.summary.deadline_misses &&
             row.energy_mj == t.summary.total_energy_mj &&
             row.reschedules == resched;
      executions += t.summary.instances;
      in.reschedule_calls += resched;
      if (t.controller != nullptr) {
        AddTiers(in.tiers, t.controller->rescheduler().tier_counts());
      }
    }
    if (!same) {
      out.Error("traced serve replay diverges from serve::Server's report");
    }
    for (const runtime::ShardStats& shard : cache.Stats()) {
      in.cache_hits += shard.hits;
      in.cache_misses += shard.misses;
      in.cache_evictions += shard.evictions;
    }
    in.pool = PoolStatsOf(batches, batch_wall_ms, options_.jobs);
    in.traced_wall_s = traced_s;
    in.untraced_wall_s = untraced_s;
    AddLayerMetrics(tree, in, out);
    // Slice latencies come from the untraced run of the same fleet.
    const auto p50 = [&](serve::SlaClass sla) {
      return server.Latency(sla).p50_ms;
    };
    const auto p99 = [&](serve::SlaClass sla) {
      return server.Latency(sla).p99_ms;
    };
    out.per_layer.push_back(
        {"serve.rounds", static_cast<double>(rounds), "count"});
    out.per_layer.push_back({"serve.deferred_rounds",
                             static_cast<double>(admission.deferred_rounds()),
                             "count"});
    out.per_layer.push_back(
        {"serve.slices", static_cast<double>(tree.CountOf("serve.slice")),
         "count"});
    out.per_layer.push_back(
        {"serve.dispatch_self_ms",
         tree.SelfMs("serve.admit") + tree.SelfMs("serve.dispatch"), "ms"});
    out.per_layer.push_back({"serve.sla0_slice_p50_ms",
                             p50(serve::SlaClass::kLatencyCritical), "ms"});
    out.per_layer.push_back({"serve.sla0_slice_p99_ms",
                             p99(serve::SlaClass::kLatencyCritical), "ms"});
    out.per_layer.push_back({"serve.sla1_slice_p99_ms",
                             p99(serve::SlaClass::kThroughput), "ms"});
    out.per_layer.push_back({"serve.sla2_slice_p99_ms",
                             p99(serve::SlaClass::kBackground), "ms"});
    AddAbsentLayerMetrics(out);

    out.attempted = n;
    out.failed = failed + admission.shed_count();
    out.Count("traced.tenants", n);
    out.Count("traced.executions", executions);
    out.Count("traced.reschedule_calls", in.reschedule_calls);
    out.Count("traced.rounds", rounds);
    out.Count("traced.cache_hits", in.cache_hits);
    CountTiers(out, in.tiers);
    std::ostringstream os;
    os << "traced sample: fleet seed " << config.seed << ", " << n
       << " tenants, " << rounds << " rounds; untraced " << untraced_s
       << " s, traced " << traced_s << " s";
    out.notes.push_back(os.str());
  }

 private:
  /// One dispatch slice of tenant \p i, as serve::Session runs it:
  /// NewApp on first dispatch, then up to `batch` instances.
  static void SliceOf(const serve::FleetRequest& fleet,
                      const util::Random& root,
                      runtime::ShardedScheduleCache& cache,
                      runtime::Metrics& metrics, std::size_t i,
                      std::uint64_t tenant_id, ReplayTenant& t) {
    const serve::TenantRequest& request = fleet.tenants[i];
    const auto id = static_cast<std::int64_t>(i);
    if (!t.built) {
      const std::uint64_t seed =
          request.seed == 0 ? tenant_id : request.seed;
      {
        Ledger::Span span("apps.model_build", id);
        t.model = std::make_unique<apps::TenantModel>(request.workload, seed);
      }
      {
        Ledger::Span span("trace.make_trace", id);
        t.trace = t.model->MakeTrace(request.instances,
                                     root.Fork(static_cast<std::uint64_t>(i)));
      }
      adaptive::AdaptiveOptions options;
      options.window_length = request.window;
      options.threshold = request.threshold;
      options.policy = request.policy;
      const std::uint64_t key_tenant =
          fleet.config.share_cache ? 0 : tenant_id;
      options.cache =
          runtime::CacheBinding{&cache.ShardFor(key_tenant), key_tenant};
      options.metrics = &metrics;
      options.validate_schedules = fleet.config.validate;
      Ledger::Span span("adaptive.controller_init", id);
      t.controller = std::make_unique<adaptive::AdaptiveController>(
          t.model->graph(), t.model->analysis(), t.model->platform(),
          apps::UniformProbabilities(t.model->graph()), options);
      t.built = true;
    }
    const std::size_t remaining = request.instances - t.summary.instances;
    const std::size_t batch = std::min(fleet.config.batch, remaining);
    for (std::size_t k = 0; k < batch; ++k) {
      Ledger::Span span("adaptive.process_instance", id);
      t.summary.Add(t.controller->ProcessInstance(t.trace.At(t.next)));
      ++t.next;
    }
  }

  Options options_;
  std::size_t tenants_ = 0;
  std::vector<serve::FleetRequest> fleets_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const Options& options) {
  return std::make_unique<ServeWorkload>(options);
}

}  // namespace perfbench
