#include "layers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include <time.h>

namespace perfbench {

namespace adaptive = actg::adaptive;

std::size_t Units(const Options& o, double per_10s) {
  const double units = per_10s * o.seconds / 10.0 * o.scale;
  return static_cast<std::size_t>(std::max(1.0, std::round(units)));
}

std::size_t Scaled(const Options& o, std::size_t base, std::size_t floor) {
  return std::max<std::size_t>(
      floor, static_cast<std::size_t>(std::round(base * o.scale)));
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void AddTiers(adaptive::TierCounts& into, const adaptive::TierCounts& from) {
  into.exact += from.exact;
  into.warm_cache += from.warm_cache;
  into.warm_prior += from.warm_prior;
  into.table += from.table;
  into.full += from.full;
  into.incremental_fallbacks += from.incremental_fallbacks;
}

void CountTiers(RunResult& out, const adaptive::TierCounts& t) {
  out.Count("tier.exact", t.exact);
  out.Count("tier.warm_cache", t.warm_cache);
  out.Count("tier.warm_prior", t.warm_prior);
  out.Count("tier.table", t.table);
  out.Count("tier.full", t.full);
  out.Count("tier.fallbacks", t.incremental_fallbacks);
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

PoolStats PoolStatsOf(const std::vector<std::vector<JobTiming>>& batches,
                      const std::vector<double>& batch_wall_ms,
                      std::size_t jobs) {
  double busy = 0.0;
  double wall = 0.0;
  double max_sum = 0.0;
  double mean_sum = 0.0;
  double idle = 0.0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<JobTiming>& batch = batches[b];
    wall += batch_wall_ms[b];
    if (batch.empty()) continue;
    double sum = 0.0;
    double max = 0.0;
    double end = 0.0;
    std::map<std::thread::id, double> last_end;
    for (const JobTiming& job : batch) {
      sum += job.duration_ms();
      max = std::max(max, job.duration_ms());
      end = std::max(end, job.end_ms);
      double& last = last_end[job.thread];
      last = std::max(last, job.end_ms);
    }
    busy += sum;
    max_sum += max;
    mean_sum += sum / static_cast<double>(batch.size());
    double batch_idle = 0.0;
    for (const auto& [thread, last] : last_end) batch_idle += end - last;
    idle += batch_idle / static_cast<double>(last_end.size());
  }
  PoolStats stats;
  stats.busy_share = Share(busy, static_cast<double>(jobs) * wall);
  stats.imbalance = Share(max_sum, mean_sum);
  stats.tail_idle_ms = idle;
  return stats;
}

void AddLayerMetrics(const SpanTree& tree, const LayerInputs& in,
                     RunResult& out) {
  const double busy = tree.BusyMs();
  const std::map<std::string, double> self = tree.SelfMsByLayer();
  const auto layer_ms = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out.per_layer.push_back(Metric{name, value, unit});
  };

  // dvfs: stretch self time vs path enumeration.
  std::vector<double> paths;
  for (const SpanRecord& span : tree.spans) {
    if (span.name == "dvfs.enumerate" && span.paths >= 0) {
      paths.push_back(static_cast<double>(span.paths));
    }
  }
  const std::vector<double> stretch_us = tree.Durations("dvfs.stretch");
  const double stretch_self = tree.SelfMs("dvfs.stretch");
  const double enum_ms = tree.SelfMs("dvfs.enumerate");
  add("dvfs.stretch_self_ms", stretch_self, "ms");
  add("dvfs.path_enum_ms", enum_ms, "ms");
  add("dvfs.stretch_calls", static_cast<double>(stretch_us.size()), "count");
  add("dvfs.paths_p50", Quantile(paths, 0.5), "count");
  add("dvfs.paths_p99", Quantile(paths, 0.99), "count");
  add("dvfs.paths_max", Quantile(paths, 1.0), "count");
  add("dvfs.stretch_p99_us", Quantile(stretch_us, 0.99), "us");
  add("dvfs.stretch_max_ms", Quantile(stretch_us, 1.0) / 1000.0, "ms");
  add("dvfs.share", Share(layer_ms("dvfs"), busy), "ratio");

  // sched: DLS.
  const std::vector<double> dls_us = tree.Durations("sched.dls");
  add("sched.dls_ms", layer_ms("sched"), "ms");
  add("sched.dls_calls", static_cast<double>(dls_us.size()), "count");
  add("sched.dls_p99_us", Quantile(dls_us, 0.99), "us");
  add("sched.share", Share(layer_ms("sched"), busy), "ratio");

  // adaptive: the tier ladder and the controller around it.
  const std::vector<double> resched_us =
      tree.Durations("adaptive.reschedule");
  const std::uint64_t warm_hits = in.tiers.warm_cache + in.tiers.warm_prior;
  add("adaptive.reschedule_calls", static_cast<double>(in.reschedule_calls),
      "count");
  add("adaptive.tier.exact", static_cast<double>(in.tiers.exact), "count");
  add("adaptive.tier.warm_cache", static_cast<double>(in.tiers.warm_cache),
      "count");
  add("adaptive.tier.warm_prior", static_cast<double>(in.tiers.warm_prior),
      "count");
  add("adaptive.tier.table", static_cast<double>(in.tiers.table), "count");
  add("adaptive.tier.full", static_cast<double>(in.tiers.full), "count");
  add("adaptive.fallbacks",
      static_cast<double>(in.tiers.incremental_fallbacks), "count");
  add("adaptive.warm_success_share",
      Share(static_cast<double>(warm_hits),
            static_cast<double>(warm_hits + in.tiers.incremental_fallbacks)),
      "ratio");
  add("adaptive.reschedule_p50_us", Quantile(resched_us, 0.5), "us");
  add("adaptive.reschedule_p99_us", Quantile(resched_us, 0.99), "us");
  add("adaptive.reschedule_max_ms", Quantile(resched_us, 1.0) / 1000.0,
      "ms");
  add("adaptive.process_self_ms", layer_ms("adaptive"), "ms");
  add("adaptive.share", Share(layer_ms("adaptive"), busy), "ratio");

  // sim.
  add("sim.execute_ms", layer_ms("sim"), "ms");
  add("sim.executions", static_cast<double>(tree.CountOf("sim.instance")),
      "count");
  add("sim.share", Share(layer_ms("sim"), busy), "ratio");

  // apps / trace: model and branch-trace generation.
  add("apps.model_build_ms", layer_ms("apps"), "ms");
  add("apps.models_built",
      static_cast<double>(tree.CountOf("apps.model_build")), "count");
  add("trace.make_trace_ms", layer_ms("trace"), "ms");

  // check: the oracle.
  add("check.validate_ms", layer_ms("check"), "ms");
  add("check.validations", static_cast<double>(in.validations), "count");
  add("check.violations", static_cast<double>(in.violations), "count");

  // runtime: schedule cache and pool.
  add("runtime.cache.hit_share",
      Share(static_cast<double>(in.cache_hits),
            static_cast<double>(in.cache_hits + in.cache_misses)),
      "ratio");
  add("runtime.cache.near_hit_share",
      Share(static_cast<double>(in.near_hits),
            static_cast<double>(in.near_hits + in.near_misses)),
      "ratio");
  add("runtime.cache.evictions", static_cast<double>(in.cache_evictions),
      "count");
  add("runtime.pool.busy_share", in.pool.busy_share, "ratio");
  add("runtime.pool.imbalance", in.pool.imbalance, "ratio");
  add("runtime.pool.tail_idle_ms", in.pool.tail_idle_ms, "ms");

  // Ledger health.
  add("trace_overhead_share",
      Share(in.traced_wall_s, in.untraced_wall_s) - 1.0, "ratio");
  add("unattributed_share", Share(layer_ms("perfbench"), busy), "ratio");

  out.Count("ledger.spans", tree.spans.size());
  out.Count("ledger.nesting_violations", tree.nesting_violations);
  out.Count("ledger.instance_violations", tree.instance_violations);
  out.Count("ledger.unclosed", tree.unclosed);
  if (tree.nesting_violations + tree.instance_violations + tree.unclosed >
      0) {
    out.Error("span ledger is inconsistent (nesting " +
              std::to_string(tree.nesting_violations) + ", instance " +
              std::to_string(tree.instance_violations) + ", unclosed " +
              std::to_string(tree.unclosed) + ")");
  }
  std::ostringstream os;
  os << "ledger: " << tree.spans.size() << " spans, busy " << busy
     << " ms; self ms by layer:";
  for (const auto& [layer, ms] : self) os << " " << layer << "=" << ms;
  out.notes.push_back(os.str());
}

void AddAbsentLayerMetrics(RunResult& out) {
  static const Metric kWorkloadSpecific[] = {
      {"adaptive.full_p50_us", 0.0, "us"},
      {"adaptive.full_p99_us", 0.0, "us"},
      {"adaptive.incremental_p50_us", 0.0, "us"},
      {"adaptive.incremental_p99_us", 0.0, "us"},
      {"adaptive.table_p50_us", 0.0, "us"},
      {"adaptive.table_p99_us", 0.0, "us"},
      {"campaign.shard_p50_ms", 0.0, "ms"},
      {"campaign.shard_max_ms", 0.0, "ms"},
      {"campaign.unattributed_share", 0.0, "ratio"},
      {"serve.rounds", 0.0, "count"},
      {"serve.deferred_rounds", 0.0, "count"},
      {"serve.slices", 0.0, "count"},
      {"serve.dispatch_self_ms", 0.0, "ms"},
      {"serve.sla0_slice_p50_ms", 0.0, "ms"},
      {"serve.sla0_slice_p99_ms", 0.0, "ms"},
      {"serve.sla1_slice_p99_ms", 0.0, "ms"},
      {"serve.sla2_slice_p99_ms", 0.0, "ms"},
  };
  for (const Metric& m : kWorkloadSpecific) {
    const bool present =
        std::any_of(out.per_layer.begin(), out.per_layer.end(),
                    [&](const Metric& p) { return p.name == m.name; });
    if (!present) out.per_layer.push_back(m);
  }
}

}  // namespace perfbench
