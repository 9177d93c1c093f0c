#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adaptive/rescheduler.h"
#include "apps/common.h"
#include "check/validator.h"
#include "ctg/activation.h"
#include "dvfs/schedule_table.h"
#include "layers.h"
#include "ledger.h"
#include "runtime/metrics.h"
#include "runtime/schedule_cache.h"
#include "sched/incremental.h"
#include "sim/energy.h"
#include "tgff/random_ctg.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace actg;

constexpr adaptive::RescheduleMode kModes[] = {
    adaptive::RescheduleMode::kFull, adaptive::RescheduleMode::kIncremental,
    adaptive::RescheduleMode::kTable};

/// Fixed graph panel: the fork-join graphs of the drift workload. The
/// panel is part of the workload definition (seed 42 is
/// bench_reschedule's graph); the run seed draws the drift.
constexpr std::uint64_t kPanelSeed = 42;

ctg::BranchProbabilities WithForkAt(const ctg::Ctg& graph,
                                    const ctg::BranchProbabilities& base,
                                    TaskId fork, double p) {
  ctg::BranchProbabilities probs = base;
  const auto outcomes = static_cast<std::size_t>(graph.OutcomeCount(fork));
  std::vector<double> dist(outcomes, (1.0 - p) / (outcomes - 1));
  dist[0] = p;
  probs.Set(fork, std::move(dist));
  return probs;
}

/// The fork whose change dirties the fewest tasks, as bench_reschedule
/// picks it, so the warm-start tiers carry the incremental mode.
TaskId PickOscillatingFork(const ctg::Ctg& graph,
                           const ctg::ActivationAnalysis& analysis,
                           const ctg::BranchProbabilities& base) {
  TaskId best = graph.ForkIds().front();
  std::size_t best_dirty = graph.task_count() + 1;
  for (TaskId fork : graph.ForkIds()) {
    const sched::IncrementalDelta delta = sched::ComputeDirtyRegion(
        graph, analysis, base, WithForkAt(graph, base, fork, 0.9));
    if (delta.dirty_count < best_dirty) {
      best_dirty = delta.dirty_count;
      best = fork;
    }
  }
  return best;
}

struct DriftGraph {
  tgff::RandomCase rc;
  std::unique_ptr<ctg::ActivationAnalysis> analysis;
  ctg::BranchProbabilities base;
  TaskId fork;
  std::unique_ptr<dvfs::ScheduleTable> table;
  double phase = 0.0;
  double omega = 0.0;
  double amplitude = 0.0;

  double ProbabilityAt(std::size_t step) const {
    return 0.5 + amplitude * std::sin(omega * static_cast<double>(step) +
                                      phase);
  }
};

/// One Rescheduler of the panel: a graph in one mode, with its own cache.
struct Lane {
  Lane(const DriftGraph& g, std::size_t m)
      : graph(g),
        mode(m),
        cache(runtime::ScheduleCacheOptions{}, &metrics),
        rescheduler(g.rc.graph, *g.analysis, g.rc.platform, ConfigOf(g, m)),
        request{rescheduler.config().dls.available_pes, 0.0, "drift"} {
    expect.available_pes = request.mask;
  }

  adaptive::ReschedulerConfig ConfigOf(const DriftGraph& g, std::size_t m) {
    adaptive::ReschedulerConfig config;
    config.cache = runtime::CacheBinding{&cache, 0};
    config.reschedule.mode = kModes[m];
    config.reschedule.table = g.table.get();
    config.metrics = &metrics;
    return config;
  }

  const DriftGraph& graph;
  std::size_t mode;
  runtime::Metrics metrics;
  runtime::ScheduleCache cache;
  adaptive::Rescheduler rescheduler;
  adaptive::RescheduleRequest request;
  check::Expectations expect;
};

/// What one pass over the panel produced.
struct DriftPass {
  std::vector<double> latency_us[3];  ///< per mode
  double reschedule_s = 0.0;
  double energy_mj = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t thrown = 0;   ///< Reschedule calls that threw
  std::uint64_t invalid = 0;  ///< decisions check::CheckSchedule rejects
  std::uint64_t validations = 0;
  std::uint64_t violations = 0;
  adaptive::TierCounts tiers;
  std::uint64_t cache_hits = 0, cache_misses = 0, near_hits = 0,
                near_misses = 0, evictions = 0;
  std::string first_failure;
};

class DriftWorkload : public Workload {
 public:
  explicit DriftWorkload(const Options& options) : options_(options) {}

  void Prepare() override {
    const std::size_t graphs = Scaled(options_, 16, 2);
    steps_ = Units(options_, 128);
    const util::Random drift(options_.seed);
    for (std::size_t g = 0; g < graphs; ++g) {
      tgff::RandomCtgParams params;
      params.task_count = 48;
      params.pe_count = 4;
      params.fork_count = 4;
      params.category = tgff::Category::kForkJoin;
      params.seed = kPanelSeed + g;
      auto graph = std::make_unique<DriftGraph>(
          DriftGraph{tgff::MakeRandomCtg(params).value(), nullptr, {}, {},
                     nullptr});
      apps::AssignDeadline(graph->rc.graph, graph->rc.platform, 1.3);
      graph->analysis =
          std::make_unique<ctg::ActivationAnalysis>(graph->rc.graph);
      graph->base = apps::UniformProbabilities(graph->rc.graph);
      graph->fork =
          PickOscillatingFork(graph->rc.graph, *graph->analysis, graph->base);
      dvfs::ScheduleTableOptions table_options;
      table_options.points_per_fork = 3;
      table_options.max_entries = 8192;
      graph->table = std::make_unique<dvfs::ScheduleTable>(
          graph->rc.graph, *graph->analysis, graph->rc.platform,
          table_options);
      util::Random r = drift.Fork(g);
      graph->phase = r.Uniform(0.0, 2.0 * std::numbers::pi);
      graph->omega = r.Uniform(0.5, 0.9);
      graph->amplitude = r.Uniform(0.3, 0.45);
      graphs_.push_back(std::move(graph));
    }
  }

  /// Drives one Rescheduler per (graph, mode) over the drift, timing
  /// each Reschedule call; validation and energy are taken outside the
  /// timed call. Steps go round the lanes, so a slow stretch of a shared
  /// host falls on every graph and mode alike rather than on the few
  /// heavy graphs that set the tail. Under a live Ledger the same pass
  /// is traced.
  DriftPass Pass(std::size_t steps) {
    std::vector<std::unique_ptr<Lane>> lanes;
    for (const std::unique_ptr<DriftGraph>& g : graphs_) {
      for (std::size_t m = 0; m < 3; ++m) {
        lanes.push_back(std::make_unique<Lane>(*g, m));
      }
    }
    DriftPass pass;
    std::uint64_t decision = 0;
    for (std::size_t i = 0; i < steps; ++i) {
      for (const std::unique_ptr<Lane>& lane : lanes) {
        const DriftGraph& g = lane->graph;
        const auto id = static_cast<std::int64_t>(decision++);
        // The benchmark's own per-step work (building the operating
        // point, bookkeeping) is the ledger's unattributed time.
        Ledger::Span step("perfbench.step", id);
        const ctg::BranchProbabilities probs =
            WithForkAt(g.rc.graph, g.base, g.fork, g.ProbabilityAt(i));
        std::optional<adaptive::RescheduleResult> result;
        const Clock::time_point begin = Clock::now();
        try {
          Ledger::Span span("adaptive.decision", id);
          result.emplace(lane->rescheduler.Reschedule(
              probs, lane->request, obs::TraceSession::Current()));
        } catch (const std::exception& e) {
          ++pass.thrown;
          if (pass.first_failure.empty()) pass.first_failure = e.what();
          continue;
        }
        const double s = SecondsBetween(begin, Clock::now());
        pass.reschedule_s += s;
        pass.latency_us[lane->mode].push_back(s * 1e6);
        ++pass.decisions;
        check::Report report;
        {
          Ledger::Span span("check.validate", id);
          report = check::CheckSchedule(result->schedule, lane->expect);
        }
        ++pass.validations;
        if (!report.ok()) {
          ++pass.invalid;
          pass.violations += report.violations().size();
          if (pass.first_failure.empty()) {
            pass.first_failure = report.ToString();
          }
        }
        Ledger::Span span("sim.expected_energy", id);
        pass.energy_mj += sim::ExpectedEnergy(result->schedule, probs);
      }
    }
    for (const std::unique_ptr<Lane>& lane : lanes) {
      AddTiers(pass.tiers, lane->rescheduler.tier_counts());
      pass.cache_hits += lane->cache.hits();
      pass.cache_misses += lane->cache.misses();
      pass.near_hits += lane->cache.near_hits();
      pass.near_misses += lane->cache.near_misses();
      pass.evictions += lane->cache.evictions();
    }
    return pass;
  }

  void Measure(RunResult& out) override {
    const DriftPass pass = Pass(steps_);
    ReportFailures(pass, out);
    const std::vector<double>& full = pass.latency_us[0];
    const double rate =
        static_cast<double>(pass.decisions) / pass.reschedule_s;
    const double energy =
        pass.energy_mj /
        static_cast<double>(std::max<std::uint64_t>(pass.decisions, 1));
    out.end_to_end = {
        {"throughput_per_s", rate, "1/s"},
        {"latency_p50_us", Quantile(full, 0.5), "us"},
        {"latency_p90_us", Quantile(full, 0.9), "us"},
        {"energy_mj_per_execution", energy, "mJ"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    out.report = {{"decisions_per_s", rate, "1/s"},
                  {"expected_energy_mj_per_execution", energy, "mJ"},
                  {"failed_share",
                   Share(static_cast<double>(pass.thrown + pass.invalid),
                         static_cast<double>(pass.decisions + pass.thrown)),
                   "ratio"}};
    for (std::size_t m = 0; m < 3; ++m) {
      const std::string mode = adaptive::RescheduleModeName(kModes[m]);
      out.report.push_back({"reschedule_" + mode + "_p50_us",
                            Quantile(pass.latency_us[m], 0.5), "us"});
      out.report.push_back({"reschedule_" + mode + "_p99_us",
                            Quantile(pass.latency_us[m], 0.99), "us"});
      out.notes.push_back(mode + " reschedule: " +
                          DescribeTiming(pass.latency_us[m], "us"));
    }
    out.Count("graphs", graphs_.size());
    out.Count("steps", steps_);
    out.Count("decisions", pass.decisions);
    out.Count("reschedule_calls", pass.decisions);
    out.Count("oracle_validations", pass.validations);
    CountTiers(out, pass.tiers);
    out.Count("cache_near_hits", pass.near_hits);
    std::ostringstream os;
    os << graphs_.size() << " graphs (48 tasks, 4 PEs, 4 forks) x 3 modes x "
       << steps_ << " drift steps; one caller, closed loop";
    out.notes.push_back(os.str());
  }

  void Trace(RunResult& out) override {
    const std::size_t steps = std::max<std::size_t>(steps_ / 4, 8);
    Clock::time_point begin = Clock::now();
    const DriftPass untraced = Pass(steps);
    const double untraced_s = SecondsBetween(begin, Clock::now());
    Ledger ledger;
    begin = Clock::now();
    const DriftPass pass = Pass(steps);
    const double traced_s = SecondsBetween(begin, Clock::now());
    const SpanTree tree = ledger.Finish();
    ReportFailures(pass, out);
    if (pass.tiers.full != untraced.tiers.full ||
        pass.tiers.table != untraced.tiers.table ||
        pass.tiers.warm_cache != untraced.tiers.warm_cache ||
        pass.tiers.warm_prior != untraced.tiers.warm_prior) {
      out.Error("traced drift pass took other tiers than the untraced one");
    }
    LayerInputs in;
    in.tiers = pass.tiers;
    in.reschedule_calls = pass.decisions;
    in.cache_hits = pass.cache_hits;
    in.cache_misses = pass.cache_misses;
    in.near_hits = pass.near_hits;
    in.near_misses = pass.near_misses;
    in.cache_evictions = pass.evictions;
    in.validations = pass.validations;
    in.violations = pass.violations;
    in.traced_wall_s = traced_s;
    in.untraced_wall_s = untraced_s;
    AddLayerMetrics(tree, in, out);
    for (std::size_t m = 0; m < 3; ++m) {
      const std::string mode = adaptive::RescheduleModeName(kModes[m]);
      out.per_layer.push_back({"adaptive." + mode + "_p50_us",
                               Quantile(untraced.latency_us[m], 0.5), "us"});
      out.per_layer.push_back({"adaptive." + mode + "_p99_us",
                               Quantile(untraced.latency_us[m], 0.99), "us"});
    }
    AddAbsentLayerMetrics(out);
    // Decision ids run graph-major, then mode, then step, so each span's
    // mode follows from its instance id.
    std::map<std::string, double> by_mode[3];
    for (const SpanRecord& span : tree.spans) {
      if (span.instance < 0) continue;
      const std::size_t m =
          static_cast<std::size_t>(span.instance) / steps % 3;
      by_mode[m][span.layer] += static_cast<double>(span.self_us) / 1000.0;
    }
    for (std::size_t m = 0; m < 3; ++m) {
      std::ostringstream os;
      os << adaptive::RescheduleModeName(kModes[m])
         << " mode, traced self ms by layer:";
      for (const auto& [layer, ms] : by_mode[m]) {
        os << " " << layer << "=" << ms;
      }
      out.notes.push_back(os.str());
    }
    out.Count("traced.decisions", pass.decisions);
    CountTiers(out, pass.tiers);
  }

 private:
  /// Failure accounting: a decision fails when Reschedule throws or its
  /// schedule fails check::CheckSchedule; the latter is also an oracle
  /// failure, which fails the run.
  static void ReportFailures(const DriftPass& pass, RunResult& out) {
    out.attempted = pass.decisions + pass.thrown;
    out.failed = pass.thrown + pass.invalid;
    if (pass.invalid > 0) {
      out.Error("reschedule_drift: " + std::to_string(pass.invalid) +
                " decisions fail check::CheckSchedule: " +
                pass.first_failure);
    }
  }

  Options options_;
  std::size_t steps_ = 0;
  std::vector<std::unique_ptr<DriftGraph>> graphs_;
};

}  // namespace

std::unique_ptr<Workload> MakeDriftWorkload(const Options& options) {
  return std::make_unique<DriftWorkload>(options);
}

}  // namespace perfbench
