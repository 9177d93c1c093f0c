#include "dvfs/schedule_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "dvfs/path_engine.h"
#include "util/error.h"

namespace actg::dvfs {

namespace {

/// All compositions of \p total into \p parts non-negative integers,
/// lexicographically (deterministic lattice order).
void EnumerateCompositions(int total, int parts, std::vector<int>& current,
                           std::vector<std::vector<int>>& out) {
  if (parts == 1) {
    current.push_back(total);
    out.push_back(current);
    current.pop_back();
    return;
  }
  for (int v = 0; v <= total; ++v) {
    current.push_back(v);
    EnumerateCompositions(total - v, parts - 1, current, out);
    current.pop_back();
  }
}

/// Number of compositions of \p total into \p parts: C(total+parts-1,
/// parts-1), saturating at \p cap to avoid overflow.
std::size_t CompositionCount(std::size_t total, std::size_t parts,
                             std::size_t cap) {
  std::size_t count = 1;
  for (std::size_t i = 1; i < parts; ++i) {
    count = count * (total + i) / i;
    if (count > cap) return cap + 1;
  }
  return count;
}

/// True when the two schedules agree on mapping, commit order and
/// pseudo edges — the precondition for speed-vector blending.
bool SameShape(const sched::Schedule& a, const sched::Schedule& b) {
  for (TaskId task : a.graph().TaskIds()) {
    const sched::TaskPlacement& pa = a.placement(task);
    const sched::TaskPlacement& pb = b.placement(task);
    if (pa.pe != pb.pe || pa.order_index != pb.order_index) return false;
  }
  const auto& ea = a.pseudo_edges();
  const auto& eb = b.pseudo_edges();
  if (ea.size() != eb.size()) return false;
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (ea[i].src != eb[i].src || ea[i].dst != eb[i].dst) return false;
  }
  return true;
}

}  // namespace

util::Error ScheduleTableOptions::Validate() const {
  if (points_per_fork < 2) {
    return util::Error::Invalid(
        "ScheduleTableOptions: points_per_fork must be >= 2");
  }
  if (max_entries == 0) {
    return util::Error::Invalid(
        "ScheduleTableOptions: max_entries must be > 0");
  }
  if (!ParseStretchPolicy(StretchPolicyName(policy))) {
    return util::Error::Invalid(
        "ScheduleTableOptions: unknown stretch policy " +
        std::to_string(static_cast<int>(policy)));
  }
  return dls.Validate();
}

ScheduleTable::ScheduleTable(const ctg::Ctg& graph,
                             const ctg::ActivationAnalysis& analysis,
                             const arch::Platform& platform,
                             ScheduleTableOptions options)
    : graph_(&graph), platform_(&platform), options_(std::move(options)) {
  options_.Validate().ThrowIfError();
  const std::vector<TaskId> forks = graph.ForkIds();
  const std::size_t steps = options_.points_per_fork - 1;

  // Guard the lattice size before enumerating anything.
  std::size_t total = 1;
  for (TaskId fork : forks) {
    const std::size_t per_fork = CompositionCount(
        steps, static_cast<std::size_t>(graph.OutcomeCount(fork)),
        options_.max_entries);
    total = total * per_fork;
    ACTG_CHECK(total <= options_.max_entries,
               "ScheduleTable: lattice would exceed max_entries; raise "
               "max_entries or lower points_per_fork");
  }

  // Per-fork lattice distributions.
  std::vector<std::vector<std::vector<double>>> axes;
  axes.reserve(forks.size());
  for (TaskId fork : forks) {
    std::vector<std::vector<int>> compositions;
    std::vector<int> scratch;
    EnumerateCompositions(static_cast<int>(steps),
                          graph.OutcomeCount(fork), scratch, compositions);
    std::vector<std::vector<double>> dists;
    dists.reserve(compositions.size());
    for (const std::vector<int>& parts : compositions) {
      std::vector<double> dist(parts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        dist[i] = static_cast<double>(parts[i]) /
                  static_cast<double>(steps);
      }
      dists.push_back(std::move(dist));
    }
    axes.push_back(std::move(dists));
  }

  // Cartesian product, one DLS + stretch per point. A shared engine
  // pools the path-enumeration and DLS scratch across points.
  PathEngine engine(graph, analysis, platform);
  std::vector<std::size_t> cursor(forks.size(), 0);
  entries_.reserve(total);
  while (true) {
    ctg::BranchProbabilities probs(graph.task_count());
    std::vector<double> flat;
    for (std::size_t f = 0; f < forks.size(); ++f) {
      const std::vector<double>& dist = axes[f][cursor[f]];
      probs.Set(forks[f], dist);
      flat.insert(flat.end(), dist.begin(), dist.end());
    }
    sched::Schedule schedule =
        sched::RunDls(graph, analysis, platform, probs, options_.dls,
                      &engine.dls_workspace());
    const StretchStats stats =
        Stretch(options_.policy, schedule, probs, 0.0, nullptr, {}, &engine);
    entries_.push_back(ScheduleTableEntry{std::move(probs),
                                          std::move(flat),
                                          std::move(schedule), stats});

    // Odometer increment over the per-fork axes.
    std::size_t f = forks.size();
    while (f > 0) {
      --f;
      if (++cursor[f] < axes[f].size()) break;
      cursor[f] = 0;
      if (f == 0) return;
    }
    if (forks.empty()) return;
  }
}

double ScheduleTable::Distance(const ctg::BranchProbabilities& probs,
                               const ScheduleTableEntry& entry) const {
  double dist = 0.0;
  std::size_t i = 0;
  for (TaskId fork : graph_->ForkIds()) {
    for (int o = 0; o < graph_->OutcomeCount(fork); ++o) {
      dist = std::max(dist,
                      std::abs(probs.Outcome(fork, o) - entry.flat[i]));
      ++i;
    }
  }
  return dist;
}

std::size_t ScheduleTable::Select(
    const ctg::BranchProbabilities& probs) const {
  ACTG_CHECK(!entries_.empty(), "ScheduleTable: empty table");
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const double dist = Distance(probs, entries_[i]);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

MaterializedSchedule ScheduleTable::Materialize(
    const ctg::BranchProbabilities& probs) const {
  const std::size_t nearest = Select(probs);
  const ScheduleTableEntry& e1 = entries_[nearest];
  MaterializedSchedule out{e1.schedule, e1.stretch, nearest, false};
  const double d1 = Distance(probs, e1);
  if (d1 == 0.0) return out;

  // Second-nearest entry sharing the schedule shape; only then is the
  // speed blend meaningful (and feasibility-safe, see file comment).
  std::size_t second = entries_.size();
  double d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i == nearest) continue;
    const double dist = Distance(probs, entries_[i]);
    if (dist < d2 && SameShape(e1.schedule, entries_[i].schedule)) {
      d2 = dist;
      second = i;
    }
  }
  if (second == entries_.size() || !(d1 + d2 > 0.0)) return out;

  const sched::Schedule& s2 = entries_[second].schedule;
  const double w1 = d2 / (d1 + d2);  // closer entry weighs more
  for (TaskId task : graph_->TaskIds()) {
    const double blended =
        w1 * e1.schedule.placement(task).speed_ratio +
        (1.0 - w1) * s2.placement(task).speed_ratio;
    sched::TaskPlacement& p = out.schedule.placement(task);
    p.speed_ratio = platform_->QuantizeSpeed(p.pe, blended);
  }
  out.schedule.RecomputeTimes();
  out.interpolated = true;
  return out;
}

}  // namespace actg::dvfs
