#include "sched/dls.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "util/error.h"

namespace actg::sched {

namespace {

constexpr double kTimeEps = 1e-9;

/// Earliest start >= ready such that [start, start + duration) avoids
/// every blocking interval. \p busy must be sorted by start.
double EarliestGap(const std::vector<std::pair<double, double>>& busy,
                   double ready, double duration) {
  double t = ready;
  for (const auto& [begin, end] : busy) {
    if (end <= t + kTimeEps) continue;
    if (begin >= t + duration - kTimeEps) break;
    t = std::max(t, end);
  }
  return t;
}

/// Incremental transitive-reduction helper: true when \p dst is reachable
/// from \p src over \p adj. \p stack and \p seen are caller-owned scratch.
bool Reachable(const std::vector<std::vector<int>>& adj, int src, int dst,
               std::vector<int>& stack, std::vector<bool>& seen) {
  if (src == dst) return true;
  stack.assign(1, src);
  seen.assign(adj.size(), false);
  seen[static_cast<std::size_t>(src)] = true;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    for (int v : adj[static_cast<std::size_t>(u)]) {
      if (v == dst) return true;
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        stack.push_back(v);
      }
    }
  }
  return false;
}

}  // namespace

util::Error DlsOptions::Validate() const {
  if (fixed_mapping != nullptr) {
    if (fixed_mapping->empty()) {
      return util::Error::Invalid(
          "DlsOptions: fixed_mapping, when set, must not be empty");
    }
    for (PeId pe : *fixed_mapping) {
      if (!pe.valid()) {
        return util::Error::Invalid(
            "DlsOptions: fixed_mapping contains an invalid PE id");
      }
    }
  }
  if (pinned_mapping != nullptr && pinned_mapping->empty()) {
    return util::Error::Invalid(
        "DlsOptions: pinned_mapping, when set, must not be empty");
  }
  if (available_pes.removed_bits() == ~0ULL) {
    return util::Error::Invalid(
        "DlsOptions: available_pes must leave at least one PE");
  }
  return {};
}

std::vector<PeId> RoundRobinMapping(const ctg::Ctg& graph,
                                    const arch::Platform& platform) {
  std::vector<PeId> mapping(graph.task_count());
  int next = 0;
  for (TaskId task : graph.TopologicalOrder()) {
    mapping[task.index()] =
        PeId{next++ % static_cast<int>(platform.pe_count())};
  }
  return mapping;
}

Schedule RunDls(const ctg::Ctg& graph,
                const ctg::ActivationAnalysis& analysis,
                const arch::Platform& platform,
                const ctg::BranchProbabilities& probs,
                const DlsOptions& options, DlsWorkspace* workspace) {
  options.Validate().ThrowIfError();
  const std::size_t n = graph.task_count();
  obs::ScopedSpan span(obs::TraceSession::Current(), "sched.dls", "sched");
  if (span.enabled()) {
    span.AddArg(obs::IntArg("tasks", static_cast<std::int64_t>(n)));
  }
  Schedule schedule(graph, analysis, platform);
  if (options.fixed_mapping != nullptr) {
    ACTG_CHECK(options.fixed_mapping->size() == n,
               "fixed_mapping must assign a PE to every task");
  }
  if (options.pinned_mapping != nullptr) {
    ACTG_CHECK(options.pinned_mapping->size() == n,
               "pinned_mapping must carry an entry for every task");
    for (PeId pe : *options.pinned_mapping) {
      ACTG_CHECK(!pe.valid() || options.available_pes.Contains(pe),
                 "pinned_mapping pins a task to an unavailable PE");
    }
  }
  ACTG_CHECK(options.available_pes.CountAvailable(platform.pe_count()) > 0,
             "available_pes masks out every PE of the platform");

  DlsWorkspace local_workspace;
  DlsWorkspace& ws = workspace != nullptr ? *workspace : local_workspace;

  ws.levels.clear();
  ComputeStaticLevels(graph, platform, probs, options.level_policy)
      .swap(ws.levels);
  const std::vector<double>& levels = ws.levels;

  // Predecessor bookkeeping over the base scheduled DAG (CTG edges plus
  // implied fork -> or-node control dependencies).
  ws.pending_preds.assign(n, 0);
  std::vector<int>& pending_preds = ws.pending_preds;
  for (EdgeId eid : graph.EdgeIds()) {
    ++pending_preds[graph.edge(eid).dst.index()];
  }
  ws.control_preds.resize(n);
  for (auto& preds : ws.control_preds) preds.clear();
  std::vector<std::vector<TaskId>>& control_preds = ws.control_preds;
  for (const ExtraEdge& e : schedule.control_edges()) {
    control_preds[e.dst.index()].push_back(e.src);
    ++pending_preds[e.dst.index()];
  }

  ws.ready_list.clear();
  std::vector<TaskId>& ready_list = ws.ready_list;
  for (std::size_t i = 0; i < n; ++i) {
    if (pending_preds[i] == 0) {
      ready_list.push_back(TaskId{static_cast<int>(i)});
    }
  }

  // Per-PE committed intervals: (start, finish, task).
  using Interval = DlsWorkspace::Interval;
  ws.timelines.resize(platform.pe_count());
  for (auto& timeline : ws.timelines) timeline.clear();
  std::vector<std::vector<Interval>>& timelines = ws.timelines;

  const auto data_ready_on = [&](TaskId task, PeId pe) {
    double ready = 0.0;
    for (EdgeId eid : graph.InEdges(task)) {
      const ctg::Edge& e = graph.edge(eid);
      const TaskPlacement& src = schedule.placement(e.src);
      ready = std::max(ready, src.finish_ms + platform.CommTime(
                                                  e.comm_kbytes, src.pe, pe));
    }
    for (TaskId fork : control_preds[task.index()]) {
      ready = std::max(ready, schedule.placement(fork).finish_ms);
    }
    return ready;
  };

  const auto earliest_start = [&](TaskId task, PeId pe) {
    const double ready = data_ready_on(task, pe);
    std::vector<std::pair<double, double>>& busy = ws.busy;
    busy.clear();
    busy.reserve(timelines[pe.index()].size());
    for (const Interval& iv : timelines[pe.index()]) {
      if (options.mutex_aware &&
          analysis.MutuallyExclusive(task, iv.task)) {
        continue;
      }
      busy.emplace_back(iv.start, iv.finish);
    }
    std::sort(busy.begin(), busy.end());
    return EarliestGap(busy, ready, platform.Wcet(task, pe));
  };

  int order = 0;
  while (!ready_list.empty()) {
    // Select the (task, PE) pair with the maximum dynamic level.
    double best_dl = -std::numeric_limits<double>::infinity();
    double best_at = 0.0;
    TaskId best_task;
    PeId best_pe;
    for (TaskId task : ready_list) {
      const double avg_wcet = platform.AverageWcet(task);
      for (PeId pe : platform.PeIds()) {
        if (options.fixed_mapping != nullptr) {
          if ((*options.fixed_mapping)[task.index()] != pe) continue;
        } else {
          if (options.pinned_mapping != nullptr) {
            const PeId pin = (*options.pinned_mapping)[task.index()];
            if (pin.valid() && pin != pe) continue;
          }
          if (!options.available_pes.Contains(pe)) continue;
        }
        const double at = earliest_start(task, pe);
        const double delta = avg_wcet - platform.Wcet(task, pe);
        const double dl = levels[task.index()] - at + delta;
        const bool better =
            dl > best_dl + kTimeEps ||
            (dl > best_dl - kTimeEps &&
             (at < best_at - kTimeEps ||
              (at < best_at + kTimeEps &&
               (!best_task.valid() || task < best_task ||
                (task == best_task && pe < best_pe)))));
        if (better) {
          best_dl = dl;
          best_at = at;
          best_task = task;
          best_pe = pe;
        }
      }
    }
    ACTG_ASSERT(best_task.valid(), "DLS selected no candidate");

    // Commit the placement and its incoming communications.
    TaskPlacement& p = schedule.placement(best_task);
    p.pe = best_pe;
    p.start_ms = best_at;
    p.finish_ms = best_at + platform.Wcet(best_task, best_pe);
    p.speed_ratio = 1.0;
    p.order_index = order++;
    timelines[best_pe.index()].push_back(
        Interval{p.start_ms, p.finish_ms, best_task});
    for (EdgeId eid : graph.InEdges(best_task)) {
      const ctg::Edge& e = graph.edge(eid);
      const TaskPlacement& src = schedule.placement(e.src);
      CommPlacement& comm = schedule.comm(eid);
      comm.start_ms = src.finish_ms;
      comm.finish_ms =
          src.finish_ms +
          platform.CommTime(e.comm_kbytes, src.pe, best_pe);
    }

    ready_list.erase(
        std::find(ready_list.begin(), ready_list.end(), best_task));
    for (EdgeId eid : graph.OutEdges(best_task)) {
      const TaskId dst = graph.edge(eid).dst;
      if (--pending_preds[dst.index()] == 0) ready_list.push_back(dst);
    }
    for (const ExtraEdge& e : schedule.control_edges()) {
      if (e.src == best_task &&
          --pending_preds[e.dst.index()] == 0) {
        ready_list.push_back(e.dst);
      }
    }
  }

  // Derive pseudo order edges: every ordered non-mutex pair sharing a PE,
  // transitively reduced against the existing DAG.
  ws.adj.resize(n);
  for (auto& out : ws.adj) out.clear();
  std::vector<std::vector<int>>& adj = ws.adj;
  for (EdgeId eid : graph.EdgeIds()) {
    adj[graph.edge(eid).src.index()].push_back(graph.edge(eid).dst.value);
  }
  for (const ExtraEdge& e : schedule.control_edges()) {
    adj[e.src.index()].push_back(e.dst.value);
  }
  for (auto& timeline : timelines) {
    std::sort(timeline.begin(), timeline.end(),
              [](const Interval& a, const Interval& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.task < b.task;
              });
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      for (std::size_t j = i + 1; j < timeline.size(); ++j) {
        const TaskId a = timeline[i].task;
        const TaskId b = timeline[j].task;
        // A mutual-exclusion-aware scheduler knows that exclusive tasks
        // never execute together, so it neither serializes them nor
        // derives order constraints between them. A mutex-blind tool
        // (Reference Algorithm 1) serializes them on the PE *and* its
        // downstream slack analysis sees the resulting impossible
        // both-branches chains, wasting deadline margin on them.
        if (options.mutex_aware && analysis.MutuallyExclusive(a, b))
          continue;
        ACTG_ASSERT(timeline[i].finish <= timeline[j].start + 1e-6,
                    "non-mutex tasks overlap on one PE after DLS");
        if (!Reachable(adj, a.value, b.value, ws.reach_stack,
                       ws.reach_seen)) {
          schedule.AddPseudoEdge(a, b);
          adj[a.index()].push_back(b.value);
        }
      }
    }
  }

  // Canonicalize times as ASAP over the final scheduled DAG.
  schedule.RecomputeTimes();
  return schedule;
}

}  // namespace actg::sched
