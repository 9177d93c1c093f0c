#include "dvfs/path_engine.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/error.h"

namespace actg::dvfs {

PathEngine::PathEngine(const ctg::Ctg& graph,
                       const ctg::ActivationAnalysis& analysis,
                       const arch::Platform& platform,
                       PathEngineOptions options)
    : graph_(&graph),
      analysis_(&analysis),
      platform_(&platform),
      options_(options) {
  ACTG_CHECK(&analysis.graph() == &graph,
             "PathEngine analysis must be over the engine's graph");
  const ctg::ConditionSpace& space = analysis.space();
  stride_ = 2 * space.words();
  edge_cond_bits_.assign(graph.edge_count() * stride_, 0);
  edge_has_cond_.assign(graph.edge_count(), false);
  for (EdgeId eid : graph.EdgeIds()) {
    const auto& cond = graph.edge(eid).condition;
    if (!cond.has_value()) continue;
    const bool encoded = space.Encode(
        *cond, std::span(edge_cond_bits_).subspan(eid.index() * stride_,
                                                  stride_));
    ACTG_ASSERT(encoded, "edge condition outside the graph's condition "
                         "space");
    edge_has_cond_[eid.index()] = true;
  }

  const std::size_t n = graph.task_count();
  by_task_.resize(n);
  guard_stack_.resize(n + 1);
}

void PathEngine::Enumerate(const sched::Schedule& schedule,
                           bool drop_unrealizable) {
  ACTG_CHECK(&schedule.graph() == graph_,
             "Enumerate requires a schedule over the engine's graph");
  obs::ScopedSpan span(obs::TraceSession::Current(), "dvfs.enumerate",
                       "dvfs");

  paths_.clear();
  task_pool_.clear();
  edge_pool_.clear();
  guard_pool_.clear();
  for (auto& spanning : by_task_) spanning.clear();
  task_stack_.clear();
  edge_stack_.clear();

  schedule.BuildDagAdjacency(adj_);
  const std::size_t n = graph_->task_count();
  has_pred_.assign(n, false);
  for (const auto& out : adj_) {
    for (const auto& [dst, eid] : out) has_pred_[dst.index()] = true;
  }

  for (std::size_t s = 0; s < n; ++s) {
    if (has_pred_[s]) continue;
    const TaskId source{static_cast<int>(s)};
    guard_stack_[0] = analysis_->BitActivationGuard(source);
    if (drop_unrealizable && guard_stack_[0].IsFalse()) continue;
    Visit(schedule, source, 0, drop_unrealizable);
  }
  nominal_state_.resize(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    nominal_state_[i] = {paths_[i].delay_ms, paths_[i].unlocked_ms};
  }
  ++enumeration_id_;
  if (span.enabled()) {
    span.AddArg(obs::IntArg("paths",
                            static_cast<std::int64_t>(paths_.size())));
  }
}

void PathEngine::Visit(const sched::Schedule& schedule, TaskId task,
                       std::size_t depth, bool drop_unrealizable) {
  task_stack_.push_back(task);
  bool extended = false;
  for (const auto& [dst, eid] : adj_[task.index()]) {
    ctg::BitGuard& next = guard_stack_[depth + 1];
    next = guard_stack_[depth];
    next.AndWith(analysis_->BitActivationGuard(dst), and_scratch_);
    if (eid.has_value() && edge_has_cond_[eid->index()]) {
      const std::size_t begin = eid->index() * stride_;
      next.AndWithMinterm(ctg::BitMinterm(
          std::span(edge_cond_bits_).subspan(begin, stride_)));
    }
    if (drop_unrealizable && next.IsFalse()) continue;
    extended = true;
    edge_stack_.push_back(eid);
    Visit(schedule, dst, depth + 1, drop_unrealizable);
    edge_stack_.pop_back();
  }
  if (!extended) Emit(schedule, depth);
  task_stack_.pop_back();
}

void PathEngine::Emit(const sched::Schedule& schedule, std::size_t depth) {
  ACTG_CHECK(paths_.size() < options_.max_paths,
             "Path enumeration exceeded max_paths");
  PathRecord p;
  p.task_begin = task_pool_.size();
  p.task_count = task_stack_.size();
  p.edge_begin = edge_pool_.size();
  task_pool_.insert(task_pool_.end(), task_stack_.begin(),
                    task_stack_.end());
  edge_pool_.insert(edge_pool_.end(), edge_stack_.begin(),
                    edge_stack_.end());
  const ctg::BitGuard& guard = guard_stack_[depth];
  p.guard_begin = guard_pool_.size();
  p.guard_count = guard.minterm_count();
  guard_pool_.insert(guard_pool_.end(), guard.data().begin(),
                     guard.data().end());
  // Delay accumulation order matches PathSet::PathSet exactly (edges in
  // path order, then tasks in path order) so results stay bit-identical.
  p.comm_ms = 0.0;
  for (std::size_t k = 0; k < p.task_count - 1; ++k) {
    const auto& eid = edge_pool_[p.edge_begin + k];
    if (eid.has_value()) p.comm_ms += schedule.EdgeCommTime(*eid);
  }
  p.delay_ms = p.comm_ms;
  p.unlocked_ms = 0.0;
  for (std::size_t k = 0; k < p.task_count; ++k) {
    const double exec = schedule.ScaledWcet(task_pool_[p.task_begin + k]);
    p.delay_ms += exec;
    p.unlocked_ms += exec;
  }
  const std::size_t index = paths_.size();
  for (std::size_t k = 0; k < p.task_count; ++k) {
    by_task_[task_pool_[p.task_begin + k].index()].push_back(index);
  }
  paths_.push_back(p);
}

std::span<const TaskId> PathEngine::TasksOf(std::size_t i) const {
  const PathRecord& p = paths_.at(i);
  return {task_pool_.data() + p.task_begin, p.task_count};
}

std::span<const std::optional<EdgeId>> PathEngine::EdgesOf(
    std::size_t i) const {
  const PathRecord& p = paths_.at(i);
  return {edge_pool_.data() + p.edge_begin,
          p.task_count > 0 ? p.task_count - 1 : 0};
}

double PathEngine::SlackRatio(std::size_t i, double deadline_ms) const {
  const PathRecord& p = paths_.at(i);
  if (p.unlocked_ms <= 0.0) return 0.0;
  return std::max(deadline_ms - p.delay_ms, 0.0) / p.unlocked_ms;
}

bool PathEngine::GuardCompatibleWith(std::size_t i,
                                     const ctg::Minterm& m) const {
  const PathRecord& p = paths_.at(i);
  const bool encoded = analysis_->space().Encode(m, minterm_scratch_);
  ACTG_ASSERT(encoded, "minterm outside the engine's condition space");
  const ctg::BitMinterm bm(minterm_scratch_);
  const std::span<const std::uint64_t> guard =
      std::span(guard_pool_).subspan(p.guard_begin, p.guard_count * stride_);
  for (std::size_t k = 0; k < p.guard_count; ++k) {
    if (ctg::BitMinterm(guard.subspan(k * stride_, stride_))
            .CompatibleWith(bm)) {
      return true;
    }
  }
  return false;
}

std::size_t PathEngine::PositionOf(std::size_t i, TaskId task) const {
  const std::span<const TaskId> tasks = TasksOf(i);
  const auto it = std::find(tasks.begin(), tasks.end(), task);
  ACTG_CHECK(it != tasks.end(), "Path does not span the task");
  return static_cast<std::size_t>(it - tasks.begin());
}

double PathEngine::ProbAfter(std::size_t i, TaskId task,
                             const ctg::BranchProbabilities& probs) const {
  const std::size_t pos = PositionOf(i, task);
  const std::span<const std::optional<EdgeId>> edges = EdgesOf(i);
  double joint = 1.0;
  // The edge between tasks[k] and tasks[k+1] has source position k; it
  // lies after the task when k >= pos.
  for (std::size_t k = pos; k < edges.size(); ++k) {
    if (!edges[k].has_value()) continue;  // pseudo/control: no condition
    const auto& cond = graph_->edge(*edges[k]).condition;
    if (cond.has_value()) joint *= probs.Of(*cond);
  }
  return joint;
}

void PathEngine::CommitTask(TaskId task, double extra_ms,
                            double nominal_ms) {
  for (std::size_t i : Spanning(task)) {
    paths_[i].delay_ms += extra_ms;
    paths_[i].unlocked_ms =
        std::max(paths_[i].unlocked_ms - nominal_ms, 0.0);
  }
}

void PathEngine::RewindCommits() {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    paths_[i].delay_ms = nominal_state_[i].first;
    paths_[i].unlocked_ms = nominal_state_[i].second;
  }
}

double PathEngine::MaxDelay() const {
  double best = 0.0;
  for (const PathRecord& p : paths_) best = std::max(best, p.delay_ms);
  return best;
}

}  // namespace actg::dvfs
