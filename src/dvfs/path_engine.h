/// \file path_engine.h
/// Reusable path-enumeration workspace for the reschedule hot path.
///
/// The adaptive controller re-runs DLS + path enumeration + stretching
/// on every threshold crossing; PathSet (paths.h) rebuilds all of its
/// scaffolding — adjacency, per-path task/edge/guard vectors, spanning
/// lists — from scratch on every call, and carries a DNF guard per path
/// whose conjunctions allocate at every DFS step. A PathEngine is
/// constructed once per (graph, analysis, platform) and owns all of
/// that storage: flat task/edge/guard pools, the scheduled-DAG
/// adjacency, the DFS guard stack, per-task spanning lists, and a
/// sched::DlsWorkspace for the scheduler's scratch buffers. Repeated
/// Enumerate() calls reuse every buffer's capacity, and path guards are
/// kept in the compiled bitset form of condition_bitset.h (sized to the
/// graph, so every graph compiles), so the realizability test at each
/// DFS step and the guard-vs-minterm compatibility tests during
/// stretching are word ops. The bitset is a representation change, not
/// a semantics change: the engine enumerates the same paths in the same
/// order and answers the same predicates as the DNF-guarded PathSet.
///
/// Lifetime and ownership rules: the engine borrows graph/analysis/
/// platform (they must outlive it) and is bound to them for life; every
/// Enumerate() call must pass a Schedule over those same objects. One
/// engine serves one thread at a time; concurrent controllers each own
/// their own engine (see adaptive::AdaptiveController).

#ifndef ACTG_DVFS_PATH_ENGINE_H
#define ACTG_DVFS_PATH_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/condition_bitset.h"
#include "sched/dls.h"
#include "sched/schedule.h"

namespace actg::dvfs {

/// Construction-time knobs of a PathEngine.
struct PathEngineOptions {
  /// Guard against pathological path explosion (same contract as
  /// PathSet: enumeration throws actg::InvalidArgument past the limit).
  /// The only place the stretchers' path-count bound lives: every
  /// engine they run on, pooled or transient, is built with it.
  std::size_t max_paths = 1 << 20;
};

/// Reusable path-enumeration + stretch workspace. See the file comment
/// for the lifetime rules.
class PathEngine {
 public:
  PathEngine(const ctg::Ctg& graph, const ctg::ActivationAnalysis& analysis,
             const arch::Platform& platform, PathEngineOptions options = {});

  const ctg::Ctg& graph() const { return *graph_; }
  const ctg::ActivationAnalysis& analysis() const { return *analysis_; }
  const PathEngineOptions& options() const { return options_; }

  /// Enumerates all source-to-sink paths of \p schedule's scheduled DAG
  /// into the engine's storage, replacing any previous enumeration.
  /// The schedule must be over the engine's graph/analysis/platform.
  /// Semantics match PathSet: with \p drop_unrealizable, paths whose
  /// guard is false are skipped during the DFS; without it they are
  /// kept (mutex-blind Reference Algorithm 1 analysis).
  void Enumerate(const sched::Schedule& schedule,
                 bool drop_unrealizable = true);

  /// Number of paths of the current enumeration.
  std::size_t size() const { return paths_.size(); }

  /// Tasks of path \p i in path order.
  std::span<const TaskId> TasksOf(std::size_t i) const;

  /// Edges of path \p i (between consecutive tasks; nullopt for
  /// pseudo/control edges).
  std::span<const std::optional<EdgeId>> EdgesOf(std::size_t i) const;

  double comm_ms(std::size_t i) const { return paths_.at(i).comm_ms; }
  double delay_ms(std::size_t i) const { return paths_.at(i).delay_ms; }
  double unlocked_ms(std::size_t i) const {
    return paths_.at(i).unlocked_ms;
  }

  /// Remaining slack of path \p i against \p deadline_ms.
  double Slack(std::size_t i, double deadline_ms) const {
    return deadline_ms - delay_ms(i);
  }

  /// Distributable slack per unit of unlocked execution time (see
  /// Path::SlackRatio).
  double SlackRatio(std::size_t i, double deadline_ms) const;

  /// Indices of the paths that span \p task.
  const std::vector<std::size_t>& Spanning(TaskId task) const {
    return by_task_.at(task.index());
  }

  /// True when path \p i's guard and \p m can hold simultaneously
  /// (satisfiability of the conjunction — the predicate the stretching
  /// heuristic needs per Γ(τ) minterm).
  bool GuardCompatibleWith(std::size_t i, const ctg::Minterm& m) const;

  /// prob(p, τ): joint probability of the conditional branches on path
  /// \p i lying at or after \p task.
  double ProbAfter(std::size_t i, TaskId task,
                   const ctg::BranchProbabilities& probs) const;

  /// Commits a stretched-and-locked task (see PathSet::CommitTask).
  void CommitTask(TaskId task, double extra_ms, double nominal_ms);

  /// Restores every path's delay/unlocked state to its value right
  /// after the last Enumerate(), undoing all CommitTask() calls since.
  /// This is the delta re-enumeration primitive of the warm-start
  /// reschedule path: when the scheduled DAG's shape is unchanged from
  /// the last enumeration (same per-PE task sequences), a stretcher can
  /// rewind instead of re-running the DFS. No-op before the first
  /// enumeration.
  void RewindCommits();

  /// Monotonic count of Enumerate() calls, so callers can detect that
  /// the enumeration they captured is still the engine's current one
  /// (RewindCommits() would otherwise rewind to a different shape).
  std::uint64_t enumeration_id() const { return enumeration_id_; }

  /// Largest delay over all paths of the current enumeration.
  double MaxDelay() const;

  /// Scratch buffers for sched::RunDls, so a controller-owned engine
  /// also amortizes the scheduler's per-call allocations.
  sched::DlsWorkspace& dls_workspace() { return dls_workspace_; }

 private:
  struct PathRecord {
    std::size_t task_begin = 0;
    std::size_t task_count = 0;
    std::size_t edge_begin = 0;  // task_count - 1 entries
    std::size_t guard_begin = 0;  // first word in guard_pool_
    std::size_t guard_count = 0;  // minterms
    double comm_ms = 0.0;
    double delay_ms = 0.0;
    double unlocked_ms = 0.0;
  };

  void Visit(const sched::Schedule& schedule, TaskId task,
             std::size_t depth, bool drop_unrealizable);
  void Emit(const sched::Schedule& schedule, std::size_t depth);
  std::size_t PositionOf(std::size_t i, TaskId task) const;

  const ctg::Ctg* graph_;
  const ctg::ActivationAnalysis* analysis_;
  const arch::Platform* platform_;
  PathEngineOptions options_;
  /// Words of one compiled minterm: 2 * analysis.space().words(), the
  /// stride of edge_cond_bits_ and guard_pool_.
  std::size_t stride_ = 0;

  // Compiled once at construction.
  std::vector<std::uint64_t> edge_cond_bits_;  // one minterm per edge
  std::vector<bool> edge_has_cond_;

  // Reused across Enumerate() calls.
  sched::Schedule::DagAdjacency adj_;
  std::vector<bool> has_pred_;
  std::vector<ctg::BitGuard> guard_stack_;  // DFS guard per depth
  ctg::BitGuard and_scratch_;
  /// GuardCompatibleWith's encode buffer (the engine serves one thread).
  mutable std::vector<std::uint64_t> minterm_scratch_;
  std::vector<TaskId> task_stack_;
  std::vector<std::optional<EdgeId>> edge_stack_;

  // Current enumeration (flat pools; cleared keeping capacity).
  std::vector<PathRecord> paths_;
  /// Post-enumeration (delay_ms, unlocked_ms) per path, the rewind
  /// target of RewindCommits().
  std::vector<std::pair<double, double>> nominal_state_;
  std::uint64_t enumeration_id_ = 0;
  std::vector<TaskId> task_pool_;
  std::vector<std::optional<EdgeId>> edge_pool_;
  std::vector<std::uint64_t> guard_pool_;  // path guards' minterms
  std::vector<std::vector<std::size_t>> by_task_;

  sched::DlsWorkspace dls_workspace_;
};

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_PATH_ENGINE_H
