/// \file schedule_table.h
/// Precomputed schedules over a probability lattice (table mode).
///
/// Simon et al. (PAPERS.md) precompute schedules for a lattice of
/// operating points offline and merely *select* at run time. This
/// module does the same for CTG branch probabilities: every fork's
/// outcome simplex is discretized into points_per_fork points per axis
/// (all compositions of points_per_fork - 1 over the outcomes), the
/// cartesian product over forks forms the lattice, and each lattice
/// point gets a full DLS + stretch pass at construction time. At run
/// time Select() finds the nearest lattice point (max-abs distance over
/// the flattened probability vector, the same metric the adaptive
/// controller thresholds on) and Materialize() returns its schedule,
/// *interpolating the speed vector* with the second-nearest entry when
/// both entries agree on mapping, ordering and pseudo edges.
///
/// Exactness contract: a materialized schedule is one of the
/// precomputed lattice schedules (bit-identical to recomputing at the
/// lattice point), except when interpolation blends speeds. Blending is
/// feasibility-safe: for equal mappings the scheduled DAG and comm
/// times coincide, scaled time w/σ is convex in σ, so every path delay
/// under the blended speed vector is bounded by the larger of the two
/// entries' path delays — a blend of two deadline-feasible schedules
/// stays deadline-feasible. Platform::QuantizeSpeed then rounds each
/// blended speed *up* to the PE's discrete level, which only shortens
/// paths.
///
/// Cost model: the lattice is exponential in the number of forks
/// (count = Π_f C(points_per_fork - 1 + k_f - 1, k_f - 1));
/// construction throws when it would exceed max_entries. Table mode is
/// for small fork counts — exactly the CTGs of the paper.

#ifndef ACTG_DVFS_SCHEDULE_TABLE_H
#define ACTG_DVFS_SCHEDULE_TABLE_H

#include <cstddef>
#include <vector>

#include "arch/platform.h"
#include "ctg/activation.h"
#include "ctg/condition.h"
#include "ctg/graph.h"
#include "dvfs/policy.h"
#include "dvfs/stretch.h"
#include "sched/dls.h"
#include "sched/schedule.h"
#include "util/error.h"

namespace actg::dvfs {

/// Construction knobs of a ScheduleTable.
struct ScheduleTableOptions {
  /// Lattice resolution: points per simplex axis (a 2-outcome fork gets
  /// probabilities {0, 1/(R-1), ..., 1}). Must be >= 2.
  std::size_t points_per_fork = 5;
  /// Hard cap on lattice size; construction throws when the fork
  /// structure would enumerate more entries.
  std::size_t max_entries = 4096;
  /// Scheduler configuration used for every lattice point.
  sched::DlsOptions dls;
  /// Stretch policy run at every lattice point.
  StretchPolicy policy = StretchPolicy::kOnline;

  /// Ok when the knobs are usable.
  util::Error Validate() const;
};

/// One lattice point and its precomputed result.
struct ScheduleTableEntry {
  /// The lattice probabilities (covering every fork).
  ctg::BranchProbabilities probs;
  /// The same, flattened in topological fork order (distance queries).
  std::vector<double> flat;
  sched::Schedule schedule;
  StretchStats stretch;
};

/// A materialized run-time selection.
struct MaterializedSchedule {
  sched::Schedule schedule;
  StretchStats stretch;
  /// Index of the nearest lattice entry the schedule derives from.
  std::size_t entry_index = 0;
  /// True when the speed vector was blended with a second entry.
  bool interpolated = false;
};

/// Immutable precomputed table bound to one (graph, analysis,
/// platform); those must outlive the table and every schedule it
/// returns. Construction runs one full DLS + stretch per lattice point;
/// all later queries are lookups. Thread-safe after construction
/// (const methods only read).
class ScheduleTable {
 public:
  ScheduleTable(const ctg::Ctg& graph,
                const ctg::ActivationAnalysis& analysis,
                const arch::Platform& platform,
                ScheduleTableOptions options = {});

  std::size_t size() const { return entries_.size(); }
  const ScheduleTableEntry& entry(std::size_t i) const {
    return entries_.at(i);
  }
  const ScheduleTableOptions& options() const { return options_; }

  /// Index of the lattice entry nearest to \p probs (max-abs distance
  /// over the flattened vector; ties resolve to the lowest index, so
  /// selection is deterministic).
  std::size_t Select(const ctg::BranchProbabilities& probs) const;

  /// The schedule for \p probs: the nearest entry's, with the speed
  /// vector interpolated toward the second-nearest compatible entry
  /// when there is one (see file comment for the feasibility argument).
  MaterializedSchedule Materialize(
      const ctg::BranchProbabilities& probs) const;

 private:
  double Distance(const ctg::BranchProbabilities& probs,
                  const ScheduleTableEntry& entry) const;

  const ctg::Ctg* graph_;
  const arch::Platform* platform_;
  ScheduleTableOptions options_;
  std::vector<ScheduleTableEntry> entries_;
};

}  // namespace actg::dvfs

#endif  // ACTG_DVFS_SCHEDULE_TABLE_H
