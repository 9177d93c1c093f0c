/// \file quickstart.cpp
/// End-to-end tour of the library on the paper's Figure 1 example CTG:
/// build the graph, analyze activation conditions, schedule with the
/// modified DLS, stretch with the online DVFS heuristic, and execute a
/// few instances.
///
///   ./quickstart

#include <iostream>

#include "apps/fig1_example.h"
#include "ctg/activation.h"
#include "ctg/dot.h"
#include "dvfs/policy.h"
#include "sched/dls.h"
#include "sim/energy.h"
#include "sim/executor.h"
#include "util/table.h"

int main() {
  using namespace actg;

  // 1. The application model: the paper's Figure 1 CTG (8 tasks, two
  //    branch forks a and b, an or-node τ8) on a 2-PE platform.
  apps::Fig1Example example = apps::MakeFig1Example();
  const ctg::Ctg& graph = example.graph;

  std::cout << "CTG: " << graph.task_count() << " tasks, "
            << graph.edge_count() << " edges, "
            << graph.ForkIds().size() << " branch forks, deadline "
            << graph.deadline_ms() << " ms\n\n";

  // 2. Activation analysis: X(τ), Γ(τ), mutual exclusion, scenarios.
  const ctg::ActivationAnalysis analysis(graph);
  const auto name = [&](TaskId t) { return graph.TaskName(t); };
  std::cout << "Activation conditions X(tau):\n";
  for (TaskId t : graph.TaskIds()) {
    std::cout << "  " << graph.TaskName(t) << ": "
              << analysis.ActivationGuard(t).ToString(name)
              << "  (P = "
              << analysis.ActivationProbability(t, example.probs)
              << ")\n";
  }
  std::cout << "tau4 and tau5 mutually exclusive: "
            << (analysis.MutuallyExclusive(example.tau(4), example.tau(5))
                    ? "yes"
                    : "no")
            << "\n\n";

  // 3. Scheduling: modified dynamic-level scheduling (probability-
  //    weighted static levels, mutual-exclusion-aware PE sharing).
  sched::Schedule schedule = sched::RunDls(graph, analysis,
                                           example.platform, example.probs);
  std::cout << "Nominal schedule: makespan " << schedule.Makespan()
            << " ms, expected energy "
            << sim::ExpectedEnergy(schedule, example.probs) << " mJ\n";

  // 4. DVFS: the paper's online task stretching heuristic.
  const dvfs::StretchStats stats =
      dvfs::Stretch(dvfs::StretchPolicy::kOnline, schedule, example.probs);
  std::cout << "After stretching (" << stats.path_count
            << " paths analyzed): worst path delay "
            << stats.max_path_delay_ms << " ms vs deadline "
            << graph.deadline_ms() << " ms, expected energy "
            << sim::ExpectedEnergy(schedule, example.probs) << " mJ\n\n";

  util::TablePrinter table({"task", "PE", "start", "finish", "speed"});
  for (TaskId t : graph.TaskIds()) {
    const auto& p = schedule.placement(t);
    table.BeginRow()
        .Cell(graph.TaskName(t))
        .Cell(example.platform.pe(p.pe).name)
        .Cell(p.start_ms, 2)
        .Cell(p.finish_ms, 2)
        .Cell(p.speed_ratio, 2);
  }
  table.Print(std::cout);

  // 5. Execute concrete instances: each branch decision vector activates
  //    a different task subset.
  std::cout << "\nPer-scenario execution:\n";
  for (const ctg::Scenario& scenario :
       analysis.EnumerateScenarios(example.probs)) {
    const auto assignment =
        sim::AssignmentFromScenario(graph, scenario.assignment);
    const sim::InstanceResult r =
        sim::ExecuteInstance(schedule, assignment);
    std::cout << "  scenario " << scenario.assignment.ToString(name)
              << " (P = " << scenario.probability << "): "
              << r.active_tasks << " tasks, " << r.energy_mj << " mJ, "
              << r.makespan_ms << " ms, deadline "
              << (r.deadline_met ? "met" : "MISSED") << "\n";
  }

  std::cout << "\nGraphviz of the CTG (pipe into `dot -Tpng`):\n\n";
  ctg::WriteDot(std::cout, graph);
  return 0;
}
