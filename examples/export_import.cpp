/// \file export_import.cpp
/// Shows the tooling side of the library: save a generated CTG and its
/// platform to the text format, reload them, schedule, and render the
/// schedule as a text Gantt chart — including how mutually exclusive
/// branch tasks share one PE's time window.
///
///   ./export_import [out_prefix]

#include <fstream>
#include <iostream>
#include <sstream>

#include "apps/common.h"
#include "ctg/activation.h"
#include "dvfs/policy.h"
#include "io/text_format.h"
#include "sched/dls.h"
#include "sched/gantt.h"
#include "sim/energy.h"
#include "tgff/random_ctg.h"

int main(int argc, char** argv) {
  using namespace actg;
  const std::string prefix = argc > 1 ? argv[1] : "exported";

  // Generate a case and persist it.
  tgff::RandomCtgParams params;
  params.task_count = 16;
  params.fork_count = 2;
  params.pe_count = 2;
  params.seed = 77;
  tgff::RandomCase rc = tgff::MakeRandomCtg(params).value();
  apps::AssignDeadline(rc.graph, rc.platform, 1.5);

  const std::string graph_file = prefix + "_ctg.txt";
  const std::string platform_file = prefix + "_platform.txt";
  {
    std::ofstream graph_out(graph_file);
    io::WriteCtg(graph_out, rc.graph);
    std::ofstream platform_out(platform_file);
    io::WritePlatform(platform_out, rc.platform);
  }
  std::cout << "Wrote " << graph_file << " and " << platform_file
            << "\n";

  // Reload and run the full pipeline on the reloaded objects.
  std::ifstream graph_in(graph_file);
  const ctg::Ctg graph = io::ParseCtg(graph_in).value();
  std::ifstream platform_in(platform_file);
  const arch::Platform platform = io::ParsePlatform(platform_in).value();

  const ctg::ActivationAnalysis analysis(graph);
  const auto probs = apps::UniformProbabilities(graph);
  sched::Schedule schedule = sched::RunDls(graph, analysis, platform, probs);
  dvfs::Stretch(dvfs::StretchPolicy::kOnline, schedule, probs);
  schedule.Validate();

  std::cout << "Reloaded pipeline: " << graph.task_count() << " tasks, "
            << "makespan " << schedule.Makespan() << " ms (deadline "
            << graph.deadline_ms() << " ms), expected energy "
            << sim::ExpectedEnergy(schedule, probs) << " mJ\n\n";
  sched::WriteGantt(std::cout, schedule);
  std::cout << "\nRows sharing a PE prefix hold mutually exclusive "
               "tasks that occupy the same window (paper Section "
               "III.A).\n";
  return 0;
}
