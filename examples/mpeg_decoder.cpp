/// \file mpeg_decoder.cpp
/// Domain example: adaptive scheduling of the MPEG macroblock-decoder
/// CTG (40 tasks, 9 branch forks, 3 PEs — paper Fig. 3). Decodes a
/// synthetic movie and shows the adaptive controller re-scheduling as
/// the stream's branch statistics drift.
///
///   ./mpeg_decoder [movie-index 0..7] [macroblocks]

#include <cstdlib>
#include <iostream>

#include "adaptive/controller.h"
#include "apps/mpeg.h"
#include "ctg/activation.h"
#include "dvfs/policy.h"
#include "sched/dls.h"
#include "sim/executor.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace actg;

  const int movie_index =
      argc > 1 ? std::atoi(argv[1]) : 5;  // default: Shuttle
  const std::size_t macroblocks =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 2000;

  const apps::MpegModel model = apps::MakeMpegModel();
  const ctg::ActivationAnalysis analysis(model.graph);
  const auto movies = apps::MpegMovieProfiles();
  if (movie_index < 0 ||
      movie_index >= static_cast<int>(movies.size())) {
    std::cerr << "movie index must be 0.." << movies.size() - 1 << "\n";
    return 1;
  }
  const apps::MovieProfile& movie =
      movies[static_cast<std::size_t>(movie_index)];

  std::cout << "Decoding " << macroblocks << " macroblocks of '"
            << movie.name << "' on " << model.platform.pe_count()
            << " PEs (deadline " << model.graph.deadline_ms()
            << " ms per macroblock)\n\n";

  const trace::BranchTrace full =
      apps::GenerateMovieTrace(model, movie, macroblocks);
  const std::size_t half = macroblocks / 2;
  const trace::BranchTrace training = full.Slice(0, half);
  const trace::BranchTrace testing = full.Slice(half, macroblocks);

  // Profile the training half, like the paper's protocol.
  const ctg::BranchProbabilities profile =
      training.ProfiledProbabilities(model.graph);
  std::cout << "Training profile: P(skipped) = "
            << 1.0 - profile.Outcome(model.fork_skipped, 0)
            << ", P(intra | decoded) = "
            << profile.Outcome(model.fork_type, 0) << "\n\n";

  // Non-adaptive decoding of the test half.
  sched::Schedule online =
      sched::RunDls(model.graph, analysis, model.platform, profile);
  dvfs::Stretch(dvfs::StretchPolicy::kOnline, online, profile);
  const sim::RunSummary non_adaptive = sim::RunTrace(online, testing);

  // Adaptive decoding with both of the paper's thresholds.
  util::TablePrinter table({"configuration", "avg energy (mJ/MB)",
                            "re-schedules", "deadline misses"});
  table.BeginRow()
      .Cell("non-adaptive (trained profile)")
      .Cell(non_adaptive.AverageEnergy(), 3)
      .Cell(0)
      .Cell(non_adaptive.deadline_misses);
  for (double threshold : {0.5, 0.1}) {
    adaptive::AdaptiveOptions options;
    options.window_length = 20;
    options.threshold = threshold;
    adaptive::AdaptiveController controller(model.graph, analysis,
                                            model.platform, profile,
                                            options);
    const sim::RunSummary run = adaptive::RunAdaptive(controller, testing);
    table.BeginRow()
        .Cell("adaptive T=" + util::TablePrinter::Format(threshold, 1))
        .Cell(run.AverageEnergy(), 3)
        .Cell(controller.reschedule_count())
        .Cell(run.deadline_misses);
  }
  table.Print(std::cout);

  std::cout << "\nLower thresholds follow the stream statistics more "
               "closely at the cost of more scheduler invocations "
               "(paper Fig. 5 / Table 2).\n";
  return 0;
}
